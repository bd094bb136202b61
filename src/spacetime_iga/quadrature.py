"""Gauss-Legendre quadrature on the unit interval.

The element loop scales the rule to each knot span and tensorizes it;
the physical Jacobian factor is applied there too.  An ``n``-point univariate rule is exact for
polynomials of degree ``2n - 1``, so ``p + 1`` points per direction
integrate the stiffness integrands of degree-``p`` splines on affine
geometry exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ['QuadratureRule', 'gauss_1d']

_MAX_POINTS = 16


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes ``(nq, dim)`` and positive weights ``(nq,)`` in parameter space."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_1d(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` points on the unit interval."""
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f'point count must be in [1, {_MAX_POINTS}], got {n}')
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (x[:, None] + 1.0), 0.5 * w)
