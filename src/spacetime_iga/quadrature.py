"""Gauss-Legendre quadrature on the unit interval.

The element loop scales the rule to each knot span and tensorizes it;
the physical Jacobian factor is applied there too.  An ``n``-point univariate rule is exact for
polynomials of degree ``2n - 1``, so ``p + 1`` points per direction
integrate the stiffness integrands of degree-``p`` splines on affine
geometry exactly.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ['gauss_1d']

_MAX_POINTS = 16


@lru_cache(maxsize=_MAX_POINTS)
def gauss_1d(n: int):
    """Nodes and positive weights ``(n,)`` of the ``n``-point Gauss-Legendre
    rule on the unit interval, computed once per ``n`` and kept read-only."""
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f'point count must be in [1, {_MAX_POINTS}], got {n}')
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
