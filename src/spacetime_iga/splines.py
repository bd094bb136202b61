"""Univariate B-spline basics on open knot vectors.

Everything downstream (tensor-product spaces, geometry maps, assembly)
is built from the three primitives in this module: span location,
simultaneous evaluation of the non-vanishing basis functions with their
first two derivatives, and uniform knot refinement.  Span location and
evaluation take an array of points of any shape, so one call tabulates
every quadrature node of a level.

Knot vectors are open: the first and last knots are repeated exactly
``degree + 1`` times, so the basis is interpolatory at both ends of the
parameter interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    'KnotVector',
    'single_span',
    'find_span',
    'eval_basis',
    'refine_uniform',
]


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector over the unit interval.

    Parameters
    ----------
    knots : np.ndarray
        Non-decreasing knots with ``knots[0] == 0.0`` and
        ``knots[-1] == 1.0``, the boundary knots repeated exactly
        ``degree + 1`` times.
    degree : int
        Polynomial degree ``p >= 1``.

    Notes
    -----
    The number of basis functions is ``n = len(knots) - degree - 1``.
    Interior knots may be repeated, but no multiplicity may exceed
    ``degree + 1``.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.ascontiguousarray(np.asarray(self.knots, dtype=float))
        object.__setattr__(self, 'knots', knots)
        p = self.degree
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f'degree must be a positive integer, got {self.degree}')
        if knots.ndim != 1 or knots.size < 2 * (p + 1):
            raise ValueError(f'need at least {2 * (p + 1)} knots for degree {p}, got {knots.size}')
        if not np.all(np.isfinite(knots)):
            raise ValueError(f'knots must be finite, got {knots[~np.isfinite(knots)][0]}')
        if np.any(np.diff(knots) < 0.0):
            raise ValueError('knots must be non-decreasing')
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError(f'knot vector must span [0, 1], got [{knots[0]}, {knots[-1]}]')
        if np.count_nonzero(knots == 0.0) != p + 1 or np.count_nonzero(knots == 1.0) != p + 1:
            raise ValueError(f'boundary knots must be repeated exactly {p + 1} times (open knot vector)')
        _, counts = np.unique(knots, return_counts=True)
        if np.any(counts > p + 1):
            raise ValueError(f'knot multiplicity exceeds {p + 1}')

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return self.knots.size - self.degree - 1

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knots (element boundaries), increasing."""
        return np.unique(self.knots)

    @property
    def spans(self) -> np.ndarray:
        """Non-empty knot spans as an ``(n_spans, 2)`` array of ``(a, b)``."""
        b = self.breakpoints
        return np.column_stack((b[:-1], b[1:]))

    def greville(self) -> np.ndarray:
        """Greville abscissae, one per basis function."""
        p = self.degree
        return np.array([self.knots[i + 1:i + p + 1].mean() for i in range(self.n)])


def single_span(degree: int) -> KnotVector:
    """Knot vector of the single-element (Bernstein) space of a given degree."""
    return KnotVector(np.repeat([0.0, 1.0], degree + 1), degree)


def find_span(kv: KnotVector, xi) -> np.ndarray:
    """Locate the knot span containing each point of ``xi`` (any shape).

    Returns the indices ``s`` with ``knots[s] <= xi < knots[s + 1]``, shaped
    like ``xi``; at the right endpoint ``xi == 1`` the last non-empty span
    is returned, so evaluation at the endpoint uses the limit from the left.
    """
    xi = np.asarray(xi, dtype=float)
    inside = (xi >= 0.0) & (xi <= 1.0)
    if not np.all(inside):
        raise ValueError(f'parameter {xi[~inside].flat[0]} outside [0, 1]')
    s = np.searchsorted(kv.knots, xi, side='right') - 1
    return np.clip(s, kv.degree, kv.n - 1)


def eval_basis(kv: KnotVector, xi):
    """Evaluate the ``degree + 1`` basis functions that are non-zero at each point.

    Uses the Cox-de Boor recursion in its triangular-table form, followed
    by the knot-difference recursion for derivatives, run over a trailing
    axis of points; any division by a zero knot difference is defined as
    zero and never reached because only non-empty spans are visited.

    Parameters
    ----------
    kv : KnotVector
    xi : array_like
        Evaluation points in ``[0, 1]``, any shape.

    Returns
    -------
    (first, ders)
        ``first`` (shape of ``xi``) is the global index of the first
        non-zero function at each point, and ``ders`` (shape
        ``xi.shape + (3, degree + 1)``, C-contiguous) holds the values and
        the first and second derivatives of functions ``first, ...,
        first + degree``.  Derivative rows above the degree are zero.
    """
    xi = np.asarray(xi, dtype=float)
    span = find_span(kv, xi).ravel()
    x = xi.ravel()
    p = kv.degree
    U = kv.knots
    nd = min(2, p)

    # Triangular table: ndu[j, r] holds basis values on the upper triangle
    # and knot differences on the lower one.
    ndu = np.empty((p + 1, p + 1, x.size))
    left = np.empty((p, x.size))
    right = np.empty((p, x.size))
    ndu[0, 0] = 1.0
    for j in range(p):
        left[j] = x - U[span - j]
        right[j] = U[span + 1 + j] - x
        saved = 0.0
        for r in range(j + 1):
            ndu[j + 1, r] = right[r] + left[j - r]
            temp = ndu[r, j] / ndu[j + 1, r]
            ndu[r, j + 1] = saved + right[r] * temp
            saved = left[j - r] * temp
        ndu[j + 1, j + 1] = saved

    # points first, so the table is C-contiguous: the batched kernels run
    # other (and not bit-identical) matmul paths on strided input
    ders = np.zeros((x.size, 3, p + 1))
    ders[:, 0, :] = ndu[:, p].T

    a = np.empty((2, p + 1, x.size))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[:, k, r] = d
            s1, s2 = s2, s1
    fact = float(p)
    for k in range(1, nd + 1):
        ders[:, k, :] *= fact
        fact *= p - k

    return (span - p).reshape(xi.shape), ders.reshape(xi.shape + (3, p + 1))


def refine_uniform(kv: KnotVector) -> KnotVector:
    """Insert the midpoint of every non-empty span once.

    The refined vector keeps the original degree and knots, so the coarse
    space is nested in the refined one; the number of basis functions
    grows by the number of spans.
    """
    b = kv.breakpoints
    mids = 0.5 * (b[:-1] + b[1:])
    return KnotVector(np.sort(np.concatenate((kv.knots, mids))), kv.degree)
