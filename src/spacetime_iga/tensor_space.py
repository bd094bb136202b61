"""Tensor-product spline/NURBS spaces on the parameter cube.

A space over the ``dim``-cube is the product of ``dim`` univariate
B-spline spaces, optionally weighted to form a NURBS basis.  The last
parameter direction always plays the role of time; directions are
indexed from zero, and flattened multi-indices run with direction 0
fastest, so ``flat = i0 + n0 * (i1 + n1 * i2)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .splines import KnotVector, eval_basis

__all__ = [
    'DiscreteSpace',
    'DofMap',
    'point_rows',
    'tensor_basis',
    'classify_dirichlet',
]


@dataclass(frozen=True)
class DiscreteSpace:
    """Tensor-product discrete space, B-spline or NURBS.

    Parameters
    ----------
    knot_vectors : tuple[KnotVector, ...]
        One univariate factor per parameter direction; the last one is
        the time direction.
    weights : np.ndarray or None
        Flat array of positive NURBS weights in lexicographic dof order
        (direction 0 fastest), or None for a plain B-spline space.
    """

    knot_vectors: tuple
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, 'knot_vectors', tuple(self.knot_vectors))
        if self.ndim < 2:
            raise ValueError('space-time spaces need at least two directions')
        if self.weights is not None:
            w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
            if w.shape != (self.dim,):
                raise ValueError(f'weights must have shape ({self.dim},), got {w.shape}')
            if np.any(w <= 0.0):
                raise ValueError('NURBS weights must be positive')
            object.__setattr__(self, 'weights', w)

    @property
    def ndim(self) -> int:
        """Number of parameter directions (spatial dimension + 1)."""
        return len(self.knot_vectors)

    @property
    def dims(self) -> tuple:
        """Per-direction basis counts ``(n_0, ..., n_{dim-1})``."""
        return tuple(kv.n for kv in self.knot_vectors)

    @property
    def dim(self) -> int:
        """Total number of basis functions."""
        return int(np.prod(self.dims))

    @property
    def degrees(self) -> tuple:
        return tuple(kv.degree for kv in self.knot_vectors)

    @property
    def strides(self) -> tuple:
        s, out = 1, []
        for n in self.dims:
            out.append(s)
            s *= n
        return tuple(out)


@dataclass(frozen=True)
class DofMap:
    """Partition of the dofs of a space into Dirichlet and free sets.

    ``dirichlet_mask`` flags the boundary-condition carriers and ``free``
    lists the remaining flat indices in increasing order.
    """

    dirichlet_mask: np.ndarray
    free: np.ndarray


def point_rows(space: DiscreteSpace, xi, max_deriv: int):
    """Univariate rows of every direction at the single point ``xi``.

    Returns ``(rows, firsts)`` in the form :func:`tensor_basis` takes, a
    block of one element with one point: ``rows[a]`` has shape
    ``(1, 1, 3, p_a + 1)`` and ``firsts[a]`` shape ``(1,)``.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (space.ndim,):
        raise ValueError(f'expected point of length {space.ndim}, got shape {xi.shape}')
    evals = [eval_basis(kv, x, max_deriv) for kv, x in zip(space.knot_vectors, xi)]
    rows = [np.stack((r.values, r.first_derivs, r.second_derivs))[None, None] for r in evals]
    return rows, [np.array([r.first_active]) for r in evals]


def _outer2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    E, q0, m0 = a.shape
    _, q1, m1 = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(E, q0 * q1, m0 * m1)


def _combine(rows, sig) -> np.ndarray:
    out = rows[0][:, :, sig[0], :]
    for a in range(1, len(rows)):
        out = _outer2(out, rows[a][:, :, sig[a], :])
    return out


def _rationalize(val, grad, hess, w_act):
    bw = val * w_act[:, None, :]
    W = bw.sum(axis=2, keepdims=True)
    R = bw / W
    Rg = Rh = None
    if grad is not None:
        gw = grad * w_act[:, None, :, None]
        Wg = gw.sum(axis=2, keepdims=True)
        Rg = (gw - R[..., None] * Wg) / W[..., None]
    if hess is not None:
        hw = hess * w_act[:, None, :, None, None]
        Wh = hw.sum(axis=2, keepdims=True)
        Rh = (hw
              - Rg[..., :, None] * Wg[..., None, :]
              - Rg[..., None, :] * Wg[..., :, None]
              - R[..., None, None] * Wh) / W[..., None, None]
    return R, Rg, Rh


def tensor_basis(space: DiscreteSpace, rows, firsts, need: int):
    """Active dofs and basis blocks of ``E`` elements at tensor grids of points.

    ``rows[a]`` holds the univariate values and first and second
    derivatives ``(E, q_a, 3, p_a + 1)`` of direction ``a`` at ``q_a``
    points per element, and ``firsts[a]`` ``(E,)`` their first active
    indices.  The grid of ``q = prod q_a`` points and the ``m`` active
    functions both run with direction 0 slowest.  Returns
    ``(active, val, grad, hess)`` with shapes ``(E, m)``, ``(E, q, m)``,
    ``(E, q, m, dim)`` and ``(E, q, m, dim, dim)`` in parameter space;
    derivatives above ``need`` (0, 1 or 2) are None.  For NURBS spaces
    the quotient rule is applied through second order.
    """
    nd = space.ndim
    active = np.zeros((len(firsts[0]), 1), dtype=np.int64)
    for f, p, s in zip(firsts, space.degrees, space.strides):
        idx = (np.asarray(f, dtype=np.int64)[:, None] + np.arange(p + 1)) * s
        active = (active[:, :, None] + idx[:, None, :]).reshape(active.shape[0], -1)
    val = _combine(rows, (0,) * nd)
    E, q, m = val.shape
    grad = hess = None
    if need >= 1:
        grad = np.empty((E, q, m, nd))
        for a in range(nd):
            sig = [0] * nd
            sig[a] = 1
            grad[..., a] = _combine(rows, sig)
    if need >= 2:
        hess = np.empty((E, q, m, nd, nd))
        for a in range(nd):
            for b in range(a, nd):
                sig = [0] * nd
                sig[a] += 1
                sig[b] += 1
                hess[..., a, b] = hess[..., b, a] = _combine(rows, sig)
    if space.weights is not None:
        val, grad, hess = _rationalize(val, grad, hess, space.weights[active])
    return active, val, grad, hess


def classify_dirichlet(space: DiscreteSpace) -> DofMap:
    """Split dofs into Dirichlet carriers and true unknowns.

    A dof is a Dirichlet carrier when its multi-index touches the lateral
    boundary in any spatial direction or the initial face in time; the
    terminal face stays free.  With open knot vectors this is exactly the
    set of basis functions with a non-zero trace on the parabolic
    boundary of the cube.
    """
    dims = space.dims
    if any(n < 2 for n in dims):
        raise ValueError(f'need at least two basis functions per direction, got dims {dims}')
    nd = space.ndim
    mask_nd = np.zeros(dims[::-1], dtype=bool)  # axes ordered slowest first
    for a in range(nd - 1):  # spatial directions: both ends
        axis = nd - 1 - a
        sl = [slice(None)] * nd
        sl[axis] = 0
        mask_nd[tuple(sl)] = True
        sl[axis] = dims[a] - 1
        mask_nd[tuple(sl)] = True
    sl = [slice(None)] * nd  # time direction: initial face only
    sl[0] = 0
    mask_nd[tuple(sl)] = True

    # axes are (slowest ... fastest); flat order wants direction 0 fastest
    dirichlet_mask = mask_nd.ravel(order='C')
    return DofMap(dirichlet_mask, np.flatnonzero(~dirichlet_mask))
