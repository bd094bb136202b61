"""Tensor-product spline/NURBS spaces on the parameter cube.

A space over the ``dim``-cube is the product of ``dim`` univariate
B-spline spaces, optionally weighted to form a NURBS basis.  The last
parameter direction always plays the role of time; directions are
indexed from zero, and flattened multi-indices run with direction 0
fastest, so ``flat = i0 + n0 * (i1 + n1 * i2)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    'DiscreteSpace',
    'DofMap',
    'tensor_basis',
    'dirichlet_faces',
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
    # the level's span rules and basis tables (``_batch._memo``), freed with the space
    _univariate: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, 'knot_vectors', tuple(self.knot_vectors))
        if self.ndim < 2:
            raise ValueError('space-time spaces need at least two directions')
        if self.weights is not None:
            w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
            if w.shape != (self.dim,):
                raise ValueError(f'weights must have shape ({self.dim},), got {w.shape}')
            if not np.all(np.isfinite(w) & (w > 0.0)):
                raise ValueError('NURBS weights must be positive and finite')
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
    def h_hat(self) -> float:
        """Global knot-mesh size: the largest parameter-cell diameter.

        This is the ``h`` the stabilized forms and discrete norms are
        scaled with (:class:`assembly.SchemeParams`).
        """
        return float(np.sqrt(sum((np.diff(kv.breakpoints) ** 2).max()
                                 for kv in self.knot_vectors)))

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


def _outer2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    E, q0, m0 = a.shape
    _, q1, m1 = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(E, q0 * q1, m0 * m1)


def _combine(rows, sig) -> np.ndarray:
    out = rows[0][:, :, sig[0], :]
    for a in range(1, len(rows)):
        out = _outer2(out, rows[a][:, :, sig[a], :])
    return out


def _quotient(num, den, axis=None):
    """The quotient rule through second order: value, gradient and Hessian of ``a / W`` from
    ``num = (a, a', a'')`` and ``den = (W, W', W'')``, broadcasting, with the derivative axes
    last or, for points-last grid fields, from ``axis`` on; a derivative that is None in
    ``num`` is None in the result."""
    (a, ag, ah), (W, Wg, Wh) = num, den
    at = a.ndim if axis is None else axis

    def e(x, *offsets):   # ``x`` with new derivative axes at ``offsets`` past ``at``
        return np.expand_dims(x, tuple(at + k for k in offsets))
    r = a / W
    rg = rh = None
    if ag is not None:
        rg = (ag - e(r, 0) * Wg) / e(W, 0)
    if ah is not None:
        rh = (ah
              - e(rg, 1) * e(Wg, 0)
              - e(rg, 0) * e(Wg, 1)
              - e(r, 0, 1) * Wh) / e(W, 0, 1)
    return r, rg, rh


def active_dofs(space: DiscreteSpace, firsts) -> np.ndarray:
    """Flat indices ``(E, m)`` of the functions active on ``E`` elements.

    ``firsts[a]`` ``(E,)`` holds the first active univariate index of
    direction ``a``; the ``m = prod (p_a + 1)`` functions run with
    direction 0 slowest.
    """
    active = np.zeros((len(firsts[0]), 1), dtype=np.int64)
    for f, p, s in zip(firsts, space.degrees, space.strides):
        idx = (np.asarray(f, dtype=np.int64)[:, None] + np.arange(p + 1)) * s
        active = (active[:, :, None] + idx[:, None, :]).reshape(active.shape[0], -1)
    return active


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
    active = active_dofs(space, firsts)
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
        w = space.weights[active][:, None, :]
        num = [d if d is None else d * w.reshape(w.shape + (1,) * k)
               for k, d in enumerate((val, grad, hess))]
        val, grad, hess = _quotient(num, [d if d is None else d.sum(axis=2, keepdims=True)
                                          for d in num])
    return active, val, grad, hess


def dirichlet_faces(ndim: int) -> list:
    """The faces ``(direction, side)`` of the parameter cube that carry Dirichlet data.

    Both ends (``side`` 0 and 1) of every spatial direction, then the
    initial face ``t = 0`` of the time direction ``ndim - 1``; the
    terminal face stays free.
    """
    return [(a, side) for a in range(ndim - 1) for side in (0, 1)] + [(ndim - 1, 0)]


def classify_dirichlet(space: DiscreteSpace) -> DofMap:
    """Split dofs into Dirichlet carriers and true unknowns.

    A dof is a Dirichlet carrier when its multi-index touches one of the
    :func:`dirichlet_faces`: the lateral boundary in any spatial direction
    or the initial face in time.  With open knot vectors this is exactly
    the set of basis functions with a non-zero trace on the parabolic
    boundary of the cube.
    """
    dims = space.dims
    if any(n < 2 for n in dims):
        raise ValueError(f'need at least two basis functions per direction, got dims {dims}')
    nd = space.ndim
    mask_nd = np.zeros(dims[::-1], dtype=bool)  # axes ordered slowest first
    for a, side in dirichlet_faces(nd):
        sl = [slice(None)] * nd
        sl[nd - 1 - a] = side * (dims[a] - 1)
        mask_nd[tuple(sl)] = True

    # axes are (slowest ... fastest); flat order wants direction 0 fastest
    dirichlet_mask = mask_nd.ravel(order='C')
    return DofMap(dirichlet_mask, np.flatnonzero(~dirichlet_mask))
