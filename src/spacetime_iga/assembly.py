"""Assembly of the stabilized space-time Galerkin forms.

Two discrete bilinear forms are provided.  On fixed spatial domains

    a_h(u, v) = int_Q  dt(u) v + theta*h dt(u) dt(v)
              + grad_x(u).grad_x(v) + theta*h grad_x(u).grad_x(dt(v)),

and on moving domains the variant with the time derivative moved onto
the trial function's spatial gradient,

    b_h(u, v) = int_Q  dt(u) v + theta*h dt(u) dt(v)
              + grad_x(u).grad_x(v) - theta*h dt(grad_x(u)).grad_x(v)
              + theta*h int_{Sigma_T} grad_x(u).grad_x(v) ds,

both tested against v + theta*h dt(v) on the right-hand side.  The global
mesh size h enters the stabilization uniformly; matrices are returned
over the full dof set and reduced by :func:`apply_dirichlet`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._batch import ElementBatcher, at_points
from .geometry import GeometryMap
from .tensor_space import DiscreteSpace, DofMap

__all__ = [
    'SchemeParams',
    'ManufacturedCase',
    'LinearSystem',
    'NormMatrices',
    'StabilityWarning',
    'assemble_fixed',
    'assemble_moving',
    'assemble_norm_matrices',
    'boundary_l2_project',
    'apply_dirichlet',
]


class StabilityWarning(UserWarning):
    """The stabilization parameter may violate the moving-domain coercivity bound."""


@dataclass(frozen=True)
class SchemeParams:
    """Stabilization parameter ``theta`` and global mesh size ``h``.

    ``h`` is the knot-mesh size of the parameter domain
    (:attr:`PhysicalMesh.h_hat`); it scales the upwind terms and the
    discrete norms uniformly.  ``theta_bound``, when supplied, is the
    estimated admissible upper bound ``1 / (2 C_inv C_u)`` for the
    moving-domain form; assembling with ``theta >= theta_bound`` emits
    a :class:`StabilityWarning`.
    """

    theta: float
    h: float
    theta_bound: float | None = None

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError(f'theta must be positive, got {self.theta}')
        if not self.h > 0.0:
            raise ValueError(f'mesh size must be positive, got {self.h}')


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution data of a model problem dt(u) - Lap(u) = f.

    All callables take physical points as an ``(n, d+1)`` array (spatial
    coordinates first, time last) and return ``(n,)`` arrays, except
    ``grad_u`` which returns ``(n, d)``.  ``u`` doubles as the Dirichlet
    and initial datum.
    """

    name: str
    d: int
    moving: bool
    u: object
    u_t: object
    grad_u: object
    f: object


@dataclass(frozen=True)
class LinearSystem:
    """Sparse system ``matrix @ x = rhs``.

    As assembled, the system ranges over all dofs and ``free`` is None.
    After :func:`apply_dirichlet` it ranges over the free dofs listed in
    ``free``, and ``dirichlet_values`` holds the full-length lifting
    vector (boundary coefficients on Dirichlet dofs, zero elsewhere).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_values: np.ndarray | None = None
    free: np.ndarray | None = None


@dataclass(frozen=True)
class NormMatrices:
    """Gram matrices of the discrete norms over the full dof set.

    ``n_fixed`` induces ``|||v|||_h^2``, ``n_moving`` adds the
    ``theta*h``-weighted spatial-gradient face term for the moving-domain
    norm, and ``face_gradient`` is that face matrix alone.
    """

    n_fixed: sp.csr_matrix
    n_moving: sp.csr_matrix
    face_gradient: sp.csr_matrix


class _Accumulator:
    """COO triplets of blocks of local matrices, merged into CSR in bounded chunks.

    Triplets are kept in element order, each local matrix row by row, and
    scipy sums the duplicates of a chunk when it converts it to CSR.  That
    fixes the order of every floating-point sum and with it the last bits
    of the matrix, which the direct solve amplifies: at level 6 of the d = 1
    regression sweeps, summing in element order onto a precomputed pattern
    moved the L2 error by up to 5.7e-10 relative.
    """

    def __init__(self, n: int, flush_at: int = 4_000_000):
        self.n = n
        self.flush_at = flush_at
        self._rows, self._cols, self._vals = [], [], []
        self._pending = 0
        self._acc = None

    def add(self, dofs: np.ndarray, local: np.ndarray):
        """Add the local matrices ``(E, m, m)`` of the elements with ``dofs`` ``(E, m)``."""
        E, m = dofs.shape
        dofs = dofs.astype(np.int32 if self.n < 2**31 else np.int64)
        self._rows.append(np.repeat(dofs, m, axis=1).ravel())
        self._cols.append(np.tile(dofs, (1, m)).ravel())
        self._vals.append(local.ravel())
        self._pending += E * m * m
        if self._pending >= self.flush_at:
            self._merge()

    def _merge(self):
        if not self._rows:
            return
        chunk = sp.coo_matrix(
            (np.concatenate(self._vals),
             (np.concatenate(self._rows), np.concatenate(self._cols))),
            shape=(self.n, self.n)).tocsr()
        self._acc = chunk if self._acc is None else self._acc + chunk
        self._rows, self._cols, self._vals = [], [], []
        self._pending = 0

    def result(self) -> sp.csr_matrix:
        self._merge()
        if self._acc is None:
            return sp.csr_matrix((self.n, self.n))
        self._acc.sum_duplicates()
        return self._acc


def _gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_q sum_a left[e, q, i, a] right[e, q, j, a]`` for every element of a block."""
    return np.einsum('eqia,eqja->eij', left, right)


def _volume_terms(blk, th: float, d: int, moving: bool):
    w = blk.w[:, :, None]
    dt = blk.grad[..., d]
    gx = blk.grad[..., :d]
    mx = blk.hess[..., :d, d]
    gxw = gx * w[..., None]
    local = np.swapaxes(blk.val * w, 1, 2) @ dt
    local += th * (np.swapaxes(dt * w, 1, 2) @ dt)
    local += _gram(gxw, gx)
    if moving:
        local -= th * _gram(gxw, mx)
    else:
        local += th * _gram(mx * w[..., None], gx)
    return local


def _assemble_form(space, geom, case, params, orders, moving) -> LinearSystem:
    d = space.ndim - 1
    th = params.theta * params.h
    batcher = ElementBatcher(space, geom, orders)
    acc = _Accumulator(space.dim)
    rhs = np.zeros(space.dim)
    for blk in batcher.blocks(need=2):
        acc.add(blk.dofs, _volume_terms(blk, th, d, moving))
        test = blk.val + th * blk.grad[..., d]
        fw = blk.w * at_points(case.f, blk.x)
        np.add.at(rhs, blk.dofs, (np.swapaxes(test, 1, 2) @ fw[..., None])[..., 0])
    if moving:
        for blk in batcher.face_blocks(d, 1, need=1):
            gx = blk.grad[..., :d]
            acc.add(blk.dofs, th * _gram(gx * blk.w[:, :, None, None], gx))
    return LinearSystem(acc.result(), rhs)


def assemble_fixed(space: DiscreteSpace, geom: GeometryMap, case: ManufacturedCase,
                   params: SchemeParams, orders=None) -> LinearSystem:
    """Assemble the fixed-domain form ``a_h`` and its load vector.

    Entry ``(i, j)`` is ``a_h(phi_j, phi_i)``: the test function indexes
    the row.  Quadrature defaults to ``degree + 1`` Gauss points per
    direction.
    """
    return _assemble_form(space, geom, case, params, orders, moving=False)


def assemble_moving(space: DiscreteSpace, geom: GeometryMap, case: ManufacturedCase,
                    params: SchemeParams, orders=None) -> LinearSystem:
    """Assemble the moving-domain form ``b_h`` and its load vector.

    Emits :class:`StabilityWarning` when ``params.theta_bound`` is set
    and ``theta`` does not satisfy the coercivity threshold.
    """
    if params.theta_bound is not None and params.theta >= params.theta_bound:
        warnings.warn(
            f'theta = {params.theta} exceeds the estimated coercivity bound '
            f'{params.theta_bound:.4g}; the moving-domain form may lose stability',
            StabilityWarning, stacklevel=2)
    return _assemble_form(space, geom, case, params, orders, moving=True)


def assemble_norm_matrices(space: DiscreteSpace, geom: GeometryMap,
                           params: SchemeParams, orders=None) -> NormMatrices:
    """Gram matrices of the discrete norms.

    ``n_fixed`` integrates ``|grad_x v|^2 + theta*h |dt v|^2`` over the
    cylinder plus ``v^2 / 2`` over the terminal face; ``face_gradient``
    integrates ``|grad_x v|^2`` over the terminal face.
    """
    d = space.ndim - 1
    th = params.theta * params.h
    batcher = ElementBatcher(space, geom, orders)
    acc_n = _Accumulator(space.dim)
    acc_g = _Accumulator(space.dim)
    for blk in batcher.blocks(need=1):
        w = blk.w[:, :, None]
        dt = blk.grad[..., d]
        gx = blk.grad[..., :d]
        local = _gram(gx * w[..., None], gx)
        local += th * (np.swapaxes(dt * w, 1, 2) @ dt)
        acc_n.add(blk.dofs, local)
    for blk in batcher.face_blocks(d, 1, need=1):
        w = blk.w[:, :, None]
        acc_n.add(blk.dofs, 0.5 * (np.swapaxes(blk.val * w, 1, 2) @ blk.val))
        gx = blk.grad[..., :d]
        acc_g.add(blk.dofs, _gram(gx * w[..., None], gx))
    n_fixed = acc_n.result()
    face_gradient = acc_g.result()
    return NormMatrices(n_fixed, (n_fixed + th * face_gradient).tocsr(), face_gradient)


def boundary_l2_project(space: DiscreteSpace, geom: GeometryMap, g,
                        dirichlet_mask: np.ndarray, orders=None) -> np.ndarray:
    """L2 projection of boundary data onto the Dirichlet dofs.

    One joint projection over the lateral boundary and the initial face:
    assemble the boundary mass matrix and moment vector of ``g`` face by
    face, restrict to the Dirichlet set, solve.  Returns a full-length
    coefficient vector, zero on free dofs.
    """
    from .linsolve import solve_direct

    d = space.ndim - 1
    batcher = ElementBatcher(space, geom, orders)
    acc = _Accumulator(space.dim)
    load = np.zeros(space.dim)
    faces = [(a, side) for a in range(d) for side in (0, 1)] + [(d, 0)]
    for fixed_dir, side in faces:
        for blk in batcher.face_blocks(fixed_dir, side, need=0):
            valw_t = np.swapaxes(blk.val * blk.w[:, :, None], 1, 2)
            acc.add(blk.dofs, valw_t @ blk.val)
            np.add.at(load, blk.dofs, (valw_t @ at_points(g, blk.x)[..., None])[..., 0])
    mass = acc.result()
    idx = np.flatnonzero(dirichlet_mask)
    mdd = mass[idx][:, idx].tocsr()
    values = np.zeros(space.dim)
    values[idx], _ = solve_direct(mdd, load[idx])
    return values


def apply_dirichlet(system: LinearSystem, dofmap: DofMap, case: ManufacturedCase,
                    space: DiscreteSpace, geom: GeometryMap, orders=None) -> LinearSystem:
    """Reduce a full-space system to the free dofs.

    Dirichlet coefficients come from :func:`boundary_l2_project` of the
    case's exact solution; their columns move to the right-hand side.
    """
    values = boundary_l2_project(space, geom, case.u, dofmap.dirichlet_mask, orders)
    free = dofmap.free
    lifted = system.rhs[free] - (system.matrix @ values)[free]
    reduced = system.matrix[free][:, free].tocsr()
    return LinearSystem(reduced, lifted, values, free)
