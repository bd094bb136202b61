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

In every d both forms are assembled by sum factorization on the global Gauss grid
(Antolin et al., CMAME 285, 2015), exact for any map: coefficient fields from det J,
J^-1 (the slab's one adjugate over det J) and the map's Hessian, all points last, are
contracted one direction at a time onto the banded pattern by band operators the
stage's batcher keeps, over tables its level keeps.  The boundary projection is
sum-factorized the same way on each Dirichlet face, and the norm matrices on the fields
the forms share (:func:`_energy_fields`).  The element form (``_assemble_form``) is kept
as the oracle the sum-factorized forms are checked against.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._batch import ElementBatcher, _contract, _operator, at_points
from .geometry import GeometryMap
from .tensor_space import DiscreteSpace, DofMap, dirichlet_faces

__all__ = [
    'SchemeParams',
    'ManufacturedCase',
    'LinearSystem',
    'NormMatrices',
    'StabilityWarning',
    'assemble_fixed',
    'assemble_moving',
    'assemble_load',
    'assemble_norm_matrices',
    'boundary_l2_project',
    'apply_dirichlet',
]


class StabilityWarning(UserWarning):
    """The stabilization parameter may violate the moving-domain coercivity bound."""


@dataclass(frozen=True)
class SchemeParams:
    """Stabilization parameter ``theta`` and global mesh size ``h``.

    ``h`` is the knot-mesh size of the parameter domain, the largest
    parameter-cell diameter (:attr:`DiscreteSpace.h_hat`); it scales the
    upwind terms and the discrete norms uniformly.  ``theta_bound``, when supplied, is the
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
    """Linear system ``matrix @ x = rhs``.

    As assembled, the system ranges over all dofs.  After
    :func:`apply_dirichlet` it ranges over the free dofs, and
    ``dirichlet_values`` holds the full-length lifting vector (boundary
    coefficients on Dirichlet dofs, zero elsewhere).  ``matrix`` is a CSR
    matrix, or on a level solved matrix-free an operator
    (:class:`scipy.sparse.linalg.LinearOperator`).
    """

    matrix: sp.csr_matrix | spla.LinearOperator
    rhs: np.ndarray
    dirichlet_values: np.ndarray | None = None


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
    """Either form by element blocks and one COO-to-CSR conversion of their triplets: the
    oracle of the sum-factorized :func:`_assemble_grid` (``harness.assembly_paths_gap``),
    which runs it on coarse levels only."""
    d = space.ndim - 1
    th = params.theta * params.h
    batcher = ElementBatcher(space, geom, orders)
    blocks, rhs = [], np.zeros(space.dim)
    for blk in batcher.blocks(need=2):
        blocks.append((blk.dofs, _volume_terms(blk, th, d, moving)))
        test = blk.val + th * blk.grad[..., d]
        fw = blk.w * at_points(case.f, blk.x)
        np.add.at(rhs, blk.dofs, (np.swapaxes(test, 1, 2) @ fw[..., None])[..., 0])
    if moving:
        for blk in batcher.blocks(need=1, face=(d, 1)):
            gx = blk.grad[..., :d]
            blocks.append((blk.dofs, th * _gram(gx * blk.w[:, :, None, None], gx)))
    dofs, local = map(np.concatenate, zip(*blocks))      # each local matrix row by row
    m = dofs.shape[1]
    rows, cols = np.repeat(dofs, m, axis=1).ravel(), np.tile(dofs, m).ravel()
    return LinearSystem(sp.coo_matrix((local.ravel(), (rows, cols)), (space.dim,) * 2).tocsr(), rhs)


def _add(terms: dict, c: np.ndarray, *orders):
    """Add the field ``c`` of the derivative ``orders`` (test[, trial]) to ``terms``, unless zero."""
    key = tuple(zip(*orders))
    if np.any(c):
        terms[key] = terms.get(key, 0) + c


def _load_terms(x, w, g, th: float, f) -> dict:
    """Load fields of a grid slab, the same for both forms: ``f`` against ``v + theta h dt v``,
    ``dt v = g . grad v`` with ``g = J^-1[:, d]`` and parameter derivatives."""
    unit, load = np.eye(g.shape[0], dtype=int), {}
    fw = w * f(x.T)
    _add(load, fw, 0 * unit[0])
    for a in range(g.shape[0]):
        _add(load, th * fw * g[a], unit[a])
    return load


def _energy_fields(w, inv, c: float):
    """``(w (K + c g g^T), K, g)`` of a grid slab from its points-last ``J^-1``: with
    ``g = J^-1[:, d]``, ``K = J^-1[:, :d] J^-1[:, :d]^T`` and parameter derivatives,
    ``dt u = g . grad u`` and ``grad_x u . grad_x v + c dt u dt v = grad v . (K + c g g^T)
    grad u``, the volume energy of the forms and of the norms (``c = 0`` on a face)."""
    d = inv.shape[0] - 1
    g = inv[:, d]
    K = (inv[:, None, :d] * inv[None, :, :d]).sum(axis=2)
    return w * (K + c * g[:, None] * g[None, :]), K, g


def _gradient_pairs(fields) -> dict:
    """The terms of ``fields[b, a] d_b v d_a u`` (parameter derivatives), zero fields left out."""
    unit, terms = np.eye(fields.shape[0], dtype=int), {}
    for b, a in np.ndindex(fields.shape[:2]):
        _add(terms, fields[b, a], unit[b], unit[a])
    return terms


def _grid_terms(x, w, inv, hess, th: float, moving: bool, f=None):
    """``(matrix, load)`` coefficient fields of a grid slab, or of the terminal face term alone
    (no ``f``, no ``hess``), from its points-last arrays.  With ``g``, ``K`` and parameter
    derivatives as in :func:`_energy_fields` and by the chain rule that pulls back the
    Hessians of ``ElementBatcher.blocks``, ``dt grad_x u . grad_x v = K[b, a] g[e] d_b v
    d_ae u - S[b, m] d_b v d_m u``, ``S`` from the map's Hessian."""
    if f is None:
        return _gradient_pairs(_energy_fields(th * w, inv, 0.0)[0]), {}
    nd = inv.shape[0]
    d, unit = nd - 1, np.eye(nd, dtype=int)
    energy, K, g = _energy_fields(w, inv, th)
    matrix, load = {}, _load_terms(x, w, g, th, f)
    # S[e, m] = J^-1[e, c] J^-1[m, k] H[k, a, b] J^-1[a, c] g[b], summed over c, k, a, b
    Hc = ((hess * g).sum(axis=2)[:, :, None] * inv[None, :, :d]).sum(axis=1)
    S = th * w * (inv[:, None, :d] * (inv[:, :, None] * Hc).sum(axis=1)).sum(axis=2)
    first = energy + (S if moving else -S.transpose(1, 0, 2))
    mixed = (-th if moving else th) * w * K[:, :, None] * g
    for a in range(nd):
        _add(matrix, w * g[a], 0 * unit[0], unit[a])
    for b, a in np.ndindex(nd, nd):
        _add(matrix, first[b, a], unit[b], unit[a])
        for e in range(nd):                       # d_ae and d_ea share a key
            pair = (unit[b], unit[a] + unit[e])
            _add(matrix, mixed[b, a, e], *(pair if moving else pair[::-1]))
    return matrix, load


def _banded_system(batcher: ElementBatcher, directions, slabs):
    """CSR on the element pattern and load (direction 0 fastest) over the functions of
    ``directions``, from ``slabs`` of ``((matrix, load) fields, the slab's tables)``, each added
    by :func:`_contract` into the rows of its last direction's functions in one banded array
    ``(n_last w_last, N_0 ...)``, ``N_a = n_a (2 p_a + 1)``.  Fields hold no NURBS weights.
    When no slab brings matrix fields, no band is held and the CSR is None."""
    if batcher.space.weights is not None:
        raise ValueError('sum factorization needs a B-spline solution space, got NURBS weights')
    tables, nd = [batcher._tables[a] for a in directions], len(directions)
    p = np.array(batcher.space.degrees)[directions]
    dims, widths = np.array(batcher.space.dims)[directions], 2 * p + 1
    band, rhs = None, np.zeros((dims[-1], int(np.prod(dims[:-1]))))
    for terms, slab in slabs:
        for k, fields in enumerate(terms):
            out = _contract(fields, slab, batcher._operators)
            if out is None:
                continue
            if k == 0 and band is None:
                band = np.zeros((dims[-1] * widths[-1], int(np.prod(dims[:-1] * widths[:-1]))))
            target, w = (band, widths[-1]) if k == 0 else (rhs, 1)
            start = slab[-1].first[0] * w
            target[start:start + out.shape[0]] += out.reshape(-1, target.shape[1])
    pairs = [0, *range(nd - 1, 0, -1)]                  # stored position of each direction
    load = rhs.reshape(dims[-1], *dims[:-1]).transpose(pairs).ravel()
    if band is None:
        return None, load
    index = np.int32 if band.size < 2**31 else np.int64
    stride, order = np.cumprod([1, *dims[:-1]]).astype(index), range(nd - 1, -1, -1)
    flat = [*range(0, 2 * nd, 2), *range(1, 2 * nd, 2)]   # (n..., w...), direction 0 fastest
    # whether functions i and i + o - p share a span: the rows of the value band operators
    masks = [np.diff(_operator(batcher._operators, tables[a], (0, 0)).indptr)
             .reshape(dims[a], widths[a]) > 0 for a in order]
    mask = reduce(np.multiply.outer, masks).transpose(flat)
    cols = [stride[a] * (np.arange(dims[a], dtype=index)[:, None]
                         + np.arange(-p[a], p[a] + 1, dtype=index)) for a in order]
    indices = reduce(np.add.outer, cols).transpose(flat)[mask]
    band = band.reshape([n for a in [nd - 1, *range(nd - 1)] for n in (dims[a], widths[a])])
    values = band.transpose([2 * j for j in pairs] + [2 * j + 1 for j in pairs])[mask]
    indptr = np.concatenate(([0], np.cumsum(mask.reshape(dims.prod(), -1).sum(1), dtype=index)))
    return sp.csr_matrix((values, indices, indptr), shape=(dims.prod(),) * 2), load


def _assemble_grid(space, geom, case, params, orders, moving) -> LinearSystem:
    """Both forms by sum factorization (:func:`_banded_system`) over the volume's
    slabs, and for the moving form the terminal face as one more; each slab brings its
    points-last ``J^-1`` (its one adjugate over ``det J``) and map Hessian."""
    th, nd = params.theta * params.h, space.ndim
    batcher = ElementBatcher(space, geom, orders)
    terminal = batcher.grid_slabs(need=1, face=(nd - 1, 1)) if moving else ()

    def fields(s, f):
        return _grid_terms(s.x, s.w, s.adj / s.det, s.hess, th, moving, f), s.tables
    slabs = chain((fields(s, case.f) for s in batcher.grid_slabs(need=2)),
                  (fields(s, None) for s in terminal))
    return LinearSystem(*_banded_system(batcher, list(range(nd)), slabs))


def assemble_load(space: DiscreteSpace, geom: GeometryMap, case: ManufacturedCase,
                  params: SchemeParams) -> np.ndarray:
    """The load vector alone, which both forms share: one grid pass of the load fields,
    with neither the map Hessian nor a band, bit for bit the ``rhs`` of :func:`assemble_fixed`."""
    th = params.theta * params.h
    batcher = ElementBatcher(space, geom)
    slabs = ((({}, _load_terms(s.x, s.w, s.adj[:, -1] / s.det, th, case.f)), s.tables)
             for s in batcher.grid_slabs(need=1))
    return _banded_system(batcher, list(range(space.ndim)), slabs)[1]


def assemble_fixed(space: DiscreteSpace, geom: GeometryMap, case: ManufacturedCase,
                   params: SchemeParams, orders=None) -> LinearSystem:
    """Assemble the fixed-domain form ``a_h`` and its load vector.

    Entry ``(i, j)`` is ``a_h(phi_j, phi_i)``: the test function indexes
    the row.  Quadrature defaults to ``degree + 1`` Gauss points per
    direction.
    """
    return _assemble_grid(space, geom, case, params, orders, moving=False)


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
    return _assemble_grid(space, geom, case, params, orders, moving=True)


def assemble_norm_matrices(space: DiscreteSpace, geom: GeometryMap,
                           params: SchemeParams) -> NormMatrices:
    """Gram matrices of the discrete norms.

    ``n_fixed`` integrates ``|grad_x v|^2 + theta*h |dt v|^2`` over the
    cylinder plus ``v^2 / 2`` over the terminal face; ``face_gradient``
    integrates ``|grad_x v|^2`` over the terminal face.  Both are sum-factorized
    (:func:`_banded_system`) on the fields of :func:`_energy_fields` and share the volume
    pattern, ``face_gradient`` with explicit zeros off the rows of the terminal functions.
    """
    th, nd = params.theta * params.h, space.ndim
    batcher = ElementBatcher(space, geom)
    terminal = list(batcher.grid_slabs(need=1, face=(nd - 1, 1)))

    def system(slabs):                  # (matrix fields, slab) pairs; the norms bring no load
        return _banded_system(batcher, list(range(nd)), (((m, {}), s.tables) for m, s in slabs))[0]

    def gradients(s, c):
        return _gradient_pairs(_energy_fields(s.w, s.adj / s.det, c)[0]), s
    n_fixed = system(chain((gradients(s, th) for s in batcher.grid_slabs(need=1)),
                           (({((0, 0),) * nd: 0.5 * s.w}, s) for s in terminal)))
    face_gradient = system(gradients(s, 0.0) for s in terminal)
    data = n_fixed.data + th * face_gradient.data          # on the one volume pattern
    n_moving = sp.csr_matrix((data, n_fixed.indices.copy(), n_fixed.indptr.copy()), n_fixed.shape)
    return NormMatrices(n_fixed, n_moving, face_gradient)


def _face_system(batcher: ElementBatcher, g, face) -> LinearSystem:
    """Mass matrix and moments of ``g`` on ``face = (direction, side)`` over all dofs, by sum
    factorization on the face's Gauss grid over the directions free on it: rows and columns
    are the face's functions only, those of the end index of the pinned direction (on an open
    knot vector the one function nonzero there)."""
    (a, side), space = face, batcher.space
    free = [b for b in range(space.ndim) if b != a]

    def fields(s):
        value = s.tables[a].ders[0, 0, 0, -1 if side else 0]      # that function's trace
        return ({((0, 0),) * len(free): value**2 * s.w},
                {((0,),) * len(free): value * s.w * g(s.x.T)}), [s.tables[b] for b in free]
    mass, load = _banded_system(batcher, free, map(fields, batcher.grid_slabs(need=0, face=face)))
    on_face = np.arange(space.dim) // space.strides[a] % space.dims[a] == side * (space.dims[a] - 1)
    dofs = np.flatnonzero(on_face)                      # in the face's own order
    indptr = mass.indptr[np.searchsorted(dofs, np.arange(space.dim + 1))]
    return LinearSystem(sp.csr_matrix((mass.data, dofs[mass.indices], indptr), (space.dim,) * 2),
                        np.bincount(dofs, load, space.dim))


def boundary_l2_project(space: DiscreteSpace, geom: GeometryMap, g,
                        dirichlet_mask: np.ndarray, orders=None) -> np.ndarray:
    """L2 projection of boundary data onto the Dirichlet dofs.

    One joint projection over the lateral boundary and the initial face:
    sum the boundary mass matrices and moment vectors of ``g`` of the
    :func:`~spacetime_iga.tensor_space.dirichlet_faces` (:func:`_face_system`),
    restrict to the Dirichlet set and solve that symmetric positive definite
    system by symmetric-mode SuperLU.  Returns a full-length
    coefficient vector, zero on free dofs.
    """
    from .linsolve import _solve_spd

    batcher = ElementBatcher(space, geom, orders)
    faces = [_face_system(batcher, g, face) for face in dirichlet_faces(space.ndim)]
    mass = sum((f.matrix for f in faces[1:]), faces[0].matrix)
    idx = np.flatnonzero(dirichlet_mask)
    values = np.zeros(space.dim)
    values[idx], _ = _solve_spd(_restrict(mass, idx), sum(f.rhs for f in faces)[idx])
    return values


def apply_dirichlet(system: LinearSystem, dofmap: DofMap, case: ManufacturedCase,
                    space: DiscreteSpace, geom: GeometryMap, orders=None) -> LinearSystem:
    """Reduce a full-space system to the free dofs.

    Dirichlet coefficients come from :func:`boundary_l2_project` of the
    case's exact solution; their columns move to the right-hand side.  The
    system's matrix may be a sparse matrix, which is restricted, or an
    operator such as :func:`~spacetime_iga.linsolve.cylinder_operator`, whose
    restriction applies it to the zero extension of the free values.
    """
    values = boundary_l2_project(space, geom, case.u, dofmap.dirichlet_mask, orders)
    free = dofmap.free
    lifted = system.rhs[free] - (system.matrix @ values)[free]
    return LinearSystem(_restrict(system.matrix, free), lifted, values)


def _restrict(matrix, keep: np.ndarray):
    """``matrix[keep][:, keep]`` (``keep`` increasing) in one pass over the stored entries,
    explicit zeros included, so no row-sliced copy is held next to the matrix.  An operator
    over all dofs restricts to the operator that applies it to the zero extension and takes
    ``keep``."""
    if not sp.issparse(matrix):
        def matvec(v):
            full = np.zeros(matrix.shape[0])
            full[keep] = np.ravel(v)
            return (matrix @ full)[keep]
        return spla.LinearOperator((keep.size,) * 2, matvec=matvec, dtype=float)
    renumber = np.full(matrix.shape[0], -1, matrix.indices.dtype)
    renumber[keep] = np.arange(keep.size)
    taken = np.repeat(renumber >= 0, np.diff(matrix.indptr)) & (renumber[matrix.indices] >= 0)
    indptr = np.cumsum(np.append(False, taken), dtype=matrix.indptr.dtype)[  # taken before
        np.append(matrix.indptr[keep], matrix.indptr[-1])]
    indices = renumber[matrix.indices[taken]]
    return sp.csr_matrix((matrix.data[taken], indices, indptr), shape=(keep.size,) * 2)
