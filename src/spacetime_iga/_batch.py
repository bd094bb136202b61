"""Block iteration over the elements of a space under a geometry map.

Internal machinery shared by assembly, mesh metrics and postprocessing:
univariate basis tables of every knot span (one array call of
:func:`splines.eval_basis` per direction) and the loop over blocks of
elements and boundary faces.  A block holds ``E`` elements as arrays
with a leading element axis; ``E`` follows from one fixed byte budget.

Basis blocks (assembly, the inverse-constant estimate) hold every active
function: the tensor combination, the NURBS quotient rule, the geometry
evaluation and the pullback are the batched kernels of
:mod:`tensor_space` and :mod:`geometry`.  Field blocks (error integrals,
mesh metrics) hold one spline field and the map alone, both evaluated by
sum factorization over the univariate tables (:func:`_field`); the
Jacobian is inverted in closed form and one gradient per point is pulled
back.  On an identity map both kinds skip the Jacobian and the pullback.
Grid slabs (d >= 2 assembly) hold the map on the global Gauss grid of whole
time spans, which :func:`_contract` reduces by sum factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import (GeometryMap, _adjugate, _require_orientation, eval_geometry,
                       pullback_derivatives)
from .quadrature import gauss_1d
from .splines import KnotVector, eval_basis, find_span
from .tensor_space import DiscreteSpace, active_dofs, tensor_basis

# Bytes of one block's basis arrays (values and derivatives up to the
# requested order), or of a field block's kernel output; the pullback and
# the local kernels hold a few times that.
# Larger blocks run no faster but raise the peak RSS (fixed-1d p2 level 7:
# 159 MB with 2 MiB, 206 MB with 8 MiB).
_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class ElementBlock:
    """Everything needed to integrate over ``E`` elements (or element faces)."""

    index: np.ndarray         # (E,) element indices, C order, direction 0 slowest
    dofs: np.ndarray          # (E, m) flat solution dof indices
    x: np.ndarray             # (E, q, dim) physical quadrature points
    w: np.ndarray             # (E, q) weights incl. |det J| (volume) or surface metric (face)
    val: np.ndarray           # (E, q, m)
    grad: np.ndarray | None   # (E, q, m, dim) physical gradients
    hess: np.ndarray | None   # (E, q, m, dim, dim) physical Hessians
    jac: np.ndarray           # (E, q, dim, dim)
    det: np.ndarray           # (E, q)


@dataclass(frozen=True)
class FieldBlock:
    """One spline field and the map on ``E`` elements (or element faces)."""

    index: np.ndarray         # (E,) element indices, C order, direction 0 slowest
    x: np.ndarray             # (E, q, dim) physical quadrature points
    w: np.ndarray             # (E, q) weights incl. |det J| (volume) or surface metric (face)
    val: np.ndarray | None    # (E, q) field values
    grad: np.ndarray | None   # (E, q, dim) physical field gradients
    jac: np.ndarray           # (E, q, dim, dim)


@dataclass(frozen=True)
class _Table:
    """Univariate rows of one direction, one table row per node row."""

    ders: np.ndarray         # (ns, q, 3, p+1)
    first: np.ndarray        # (ns,) first active univariate index


def _table(kv: KnotVector, nodes: np.ndarray) -> _Table:
    """Evaluate ``kv`` at ``nodes`` ``(ns, q)``; each node row must lie in one span."""
    first, ders = eval_basis(kv, nodes)
    row_first = find_span(kv, 0.5 * (nodes[:, 0] + nodes[:, -1])) - kv.degree
    if np.any(first != row_first[:, None]):
        raise ValueError('solution spans must refine geometry spans')
    return _Table(ders, row_first)


def _span_rule(kv: KnotVector, n: int):
    """Nodes and weights ``(ns, n)`` of the ``n``-point Gauss rule on every span of ``kv``."""
    nodes, weights = gauss_1d(n)
    lengths = np.diff(kv.spans, axis=1)
    return kv.spans[:, :1] + lengths * nodes[None, :], lengths * weights[None, :]


def _rows(tables, multi):
    return [t.ders[i] for t, i in zip(tables, multi)], [t.first[i] for t, i in zip(tables, multi)]


def _field(space: DiscreteSpace, rows, firsts, coefficients: np.ndarray, need: int):
    """Sum-factorized values and parameter derivatives of ``k`` fields on a block.

    ``rows`` and ``firsts`` are univariate rows of ``space`` as
    :func:`tensor_basis` takes them, and ``coefficients`` ``(space.dim, k)``
    the fields' control values.  The local coefficients ``(E, m, k)``, with
    ``m`` in tensor order, are contracted with the tables one direction at
    a time, the last first, by batched ``matmul``; each direction splits
    derivative slots off those of lower order.  On a NURBS space the weights
    ride along as one more component and the quotient rule is applied at the
    end.  Returns values ``(E, q, k)``, for ``need >= 1`` gradients ``(E, q, k,
    dim)`` (else None) and for ``need = 2`` Hessians ``(E, q, k, dim, dim)``
    too, points running with direction 0 slowest.
    """
    active = active_dofs(space, firsts)
    local = coefficients[active]
    if space.weights is not None:
        wa = space.weights[active][..., None]
        local = np.concatenate((local * wa, wa), axis=2)
    E, k = local.shape[0], local.shape[2]
    data = local.reshape(1, E, -1, rows[-1].shape[-1], k)        # (slot, E, rest, n_a, done)
    slots = [()]                                                   # directions differentiated
    for a in range(space.ndim - 1, -1, -1):
        table = rows[a][:, None]                                   # (E, 1, q_a, 3, n_a)
        out = np.matmul(table[..., 0, :], data)
        if need >= 1:
            low = [i for i, s in enumerate(slots) if len(s) < need]
            parts = [out, np.matmul(table[..., 1, :], data[:1] if need == 1 else data[low])]
            if need >= 2:
                parts.append(np.matmul(table[..., 2, :], data[:1]))
            out = np.concatenate(parts)
            slots += [(a,) + slots[i] for i in low] + [(a, a)] * (need >= 2)
        if a:
            data = out.reshape(out.shape[0], E, -1, rows[a - 1].shape[-1],
                               out.shape[3] * out.shape[4])
    out = out.reshape(out.shape[0], E, -1, k)
    hess, at, r = None, {s: i for i, s in enumerate(slots)}, range(space.ndim)
    if need < 2:
        # slots: values, then d/dxi_a for a = dim-1, ..., 0
        val, grad = out[0], (np.moveaxis(out[:0:-1], 0, -1) if need >= 1 else None)
    else:
        val, grad = out[0], np.moveaxis(out[[at[(a,)] for a in r]], 0, -1)
        hess = np.moveaxis(out[[[at[min(a, b), max(a, b)] for b in r] for a in r]], (0, 1), (3, 4))
    if space.weights is not None:
        W = val[..., -1:]
        val = val[..., :-1] / W
        if grad is not None:
            Wg = grad[..., -1:, :]
            grad = (grad[..., :-1, :] - val[..., None] * Wg) / W[..., None]
        if hess is not None:
            hess = (hess[..., :-1, :, :] - grad[..., :, None] * Wg[..., None, :]
                    - grad[..., None, :] * Wg[..., :, None]
                    - val[..., None, None] * hess[..., -1:, :, :]) / W[..., None, None]
    return (val, grad) if need < 2 else (val, grad, hess)


def _band_operator(table: _Table, test: int, trial: int | None = None) -> sp.csr_matrix:
    """One direction's points (columns) onto its functions from ``table.first[0]``: row ``i``
    holds derivative ``test`` of function ``i``, or with ``trial`` row ``i * (2p + 1) + o``
    its product with derivative ``trial`` of function ``i + o - p``, the banded pattern."""
    ns, q, _, m = table.ders.shape
    own = (table.first - table.first[0])[:, None, None] + np.arange(m)     # (ns, 1, m)
    rows, vals, cols = own, table.ders[:, :, test, :], np.arange(ns * q).reshape(ns, q, 1)
    width = 1 if trial is None else 2 * m - 1
    if trial is not None:
        rows = own[..., None] * width + (np.arange(m) - np.arange(m)[:, None] + m - 1)
        vals, cols = vals[..., None] * table.ders[:, :, trial, None, :], cols[..., None]
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=((own[-1, 0, -1] + 1) * width, ns * q))


def _contract(terms: dict, tables, cache: dict):
    """``sum_key (U_0 x ... x U_last)(key) field`` by sum factorization, or None without terms:
    each key holds a ``(test[, trial])`` entry per direction, contracted by its
    :func:`_band_operator`, the first direction first, once per group of terms that agree in
    the later ones.  ``cache`` keeps all but the last direction's operators."""
    last = len(tables) - 1
    for a, table in enumerate(tables):
        summed = {}
        for key, field in terms.items():
            if a == last or (a, key[0]) not in cache:
                cache[a, key[0]] = _band_operator(table, *key[0])
            op = cache[a, key[0]]
            summed[key[1:]] = summed.get(key[1:], 0) + op @ field.reshape(op.shape[1], -1)
        terms = summed if a == last else {k: np.ascontiguousarray(v.T) for k, v in summed.items()}
    return terms.get(())


def _face_measure(J: np.ndarray, face_dir: int) -> np.ndarray:
    """Surface measure ``sqrt(det G^T G)`` of a face, ``G`` the Jacobian ``(E, q, dim, dim)``
    without column ``face_dir``."""
    G = np.delete(J, face_dir, axis=3)
    return np.sqrt(np.linalg.det(np.einsum('eqka,eqkb->eqab', G, G)))


def at_points(f, x: np.ndarray) -> np.ndarray:
    """``f`` at the points ``x`` ``(E, q, dim)`` of a block, shaped ``(E, q, ...)``."""
    out = f(x.reshape(-1, x.shape[-1]))
    return out.reshape(x.shape[:2] + out.shape[1:])


class ElementBatcher:
    """Iterates blocks of elements (or boundary faces) of a space under a geometry map.

    ``orders`` are univariate quadrature point counts, defaulting to
    ``degree + 1``.  :meth:`blocks` yields :class:`ElementBlock` with
    physical points, weighted measures and pulled-back basis derivatives
    up to the requested order (0 = values, 1 = +gradients, 2 = +Hessians);
    :meth:`field_blocks` yields :class:`FieldBlock` with one field and its
    physical gradient.  Both take ``face = (fixed_dir, side)`` to run over
    a boundary face in place of the volume.
    On an identity map (``geom.is_identity``) the parameter derivatives are
    the physical ones, and ``jac`` and ``det`` are ``I`` and 1.
    """

    def __init__(self, space: DiscreteSpace, geom: GeometryMap, orders=None):
        if geom.ndim != space.ndim:
            raise ValueError('geometry and space dimensions differ')
        self.space = space
        self.geom = geom
        self.nd = space.ndim
        if orders is None:
            orders = [p + 1 for p in space.degrees]
        self.orders = [int(o) for o in orders]
        self.identity = geom.is_identity
        self._weights = []
        self._tables = []
        self._geo_tables = []
        for kv, kvg, o in zip(space.knot_vectors, geom.space.knot_vectors, self.orders):
            nodes, weights = _span_rule(kv, o)
            self._weights.append(weights)
            self._tables.append(_table(kv, nodes))
            self._geo_tables.append(_table(kvg, nodes))

    def _ranges(self, tables, point_bytes: int):
        """Element-index blocks over the span grid of ``tables``, ``point_bytes``
        per quadrature point within the byte budget."""
        shape = tuple(t.first.size for t in tables)
        n_el = int(np.prod(shape))
        q = int(np.prod([t.ders.shape[1] for t in tables]))
        size = max(1, _BLOCK_BYTES // (q * point_bytes))
        for start in range(0, n_el, size):
            index = np.arange(start, min(start + size, n_el))
            yield index, np.unravel_index(index, shape)

    def _quadrature_weights(self, multi, face_dir):
        """Tensor quadrature weights ``(E, q)`` of a block, without ``face_dir``."""
        E = multi[0].size
        w = np.ones((E, 1))
        for a in range(self.nd):
            if a != face_dir:
                w = (w[:, :, None] * self._weights[a][multi[a]][:, None, :]).reshape(E, -1)
        return w

    def _tables_for(self, face):
        """Solution and geometry tables and the pinned direction of the volume
        (``face`` None) or of the face ``face = (fixed_dir, side)``."""
        if face is None:
            return self._tables, self._geo_tables, None
        fixed_dir, side = face
        pinned = np.array([[float(side)]])
        tables = list(self._tables)
        geo_tables = list(self._geo_tables)
        tables[fixed_dir] = _table(self.space.knot_vectors[fixed_dir], pinned)
        geo_tables[fixed_dir] = _table(self.geom.space.knot_vectors[fixed_dir], pinned)
        return tables, geo_tables, fixed_dir

    def blocks(self, need: int = 2, face=None):
        """Yield basis data for every element, in blocks, C order.

        ``face = (fixed_dir, side)`` restricts the blocks to the boundary
        face ``xi_fixed_dir = side`` (0 or 1): weights carry the surface
        measure of the restricted map, and basis derivatives are still
        pulled back with the full volume Jacobian.
        """
        tables, geo_tables, face_dir = self._tables_for(face)
        nd = self.nd
        m = int(np.prod([p + 1 for p in self.space.degrees]))
        for index, multi in self._ranges(tables, 8 * m * sum(nd**k for k in range(need + 1))):
            dofs, val, grad, hess = tensor_basis(self.space, *_rows(tables, multi), need)
            E, q, m = val.shape
            w = self._quadrature_weights(multi, face_dir)
            if self.identity:
                x = eval_geometry(self.geom, *_rows(geo_tables, multi), need=0)[0]
                J = np.broadcast_to(np.eye(nd), (E, q, nd, nd))
                det = np.ones((E, q))
                if need >= 1:
                    # The layout the pullback returns (derivative-major): the
                    # batched matmul/einsum kernels sum in a layout-dependent
                    # order, and only this one keeps the general path's bits.
                    grad = np.ascontiguousarray(grad.swapaxes(2, 3)).swapaxes(2, 3)
            else:
                x, J, det, Hg = eval_geometry(self.geom, *_rows(geo_tables, multi),
                                              need=2 if need >= 2 else 1)
                w = w * (det if face_dir is None else _face_measure(J, face_dir))
                if need >= 1:
                    grad, hess = pullback_derivatives(
                        J.reshape(E * q, nd, nd), grad.reshape(E * q, m, nd),
                        None if hess is None else hess.reshape(E * q, m, nd, nd),
                        None if Hg is None else Hg.reshape(E * q, nd, nd, nd))
                    grad = grad.reshape(E, q, m, nd)
                    hess = None if hess is None else hess.reshape(E, q, m, nd, nd)
            yield ElementBlock(index, dofs, x, w, val, grad, hess, J, det)

    def grid_slabs(self, terminal: bool = False):
        """Yield the univariate tables and the map at the ``P`` global Gauss points (C order) of
        slabs of time spans within the byte budget, or of the face ``tau = 1`` (``terminal``):
        points ``(P, dim)``, weights ``(P,)`` with det J or the surface measure, ``J^-1``
        ``(dim, dim, P)`` and Hessian ``(dim, dim, dim, P)``.  Requires ``det J > 0``."""
        nd = self.nd
        tables, geo_tables, face_dir = self._tables_for((nd - 1, 1) if terminal else None)
        spans, points = [t.first.size for t in tables], [t.ders.shape[1] for t in tables]
        step = max(1, _BLOCK_BYTES // (8 * (nd + 1) ** 3 * int(np.prod(spans[:-1] + points))))
        order = [k for pair in zip(range(nd), range(nd, 2 * nd)) for k in pair]

        def grid(a):  # block data (E, q, ...) as (..., P), points in grid order
            a = a.reshape(*shape, *points, *a.shape[2:])
            return a.transpose(*range(2 * nd, a.ndim), *order).reshape(*a.shape[2 * nd:], -1)

        for start in range(0, spans[-1], step):
            shape = (*spans[:-1], min(step, spans[-1] - start))
            multi = np.unravel_index(np.arange(np.prod(shape)), shape)
            multi = (*multi[:-1], multi[-1] + start)
            w = self._quadrature_weights(multi, face_dir)
            rows = _rows(geo_tables, multi)
            x, J, H = _field(self.geom.space, *rows, self.geom.control_points, 2)
            adj, det = _adjugate(J)
            _require_orientation(det, x)
            w = w * (det if face_dir is None else _face_measure(J, face_dir))
            time = slice(start, start + shape[-1])
            yield ([*tables[:-1], _Table(tables[-1].ders[time], tables[-1].first[time])],
                   grid(x).T, grid(w), grid(adj / det[..., None, None]), grid(H))

    def field_blocks(self, coefficients=None, need: int = 1, face=None):
        """Yield one field and the map in blocks of elements, C order.

        ``coefficients`` ``(space.dim,)`` define the field; without them a
        block holds the map alone (``val`` and ``grad`` None).  ``need`` 1
        adds the field's physical gradient, pulled back by the closed-form
        inverse Jacobian.  ``face = (fixed_dir, side)`` restricts the blocks
        to a boundary face, weighted as in :meth:`blocks`.  Raises
        ``SingularGeometryError`` unless ``det J > 0`` at every point.
        """
        nd = self.nd
        tables, geo_tables, face_dir = self._tables_for(face)
        geo = self.geom
        for index, multi in self._ranges(tables, 8 * (nd + 1) ** 2):
            w = self._quadrature_weights(multi, face_dir)
            val = grad = None
            if coefficients is not None:
                val, grad = _field(self.space, *_rows(tables, multi), coefficients[:, None], need)
                val, grad = val[..., 0], (None if grad is None else grad[..., 0, :])
            if self.identity:
                x = _field(geo.space, *_rows(geo_tables, multi), geo.control_points, 0)[0]
                J = np.broadcast_to(np.eye(nd), x.shape + (nd,))
            else:
                x, J = _field(geo.space, *_rows(geo_tables, multi), geo.control_points, 1)
                adj, det = _adjugate(J)
                _require_orientation(det, x)
                w = w * (det if face_dir is None else _face_measure(J, face_dir))
                if grad is not None:
                    # grad_x u = J^{-T} grad_xi u, one vector per point
                    grad = (grad[..., None, :] @ adj)[..., 0, :] / det[..., None]
            yield FieldBlock(index, x, w, val, grad, J)
