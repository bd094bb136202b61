"""Grid slabs of a space under a geometry map, and element blocks as views of them.

Internal machinery shared by assembly, mesh metrics and postprocessing:
univariate basis tables of every knot span (one array call of
:func:`splines.eval_basis` per direction), sized by one fixed byte budget.  A
level's span rules and tables are built once, kept with its space
(:func:`_memo`) and freed with it; band operators are kept by the batcher of
one stage.

Grid slabs (assembly, the norm matrices, the boundary projection, the error
integrals, mesh metrics) hold the global Gauss grid of whole time spans or of a face.  One
kernel, :func:`_grid_field`, evaluates every field on it, the map and the
discrete solution alike: the coefficient tensor is contracted with the
univariate tables one direction at a time (sum factorization).  Grid arrays hold
the points last, ``(k, dim, P)``: the slab's one adjugate works on contiguous rows,
and :func:`_contract` reduces the slab's coefficient fields onto the banded pattern.

Element blocks (the inverse-constant estimate, the element form kept as the
assembly oracle) regroup a slab's map data by element, with a leading element
axis, and add every active function of the solution space from
:func:`tensor_space.tensor_basis`, pulled back by the slab's ``J^-1``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .geometry import GeometryMap, _adjugate, _require_orientation
from .quadrature import gauss_1d
from .splines import KnotVector, eval_basis, find_span
from .tensor_space import DiscreteSpace, _quotient, tensor_basis

# Bytes of one block's basis arrays (values and derivatives up to the
# requested order), or of a grid slab's map derivatives; the pullback and
# the local kernels hold a few times that.
# Larger blocks run no faster but raise the peak RSS (fixed-1d p2 level 7:
# 159 MB with 2 MiB, 206 MB with 8 MiB).
_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class ElementBlock:
    """Everything needed to integrate over ``E`` elements (or element faces) of one grid slab;
    blocks come slab by slab, so their indices do not increase across a level."""

    index: np.ndarray         # (E,) level element indices, C order, direction 0 slowest
    dofs: np.ndarray          # (E, m) flat solution dof indices
    x: np.ndarray             # (E, q, dim) physical quadrature points
    w: np.ndarray             # (E, q) weights incl. |det J| (volume) or surface metric (face)
    val: np.ndarray           # (E, q, m)
    grad: np.ndarray | None   # (E, q, m, dim) physical gradients, derivative-major memory
    hess: np.ndarray | None   # (E, q, m, dim, dim) physical Hessians
    jac: np.ndarray           # (E, q, dim, dim)
    det: np.ndarray           # (E, q)


@dataclass(frozen=True)
class GridSlab:
    """The map, and optionally one field, at the ``P`` global Gauss points of a slab of time
    spans (or of a face), C order with direction 0 slowest, points last."""

    tables: list              # the slab's univariate tables of the solution space
    x: np.ndarray             # (dim, P) physical points
    w: np.ndarray             # (P,) weights incl. det J (volume) or surface metric (face)
    jac: np.ndarray           # (dim, dim, P), J[k, a] = d x_k / d xi_a
    adj: np.ndarray           # (dim, dim, P) adjugate of J; adj / det is J^-1
    det: np.ndarray           # (P,) det J
    hess: np.ndarray | None   # (dim, dim, dim, P) map Hessian, H[k, a, b]
    val: np.ndarray | None    # (P,) field values
    grad: np.ndarray | None   # (dim, P) physical field gradient


@dataclass(frozen=True)
class _Table:
    """Univariate rows of one direction, one table row per node row, read-only."""

    ders: np.ndarray         # (ns, q, 3, p+1)
    first: np.ndarray        # (ns,) first active univariate index


def _memo(store: dict, key, build):
    """``store[key]``, from ``build()`` on first use: a space's rules and tables, which die
    with its level, and a batcher's band operators, which die with its stage."""
    if key not in store:
        store[key] = build()
    return store[key]


def _table(kv: KnotVector, nodes: np.ndarray) -> _Table:
    """Evaluate ``kv`` at ``nodes`` ``(ns, q)``; each node row must lie in one span."""
    first, ders = eval_basis(kv, nodes)
    row_first = find_span(kv, 0.5 * (nodes[:, 0] + nodes[:, -1])) - kv.degree
    if np.any(first != row_first[:, None]):
        raise ValueError('solution spans must refine geometry spans')
    ders.flags.writeable = row_first.flags.writeable = False
    return _Table(ders, row_first)


def _span_rule(kv: KnotVector, n: int):
    """Nodes and weights ``(ns, n)`` of the ``n``-point Gauss rule on every span of ``kv``."""
    nodes, weights = gauss_1d(n)
    lengths = np.diff(kv.spans, axis=1)
    nodes, weights = kv.spans[:, :1] + lengths * nodes[None, :], lengths * weights[None, :]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _level_table(space: DiscreteSpace, kv: KnotVector, order: int, evaluated=None):
    """Weights ``(ns, order)`` of the ``order``-point Gauss rule on the spans of ``kv`` and the
    :class:`_Table` of ``evaluated`` (default ``kv``) at its nodes, from ``space``'s store:
    keyed by the knots (an open knot vector's knots fix its degree), not by sizes."""
    key, evaluated = (order, kv.knots.tobytes()), kv if evaluated is None else evaluated
    nodes, weights = _memo(space._univariate, key, lambda: _span_rule(kv, order))
    return weights, _memo(space._univariate, (*key, evaluated.knots.tobytes()),
                          lambda: _table(evaluated, nodes))


def _rows(tables, multi):
    return [t.ders[i] for t, i in zip(tables, multi)], [t.first[i] for t, i in zip(tables, multi)]


def _grid_field(space: DiscreteSpace, tables, coefficients: np.ndarray, need: int):
    """Values and parameter derivatives of ``k`` fields on the tensor grid of ``tables``.

    ``tables`` hold one direction of ``space`` each (all its spans, a slab of them, or a
    pinned face point) and ``coefficients`` ``(space.dim, k)`` the fields' control values.
    The coefficient tensor, cut to the functions active on the grid, is contracted with each
    direction's table, the last direction first: one batched matrix product per derivative
    slot takes each span's rows ``(q, p + 1)`` times the coefficients of its ``p + 1`` active
    functions, and each direction splits slots of higher order off those of lower order.  On
    a NURBS space the weights ride along as one more component and the quotient rule is
    applied at the end.  Returns values ``(k, P)``, gradients ``(k, dim, P)`` for ``need >= 1``
    and Hessians ``(k, dim, dim, P)`` for ``need = 2`` (else None) at the ``P`` grid points,
    C order with direction 0 slowest: points last, each slot written in place as rows.
    """
    nd = space.ndim
    if space.weights is not None:
        w = space.weights[:, None]
        coefficients = np.concatenate((coefficients * w, w), axis=1)
    k = coefficients.shape[1]
    # flat dofs run direction 0 fastest; as (k, n_0, ..., n_last), cut to the active functions
    data = coefficients.T.reshape(k, *space.dims[::-1]).transpose(0, *range(nd, 0, -1))
    slots = {(): data[(slice(None), *(slice(t.first[0], t.first[-1] + t.ders.shape[-1])
                                      for t in tables))]}     # derivative orders done so far
    for a in range(nd - 1, -1, -1):
        t = tables[a]
        ns, q, _, m = t.ders.shape
        active = (t.first - t.first[0])[:, None] + np.arange(m)                # (ns, m)
        contracted = {}
        for key, d in slots.items():
            local = d.reshape(-1, active[-1, -1] + 1).T[active]                 # (ns, m, rest)
            for o in range(need + 1 - sum(key)):
                contracted[(o, *key)] = np.matmul(t.ders[:, :, o], local).reshape(ns * q, -1)
        slots = contracted

    size = slots[(0,) * nd].size // k
    fields = [np.empty((k, *(nd,) * o, size)) for o in range(need + 1)] + [None] * (2 - need)
    for o in range(need + 1):
        for dirs in np.ndindex(*(nd,) * o):   # the slot differentiated once in each of ``dirs``
            slot = slots[tuple(np.bincount(dirs, minlength=nd))]
            fields[o][(slice(None), *dirs)] = slot.reshape(-1, k).T
    if space.weights is not None:   # the fields over the weight component
        split = [(None, None) if d is None else (d[:-1], d[-1:]) for d in fields]
        fields = _quotient(*zip(*split), axis=1)
    return tuple(fields)


def _band_operator(table: _Table, test: int, trial: int | None = None) -> sp.csr_matrix:
    """One direction's points (columns) onto its functions from ``table.first[0]``: row ``i``
    holds derivative ``test`` of function ``i``, or with ``trial`` row ``i * (2p + 1) + o``
    its product with derivative ``trial`` of function ``i + o - p``, the banded pattern.
    Built compressed: the (span, functions) entries sorted by row and span bring their
    span's points, so every row lists its columns in order, as a COO-to-CSR would."""
    ns, q, _, m = table.ders.shape
    own = (table.first - table.first[0])[:, None] + np.arange(m)           # (ns, m)
    rows, vals, width = own, table.ders[:, :, test, :].transpose(0, 2, 1), 1   # (ns, m, q)
    if trial is not None:
        width = 2 * m - 1
        rows = own[..., None] * width + (np.arange(m) - np.arange(m)[:, None] + m - 1)
        vals = table.ders[:, :, test, :, None] * table.ders[:, :, trial, None, :]
        vals = vals.transpose(0, 2, 3, 1)                                    # (ns, m, m, q)
    rows = rows.ravel()
    order = np.argsort(rows, kind='stable')                 # by row, then span
    n_rows = (own[-1, -1] + 1) * width
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows) * q)))
    indices = (q * (order // (rows.size // ns))[:, None] + np.arange(q)).ravel()
    return sp.csr_matrix((vals.reshape(-1, q)[order].ravel(), indices, indptr),
                         shape=(n_rows, ns * q))


def _operator(operators: dict, table: _Table, key) -> sp.csr_matrix:
    """:func:`_band_operator` of ``table`` for ``key = (test[, trial])``, kept for the stage in
    ``operators`` by the table's id, with the table, so that no other table takes the id."""
    return _memo(operators, (id(table), key), lambda: (table, _band_operator(table, *key)))[1]


def _contract(terms: dict, tables, operators: dict):
    """``sum_key (U_0 x ... x U_last)(key) field`` by sum factorization, or None without terms:
    each key holds a ``(test[, trial])`` entry per direction, contracted by the table's
    :func:`_operator` from ``operators``, the first direction first, once per group of terms
    that agree in the later ones."""
    last = len(tables) - 1
    for a, table in enumerate(tables):
        summed = {}
        for key, values in terms.items():
            op = _operator(operators, table, key[0])
            summed[key[1:]] = summed.get(key[1:], 0) + op @ values.reshape(op.shape[1], -1)
        terms = summed if a == last else {k: np.ascontiguousarray(v.T) for k, v in summed.items()}
    return terms.get(())


def _face_measure(adj: np.ndarray, face_dir: int) -> np.ndarray:
    """Surface measure ``sqrt(det G^T G)`` of a face, ``G`` the Jacobian without column
    ``face_dir``, in closed form: by Cauchy-Binet it is the norm of row ``face_dir`` of the
    adjugate ``(dim, dim, ...)``, the cofactors of that column."""
    return np.sqrt((adj[face_dir] ** 2).sum(axis=0))


def at_points(f, x: np.ndarray) -> np.ndarray:
    """``f`` at the points ``x`` ``(E, q, dim)`` of a block, shaped ``(E, q, ...)``."""
    out = f(x.reshape(-1, x.shape[-1]))
    return out.reshape(x.shape[:2] + out.shape[1:])


class ElementBatcher:
    """Iterates slabs of the Gauss grid, or blocks of elements, of a space under a geometry map.

    ``orders`` are univariate quadrature point counts, defaulting to
    ``degree + 1``; rules and tables come from the space's store, and the batcher keeps
    the band operators its stage contracts with (:func:`_contract`).  :meth:`grid_slabs`
    yields :class:`GridSlab` with the map and one field on the global Gauss grid;
    :meth:`blocks` yields :class:`ElementBlock`, the slabs' points, weighted measures and
    map derivatives by element with pulled-back basis derivatives up to the requested order
    (0 = values, 1 = +gradients, 2 = +Hessians).  Both take ``face = (fixed_dir, side)`` to
    run over a boundary face in place of the volume.
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
        # kept for one stage only: kept for a level, they pinned the allocator's heap above
        # the stage's temporaries and raised the solve's peak RSS
        self._operators = {}
        self._weights = []
        self._tables = []
        self._geo_tables = []
        for kv, kvg, o in zip(space.knot_vectors, geom.space.knot_vectors, self.orders):
            weights, table = _level_table(space, kv, o)
            self._weights.append(weights)
            self._tables.append(table)
            self._geo_tables.append(_level_table(space, kv, o, kvg)[1])

    def _tables_for(self, face):
        """Solution and geometry tables and the pinned direction of the volume
        (``face`` None) or of the face ``face = (fixed_dir, side)``."""
        if face is None:
            return self._tables, self._geo_tables, None
        fixed_dir, side = face
        pinned = np.array([[float(side)]])
        tables = list(self._tables)
        geo_tables = list(self._geo_tables)
        for t, k in ((tables, self.space.knot_vectors[fixed_dir]),
                     (geo_tables, self.geom.space.knot_vectors[fixed_dir])):
            t[fixed_dir] = _memo(self.space._univariate, ('face', side, k.knots.tobytes()),
                                 lambda: _table(k, pinned))
        return tables, geo_tables, fixed_dir

    def blocks(self, need: int = 2, face=None):
        """Yield basis data for every element, in blocks: element views of :meth:`grid_slabs`.

        A slab's points, weights, ``J``, ``det J`` and map Hessian are regrouped by element,
        ``(E, q, ...)``, and the basis of :func:`tensor_basis` on its rows, as many elements at
        a time as fit the byte budget, is pulled back by its ``J^-1 = adj / det``.  ``face =
        (fixed_dir, side)`` restricts the blocks to the boundary face ``xi_fixed_dir = side``
        (0 or 1): weights carry the surface measure of the restricted map, and basis
        derivatives are still pulled back with the full volume Jacobian.
        """
        tables, nd = self._tables_for(face)[0], self.nd
        shape = tuple(t.first.size for t in tables)
        q = int(np.prod([t.ders.shape[1] for t in tables]))
        m = int(np.prod([p + 1 for p in self.space.degrees]))
        size = max(1, _BLOCK_BYTES // (q * 8 * m * sum(nd**k for k in range(need + 1))))
        order, start = [*range(0, 2 * nd, 2), *range(1, 2 * nd, 2)], 0
        for s in self.grid_slabs(need=need, face=face):
            spans = [t.first.size for t in s.tables]
            grid = [n for t in s.tables for n in (t.first.size, t.ders.shape[1])]

            def by_element(a):      # (..., P) to (E, q, ...): (s_0, q_0, s_1, ...) to (s..., q...)
                lead = a.ndim - 1
                a = a.reshape(*a.shape[:-1], *grid).transpose(*(lead + k for k in order),
                                                                *range(lead))
                return a.reshape(-1, q, *a.shape[2 * nd:])
            x, w, jac, det, inv, hg = (a if a is None else by_element(a)
                                       for a in (s.x, s.w, s.jac, s.det, s.adj / s.det, s.hess))
            for lo in range(0, x.shape[0], size):
                chunk = slice(lo, lo + size)
                local = np.unravel_index(np.arange(lo, min(lo + size, x.shape[0])), spans)
                index = np.ravel_multi_index((*local[:-1], local[-1] + start), shape)
                dofs, val, grad, hess = tensor_basis(self.space, *_rows(s.tables, local), need)
                if need >= 1:       # J^-T g, in derivative-major memory, as the kernels read it
                    grad = np.matmul(inv[chunk].swapaxes(2, 3), grad.swapaxes(2, 3)).swapaxes(2, 3)
                if need >= 2:       # J^-T (H - sum_k g_k H_geom[k]) J^-1
                    corr = hess - np.einsum('eqmk,eqkab->eqmab', grad, hg[chunk])
                    hess = np.einsum('eqia,eqmij,eqjb->eqmab', inv[chunk], corr, inv[chunk],
                                     optimize=True)
                yield ElementBlock(index, dofs, x[chunk], w[chunk], val, grad, hess, jac[chunk],
                                   det[chunk])
            start += spans[-1]

    def grid_slabs(self, need: int = 1, coefficients=None, face=None):
        """Yield the map, and one field if given, on the global Gauss grid of slabs of time spans.

        A slab takes as many whole time spans as fit the byte budget; ``face = (fixed_dir,
        side)`` runs over a boundary face instead, weighted by its surface measure.  The map
        comes with its Jacobian, adjugate and determinant (one :func:`_adjugate` per slab)
        and, for ``need = 2``, its Hessian; the field ``coefficients`` ``(space.dim,)`` with its
        values and, for ``need >= 1``, its physical gradient, pulled back by the adjugate.  All
        arrays are points last (:class:`GridSlab`).  Raises ``SingularGeometryError`` unless
        ``det J > 0`` at every point.
        """
        nd = self.nd
        tables, geo_tables, face_dir = self._tables_for(face)
        weights = [np.ones((1, 1)) if a == face_dir else w for a, w in enumerate(self._weights)]
        spans, points = [t.first.size for t in tables], [t.ders.shape[1] for t in tables]
        per_span = int(np.prod(spans[:-1] + points))
        step = max(1, _BLOCK_BYTES // (8 * (nd + 1) ** 3 * per_span))
        for start in range(0, spans[-1], step):
            stop = min(start + step, spans[-1])
            slab, geo_slab = ([*t[:-1], t[-1] if step >= spans[-1] else
                               _Table(t[-1].ders[start:stop], t[-1].first[start:stop])]
                              for t in (tables, geo_tables))
            x, J, H = _grid_field(self.geom.space, geo_slab, self.geom.control_points, max(need, 1))
            adj, det = _adjugate(J)
            _require_orientation(det, x.T)
            w = reduce(np.multiply.outer,
                       [v.ravel() for v in (*weights[:-1], weights[-1][start:stop])])
            w = w.ravel() * (det if face_dir is None else _face_measure(adj, face_dir))
            val = grad = None
            if coefficients is not None:
                val, grad, _ = _grid_field(self.space, slab, coefficients[:, None], min(need, 1))
                val = val[0]
                if grad is not None:
                    # grad_x u = J^{-T} grad_xi u = adj^T grad_xi u / det, one row per component
                    grad = np.einsum('ap,ajp->jp', grad[0], adj) / det
            yield GridSlab(slab, x, w, J, adj, det, H, val, grad)
