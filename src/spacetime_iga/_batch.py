"""Per-element iteration over a space under a geometry map.

Internal machinery shared by assembly, mesh metrics and postprocessing:
univariate basis tables per knot span and the loop over elements and
boundary faces.  The tensor combination, the NURBS quotient rule, the
geometry evaluation and the pullback are the batched kernels of
:mod:`tensor_space` and :mod:`geometry`.  Public modules re-export
nothing from here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryMap, eval_geometry, pullback_derivatives
from .quadrature import gauss_1d
from .splines import KnotVector, eval_basis, find_span
from .tensor_space import DiscreteSpace, tensor_basis


@dataclass(frozen=True)
class ElementData:
    """Everything needed to integrate over one element (or element face)."""

    index: int
    multi: tuple
    dofs: np.ndarray          # (m,) flat solution dof indices
    x: np.ndarray             # (q, dim) physical quadrature points
    w: np.ndarray             # (q,) weights incl. |det J| (volume) or surface metric (face)
    val: np.ndarray           # (q, m)
    grad: np.ndarray | None   # (q, m, dim) physical gradients
    hess: np.ndarray | None   # (q, m, dim, dim) physical Hessians
    jac: np.ndarray           # (q, dim, dim)
    det: np.ndarray           # (q,)


@dataclass(frozen=True)
class _Table:
    """Univariate rows of one direction, one table row per node row."""

    ders: np.ndarray         # (ns, q, 3, p+1)
    first: np.ndarray        # (ns,) first active univariate index


def _table(kv: KnotVector, nodes: np.ndarray) -> _Table:
    """Evaluate ``kv`` at ``nodes`` ``(ns, q)``; each node row must lie in one span."""
    ns, q = nodes.shape
    ders = np.empty((ns, q, 3, kv.degree + 1))
    first = np.empty(ns, dtype=np.int64)
    for s in range(ns):
        span = find_span(kv, 0.5 * (nodes[s, 0] + nodes[s, -1]))
        for j in range(q):
            row = eval_basis(kv, nodes[s, j])
            if row.span != span:
                raise ValueError('solution spans must refine geometry spans')
            ders[s, j] = row.values, row.first_derivs, row.second_derivs
        first[s] = span - kv.degree
    return _Table(ders, first)


def _rows(tables, multi):
    return ([t.ders[i] for t, i in zip(tables, multi)],
            [t.first[i] for t, i in zip(tables, multi)])


class ElementBatcher:
    """Iterates elements (or boundary faces) of a space under a geometry map.

    ``orders`` are univariate quadrature point counts, defaulting to
    ``degree + 1``.  Each iteration yields :class:`ElementData` with
    physical points, weighted measures and pulled-back basis derivatives
    up to the requested order (0 = values, 1 = +gradients, 2 = +Hessians).
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
        self._weights = []
        self._tables = []
        self._geo_tables = []
        for kv, kvg, o in zip(space.knot_vectors, geom.space.knot_vectors, self.orders):
            base = gauss_1d(o)
            lengths = np.diff(kv.spans, axis=1)
            nodes = kv.spans[:, :1] + lengths * base.nodes[:, 0][None, :]
            self._weights.append(lengths * base.weights[None, :])
            self._tables.append(_table(kv, nodes))
            self._geo_tables.append(_table(kvg, nodes))

    def _shape(self):
        return tuple(kv.spans.shape[0] for kv in self.space.knot_vectors)

    def _element(self, index, multi, tables, geo_tables, need, face_dir=None):
        nd = self.nd
        dofs, val, grad, hess = tensor_basis(self.space, *_rows(tables, multi), need)
        x, J, det, Hg = eval_geometry(self.geom, *_rows(geo_tables, multi),
                                      need=2 if need >= 2 else 1)

        w_axes = [self._weights[a][multi[a]] for a in range(nd) if a != face_dir]
        w = w_axes[0]
        for wa in w_axes[1:]:
            w = (w[:, None] * wa[None, :]).ravel()
        if face_dir is None:
            w = w * det
        else:
            cols = [a for a in range(nd) if a != face_dir]
            G = J[:, :, cols]
            gram = np.einsum('qka,qkb->qab', G, G)
            w = w * np.sqrt(np.linalg.det(gram))

        grad_phys = hess_phys = None
        if need >= 1:
            grad_phys, hess_phys = pullback_derivatives(J, grad, hess, Hg)
        return ElementData(index, tuple(multi), dofs, x, w, val, grad_phys, hess_phys, J, det)

    def elements(self, need: int = 2):
        """Yield volume data for every element, C order, direction 0 slowest."""
        for index, multi in enumerate(np.ndindex(*self._shape())):
            yield self._element(index, multi, self._tables, self._geo_tables, need)

    def faces(self, fixed_dir: int, side: int, need: int = 1):
        """Yield data for the boundary face ``xi_fixed_dir = side`` (0 or 1).

        Weights carry the surface measure of the restricted map; basis
        derivatives are still pulled back with the full volume Jacobian.
        """
        pinned = np.array([[float(side)]])
        tables = list(self._tables)
        geo_tables = list(self._geo_tables)
        tables[fixed_dir] = _table(self.space.knot_vectors[fixed_dir], pinned)
        geo_tables[fixed_dir] = _table(self.geom.space.knot_vectors[fixed_dir], pinned)
        shape = list(self._shape())
        shape[fixed_dir] = 1
        for index, multi in enumerate(np.ndindex(*shape)):
            yield self._element(index, multi, tables, geo_tables, need, face_dir=fixed_dir)

    def jacobians(self):
        """Yield ``(multi, J)`` per element: geometry Jacobians ``(q, dim, dim)``
        at the quadrature points, without evaluating the solution basis."""
        for multi in np.ndindex(*self._shape()):
            yield multi, eval_geometry(self.geom, *_rows(self._geo_tables, multi), need=1)[1]
