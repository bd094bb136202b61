"""Block iteration over the elements of a space under a geometry map.

Internal machinery shared by assembly, mesh metrics and postprocessing:
univariate basis tables of every knot span (one array call of
:func:`splines.eval_basis` per direction) and the loop over blocks of
elements and boundary faces.  A block holds ``E`` elements as arrays
with a leading element axis; ``E`` follows from one fixed byte budget.
The tensor combination, the NURBS quotient rule, the geometry evaluation
and the pullback are the batched kernels of :mod:`tensor_space` and
:mod:`geometry`; on an identity map the blocks skip the Jacobian and the
pullback.  Public modules re-export nothing from here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryMap, eval_geometry, pullback_derivatives
from .quadrature import gauss_1d
from .splines import KnotVector, eval_basis, find_span
from .tensor_space import DiscreteSpace, tensor_basis

# Bytes of one block's basis arrays (values and derivatives up to the
# requested order); the pullback and the local kernels hold a few times that.
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
    base = gauss_1d(n)
    lengths = np.diff(kv.spans, axis=1)
    return kv.spans[:, :1] + lengths * base.nodes[:, 0][None, :], lengths * base.weights[None, :]


def _rows(tables, multi):
    return [t.ders[i] for t, i in zip(tables, multi)], [t.first[i] for t, i in zip(tables, multi)]


def at_points(f, x: np.ndarray) -> np.ndarray:
    """``f`` at the points ``x`` ``(E, q, dim)`` of a block, shaped ``(E, q, ...)``."""
    out = f(x.reshape(-1, x.shape[-1]))
    return out.reshape(x.shape[:2] + out.shape[1:])


class ElementBatcher:
    """Iterates blocks of elements (or boundary faces) of a space under a geometry map.

    ``orders`` are univariate quadrature point counts, defaulting to
    ``degree + 1``.  Each iteration yields an :class:`ElementBlock` with
    physical points, weighted measures and pulled-back basis derivatives
    up to the requested order (0 = values, 1 = +gradients, 2 = +Hessians).
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

    def _ranges(self, tables, space, need):
        """Element-index blocks over the span grid of ``tables`` within the byte budget."""
        shape = tuple(t.first.size for t in tables)
        n_el = int(np.prod(shape))
        q = int(np.prod([t.ders.shape[1] for t in tables]))
        m = int(np.prod([p + 1 for p in space.degrees]))
        size = max(1, _BLOCK_BYTES // (8 * q * m * sum(self.nd**k for k in range(need + 1))))
        for start in range(0, n_el, size):
            index = np.arange(start, min(start + size, n_el))
            yield index, np.unravel_index(index, shape)

    def _blocks(self, tables, geo_tables, need, face_dir=None):
        nd = self.nd
        for index, multi in self._ranges(tables, self.space, need):
            dofs, val, grad, hess = tensor_basis(self.space, *_rows(tables, multi), need)
            E, q, m = val.shape
            w = np.ones((E, 1))
            for a in range(nd):
                if a != face_dir:
                    w = (w[:, :, None] * self._weights[a][multi[a]][:, None, :]).reshape(E, -1)
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
                if face_dir is None:
                    w = w * det
                else:
                    G = np.delete(J, face_dir, axis=3)
                    w = w * np.sqrt(np.linalg.det(np.einsum('eqka,eqkb->eqab', G, G)))
                if need >= 1:
                    grad, hess = pullback_derivatives(
                        J.reshape(E * q, nd, nd), grad.reshape(E * q, m, nd),
                        None if hess is None else hess.reshape(E * q, m, nd, nd),
                        None if Hg is None else Hg.reshape(E * q, nd, nd, nd))
                    grad = grad.reshape(E, q, m, nd)
                    hess = None if hess is None else hess.reshape(E, q, m, nd, nd)
            yield ElementBlock(index, dofs, x, w, val, grad, hess, J, det)

    def blocks(self, need: int = 2):
        """Yield volume data for every element, in blocks, C order."""
        yield from self._blocks(self._tables, self._geo_tables, need)

    def face_blocks(self, fixed_dir: int, side: int, need: int = 1):
        """Yield data for the boundary face ``xi_fixed_dir = side`` (0 or 1), in blocks.

        Weights carry the surface measure of the restricted map; basis
        derivatives are still pulled back with the full volume Jacobian.
        """
        pinned = np.array([[float(side)]])
        tables = list(self._tables)
        geo_tables = list(self._geo_tables)
        tables[fixed_dir] = _table(self.space.knot_vectors[fixed_dir], pinned)
        geo_tables[fixed_dir] = _table(self.geom.space.knot_vectors[fixed_dir], pinned)
        yield from self._blocks(tables, geo_tables, need, face_dir=fixed_dir)

    def jacobian_blocks(self):
        """Yield ``(index, J)`` per block: geometry Jacobians ``(E, q, dim, dim)``
        at the quadrature points, without evaluating the solution basis."""
        for index, multi in self._ranges(self._geo_tables, self.geom.space, 1):
            yield index, eval_geometry(self.geom, *_rows(self._geo_tables, multi), need=1)[1]
