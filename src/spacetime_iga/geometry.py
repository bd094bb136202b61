"""Spline/NURBS geometry maps from the parameter cube to space-time.

The map ``Phi`` sends the open unit cube onto the space-time cylinder;
its last component is the time coordinate.  One batched evaluation,
:func:`eval_geometry`, gives the map and its first and second derivatives
at a tensor grid of points; ``map_point``, ``jacobian`` and ``hessian``
are one-point calls of it.  The module also provides the batched pullback
of basis derivatives to physical coordinates and the mesh metrics
(element sizes, global mesh size) that enter the stabilized scheme.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_space import DiscreteSpace, point_rows, tensor_basis

__all__ = [
    'GeometryMap',
    'PhysicalMesh',
    'SingularGeometryError',
    'eval_geometry',
    'map_point',
    'jacobian',
    'hessian',
    'pullback_derivatives',
    'mesh_metrics',
]


class SingularGeometryError(RuntimeError):
    """Raised when the geometry Jacobian is singular or orientation-reversing."""


@dataclass(frozen=True)
class GeometryMap:
    """Geometry map defined by a discrete space and its control points.

    ``control_points[i]`` is the physical position (spatial coordinates
    followed by time) attached to flat dof ``i`` of ``space``.  The time
    component must equal the parameter time, ``t = tau``.  The built-in
    cylinders do; the harness checks custom geometries when it builds
    their case, and this class checks nothing.
    """

    space: DiscreteSpace
    control_points: np.ndarray

    def __post_init__(self):
        cp = np.ascontiguousarray(np.asarray(self.control_points, dtype=float))
        if cp.shape != (self.space.dim, self.space.ndim):
            raise ValueError(
                f'control points must have shape {(self.space.dim, self.space.ndim)}, got {cp.shape}')
        object.__setattr__(self, 'control_points', cp)

    @property
    def ndim(self) -> int:
        return self.space.ndim


@dataclass(frozen=True)
class PhysicalMesh:
    """Element sizes of a solution space under a geometry map.

    Elements are the tensor products of the solution space's knot spans,
    enumerated in C order (direction 0 slowest).  ``h_param[e]`` is the
    Euclidean diameter of the parameter cell, ``h_elem[e]`` its physical
    size ``max ||grad Phi||_2 * h_param`` with the norm sampled at the
    element's quadrature points, and ``h`` the global mesh size.
    """

    h_param: np.ndarray
    h_elem: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.h_elem.size

    @property
    def h(self) -> float:
        return float(self.h_elem.max())

    @property
    def h_hat(self) -> float:
        """Global knot-mesh size: max parameter-cell diameter.

        This is the h the stabilized forms and discrete norms are scaled
        with; ``h``/``h_elem`` keep the physically mapped sizes used by
        the quasi-uniformity ratio.
        """
        return float(self.h_param.max())


def eval_geometry(geom: GeometryMap, rows, firsts, need: int):
    """Map, Jacobian and Hessian on a block of ``E`` elements.

    ``rows`` and ``firsts`` are univariate rows of ``geom.space`` as
    :func:`tensor_basis` takes them.  Returns ``(x, J, det, H)`` with
    ``x[e, i]`` the image of point ``i`` of element ``e``,
    ``J[e, i, k, a] = d Phi_k / d xi_a``, its determinant, and
    ``H[e, i, k, a, b] = d^2 Phi_k / d xi_a d xi_b``; entries above
    ``need`` (0, 1 or 2) are None.  Raises ``SingularGeometryError``
    unless ``det J > 0`` at every point of the block.
    """
    active, val, grad, hess = tensor_basis(geom.space, rows, firsts, need)
    P = geom.control_points[active]                               # (E, m, dim)
    x = val @ P
    if need < 1:
        return x, None, None, None
    J = np.einsum('eqma,emk->eqka', grad, P)
    det = np.linalg.det(J)
    if not np.all(det > 0.0):
        k = int(np.argmin(det))
        where = ', '.join(f'{c:.6g}' for c in x.reshape(-1, x.shape[-1])[k])
        raise SingularGeometryError(
            f'non-positive Jacobian determinant {det.ravel()[k]:.6g} at x = ({where})')
    H = np.einsum('eqmab,emk->eqkab', hess, P) if need >= 2 else None
    return x, J, det, H


def map_point(geom: GeometryMap, xi) -> np.ndarray:
    """Physical image of the parameter point ``xi``."""
    return eval_geometry(geom, *point_rows(geom.space, xi, 0), need=0)[0][0, 0]


def jacobian(geom: GeometryMap, xi):
    """Jacobian matrix ``J[k, a] = d Phi_k / d xi_a`` and its determinant.

    Raises ``SingularGeometryError`` unless ``det J > 0``.
    """
    _, J, det, _ = eval_geometry(geom, *point_rows(geom.space, xi, 1), need=1)
    return J[0, 0], float(det[0, 0])


def hessian(geom: GeometryMap, xi) -> np.ndarray:
    """Second derivatives ``H[k, a, b] = d^2 Phi_k / d xi_a d xi_b``.

    Raises ``SingularGeometryError`` unless ``det J > 0`` at ``xi``.
    """
    return eval_geometry(geom, *point_rows(geom.space, xi, 2), need=2)[3][0, 0]


def pullback_derivatives(jac, grads, hessians=None, hess_geom=None):
    """Push parameter-space basis derivatives to physical coordinates.

    Gradients solve ``J^T g = g_param``; Hessians use
    ``H = J^{-T} (H_param - sum_k g_k H_geom[k]) J^{-1}`` with the
    physical gradient ``g``.  A block of ``E`` elements with ``q``
    points each is passed as ``E * q`` points.

    Parameters
    ----------
    jac : np.ndarray
        Geometry Jacobians ``(n, dim, dim)`` at ``n`` points.
    grads, hessians : np.ndarray
        Parameter-space derivatives ``(n, m, dim)`` and optionally
        ``(n, m, dim, dim)`` of ``m`` basis functions.
    hess_geom : np.ndarray
        Geometry second derivatives ``(n, dim, dim, dim)``; required
        with ``hessians`` (zeros for an affine map).

    Returns
    -------
    (grads_phys, hess_phys or None)
    """
    g = np.linalg.solve(np.transpose(jac, (0, 2, 1)),
                        np.transpose(grads, (0, 2, 1))).transpose(0, 2, 1)
    if hessians is None:
        return g, None
    Jinv = np.linalg.inv(jac)
    corr = hessians - np.einsum('nmk,nkab->nmab', g, hess_geom)
    return g, np.einsum('nia,nmij,njb->nmab', Jinv, corr, Jinv, optimize=True)


def mesh_metrics(geom: GeometryMap, space: DiscreteSpace, orders=None) -> PhysicalMesh:
    """Element and global mesh sizes of ``space`` under ``geom``.

    The solution space's spans must refine the geometry's spans in every
    direction so each element sees a smooth piece of the map.  The local
    Jacobian norm is estimated by sampling at the element's quadrature
    points (``orders`` defaulting to ``degree + 1`` per direction).
    """
    nd = space.ndim
    if geom.ndim != nd:
        raise ValueError(f'geometry dimension {geom.ndim} does not match space dimension {nd}')
    for a, (kv_s, kv_g) in enumerate(zip(space.knot_vectors, geom.space.knot_vectors)):
        missing = np.setdiff1d(kv_g.breakpoints, kv_s.breakpoints)
        if missing.size:
            raise ValueError(f'geometry breakpoints {missing} not resolved by the space in direction {a}')
    from ._batch import ElementBatcher

    sides = np.meshgrid(*[np.diff(kv.spans, axis=1)[:, 0] for kv in space.knot_vectors],
                        indexing='ij')
    h_param = np.sqrt(sum(s**2 for s in sides)).ravel()
    h_elem = np.empty_like(h_param)
    for index, J in ElementBatcher(space, geom, orders).jacobian_blocks():
        h_elem[index] = np.linalg.norm(J, ord=2, axis=(2, 3)).max(axis=1) * h_param[index]
    return PhysicalMesh(h_param, h_elem)
