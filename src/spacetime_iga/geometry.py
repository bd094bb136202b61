"""Spline/NURBS geometry maps from the parameter cube to space-time.

The map ``Phi`` sends the open unit cube onto the space-time cylinder;
its last component is the time coordinate.  Every evaluation of the map
runs through the sum-factorized field kernel of the internal ``_batch``
module, on grid slabs of the global Gauss grid.  The module also
provides the physical element sizes that enter the moving-domain
stability bound.  Every Jacobian is inverted by one closed-form
:func:`_adjugate` on points-last rows ``(n, n, ...)``, once per grid
slab; element blocks read the slab's.  The knot-mesh size that scales
the scheme depends on the knots alone (:attr:`DiscreteSpace.h_hat`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_space import DiscreteSpace

__all__ = [
    'GeometryMap',
    'PhysicalMesh',
    'SingularGeometryError',
    'mesh_metrics',
    'greville_grid',
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
        if not np.all(np.isfinite(cp)):
            raise ValueError(f'control points must be finite, got {cp[~np.isfinite(cp)][0]}')
        object.__setattr__(self, 'control_points', cp)

    @property
    def ndim(self) -> int:
        return self.space.ndim

    @property
    def is_identity(self) -> bool:
        """Whether the map is the identity of the parameter cube: a B-spline
        map (no weights) whose control points are the Greville grid of its
        own knot vectors, to 1e-12."""
        return (self.space.weights is None
                and np.allclose(self.control_points, greville_grid(self.space),
                                rtol=0.0, atol=1e-12))


def greville_grid(space: DiscreteSpace) -> np.ndarray:
    """Greville point of every dof of ``space``, shape ``(dim, ndim)``.

    These are the control points of the identity map in ``space``."""
    grids = np.meshgrid(*[kv.greville() for kv in space.knot_vectors], indexing='ij')
    # flat dof order runs direction 0 fastest
    return np.stack([g.ravel(order='F') for g in grids], axis=1)


@dataclass(frozen=True)
class PhysicalMesh:
    """Element sizes of a solution space under a geometry map.

    Elements are the tensor products of the solution space's knot spans,
    enumerated in C order (direction 0 slowest).  ``h_param[e]`` is the
    Euclidean diameter of the parameter cell, ``h_elem[e]`` its physical
    size ``max ||grad Phi||_2 * h_param`` with the norm sampled at the
    element's quadrature points, and ``h`` the global physical mesh size.
    The largest ``h_param`` is :attr:`DiscreteSpace.h_hat`.
    """

    h_param: np.ndarray
    h_elem: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.h_elem.size

    @property
    def h(self) -> float:
        return float(self.h_elem.max())


def _require_orientation(det: np.ndarray, x: np.ndarray):
    """Raise ``SingularGeometryError`` unless ``det J > 0`` at every point.

    ``det`` holds the Jacobian determinants at the points ``x``, shaped
    ``det.shape + (dim,)``; the message names the worst point."""
    if not np.all(det > 0.0):
        k = int(np.argmin(det))
        where = ', '.join(f'{c:.6g}' for c in x.reshape(-1, x.shape[-1])[k])
        raise SingularGeometryError(
            f'non-positive Jacobian determinant {det.ravel()[k]:.6g} at x = ({where})')


def _adjugate(jac: np.ndarray):
    """Adjugates and determinants of square matrices ``jac`` ``(n, n, ...)``, points last.

    In closed form from the cofactors for ``n`` = 2 and 3 (d = 1 and 2), each entry written in
    place as one row; larger ``n`` through LAPACK.  ``adj / det`` is the inverse.  Grid slabs
    call it once per slab."""
    n, adj = jac.shape[0], np.empty(jac.shape)
    if n == 2:
        (a, b), (c, d) = jac
        adj[0, 0], adj[0, 1], adj[1, 0], adj[1, 1] = d, -b, -c, a
        return adj, a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = jac
        for row, (x, y, u, v) in zip(adj.reshape(9, *jac.shape[2:]), (
                (e, i, f, h), (c, h, b, i), (b, f, c, e), (f, g, d, i), (a, i, c, g),
                (c, d, a, f), (d, h, e, g), (b, g, a, h), (a, e, b, d))):
            np.subtract(x * y, u * v, out=row)
        return adj, a * adj[0, 0] + b * adj[1, 0] + c * adj[2, 0]
    mats = np.moveaxis(jac, (0, 1), (-2, -1))
    det = np.linalg.det(mats)
    return np.moveaxis(np.linalg.inv(mats) * det[..., None, None], (-2, -1), (0, 1)), det


def _largest_eigenvalue(s: np.ndarray) -> np.ndarray:
    """Largest eigenvalues of symmetric ``s`` ``(n, n, ...)``, points last: in closed form for
    ``n`` = 2, by the trigonometric formula for 3 and by LAPACK for larger ``n``."""
    if s.shape[0] == 2:
        half = 0.5 * (s[0, 0] - s[1, 1])
        return s[1, 1] + half + np.hypot(half, s[0, 1])
    if s.shape[0] != 3:
        return np.linalg.eigvalsh(np.moveaxis(s, (0, 1), (-2, -1)))[..., -1]
    (a, d, e), (_, b, f), (_, _, c) = s
    q = (a + b + c) / 3
    a, b, c = a - q, b - q, c - q
    p = np.sqrt((a * a + b * b + c * c + 2 * (d * d + e * e + f * f)) / 6)
    with np.errstate(divide='ignore', invalid='ignore'):
        r = (a * b * c + 2 * d * e * f - a * f * f - b * e * e - c * d * d) / (2 * p**3)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3
    lam = q + 2 * p * np.cos(phi)
    # near a double largest eigenvalue (r -> -1) the arccos loses digits; there the smallest
    # eigenvalue is well separated, its eigenvector v a column of the adjugate of S - lam_3 I
    # (a multiple of v v^T), and the largest that of S on the plane orthogonal to v, spanned
    # by the branchless basis of Duff et al. (JCGT 6, 2017)
    near = r < 1e-4 - 1.0
    low = 2 * p[near] * np.cos(phi[near] + 2 * np.pi / 3)
    (A, B, C), (D, E, F) = (x[near] - low for x in (a, b, c)), (x[near] for x in (d, e, f))
    adj = np.array([[B * C - F * F, E * F - C * D, D * F - B * E],
                    [E * F - C * D, A * C - E * E, D * E - A * F],
                    [D * F - B * E, D * E - A * F, A * B - D * D]])
    v = adj[np.argmax(np.abs(adj[[0, 1, 2], [0, 1, 2]]), axis=0), :, np.arange(low.size)]
    with np.errstate(invalid='ignore'):     # v = 0 only at a multiple of I
        x, y, z = (v / np.copysign(np.sqrt((v * v).sum(axis=1)), v[:, 2])[:, None]).T  # z >= 0
    h = 1.0 / (1.0 + z)
    plane = np.array([[1 - x * x * h, -x * y * h, -x], [-x * y * h, 1 - y * y * h, -y]])
    lam[near] = _largest_eigenvalue(np.einsum('ikp,klp,jlp->ijp', plane, s[:, :, near], plane))
    # LAPACK where the formula fails: at a multiple of I (p = 0, r is nan)
    bad = ~np.isfinite(lam)
    lam[bad] = np.linalg.eigvalsh(np.moveaxis(s[:, :, bad], -1, 0))[..., -1]
    return lam


def mesh_metrics(geom: GeometryMap, space: DiscreteSpace) -> PhysicalMesh:
    """Element and global mesh sizes of ``space`` under ``geom``.

    The solution space's spans must refine the geometry's spans in every
    direction so each element sees a smooth piece of the map.  The local
    Jacobian norm is sampled at the element's ``degree + 1`` Gauss points
    per direction: the sum-factorized field kernel of the internal
    ``_batch`` module gives the Jacobians on the global Gauss grid, slab by
    slab of time spans, and each element takes the largest norm of its
    points by a reshape of the grid.  Raises
    ``SingularGeometryError`` unless ``det J > 0`` at every sample.
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
    norms = []
    for s in ElementBatcher(space, geom).grid_slabs():
        # ||J||_2 is the root of the largest eigenvalue of J^T J, one row per entry
        norm = np.sqrt(_largest_eigenvalue(np.einsum('kap,kbp->abp', s.jac, s.jac)))
        grid = [n for t in s.tables for n in (t.first.size, t.ders.shape[1])]
        norms.append(norm.reshape(grid).max(axis=tuple(range(1, 2 * nd, 2))))
    return PhysicalMesh(h_param, np.concatenate(norms, axis=-1).ravel() * h_param)
