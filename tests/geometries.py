"""Geometry maps that only the tests build."""
import numpy as np

from spacetime_iga._batch import _grid_field, _table
from spacetime_iga.geometry import GeometryMap, greville_grid
from spacetime_iga.harness import builtin_cases
from spacetime_iga.splines import single_span
from spacetime_iga.tensor_space import DiscreteSpace, tensor_basis


def point_tables(space: DiscreteSpace, xi) -> list:
    """One-node univariate tables of every direction of ``space`` at the parameter point
    ``xi``: rows ``(1, 1, 3, p + 1)`` and first indices ``(1,)``, one element of one point."""
    return [_table(kv, np.array([[x]], dtype=float)) for kv, x in zip(space.knot_vectors, xi)]


def point_basis(space: DiscreteSpace, xi, need: int):
    """:func:`tensor_basis` of ``space`` on :func:`point_tables` at ``xi``."""
    tables = point_tables(space, xi)
    return tensor_basis(space, [t.ders for t in tables], [t.first for t in tables], need)


def at_point(geom: GeometryMap, xi, need: int = 0):
    """``(x, J, H)`` of the map at the parameter point ``xi``, from the field kernel on
    :func:`point_tables`: ``J[k, a] = d x_k / d xi_a`` and ``H[k, a, b]``, None above ``need``."""
    return tuple(f if f is None else f[..., 0]
                 for f in _grid_field(geom.space, point_tables(geom.space, xi),
                                      geom.control_points, need))


def identity_geometry(space: DiscreteSpace) -> GeometryMap:
    """Geometry map fixing the parameter cube (Greville interpolation)."""
    if space.weights is not None:
        raise ValueError('identity geometry expects an unweighted space')
    return GeometryMap(space, greville_grid(space))


def quarter_annulus_cylinder():
    """Quarter annulus ``1 <= r <= 2`` times ``0 <= t <= 1``, exact in NURBS.

    Directions: radius (linear), angle (quadratic arc with weights
    ``[1, sqrt(1/2), 1]``), time (linear).
    """
    arc = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cp, w = [], []
    for t in (0.0, 1.0):
        for j, wj in enumerate((1.0, np.sqrt(0.5), 1.0)):
            for r in (1.0, 2.0):
                cp.append([*(r * arc[j]), t])
                w.append(wj)
    space = DiscreteSpace([single_span(1), single_span(2), single_span(1)], np.array(w))
    return GeometryMap(space, np.array(cp))


def perturbed_nurbs_cylinder(seed: int = 3) -> GeometryMap:
    """moving-curvi-2d's map with random NURBS weights in [0.8, 1.25] and every
    control point coordinate, time included, moved by up to 0.06.

    Its inverse Jacobian and second derivatives have no zero entries, so every
    chain-rule coefficient of the assembled forms is exercised.
    """
    geom = builtin_cases()['moving-curvi-2d'].geometry
    rng = np.random.default_rng(seed)
    space = DiscreteSpace(geom.space.knot_vectors, rng.uniform(0.8, 1.25, geom.space.dim))
    return GeometryMap(space, geom.control_points
                       + rng.uniform(-0.06, 0.06, geom.control_points.shape))
