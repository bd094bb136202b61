"""Geometry maps that only the tests build."""
import numpy as np

from spacetime_iga.geometry import GeometryMap, greville_grid
from spacetime_iga.splines import single_span
from spacetime_iga.tensor_space import DiscreteSpace


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
