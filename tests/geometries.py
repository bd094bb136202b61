"""Geometry maps that only the tests build."""
import numpy as np

from spacetime_iga.geometry import GeometryMap
from spacetime_iga.tensor_space import DiscreteSpace


def identity_geometry(space: DiscreteSpace) -> GeometryMap:
    """Geometry map fixing the parameter cube (Greville interpolation)."""
    if space.weights is not None:
        raise ValueError('identity geometry expects an unweighted space')
    axes = [kv.greville() for kv in space.knot_vectors]
    grids = np.meshgrid(*axes, indexing='ij')
    # flat dof order runs direction 0 fastest
    nd = space.ndim
    cp = np.stack([np.transpose(g, axes=range(nd - 1, -1, -1)).ravel() for g in grids], axis=1)
    return GeometryMap(space, cp)
