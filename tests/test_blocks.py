"""Block- and slab-size invariance of every stage that integrates over a level.

Basis blocks hold a number of elements, and grid slabs (d >= 2 assembly,
the error integrals, mesh metrics) a number of whole time spans, that
follow from the byte budget ``_batch._BLOCK_BYTES``.  Results must not
depend on it: one element per block and one time span per slab, the
default, and a whole level per block and per slab agree to round-off.
The NURBS quarter annulus runs the quotient rule of both, which no
built-in case exercises, and fixed-2d the identity-map shortcut.

On an identity map (``GeometryMap.is_identity``) the basis blocks skip the
geometry Jacobian and the pullback; the general path must give the same
results: bit for bit where the Jacobians are exactly ``I`` (fixed-1d),
to round-off where they are ``I`` up to a few ulps (fixed-2d).
"""
import numpy as np
import pytest

import spacetime_iga._batch as batch
from geometries import quarter_annulus_cylinder
from spacetime_iga.assembly import (SchemeParams, assemble_fixed, assemble_moving,
                                    assemble_norm_matrices, boundary_l2_project)
from spacetime_iga.geometry import GeometryMap, mesh_metrics
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.postproc import (DiscreteField, error_energy, error_l2,
                                    estimate_inverse_constant)
from spacetime_iga.tensor_space import classify_dirichlet

CASES = [('moving-curvi-1d', 3), ('quarter-annulus', 1), ('fixed-2d', 1)]


def setup(name, level, degree=2):
    if name == 'quarter-annulus':
        case, geom = builtin_cases()['fixed-2d'].case, quarter_annulus_cylinder()
    else:
        definition = builtin_cases()[name]
        case, geom = definition.case, definition.geometry
    return case, geom, solution_space(geom, degree, level)


def stage_results(name, level):
    """Every blocked stage's output on one level, as arrays keyed by function."""
    case, geom, space = setup(name, level)
    mesh = mesh_metrics(geom, space)
    params = SchemeParams(0.1, space.h_hat)
    fixed = assemble_fixed(space, geom, case, params)
    moving = assemble_moving(space, geom, case, params)
    norms = assemble_norm_matrices(space, geom, params)
    mask = classify_dirichlet(space).dirichlet_mask
    coeffs = np.random.default_rng(41).standard_normal(space.dim)
    field = DiscreteField(space, geom, coeffs)
    return {
        'assemble_fixed': (fixed.matrix.toarray(), fixed.rhs),
        'assemble_moving': (moving.matrix.toarray(), moving.rhs),
        'assemble_norm_matrices': (norms.n_fixed.toarray(), norms.n_moving.toarray(),
                                   norms.face_gradient.toarray()),
        'boundary_l2_project': (boundary_l2_project(space, geom, case.u, mask),),
        'error_l2': (error_l2(field, case),),
        'error_energy': (error_energy(field, case, params, moving=True),
                         error_energy(field, case, params, moving=False)),
        'mesh_metrics': (mesh.h_param, mesh.h_elem),
        'estimate_inverse_constant': (estimate_inverse_constant(space, geom, mesh),),
    }


def block_sizes(name, level):
    case, geom, space = setup(name, level)
    return [blk.index.size for blk in batch.ElementBatcher(space, geom).blocks(need=2)]


def slab_spans(name, level):
    case, geom, space = setup(name, level)
    return [s.tables[-1].first.size for s in batch.ElementBatcher(space, geom).grid_slabs(need=2)]


@pytest.mark.parametrize('name,level', CASES)
@pytest.mark.parametrize('budget', ['one-element', 'whole-level'])
def test_results_do_not_depend_on_block_size(monkeypatch, name, level, budget):
    reference = stage_results(name, level)
    n_el = int(np.prod([kv.spans.shape[0] for kv in setup(name, level)[2].knot_vectors]))
    monkeypatch.setattr(batch, '_BLOCK_BYTES', 1 if budget == 'one-element' else 1 << 62)
    # the budget really sets the block and slab sizes
    expected = [1] * n_el if budget == 'one-element' else [n_el]
    assert block_sizes(name, level) == expected
    n_time = setup(name, level)[2].knot_vectors[-1].spans.shape[0]
    assert slab_spans(name, level) == ([1] * n_time if budget == 'one-element' else [n_time])
    blocked = stage_results(name, level)
    for key, arrays in reference.items():
        for ref, got in zip(arrays, blocked[key]):
            ref, got = np.asarray(ref), np.asarray(got)
            scale = np.abs(ref).max()
            assert scale > 0.0
            assert np.abs(got - ref).max() <= 1e-13 * scale, key


def identity_stage_results(name, degree, level):
    """Outputs of the blocked stages a fixed sweep runs, on one level."""
    case, geom, space = setup(name, level, degree)
    params = SchemeParams(0.1, space.h_hat)
    fixed = assemble_fixed(space, geom, case, params)
    norms = assemble_norm_matrices(space, geom, params)
    mask = classify_dirichlet(space).dirichlet_mask
    coeffs = np.random.default_rng(43).standard_normal(space.dim)
    field = DiscreteField(space, geom, coeffs)
    return [fixed.matrix.toarray(), fixed.rhs,
            norms.n_fixed.toarray(), norms.n_moving.toarray(), norms.face_gradient.toarray(),
            boundary_l2_project(space, geom, case.u, mask),
            error_l2(field, case),
            error_energy(field, case, params, moving=False),
            error_energy(field, case, params, moving=True)]


@pytest.mark.parametrize('name,degrees,levels,rtol', [
    ('fixed-1d', (1, 2, 3), range(5), 0.0),
    ('fixed-2d', (1, 2), range(3), 1e-14),
])
def test_identity_shortcut_matches_the_general_path(monkeypatch, name, degrees, levels, rtol):
    geom = builtin_cases()[name].geometry
    assert batch.ElementBatcher(solution_space(geom, 1, 0), geom).identity
    fast = {(p, lv): identity_stage_results(name, p, lv) for p in degrees for lv in levels}
    monkeypatch.setattr(GeometryMap, 'is_identity', property(lambda self: False))
    assert not batch.ElementBatcher(solution_space(geom, 1, 0), geom).identity
    for (p, lv), results in fast.items():
        for k, (got, ref) in enumerate(zip(results, identity_stage_results(name, p, lv))):
            got, ref = np.asarray(got), np.asarray(ref)
            if rtol == 0.0:
                assert np.array_equal(got, ref), (p, lv, k)
            else:
                assert np.abs(got - ref).max() <= rtol * np.abs(ref).max(), (p, lv, k)


def test_identity_shortcut_only_on_identity_maps():
    expected = {'fixed-1d': True, 'fixed-2d': True, 'moving-simple-1d': False,
                'moving-curvi-1d': False, 'moving-curvi-2d': False, 'quarter-annulus': False}
    for name, identity in expected.items():
        case, geom, space = setup(name, 0)
        assert batch.ElementBatcher(space, geom).identity is identity, name
