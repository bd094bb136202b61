"""Block-size invariance of every stage that integrates over element blocks.

The element loop evaluates blocks of elements whose size follows from
the byte budget ``_batch._BLOCK_BYTES``.  Results must not depend on it:
one element per block, the default, and a whole level per block agree
to round-off.  The NURBS quarter annulus runs the blocked quotient rule,
which no built-in case exercises.
"""
import numpy as np
import pytest

import spacetime_iga._batch as batch
from geometries import quarter_annulus_cylinder
from spacetime_iga.assembly import (SchemeParams, assemble_fixed, assemble_moving,
                                    assemble_norm_matrices, boundary_l2_project)
from spacetime_iga.geometry import mesh_metrics
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.postproc import (DiscreteField, error_energy, error_l2,
                                    estimate_inverse_constant)
from spacetime_iga.tensor_space import classify_dirichlet

CASES = [('moving-curvi-1d', 3), ('quarter-annulus', 1)]


def setup(name, level):
    if name == 'quarter-annulus':
        case, geom = builtin_cases()['fixed-2d'].case, quarter_annulus_cylinder()
    else:
        definition = builtin_cases()[name]
        case, geom = definition.case, definition.geometry
    return case, geom, solution_space(geom, 2, level)


def stage_results(name, level):
    """Every blocked stage's output on one level, as arrays keyed by function."""
    case, geom, space = setup(name, level)
    mesh = mesh_metrics(geom, space)
    params = SchemeParams(0.1, mesh.h_hat)
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


@pytest.mark.parametrize('name,level', CASES)
@pytest.mark.parametrize('budget', ['one-element', 'whole-level'])
def test_results_do_not_depend_on_block_size(monkeypatch, name, level, budget):
    reference = stage_results(name, level)
    n_el = int(np.prod([kv.spans.shape[0] for kv in setup(name, level)[2].knot_vectors]))
    monkeypatch.setattr(batch, '_BLOCK_BYTES', 1 if budget == 'one-element' else 1 << 62)
    # the budget really sets the block size
    expected = [1] * n_el if budget == 'one-element' else [n_el]
    assert block_sizes(name, level) == expected
    blocked = stage_results(name, level)
    for key, arrays in reference.items():
        for ref, got in zip(arrays, blocked[key]):
            ref, got = np.asarray(ref), np.asarray(got)
            scale = np.abs(ref).max()
            assert scale > 0.0
            assert np.abs(got - ref).max() <= 1e-13 * scale, key
