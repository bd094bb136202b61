"""Block- and slab-size invariance of every stage that integrates over a level.

Basis blocks hold a number of elements, and grid slabs (d >= 2 assembly,
the error integrals, mesh metrics) a number of whole time spans, that
follow from the byte budget ``_batch._BLOCK_BYTES``.  Results must not
depend on it: one element per block and one time span per slab, the
default, and a whole level per block and per slab agree to round-off.
The NURBS quarter annulus runs the quotient rule of both, which no
built-in case exercises, and fixed-2d an identity map.

Every pass takes one geometry path, whatever the map: none reads
``GeometryMap.is_identity``, which only routes fixed identity cylinders to
the fast diagonalization.

A level's univariate objects (span rules, basis tables, band operators) are
built once per level and shared by its stages; they are keyed by the knots,
not by sizes, are read-only, and are freed with the level's space.
"""
import gc
import weakref

import numpy as np
import pytest

import spacetime_iga._batch as batch
from geometries import identity_geometry, quarter_annulus_cylinder
from spacetime_iga.assembly import (SchemeParams, apply_dirichlet, assemble_fixed,
                                    assemble_moving, assemble_norm_matrices,
                                    boundary_l2_project)
from spacetime_iga.geometry import GeometryMap, mesh_metrics
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.postproc import (DiscreteField, error_energy, error_l2,
                                    estimate_inverse_constant)
from spacetime_iga.quadrature import gauss_1d
from spacetime_iga.splines import KnotVector, single_span
from spacetime_iga.tensor_space import DiscreteSpace, active_dofs, classify_dirichlet

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


def element_view(grid: np.ndarray, multi) -> np.ndarray:
    """The points of the element ``multi`` of a grid array ``(..., s_0, q_0, ..., s_last,
    q_last)``, as ``(q, ...)`` with direction 0 slowest."""
    lead = grid.ndim - 2 * len(multi)
    view = grid[(Ellipsis, *(k for i in multi for k in (i, slice(None))))]
    return view.reshape(*grid.shape[:lead], -1).T


@pytest.mark.parametrize('name,level', [('moving-curvi-1d', 3), ('moving-curvi-2d', 1)])
@pytest.mark.parametrize('budget', ['one-element', 'whole-level'])
def test_blocks_cover_each_element_once(monkeypatch, name, level, budget):
    # blocks are element views of the slabs: over the volume and every face, their indices
    # are a permutation of the elements, their dofs the functions active on each, and their
    # points and weights the slabs' values; a wrong slab offset shows here and in no sum
    monkeypatch.setattr(batch, '_BLOCK_BYTES', 1 if budget == 'one-element' else 1 << 62)
    case, geom, space = setup(name, level)
    batcher = batch.ElementBatcher(space, geom)
    nd = space.ndim
    for face in [None, *((a, side) for a in range(nd) for side in (0, 1))]:
        tables = batcher._tables_for(face)[0]
        shape = tuple(t.first.size for t in tables)
        slabs = list(batcher.grid_slabs(need=1, face=face))
        if budget == 'one-element':
            assert len(slabs) == shape[-1]
        # the level's grid, the slabs joined along the time spans
        grid = {key: np.concatenate([getattr(s, key).reshape(
            *getattr(s, key).shape[:-1],
            *(n for t in s.tables for n in (t.first.size, t.ders.shape[1]))) for s in slabs],
            axis=-2) for key in ('x', 'w')}
        blocks = list(batcher.blocks(need=1, face=face))
        index = np.concatenate([blk.index for blk in blocks])
        assert np.array_equal(np.sort(index), np.arange(np.prod(shape))), face
        for blk in blocks:
            assert blk.hess is None and blk.grad is not None
            multi = np.unravel_index(blk.index, shape)
            firsts = [t.first[i] for t, i in zip(tables, multi)]
            assert np.array_equal(blk.dofs, active_dofs(space, firsts))
            for k, element in enumerate(zip(*multi)):
                assert np.array_equal(blk.x[k], element_view(grid['x'], element))
                assert np.array_equal(blk.w[k], element_view(grid['w'], element))


def test_is_identity_only_on_identity_maps():
    expected = {'fixed-1d': True, 'fixed-2d': True, 'moving-simple-1d': False,
                'moving-curvi-1d': False, 'moving-curvi-2d': False, 'quarter-annulus': False}
    for name, identity in expected.items():
        case, geom, space = setup(name, 0)
        assert geom.is_identity is identity, name


def count_builds(monkeypatch) -> dict:
    """Wrap the builders of span rules, tables and band operators; each call appends the
    key of what it built (knots, nodes or table content, and orders) to its list."""
    built = {}
    keys = {'_span_rule': lambda kv, n: (kv.knots.tobytes(), n),
            '_table': lambda kv, nodes: (kv.knots.tobytes(), nodes.tobytes()),
            '_band_operator': lambda t, test, trial=None: (t.ders.tobytes(), t.first.tobytes(),
                                                           test, trial)}
    for name, key in keys.items():
        def wrapper(*args, _build=getattr(batch, name), _key=key, _out=built.setdefault(name, [])):
            _out.append(_key(*args))
            return _build(*args)
        monkeypatch.setattr(batch, name, wrapper)
    return built


def run_level(case, geom, level, built=None):
    """The grid stages of a moving sweep's level: assembly, Dirichlet data and both errors;
    with ``built``, the band operators each of the first two stages built."""
    space = solution_space(geom, 2, level)
    params = SchemeParams(0.1, space.h_hat)
    stages, ops = [], (built or {}).get('_band_operator', [])
    start = len(ops)
    system = assemble_moving(space, geom, case, params)
    stages.append(ops[start:])
    start = len(ops)
    apply_dirichlet(system, classify_dirichlet(space), case, space, geom)
    stages.append(ops[start:])
    field = DiscreteField(space, geom, np.random.default_rng(level).standard_normal(space.dim))
    error_l2(field, case)
    error_energy(field, case, params)
    return space, stages


def test_a_level_builds_each_univariate_object_once(monkeypatch):
    built = count_builds(monkeypatch)
    definition = builtin_cases()['moving-curvi-2d']
    case, geom = definition.case, definition.geometry
    space, stages = run_level(case, geom, 2, built)
    first = {name: list(keys) for name, keys in built.items()}
    for name in ('_span_rule', '_table'):
        assert first[name] and len(first[name]) == len(set(first[name])), name
    # p + 1 and p + 2 points on each distinct knot vector, shared by the volume, the faces
    # and the directions with equal knots
    assert len(first['_span_rule']) == 2 * len({kv.knots.tobytes() for kv in space.knot_vectors})
    # band operators once per stage: the volume and the terminal face share them, and so do
    # the Dirichlet faces; the error passes build none
    assert all(ops and len(ops) == len(set(ops)) for ops in stages)
    assert sum(map(len, stages)) == len(first['_band_operator'])
    # another space of the same level builds its own: nothing outlives a level
    run_level(case, geom, 2)
    for name, keys in built.items():
        again = keys[len(first[name]):]
        assert len(again) == len(first[name]) and set(again) == set(first[name]), name
    # a second level builds its own objects, once each
    count = {name: len(keys) for name, keys in built.items()}
    run_level(case, geom, 3)
    for name in ('_span_rule', '_table'):
        new = built[name][count[name]:]
        assert new and len(new) == len(set(new)), name


def test_cached_univariate_objects_are_read_only_and_die_with_the_space():
    definition = builtin_cases()['moving-curvi-2d']
    space, _ = run_level(definition.case, definition.geometry, 1)
    batcher = batch.ElementBatcher(space, definition.geometry)
    table, weights = batcher._tables[0], batcher._weights[0]
    for array in (table.ders, table.first, weights, *gauss_1d(3)):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match='read-only'):
        table.ders[0, 0, 0, 0] = 1.0
    assert gauss_1d(3) is gauss_1d(3)
    assert batch.ElementBatcher(space, definition.geometry)._tables[0] is table
    alive = weakref.ref(table)
    del space, batcher, table
    gc.collect()
    assert alive() is None


def test_tables_are_keyed_by_the_knots_not_the_sizes():
    # equal degrees, dims and point counts; the second space repeats an interior knot,
    # so it has one span fewer and other rows: a cache keyed by size would mix them up
    time = KnotVector(np.array([0, 0, 0, 0.5, 1, 1, 1.0]), 2)
    spaces = [DiscreteSpace([KnotVector(np.array(knots), 2), time])
              for knots in ([0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], [0, 0, 0, 0.5, 0.5, 0.75, 1, 1, 1])]
    assert spaces[0].dims == spaces[1].dims
    geom = identity_geometry(DiscreteSpace([single_span(1), single_span(1)]))
    tables = [batch.ElementBatcher(space, geom) for space in spaces]
    for space, batcher in zip(spaces, tables):
        for a, kv in enumerate(space.knot_vectors):
            nodes = batch._span_rule(kv, 3)[0]
            for got, knots in ((batcher._tables[a], kv),
                               (batcher._geo_tables[a], geom.space.knot_vectors[a])):
                want = batch._table(knots, nodes)
                assert np.array_equal(got.ders, want.ders)
                assert np.array_equal(got.first, want.first)
    assert tables[0]._tables[0].first.size == 4 and tables[1]._tables[0].first.size == 3
    # and an error pass on each reads its own tables: the same as on a fresh copy of the space
    case = builtin_cases()['fixed-1d'].case
    coefficients = np.random.default_rng(9).standard_normal(spaces[0].dim)
    errors = [error_l2(DiscreteField(space, geom, coefficients), case) for space in spaces]
    assert errors[0] != errors[1]
    for space, got in zip(spaces, errors):
        fresh = DiscreteSpace(space.knot_vectors)
        assert error_l2(DiscreteField(fresh, geom, coefficients), case) == got


def test_no_pass_reads_the_identity_test(monkeypatch):
    # ``is_identity`` compares the control points with a fresh Greville grid; the passes
    # of a level (assembly, Dirichlet data, errors, mesh metrics, norms, element blocks)
    # take one path on every map and have no use for it
    reads = []
    is_identity = GeometryMap.is_identity
    monkeypatch.setattr(GeometryMap, 'is_identity',
                        property(lambda self: reads.append(self) or is_identity.fget(self)))
    definition = builtin_cases()['fixed-1d']
    space, _ = run_level(definition.case, definition.geometry, 2)
    mesh_metrics(definition.geometry, space)
    assemble_norm_matrices(space, definition.geometry, SchemeParams(0.1, space.h_hat))
    next(batch.ElementBatcher(space, definition.geometry).blocks(need=1))
    assert reads == []
