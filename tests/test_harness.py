"""Configuration, driver, CSV output and command line."""
import functools
import importlib
import json
import os
import pkgutil
import re
import warnings
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spacetime_iga
from geometries import at_point, quarter_annulus_cylinder
from spacetime_iga import assembly, harness
from spacetime_iga.assembly import NormMatrices, StabilityWarning
from spacetime_iga.harness import (CSV_HEADER, CaseConfig, builtin_cases,
                                   cli_main, coercivity_identity_defect, emit_csv,
                                   load_config, resolve_case, run_case, solution_space)
from spacetime_iga.linsolve import ConvergenceError
from spacetime_iga.tensor_space import classify_dirichlet

DATA_DIR = os.path.join(os.path.dirname(__file__), 'data')

IDENTITY_GEOMETRY = {
    'knots': [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]],
    'degrees': [1, 1],
    'control_points': [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
}


def test_builtin_case_registry():
    cases = builtin_cases()
    assert sorted(cases) == ['fixed-1d', 'fixed-2d', 'moving-curvi-1d',
                             'moving-curvi-2d', 'moving-simple-1d']
    for name, definition in cases.items():
        assert definition.case.name == name
        assert definition.case.moving == name.startswith('moving')
        assert definition.case.d + 1 == definition.geometry.space.ndim


def test_builtin_geometries_map_key_points():
    cases = builtin_cases()
    # expanding interval: walls at -t/2 and 1 + t/2
    geom = cases['moving-simple-1d'].geometry
    assert_allclose(at_point(geom, [0.0, 1.0])[0], [-0.5, 1.0], atol=1e-14)
    assert_allclose(at_point(geom, [1.0, 1.0])[0], [1.5, 1.0], atol=1e-14)
    # curvilinear walls reach quarter depth at mid-time
    geom = cases['moving-curvi-1d'].geometry
    assert_allclose(at_point(geom, [0.0, 0.5])[0], [0.125, 0.5], atol=1e-14)
    assert_allclose(at_point(geom, [1.0, 0.5])[0], [0.875, 0.5], atol=1e-14)
    assert_allclose(at_point(geom, [0.0, 0.0])[0], [0.0, 0.0], atol=1e-14)
    assert_allclose(at_point(geom, [0.0, 1.0])[0], [0.0, 1.0], atol=1e-14)
    # 2d variant moves only the first coordinate
    geom = cases['moving-curvi-2d'].geometry
    assert_allclose(at_point(geom, [0.0, 0.7, 0.5])[0], [0.125, 0.7, 0.5], atol=1e-14)
    assert_allclose(at_point(geom, [1.0, 0.3, 0.5])[0], [0.875, 0.3, 0.5], atol=1e-14)


@pytest.mark.parametrize('degree,level', [(1, 0), (1, 3), (2, 2), (4, 1)])
def test_solution_space_dimensions(degree, level):
    geom = builtin_cases()['fixed-1d'].geometry
    space = solution_space(geom, degree, level)
    assert space.dims == (2**level + degree, 2**level + degree)
    assert all(p == degree for p in space.degrees)


def test_config_validation():
    with pytest.raises(ValueError):
        CaseConfig(case='fixed-1d', degree=0)
    with pytest.raises(ValueError):
        CaseConfig(case='fixed-1d', levels=0)
    with pytest.raises(ValueError):
        CaseConfig(case='fixed-1d', theta=0.0)
    with pytest.raises(ValueError):
        CaseConfig(case='fixed-1d', solver='cg')
    with pytest.raises(ValueError):
        CaseConfig(case='nope')
    with pytest.raises(ValueError, match="case 'custom' needs a geometry block"):
        CaseConfig(case='custom')  # geometry block missing
    with pytest.raises(ValueError, match="case 'fixed-1d' takes no geometry block"):
        CaseConfig(case='fixed-1d', geometry=IDENTITY_GEOMETRY)  # a block a built-in ignores


def test_load_config(tmp_path):
    path = tmp_path / 'run.json'
    path.write_text(json.dumps({'case': 'fixed-1d', 'degree': 3, 'levels': 2,
                                'theta': 0.2, 'solver': 'direct'}))
    config = load_config(str(path))
    assert config == CaseConfig(case='fixed-1d', degree=3, levels=2, theta=0.2,
                                solver='direct')

    path.write_text(json.dumps({'case': 'fixed-1d', 'mesh': 4}))
    with pytest.raises(ValueError, match='unknown config keys'):
        load_config(str(path))

    path.write_text(json.dumps({'degree': 2}))
    with pytest.raises(ValueError, match="'case'"):
        load_config(str(path))

    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match='JSON object'):
        load_config(str(path))


def test_custom_geometry_reproduces_builtin():
    builtin = run_case(CaseConfig(case='fixed-1d', degree=1, levels=2))
    custom = run_case(CaseConfig(case='custom', degree=1, levels=2,
                                 geometry=IDENTITY_GEOMETRY))
    for rb, rc in zip(builtin.records, custom.records):
        assert rb.dofs == rc.dofs
        assert_allclose(rc.error_l2, rb.error_l2, rtol=1e-13)
        assert_allclose(rc.error_energy, rb.error_energy, rtol=1e-13)


def test_run_case_fixed_sweep():
    report = run_case(CaseConfig(case='fixed-1d', degree=1, levels=3))
    assert report.case == 'fixed-1d' and not report.moving
    assert len(report.records) == 3
    for k, record in enumerate(report.records):
        assert record.level == k
        assert record.dofs == (2**k + 1) ** 2
        assert_allclose(record.h, np.sqrt(2.0) * 0.5**k, rtol=1e-14)
        assert record.solve.method == 'direct'
    assert report.records[0].rate_l2 == 0.0
    assert 1.5 < report.records[2].rate_l2 < 2.5
    assert 0.5 < report.records[2].rate_energy < 1.5
    errors = report.errors_l2
    assert np.all(errors[1:] < errors[:-1])


@pytest.mark.parametrize('case', ['fixed-1d', 'moving-curvi-1d'])
def test_full_system_is_freed_before_the_solve(monkeypatch, case):
    # the level's solve and error integrals run without the full-space matrix
    refs, freed = [], []
    for name in ('assemble_fixed', 'assemble_moving'):
        def recorded(*args, _assemble=getattr(harness, name), **kwargs):
            system = _assemble(*args, **kwargs)
            refs.append((weakref.ref(system), weakref.ref(system.matrix)))
            return system
        monkeypatch.setattr(harness, name, recorded)
    solve = harness._solve

    def checked(*args, **kwargs):
        freed.append(all(ref() is None for ref in refs[-1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, '_solve', checked)
    with warnings.catch_warnings():
        warnings.simplefilter('ignore', StabilityWarning)
        run_case(CaseConfig(case=case, degree=1, levels=2))
    assert len(refs) == 2 and freed == [True, True]


def test_solver_override_agrees_with_direct():
    direct = run_case(CaseConfig(case='fixed-1d', degree=2, levels=3))
    gmres = run_case(CaseConfig(case='fixed-1d', degree=2, levels=3,
                                solver='gmres'))
    assert gmres.records[-1].solve.method == 'gmres'
    assert gmres.records[-1].solve.iterations > 0
    assert_allclose(gmres.errors_l2, direct.errors_l2, rtol=1e-8)


def _methods(config):
    return [r.solve.method for r in run_case(config).records]


def _solves(config):
    with warnings.catch_warnings():
        warnings.simplefilter('ignore', StabilityWarning)
        return [r.solve for r in run_case(config).records]


def test_auto_solves_fixed_identity_cylinders_by_fast_diagonalization():
    # fixed-1d p2 has 272 free dofs at L4 and 1,056 at L5
    geom = builtin_cases()['fixed-1d'].geometry
    free = [classify_dirichlet(solution_space(geom, 2, k)).free.size for k in (4, 5)]
    assert free[0] < harness.FD_MIN_DOFS <= free[1]
    assert _methods(CaseConfig(case='fixed-1d', degree=2, levels=6)) == ['direct'] * 5 + ['fd']
    assert _methods(CaseConfig(case='custom', degree=2, levels=6,
                               geometry=IDENTITY_GEOMETRY)) == ['direct'] * 5 + ['fd']
    assert _methods(CaseConfig(case='fixed-1d', degree=2, levels=6,
                               solver='direct')) == ['direct'] * 6


def space_time_builds(monkeypatch) -> Counter:
    """Count the space-time CSR matrices ``_banded_system`` builds, by their size."""
    built, banded_system = Counter(), assembly._banded_system

    def counted(batcher, directions, slabs):
        matrix, load = banded_system(batcher, directions, slabs)
        if matrix is not None and len(directions) == batcher.space.ndim:
            built[matrix.shape[0]] += 1
        return matrix, load
    monkeypatch.setattr(assembly, '_banded_system', counted)
    return built


def test_exact_fast_diagonalization_levels_build_no_space_time_matrix(monkeypatch):
    # fixed-1d p2 has (2^l + 2)^2 dofs at level l, and L5-L6 solve by ``fd``
    built = space_time_builds(monkeypatch)
    dofs = [(2**level + 2) ** 2 for level in range(7)]
    assert _methods(CaseConfig(case='fixed-1d', degree=2, levels=7)) == ['direct'] * 5 + ['fd'] * 2
    assert built == Counter(dofs[:5])
    built.clear()
    assert _methods(CaseConfig(case='fixed-1d', degree=2, levels=7,
                               solver='direct')) == ['direct'] * 7
    assert built == Counter(dofs)


def test_auto_solves_cylinders_the_fast_diagonalization_does_not_invert_by_gmres():
    # moving cases, built-in or custom, and fixed cases on a curved map: sparse LU
    # below FD_MIN_DOFS, FD-preconditioned GMRES at 1e-12 from it on
    gmres = []
    simple = _geometry_block(builtin_cases()['moving-simple-1d'].geometry)
    for config in (CaseConfig(case='moving-curvi-1d', degree=2, levels=6),
                   CaseConfig(case='custom', degree=2, levels=6, geometry=simple)):
        solves = _solves(config)
        assert [s.method for s in solves] == ['direct'] * 5 + ['gmres']
        gmres += solves[5:]
    annulus = quarter_annulus_cylinder()
    # the NURBS quarter annulus has 80 free dofs at p2 L2 and 576 at L3
    free = [classify_dirichlet(solution_space(annulus, 2, k)).free.size for k in (2, 3)]
    assert free[0] < harness.FD_MIN_DOFS <= free[1]
    config = CaseConfig(case='custom', degree=2, levels=5, geometry=_geometry_block(annulus))
    report = run_case(config)
    solves = [r.solve for r in report.records]
    assert [s.method for s in solves] == ['direct'] * 3 + ['gmres'] * 2
    for s in gmres + solves[3:]:
        assert s.tol == 1e-12 and s.residual <= 1e-12
    direct = run_case(replace(config, solver='direct'))
    assert_allclose(report.errors_l2, direct.errors_l2, rtol=1e-8)
    assert_allclose(report.errors_energy, direct.errors_energy, rtol=1e-8)


def test_auto_solves_moving_2d_cylinders_by_preconditioned_gmres():
    # moving-curvi-2d has 392 free dofs at p1 L3 and 576 at p2 L3
    geom = builtin_cases()['moving-curvi-2d'].geometry
    free = [classify_dirichlet(solution_space(geom, p, 3)).free.size for p in (1, 2)]
    assert free[0] < harness.FD_MIN_DOFS <= free[1]
    p1 = _solves(CaseConfig(case='moving-curvi-2d', degree=1, levels=5))
    assert [s.method for s in p1] == ['direct'] * 4 + ['gmres']
    p2 = _solves(CaseConfig(case='moving-curvi-2d', degree=2, levels=5))
    assert [s.method for s in p2] == ['direct'] * 3 + ['gmres'] * 2
    for s in p1 + p2:
        assert s.tol == (1e-12 if s.method == 'gmres' else None)
        assert s.residual <= 1e-12
    # auto holds its own stop whatever solver_tol says; an explicit gmres obeys it
    loose = _solves(CaseConfig(case='moving-curvi-2d', degree=2, levels=4, solver_tol=1e-6))
    assert [(s.method, s.tol) for s in loose[3:]] == [('gmres', 1e-12)]
    loose = _solves(CaseConfig(case='moving-curvi-2d', degree=2, levels=4, solver_tol=1e-6,
                               solver='gmres'))
    assert [(s.method, s.tol) for s in loose] == [('gmres', 1e-6)] * 4
    direct = _solves(CaseConfig(case='moving-curvi-2d', degree=1, levels=5, solver='direct'))
    assert [s.method for s in direct] == ['direct'] * 5


def test_emit_csv_deterministic(tmp_path):
    report = run_case(CaseConfig(case='fixed-1d', degree=1, levels=2))
    p1, p2 = tmp_path / 'a.csv', tmp_path / 'b.csv'
    emit_csv(report, str(p1), deterministic=True)
    emit_csv(report, str(p2), deterministic=True)
    text = p1.read_text()
    assert text == p2.read_text()
    lines = text.strip().split('\n')
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(',')[-1] == '0.00000e+00'


def test_csv_matches_golden_file(tmp_path):
    # every column byte for byte but the solver's residual, which is round-off: it
    # only has to stay at that level
    report = run_case(CaseConfig(case='fixed-1d', degree=1, levels=4))
    path = tmp_path / 'sweep.csv'
    emit_csv(report, str(path), deterministic=True)
    golden = os.path.join(DATA_DIR, 'fixed-1d-p1-l4.csv')
    with open(golden) as fh:
        want = [line.split(',') for line in fh.read().splitlines()]
    got = [line.split(',') for line in path.read_text().splitlines()]
    column = want[0].index('residual')
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert g[:column] + g[column + 1:] == w[:column] + w[column + 1:]
        assert float(g[column]) <= 1e-14


def test_cli_list_cases(capsys):
    assert cli_main(['list-cases']) == 0
    out = capsys.readouterr().out
    for name in builtin_cases():
        assert name in out


def test_cli_run_with_overrides(tmp_path, capsys):
    config = tmp_path / 'run.json'
    config.write_text(json.dumps({'case': 'fixed-1d', 'degree': 1, 'levels': 4}))
    out_csv = tmp_path / 'out.csv'
    code = cli_main(['run', '--config', str(config), '--levels', '2',
                     '--out', str(out_csv), '--deterministic'])
    assert code == 0
    captured = capsys.readouterr().out
    assert 'case fixed-1d, degree 1' in captured
    lines = out_csv.read_text().strip().split('\n')
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # override trimmed the sweep to two levels


def test_cli_config_errors(tmp_path, capsys):
    assert cli_main(['run', '--config', str(tmp_path / 'missing.json')]) == 2
    bad = tmp_path / 'bad.json'
    bad.write_text(json.dumps({'case': 'fixed-1d', 'bogus': 1}))
    assert cli_main(['run', '--config', str(bad)]) == 2
    capsys.readouterr()
    # non-integer degree and level counts, bools included, are config errors
    for key, value in (('degree', 2.5), ('levels', 2.0), ('degree', True)):
        bad.write_text(json.dumps({'case': 'fixed-1d', 'levels': 1, key: value}))
        assert cli_main(['run', '--config', str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f'error: {key} must be an integer, got {value!r}\n'


@pytest.mark.parametrize('entries,message', [
    ({'case': 'moving-curvi-2d', 'degree': 1, 'levels': 5, 'solver_tol': '1e-10'},
     "solver_tol must be a finite number, got '1e-10'"),
    ({'case': 'moving-curvi-1d', 'solver': 'gmres', 'solver_tol': True},
     'solver_tol must be a finite number, got True'),
    ({'case': 'moving-curvi-1d', 'solver': 'gmres', 'solver_tol': float('nan')},
     'solver_tol must be a finite number, got nan'),
    ({'case': 'moving-curvi-1d', 'solver': 'gmres', 'solver_tol': 0},
     'solver_tol must lie strictly between 0 and 1, got 0'),
    ({'case': 'moving-curvi-1d', 'solver': 'gmres', 'solver_tol': -1e-3},
     'solver_tol must lie strictly between 0 and 1, got -0.001'),
    ({'case': 'moving-curvi-1d', 'solver_tol': 1.0},
     'solver_tol must lie strictly between 0 and 1, got 1.0'),
    ({'case': 'moving-curvi-1d', 'theta': True}, 'theta must be a finite number, got True'),
    ({'case': 'moving-curvi-1d', 'theta': '0.1'}, "theta must be a finite number, got '0.1'"),
    ({'case': 'moving-curvi-1d', 'theta': float('inf')}, 'theta must be a finite number, got inf'),
    ({'case': 'moving-curvi-1d', 'solver': 'gmres', 'gmres_restart': 2},
     "unknown config keys: ['gmres_restart']"),
    ({'case': 'moving-curvi-1d', 'solver': 'gmres', 'gmres_max_iter': 2},
     "unknown config keys: ['gmres_max_iter']"),
    ({'case': 'moving-curvi-1d', 'deterministic': 'no'},
     "deterministic must be true or false, got 'no'"),
    ({'case': 'moving-curvi-1d', 'deterministic': None},
     'deterministic must be true or false, got None'),
], ids=['tol-string', 'tol-bool', 'tol-nan', 'tol-zero', 'tol-negative', 'tol-one',
        'theta-bool', 'theta-string', 'theta-inf', 'gmres-restart', 'gmres-max-iter',
        'deterministic-string', 'deterministic-null'])
def test_cli_bad_config_values_fail_before_any_level(tmp_path, capsys, monkeypatch,
                                                     entries, message):
    monkeypatch.setattr(harness, 'run_case', lambda config: pytest.fail('a level ran'))
    cfg = tmp_path / 'bad.json'
    cfg.write_text(json.dumps(entries))
    assert cli_main(['run', '--config', str(cfg)]) == 2
    assert capsys.readouterr() == ('', f'error: {message}\n')


def test_cli_singular_geometry_is_one_line(tmp_path, capsys):
    # swapping the last two control points folds the map
    geometry = dict(IDENTITY_GEOMETRY, control_points=[[0, 0], [1, 0], [1, 1], [0, 1]])
    cfg = tmp_path / 'folded.json'
    cfg.write_text(json.dumps({'case': 'custom', 'levels': 1, 'geometry': geometry}))
    assert cli_main(['run', '--config', str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error: non-positive Jacobian determinant -')
    assert err.count('\n') == 1


def _geometry_block(geom):
    """The config ``geometry`` block of a geometry map."""
    space = geom.space
    return {'knots': [kv.knots.tolist() for kv in space.knot_vectors],
            'degrees': list(space.degrees),
            'control_points': geom.control_points.tolist(),
            'weights': None if space.weights is None else space.weights.tolist()}


def _run_custom(tmp_path, geometry):
    cfg = tmp_path / 'custom.json'
    cfg.write_text(json.dumps({'case': 'custom', 'levels': 1, 'geometry': geometry}))
    return cli_main(['run', '--config', str(cfg)])


@pytest.mark.parametrize('geometry,message', [
    (dict(IDENTITY_GEOMETRY, knots=[[0, 0, 0, 1, 1], [0, 0, 1, 1]]), 'open knot vector'),
    (dict(IDENTITY_GEOMETRY, control_points=IDENTITY_GEOMETRY['control_points'][:3]),
     'control points must have shape (4, 2)'),
    (dict(IDENTITY_GEOMETRY, weights=[1.0, 1.0, 1.0]), 'weights must have shape (4,)'),
    (dict(IDENTITY_GEOMETRY, control_points=[[0, 0], [1, 0], [0, 1], [float('nan'), 1]]),
     'control points must be finite, got nan'),
    (dict(IDENTITY_GEOMETRY, control_points=[[0, 0], [1, 0], [0, float('inf')], [1, 1]]),
     'control points must be finite, got inf'),
    (dict(IDENTITY_GEOMETRY, weights=[1.0, float('nan'), 1.0, 1.0]),
     'NURBS weights must be positive and finite'),
    (dict(IDENTITY_GEOMETRY, weights=[1.0, 1.0, float('inf'), 1.0]),
     'NURBS weights must be positive and finite'),
    (dict(IDENTITY_GEOMETRY, knots=[[0, 0, 1, 1], [0, 0, float('nan'), 1, 1]]),
     'knots must be finite, got nan'),
], ids=['non-open-knots', 'control-point-count', 'weight-count', 'nan-control-point',
        'infinite-control-point', 'nan-weight', 'infinite-weight', 'nan-knot'])
def test_cli_malformed_custom_geometry_is_one_line(tmp_path, capsys, geometry, message):
    assert _run_custom(tmp_path, geometry) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith('error: ') and message in captured.err
    assert captured.err.count('\n') == 1
    assert captured.out == ''


def test_cli_resolves_a_custom_case_once(tmp_path, capsys, monkeypatch):
    # the t = tau check of a custom map runs once per run, in run_case
    calls = Counter()

    def counted(config):
        calls[config.case] += 1
        return resolve(config)

    resolve = harness.resolve_case
    monkeypatch.setattr(harness, 'resolve_case', counted)
    assert _run_custom(tmp_path, IDENTITY_GEOMETRY) == 0
    assert calls == {'custom': 1}
    assert capsys.readouterr().out.startswith('case custom, degree 2')


def test_cli_bad_custom_geometry_block_is_a_config_error(tmp_path, capsys):
    geometry = {k: v for k, v in IDENTITY_GEOMETRY.items() if k != 'control_points'}
    assert _run_custom(tmp_path, geometry) == 2
    assert capsys.readouterr() == ('', "error: bad custom geometry block: 'control_points'\n")


def test_cli_rejects_a_custom_map_that_moves_time(tmp_path, capsys):
    # lifting one terminal control point makes t - tau = xi tau / 2, largest at
    # the last of the three Gauss points per direction, 0.887298
    geometry = dict(IDENTITY_GEOMETRY, control_points=[[0, 0], [1, 0], [0, 1], [1, 1.5]])
    assert _run_custom(tmp_path, geometry) == 2
    assert capsys.readouterr().err == ('error: custom geometry must keep t = tau, but '
                                       't - tau = 0.393649 at parameter point '
                                       '(0.887298, 0.887298)\n')


@pytest.mark.parametrize('block', [
    *(_geometry_block(d.geometry) for d in builtin_cases().values()),
    _geometry_block(quarter_annulus_cylinder()),
    IDENTITY_GEOMETRY,
], ids=[*builtin_cases(), 'quarter-annulus-nurbs', 'identity'])
def test_custom_geometries_that_keep_time_pass(block):
    definition = resolve_case(CaseConfig(case='custom', geometry=block))
    assert definition.geometry.space.degrees == tuple(block['degrees'])
    assert_allclose(definition.geometry.control_points, block['control_points'])


# the unit square with x_1 = xi_1 + 0.6 tau xi_1 (1 - xi_1): its walls stay at 0 and 1 while
# the parametrization slides between them, so the normal speed is exactly 0
SLIDING_SQUARE = {
    'knots': [[0, 0, 0, 1, 1, 1], [0, 0, 1, 1]],
    'degrees': [2, 1],
    'control_points': [[0, 0], [0.5, 0], [1, 0], [0, 1], [0.8, 1], [1, 1]],
}


@pytest.mark.parametrize('block,moving', [
    *((_geometry_block(d.geometry), d.case.moving) for d in builtin_cases().values()),
    (_geometry_block(quarter_annulus_cylinder()), False),
], ids=[*builtin_cases(), 'quarter-annulus-nurbs'])
def test_custom_map_motion_is_read_from_the_map(block, moving):
    # the rule holds each built-in's declared flag
    assert resolve_case(CaseConfig(case='custom', geometry=block)).case.moving is moving


def _custom_curvi_1d():
    block = _geometry_block(builtin_cases()['moving-curvi-1d'].geometry)
    with warnings.catch_warnings():
        warnings.simplefilter('ignore', StabilityWarning)
        return run_case(CaseConfig(case='custom', degree=2, levels=7, geometry=block))


def test_custom_moving_map_runs_the_moving_form(monkeypatch):
    # moving-curvi-1d's map as a custom case: b_h keeps energy rate 2 at p2 L6, and
    # the fixed form a_h, inconsistent on a moving wall, loses it
    report = _custom_curvi_1d()
    assert report.moving and abs(report.records[-1].rate_energy - 2.0) <= 0.05
    monkeypatch.setattr(harness, '_admit_map', lambda gmap: False)
    report = _custom_curvi_1d()
    assert not report.moving and report.records[-1].rate_energy < 1.0


def test_sliding_parametrization_of_a_fixed_domain_stays_fixed():
    definition = resolve_case(CaseConfig(case='custom', geometry=SLIDING_SQUARE))
    assert not definition.case.moving
    assert_allclose(at_point(definition.geometry, [0.5, 1.0])[0], [0.65, 1.0], atol=1e-14)
    last = run_case(CaseConfig(case='custom', degree=2, levels=5,
                               geometry=SLIDING_SQUARE)).records[-1]
    assert last.rate_energy >= 1.95 and last.rate_l2 >= 2.9


def test_cli_config_with_a_moving_key_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, 'run_case', lambda config: pytest.fail('a level ran'))
    cfg = tmp_path / 'moving.json'
    cfg.write_text(json.dumps({'case': 'custom', 'moving': True, 'geometry': IDENTITY_GEOMETRY}))
    assert cli_main(['run', '--config', str(cfg)]) == 2
    assert capsys.readouterr() == ('', "error: unknown config keys: ['moving']\n")


def test_run_case_warns_once_per_moving_level():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter('always')
        run_case(CaseConfig(case='moving-simple-1d', degree=2, levels=3, theta=0.1))
        run_case(CaseConfig(case='fixed-1d', degree=2, levels=3, theta=0.1))
    assert [w.category for w in caught] == [StabilityWarning] * 3


def test_readme_configs_load(tmp_path):
    # every JSON example of the README passes the config schema, the custom one resolves
    with open(os.path.join(os.path.dirname(__file__), os.pardir, 'README.md')) as fh:
        blocks = re.findall(r'```json\n(.*?)```', fh.read(), re.DOTALL)
    cases = []
    for k, block in enumerate(blocks):
        path = tmp_path / f'readme-{k}.json'
        path.write_text(block)
        config = load_config(str(path))
        cases.append(resolve_case(config).case.name)
    assert sorted(cases) == ['custom', 'moving-simple-1d']


def test_cli_failed_level_keeps_finished_levels(tmp_path, capsys, monkeypatch):
    # two GMRES iterations solve L0 (two free dofs) but not L1 (six); the
    # preconditioner is exact on fixed cylinders, so the case must move
    monkeypatch.setattr(harness, 'solve_gmres',
                        functools.partial(harness.solve_gmres, restart=2, max_iter=2))
    cfg = tmp_path / 'gmres.json'
    cfg.write_text(json.dumps({'case': 'moving-curvi-1d', 'degree': 2, 'levels': 3,
                               'solver': 'gmres'}))
    assert cli_main(['run', '--config', str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith('error: GMRES did not reach tol=1e-10 within 2 iterations')
    assert captured.err.count('\n') == 1
    table = captured.out.strip().split('\n')
    assert table[0] == 'case moving-curvi-1d, degree 2, theta 0.1'
    assert len(table) == 3 and table[2].split()[:2] == ['0', '9']
    # the error run_case raises carries the same finished level
    with pytest.raises(ConvergenceError) as excinfo:
        run_case(load_config(str(cfg)))
    report = excinfo.value.report
    assert [r.level for r in report.records] == [0]
    reference = run_case(CaseConfig(case='moving-curvi-1d', degree=2, levels=1))
    assert_allclose(report.errors_energy, reference.errors_energy, rtol=1e-8)


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli_main([])


def _skew_norm_theta(monkeypatch, factor):
    """Make ``harness`` build the norms with theta scaled by ``factor``, the form unchanged."""
    assemble = harness.assemble_norm_matrices
    monkeypatch.setattr(harness, 'assemble_norm_matrices', lambda space, geom, params: assemble(
        space, geom, replace(params, theta=params.theta * factor)))


def test_coercivity_check_rejects_skewed_theta(monkeypatch):
    # negative control: theta scaled on the norm side must be detected
    assert coercivity_identity_defect('fixed-1d', 1, 1) < 1e-10
    _skew_norm_theta(monkeypatch, 1.5)
    assert coercivity_identity_defect('fixed-1d', 1, 1) > 1e-3


def test_cli_verify_detects_fault_injection(monkeypatch, capsys):
    # even a 1% theta perturbation on one side must fail the suite
    _skew_norm_theta(monkeypatch, 1.01)
    assert cli_main(['verify']) == 1
    out = capsys.readouterr().out
    assert 'FAIL coercivity-identity' in out


def test_cli_verify_measures_moving_margins(capsys):
    assert cli_main(['verify']) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith('PASS moving-coercivity'))
    margins = dict(re.findall(r'([\w-]+): bound [\d.]+, (?:warned|quiet), min margin ([\d.]+)', line))
    assert sorted(margins) == ['moving-curvi-1d', 'moving-curvi-2d', 'moving-simple-1d']
    assert all(0.5 <= float(m) <= 1.0 for m in margins.values()), line


def test_cli_verify_fails_on_scaled_norms(monkeypatch, capsys):
    # negative control: norms three times too large push every margin below 1/2
    assemble = harness.assemble_norm_matrices

    def scaled(*args, **kwargs):
        norms = assemble(*args, **kwargs)
        return NormMatrices(3 * norms.n_fixed, 3 * norms.n_moving, 3 * norms.face_gradient)

    monkeypatch.setattr(harness, 'assemble_norm_matrices', scaled)
    assert cli_main(['verify']) == 1
    assert 'FAIL moving-coercivity' in capsys.readouterr().out


def test_geometry_derivative_check_prints_its_roundoff_bucket():
    # each built-in map has degree <= 2 per direction, so its central differences are exact up
    # to round-off, and the line shows the bucket of that round-off, not its last digits
    assert harness._check_geometry_derivatives() == (
        True, 'max FD defect <= 1e-09 (threshold 1e-08)')


@pytest.mark.parametrize('component', [0, -1], ids=['space', 'time'])
def test_manufactured_check_fails_on_a_flipped_gradient_component(monkeypatch, component):
    # negative control: the built-in solutions' gradient with one component of the wrong sign;
    # their values, and with them the PDE residual, stay as they are
    sin_solution = harness._sin_solution

    def flipped(d):
        solution, f = sin_solution(d)

        def wrong(x):
            u, grad = solution(x)
            grad[:, component] *= -1.0
            return u, grad
        return wrong, f

    ok, detail = harness._check_manufactured_residuals()
    assert ok and detail.endswith('max gradient defect <= 1e-09 (threshold 1e-08)'), detail
    monkeypatch.setattr(harness, '_sin_solution', flipped)
    ok, detail = harness._check_manufactured_residuals()
    assert not ok and detail.startswith('max PDE residual 4.55e-07, max gradient defect 2'), detail


@pytest.mark.parametrize('slot,factor', [(2, 1 + 1e-4), (1, 1 + 1e-6)], ids=['hessian', 'jacobian'])
def test_cli_verify_fails_on_scaled_map_derivatives(monkeypatch, capsys, slot, factor):
    # negative control: the check's kernel returns H (or J) a little too large; on
    # moving-simple-1d only the mixed entries of H are nonzero
    kernel = harness._grid_field

    def scaled(*args, **kwargs):
        fields = list(kernel(*args, **kwargs))
        if fields[slot] is not None:
            fields[slot] = fields[slot] * factor
        return tuple(fields)

    monkeypatch.setattr(harness, '_grid_field', scaled)
    assert cli_main(['verify']) == 1
    assert 'FAIL geometry-derivatives' in capsys.readouterr().out


def test_every_exported_name_resolves():
    # a name left in ``__all__`` by a deletion fails here, not in a user's ``import *``
    for info in pkgutil.iter_modules(spacetime_iga.__path__):
        module = importlib.import_module(f'spacetime_iga.{info.name}')
        if not info.name.startswith('_'):
            assert hasattr(module, '__all__'), info.name
        missing = [n for n in getattr(module, '__all__', ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_roundoff_text_does_not_move_with_the_last_bits():
    # the defects a passing verify printed before and after reordered sums: coercivity-identity
    # 5.56e-16, 5.65e-16, 5.69e-16 and fixed-forms-agree 1.11e-16, 5.55e-17
    text = harness._roundoff
    assert len({text(v, 1e-10) for v in (5.56e-16, 5.65e-16, 5.69e-16)}) == 1
    assert text(1.11e-16, 1e-12) == text(5.55e-17, 1e-12) == '<= 1e-15 (threshold 1e-12)'
    assert text(0.0, 1e-12) == text(5.55e-17, 1e-12)
    assert text(1.7e-15, 1e-13) == '<= 1e-14 (threshold 1e-13)'
    # a failing value keeps its digits
    assert text(1.234e-9, 1e-10) == '1.23e-09 (threshold 1e-10)'
    assert text(float('inf'), 1e-13) == 'inf (threshold 1e-13)'
