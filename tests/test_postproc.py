"""Error measures, rates and mesh diagnostics."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from geometries import identity_geometry
from spacetime_iga.assembly import ManufacturedCase, SchemeParams
from spacetime_iga.geometry import mesh_metrics
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.linsolve import SolveReport
from spacetime_iga.postproc import (ConvergenceReport, DiscreteField,
                                    LevelRecord, error_energy, error_l2,
                                    estimate_inverse_constant, mesh_ratio, rates)
from spacetime_iga.splines import KnotVector, refine_uniform
from spacetime_iga.tensor_space import DiscreteSpace


def unit_space(degree=2, level=2):
    kv = KnotVector(np.concatenate([np.zeros(degree + 1), np.ones(degree + 1)]),
                    degree)
    for _ in range(level):
        kv = refine_uniform(kv)
    return DiscreteSpace([kv, kv])


def linear_case(a, b, c):
    # u(x, t) = a x + b t + c on one spatial dimension
    return ManufacturedCase(
        'linear', 1, False,
        solution=lambda x: (a * x[:, 0] + b * x[:, 1] + c,
                            np.tile([float(a), float(b)], (x.shape[0], 1))),
        f=lambda x: np.full(x.shape[0], float(b)))


def greville_linear_coeffs(space, a, b, c):
    g0 = space.knot_vectors[0].greville()
    g1 = space.knot_vectors[1].greville()
    return (a * g0[:, None] + b * g1[None, :] + c).ravel(order='F')


def test_linear_field_has_zero_error():
    space = unit_space()
    geom = identity_geometry(space)
    case = linear_case(2.0, 3.0, 1.0)
    coeffs = greville_linear_coeffs(space, 2.0, 3.0, 1.0)
    field = DiscreteField(space, geom, coeffs)
    params = SchemeParams(0.1, space.h_hat)
    assert error_l2(field, case) < 1e-12
    assert error_energy(field, case, params) < 1e-11
    assert error_energy(field, case, params, moving=True) < 1e-11


def test_constant_error_integrates_exactly():
    # zero field against u = 1: the L2 error is the cylinder volume root,
    # the energy error is the terminal face mass only
    space = unit_space()
    geom = identity_geometry(space)
    case = ManufacturedCase(
        'one', 1, False,
        solution=lambda x: (np.ones(x.shape[0]), np.zeros((x.shape[0], 2))),
        f=lambda x: np.zeros(x.shape[0]))
    field = DiscreteField(space, geom, np.zeros(space.dim))
    params = SchemeParams(0.1, space.h_hat)
    assert_allclose(error_l2(field, case), 1.0, rtol=1e-13)
    assert_allclose(error_energy(field, case, params), np.sqrt(0.5), rtol=1e-13)
    assert_allclose(error_energy(field, case, params, moving=True), np.sqrt(0.5),
                    rtol=1e-13)


def test_rates_dyadic():
    assert_allclose(rates([4.0, 1.0]), [0.0, 2.0])
    assert_allclose(rates([1.0, 1.0, 1.0]), [0.0, 0.0, 0.0])
    assert_allclose(rates([8.0, 4.0, 1.0]), [0.0, 1.0, 2.0])
    out = rates([1.0, 0.0, 2.0])
    assert out[0] == 0.0 and np.isnan(out[1]) and np.isnan(out[2])
    assert rates([]).size == 0


def test_inverse_constant_scales_out_mesh_size():
    definition = builtin_cases()['fixed-1d']
    geom = definition.geometry
    values = []
    for level in (1, 2):
        space = solution_space(geom, 2, level)
        mesh = mesh_metrics(geom, space)
        values.append(estimate_inverse_constant(space, geom, mesh))
    assert 1.0 < values[0] < 100.0
    assert_allclose(values[0], values[1], rtol=1e-10)


def test_mesh_ratio():
    definition = builtin_cases()['fixed-1d']
    space = solution_space(definition.geometry, 1, 2)
    mesh = mesh_metrics(definition.geometry, space)
    assert_allclose(mesh_ratio(mesh), 1.0, rtol=1e-14)
    definition = builtin_cases()['moving-simple-1d']
    space = solution_space(definition.geometry, 1, 2)
    mesh = mesh_metrics(definition.geometry, space)
    assert mesh_ratio(mesh) > 1.0


def test_report_arrays():
    solve = SolveReport('direct', 0, 1e-15, 0.01)
    records = tuple(
        LevelRecord(level=k, dofs=16 * 4**k, h=0.5**k, error_l2=10.0**-k,
                    rate_l2=0.0, error_energy=2.0 * 10.0**-k, rate_energy=0.0,
                    solve=solve)
        for k in range(3))
    report = ConvergenceReport('fixed-1d', 1, 0.1, False, records)
    assert_allclose(report.errors_l2, [1.0, 0.1, 0.01])
    assert_allclose(report.errors_energy, [2.0, 0.2, 0.02])


def test_field_coefficient_validation():
    space = unit_space()
    geom = identity_geometry(space)
    with pytest.raises(ValueError):
        DiscreteField(space, geom, np.zeros(space.dim + 1))
