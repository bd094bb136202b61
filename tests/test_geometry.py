"""Geometry maps: derivatives, pullbacks, and mesh size bookkeeping."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from geometries import identity_geometry, quarter_annulus_cylinder
from spacetime_iga._batch import ElementBatcher
from spacetime_iga.geometry import (GeometryMap, SingularGeometryError, hessian,
                                    jacobian, map_point, mesh_metrics,
                                    pullback_derivatives)
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.splines import KnotVector, refine_uniform, single_span
from spacetime_iga.tensor_space import DiscreteSpace

GEOMETRY_NAMES = ('fixed-1d', 'moving-simple-1d', 'moving-curvi-1d', 'moving-curvi-2d')


def arc_geometry():
    """Weighted (rational) variant of the curvilinear cylinder for NURBS paths."""
    kvs = [single_span(1), single_span(2)]
    cp = np.array([[0, 0], [1, 0], [0.25, 0.5], [0.75, 0.5], [0, 1], [1, 1]], float)
    w = np.array([1.0, 1.0, 15 / 17, 15 / 17, 1.0, 1.0])
    return GeometryMap(DiscreteSpace(kvs, w), cp)


@pytest.mark.parametrize('name', GEOMETRY_NAMES)
def test_jacobian_matches_finite_differences(name):
    geom = builtin_cases()[name].geometry
    nd = geom.ndim
    rng = np.random.default_rng(21)
    e = 1e-5
    for _ in range(8):
        xi = rng.uniform(0.1, 0.9, nd)
        J, det = jacobian(geom, xi)
        assert det > 0
        for a in range(nd):
            dp, dm = xi.copy(), xi.copy()
            dp[a] += e
            dm[a] -= e
            fd = (map_point(geom, dp) - map_point(geom, dm)) / (2 * e)
            assert np.abs(J[:, a] - fd).max() < 1e-9


@pytest.mark.parametrize('name', GEOMETRY_NAMES)
def test_hessian_matches_finite_differences(name):
    geom = builtin_cases()[name].geometry
    nd = geom.ndim
    rng = np.random.default_rng(22)
    e = 1e-4
    for _ in range(5):
        xi = rng.uniform(0.2, 0.8, nd)
        H = hessian(geom, xi)
        for a in range(nd):
            for b in range(nd):
                dpp, dpm, dmp, dmm = (xi.copy() for _ in range(4))
                dpp[a] += e; dpp[b] += e
                dpm[a] += e; dpm[b] -= e
                dmp[a] -= e; dmp[b] += e
                dmm[a] -= e; dmm[b] -= e
                fd = (map_point(geom, dpp) - map_point(geom, dpm)
                      - map_point(geom, dmp) + map_point(geom, dmm)) / (4 * e * e)
                assert np.abs(H[:, a, b] - fd).max() < 1e-6


def test_rational_map_derivatives():
    geom = arc_geometry()
    rng = np.random.default_rng(23)
    e = 1e-5
    for _ in range(6):
        xi = rng.uniform(0.1, 0.9, 2)
        J, _ = jacobian(geom, xi)
        H = hessian(geom, xi)
        for a in range(2):
            dp, dm = xi.copy(), xi.copy()
            dp[a] += e
            dm[a] -= e
            fd = (map_point(geom, dp) - map_point(geom, dm)) / (2 * e)
            assert np.abs(J[:, a] - fd).max() < 1e-9
            fd2 = (map_point(geom, dp) - 2 * map_point(geom, xi)
                   + map_point(geom, dm)) / e**2
            assert np.abs(H[:, a, a] - fd2).max() < 1e-5


def test_identity_geometry_is_identity():
    kv = refine_uniform(single_span(2))
    space = DiscreteSpace([kv, kv])
    geom = identity_geometry(space)
    rng = np.random.default_rng(24)
    for _ in range(10):
        xi = rng.uniform(0, 1, 2)
        assert_allclose(map_point(geom, xi), xi, atol=1e-14)
        J, det = jacobian(geom, xi)
        assert_allclose(J, np.eye(2), atol=1e-13)
        assert abs(det - 1.0) < 1e-13


def test_curvilinear_boundary_midpoint():
    # left wall of the curvilinear cylinder passes through (1/8, 1/2)
    geom = builtin_cases()['moving-curvi-1d'].geometry
    assert_allclose(map_point(geom, np.array([0.0, 0.5])), [0.125, 0.5], atol=1e-15)
    assert_allclose(map_point(geom, np.array([1.0, 0.5])), [0.875, 0.5], atol=1e-15)
    # time runs linearly along the second parameter direction
    for tau in (0.0, 0.3, 0.77, 1.0):
        assert abs(map_point(geom, np.array([0.4, tau]))[1] - tau) < 1e-15


def test_expanding_cylinder_corners():
    geom = builtin_cases()['moving-simple-1d'].geometry
    assert_allclose(map_point(geom, np.array([0.0, 1.0])), [-0.5, 1.0], atol=1e-15)
    assert_allclose(map_point(geom, np.array([1.0, 1.0])), [1.5, 1.0], atol=1e-15)
    assert_allclose(map_point(geom, np.array([0.0, 0.0])), [0.0, 0.0], atol=1e-15)


def test_singular_geometry_raises():
    # both walls overshoot mid-domain, so the map folds near tau = 1/2
    kvs = [single_span(1), single_span(2)]
    cp = np.array([[0, 0], [1, 0], [1.2, 0.5], [-0.2, 0.5], [0, 1], [1, 1]], float)
    geom = GeometryMap(DiscreteSpace(kvs), cp)
    with pytest.raises(SingularGeometryError):
        jacobian(geom, np.array([0.5, 0.5]))


def test_pullback_recovers_physical_derivatives():
    """Analytic chain-rule oracle for the second-order pullback.

    Build parameter-side derivatives of a quadratic u(Phi(xi)) by the
    forward chain rule, push them back, and require the exact physical
    gradient and Hessian; exercises the curvature correction term on a
    map with a non-vanishing mixed second derivative.
    """
    def u_grad_hess(x):
        g = np.array([4 * x[0] + 3 * x[1] + 1.0, 3 * x[0] - 2 * x[1] - 2.0])
        H = np.array([[4.0, 3.0], [3.0, -2.0]])
        return g, H

    for name in ('moving-simple-1d', 'moving-curvi-1d'):
        geom = builtin_cases()[name].geometry
        rng = np.random.default_rng(25)
        J, Hg, g_param, h_param, g_exact, H_exact = [], [], [], [], [], []
        for _ in range(10):
            xi = rng.uniform(0.05, 0.95, 2)
            x = map_point(geom, xi)
            Jq, _ = jacobian(geom, xi)
            Hq = hessian(geom, xi)
            g, H = u_grad_hess(x)
            J.append(Jq)
            Hg.append(Hq)
            g_param.append(Jq.T @ g)
            h_param.append(Jq.T @ H @ Jq + np.einsum('k,kab->ab', g, Hq))
            g_exact.append(g)
            H_exact.append(H)
        # one basis function at ten points: (q, m=1, dim[, dim])
        g_back, h_back = pullback_derivatives(
            np.array(J), np.array(g_param)[:, None], np.array(h_param)[:, None], np.array(Hg))
        assert_allclose(g_back[:, 0], g_exact, atol=1e-12)
        assert_allclose(h_back[:, 0], H_exact, atol=1e-11)


def test_pullback_gradient_only_path():
    geom = builtin_cases()['moving-simple-1d'].geometry
    xi = np.array([0.3, 0.6])
    J, _ = jacobian(geom, xi)
    grads = np.array([[1.0, 0.0], [0.0, 1.0]])
    g, h = pullback_derivatives(J[None], grads[None])
    assert h is None
    assert_allclose(J.T @ g[0, 0], grads[0], atol=1e-14)


def test_quarter_annulus_exact_measures():
    """Exact oracle for the rational geometry path of both entry points."""
    geom = quarter_annulus_cylinder()
    rng = np.random.default_rng(26)
    for xi in rng.uniform(0.0, 1.0, (20, 3)):
        x = map_point(geom, xi)
        assert abs(np.hypot(x[0], x[1]) - (1.0 + xi[0])) < 1e-14
        assert abs(x[2] - xi[2]) < 1e-14
    space = solution_space(geom, 2, 2)
    batcher = ElementBatcher(space, geom, [p + 3 for p in space.degrees])
    volume = sum(blk.w.sum() for blk in batcher.blocks(need=0))
    assert abs(volume - 0.75 * np.pi) < 1e-12
    outer = sum(blk.w.sum() for blk in batcher.face_blocks(0, 1, need=0))
    assert abs(outer - np.pi) < 1e-12


def test_mesh_metrics_identity_map():
    kv = refine_uniform(refine_uniform(single_span(2)))
    space = DiscreteSpace([kv, kv])
    mesh = mesh_metrics(identity_geometry(space), space)
    assert mesh.n_elements == 16
    expected = np.sqrt(2.0) * 0.25
    assert_allclose(mesh.h_param, expected, atol=1e-14)
    assert_allclose(mesh.h_elem, expected, atol=1e-12)
    assert abs(mesh.h - expected) < 1e-12
    assert abs(mesh.h_hat - expected) < 1e-14


def test_mesh_metrics_mapped_sizes():
    geom = builtin_cases()['moving-simple-1d'].geometry
    for level in (1, 2, 3):
        space = solution_space(geom, 2, level)
        mesh = mesh_metrics(geom, space)
        # knot-mesh size is a pure parameter quantity
        assert abs(mesh.h_hat - np.sqrt(2.0) * 0.5 ** level) < 1e-14
        # the mapped size exceeds it: the map stretches space near t = 1
        assert mesh.h > mesh.h_hat
        assert mesh.h_elem.min() > 0


def test_mesh_metrics_halving():
    geom = builtin_cases()['moving-curvi-1d'].geometry
    hs = []
    for level in (1, 2, 3, 4):
        space = solution_space(geom, 2, level)
        hs.append(mesh_metrics(geom, space).h)
    ratios = np.array(hs[:-1]) / np.array(hs[1:])
    assert np.all(ratios > 1.9) and np.all(ratios < 2.1)


def test_mesh_metrics_requires_nested_breakpoints():
    kv_g = KnotVector(np.array([0, 0, 0.3, 1, 1.]), 1)
    geom_space = DiscreteSpace([kv_g, single_span(1)])
    geom = identity_geometry(geom_space)
    space = DiscreteSpace([single_span(1), single_span(1)])
    with pytest.raises(ValueError):
        mesh_metrics(geom, space)
