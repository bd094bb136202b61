"""Geometry maps: derivatives, the blocks' pullbacks, and mesh size bookkeeping."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spacetime_iga.geometry as geometry
from geometries import at_point, identity_geometry, point_basis, quarter_annulus_cylinder
from spacetime_iga._batch import ElementBatcher, _rows, _span_rule
from spacetime_iga.geometry import GeometryMap, SingularGeometryError, greville_grid, mesh_metrics
from spacetime_iga.harness import builtin_cases, geometry_derivatives_defect, solution_space
from spacetime_iga.splines import KnotVector, refine_uniform, single_span
from spacetime_iga.tensor_space import DiscreteSpace, tensor_basis

GEOMETRY_NAMES = ('fixed-1d', 'moving-simple-1d', 'moving-curvi-1d', 'moving-curvi-2d')


def arc_geometry():
    """Weighted (rational) variant of the curvilinear cylinder for NURBS paths."""
    kvs = [single_span(1), single_span(2)]
    cp = np.array([[0, 0], [1, 0], [0.25, 0.5], [0.75, 0.5], [0, 1], [1, 1]], float)
    w = np.array([1.0, 1.0, 15 / 17, 15 / 17, 1.0, 1.0])
    return GeometryMap(DiscreteSpace(kvs, w), cp)


def derivative_maps():
    maps = {name: builtin_cases()[name].geometry for name in GEOMETRY_NAMES}
    return {**maps, 'arc': arc_geometry(), 'quarter-annulus': quarter_annulus_cylinder()}


def map_and_points(name, seed):
    """The named map and 8 random parameter points inside its cube."""
    geom = derivative_maps()[name]
    return geom, np.random.default_rng(seed).uniform(0.1, 0.9, (8, geom.ndim))


@pytest.mark.parametrize('name', GEOMETRY_NAMES)
def test_jacobian_matches_finite_differences(name):
    """J on the built-in maps, with a positive determinant at every point checked."""
    geom, points = map_and_points(name, 21)
    jac, _ = geometry_derivatives_defect(geom, points)
    assert jac < 1e-9
    assert all(np.linalg.det(at_point(geom, xi, 1)[1]) > 0 for xi in points)


@pytest.mark.parametrize('name', GEOMETRY_NAMES)
def test_hessian_matches_finite_differences(name):
    """Every entry of H on the built-in maps, the mixed space-time derivatives included."""
    _, hess = geometry_derivatives_defect(*map_and_points(name, 22))
    assert hess < 1e-6


@pytest.mark.parametrize('name', ['arc', 'quarter-annulus'])
def test_map_derivatives_match_finite_differences(name):
    """J and every entry of H on two NURBS maps, the rational arc and the quarter annulus."""
    jac, hess = geometry_derivatives_defect(*map_and_points(name, 21))
    assert jac < 1e-9
    assert hess < 1e-6


def test_identity_geometry_is_identity():
    kv = refine_uniform(single_span(2))
    space = DiscreteSpace([kv, kv])
    geom = identity_geometry(space)
    rng = np.random.default_rng(24)
    for _ in range(10):
        xi = rng.uniform(0, 1, 2)
        x, J, _ = at_point(geom, xi, 1)
        assert_allclose(x, xi, atol=1e-14)
        assert_allclose(J, np.eye(2), atol=1e-13)
        assert abs(np.linalg.det(J) - 1.0) < 1e-13


def test_curvilinear_boundary_midpoint():
    # left wall of the curvilinear cylinder passes through (1/8, 1/2)
    geom = builtin_cases()['moving-curvi-1d'].geometry
    assert_allclose(at_point(geom, [0.0, 0.5])[0], [0.125, 0.5], atol=1e-15)
    assert_allclose(at_point(geom, [1.0, 0.5])[0], [0.875, 0.5], atol=1e-15)
    # time runs linearly along the second parameter direction
    for tau in (0.0, 0.3, 0.77, 1.0):
        assert abs(at_point(geom, [0.4, tau])[0][1] - tau) < 1e-15


def test_expanding_cylinder_corners():
    geom = builtin_cases()['moving-simple-1d'].geometry
    assert_allclose(at_point(geom, [0.0, 1.0])[0], [-0.5, 1.0], atol=1e-15)
    assert_allclose(at_point(geom, [1.0, 1.0])[0], [1.5, 1.0], atol=1e-15)
    assert_allclose(at_point(geom, [0.0, 0.0])[0], [0.0, 0.0], atol=1e-15)


def test_singular_geometry_raises():
    # both walls overshoot mid-domain, so the map folds near tau = 1/2
    kvs = [single_span(1), single_span(2)]
    cp = np.array([[0, 0], [1, 0], [1.2, 0.5], [-0.2, 0.5], [0, 1], [1, 1]], float)
    geom = GeometryMap(DiscreteSpace(kvs), cp)
    with pytest.raises(SingularGeometryError, match='non-positive Jacobian determinant'):
        mesh_metrics(geom, geom.space)


@pytest.mark.parametrize('name', ['moving-curvi-2d', 'quarter-annulus'])
def test_closed_form_pullback_matches_lapack(name):
    """On every quadrature point of p2 L2, the blocks' Jacobians are the map's basis contracted
    with its control points, and their closed-form 3x3 pullback agrees with the LAPACK formulas
    (``solve`` for gradients, ``inv`` for Hessians) and returns the gradients in
    derivative-major memory."""
    geom = quarter_annulus_cylinder() if name == 'quarter-annulus' else builtin_cases()[name].geometry
    space = solution_space(geom, 2, 2)
    batcher = ElementBatcher(space, geom)
    shape = tuple(kv.spans.shape[0] for kv in space.knot_vectors)
    for blk in batcher.blocks(need=2):
        multi = np.unravel_index(blk.index, shape)
        _, _, grad, hess = tensor_basis(space, *_rows(batcher._tables, multi), 2)
        active, _, g_map, h_map = tensor_basis(geom.space, *_rows(batcher._geo_tables, multi), 2)
        P = geom.control_points[active]
        J = np.einsum('eqma,emk->eqka', g_map, P)
        Hg = np.einsum('eqmab,emk->eqkab', h_map, P)
        assert np.abs(blk.jac - J).max() <= 1e-14 * np.abs(J).max()
        E, q, m, nd = grad.shape
        J, grad = J.reshape(E * q, nd, nd), grad.reshape(E * q, m, nd)
        hess, Hg = hess.reshape(E * q, m, nd, nd), Hg.reshape(E * q, nd, nd, nd)

        g_ref = np.linalg.solve(J.transpose(0, 2, 1), grad.transpose(0, 2, 1)).transpose(0, 2, 1)
        Jinv = np.linalg.inv(J)
        corr = hess - np.einsum('nmk,nkab->nmab', g_ref, Hg)
        h_ref = np.einsum('nia,nmij,njb->nmab', Jinv, corr, Jinv)
        g, h = blk.grad.reshape(g_ref.shape), blk.hess.reshape(h_ref.shape)
        assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()
        assert np.abs(h - h_ref).max() <= 1e-13 * np.abs(h_ref).max()
        assert blk.grad.transpose(0, 1, 3, 2).flags.c_contiguous


def cofactor_adjugate(jac):
    """The oracle: the cofactor formulas as they ran on ``(P, n, n)`` arrays before the
    adjugate moved to points-last rows."""
    if jac.shape[-1] == 2:
        (a, b), (c, d) = np.moveaxis(jac, (-2, -1), (0, 1))
        return np.stack([d, -b, -c, a], axis=-1).reshape(jac.shape), a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(jac, (-2, -1), (0, 1))
    adj = np.stack([e * i - f * h, c * h - b * i, b * f - c * e,
                    f * g - d * i, a * i - c * g, c * d - a * f,
                    d * h - e * g, b * g - a * h, a * e - b * d], axis=-1).reshape(jac.shape)
    return adj, a * adj[..., 0, 0] + b * adj[..., 1, 0] + c * adj[..., 2, 0]


def random_jacobians(rng, n, count=4000):
    """Well-conditioned ``I + 0.3 R`` and near-singular ones (rank n - 1 plus 1e-10 R)."""
    well = np.eye(n) + 0.3 * rng.standard_normal((count, n, n))
    low = rng.standard_normal((count, n, n - 1)) @ rng.standard_normal((count, n - 1, n))
    return well, low + 1e-10 * rng.standard_normal((count, n, n))


@pytest.mark.parametrize('n', [2, 3])
def test_adjugate_on_rows_is_the_cofactor_formula_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    for jac in random_jacobians(rng, n):
        ref_adj, ref_det = cofactor_adjugate(jac)
        # contiguous rows, as grid slabs hold them, and a transposed view
        for rows in (np.ascontiguousarray(np.moveaxis(jac, 0, -1)), jac.transpose(1, 2, 0)):
            adj, det = geometry._adjugate(rows)
            assert np.array_equal(adj, np.moveaxis(ref_adj, 0, -1))
            assert np.array_equal(det, ref_det)
    well = random_jacobians(rng, n)[0]
    adj, det = geometry._adjugate(np.moveaxis(well, 0, -1))
    inv, ref = np.moveaxis(adj / det, -1, 0), np.linalg.inv(well)
    relative = np.abs(inv - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert relative.max() <= 1e-14


@pytest.mark.parametrize('n', [4, 5])
def test_adjugate_of_four_or_more_directions_is_lapack(n):
    # the only path for maps of 4 or more directions: det J times J^-1, on random
    # well-conditioned stacks with two trailing point axes
    rng = np.random.default_rng(50 + n)
    jac = np.eye(n)[:, :, None, None] + 0.3 * rng.standard_normal((n, n, 3, 4))
    adj, det = geometry._adjugate(jac)
    assert adj.shape == jac.shape and det.shape == (3, 4)
    for k in np.ndindex(3, 4):
        m = jac[(..., *k)]
        assert_allclose(det[k], np.linalg.det(m), rtol=1e-13)
        assert_allclose(adj[(..., *k)], np.linalg.inv(m) * np.linalg.det(m), rtol=1e-12,
                        atol=1e-13)
        assert_allclose(adj[(..., *k)] @ m, det[k] * np.eye(n), atol=1e-12)


@st.composite
def perturbed_identity_maps(draw):
    """NURBS maps near the identity: random weights in [2/3, 3/2] and control
    points moved off the Greville grid by up to 0.04, on 2 or 3 directions
    of degree 1-3, each a single span or split once.  The solution space
    is the unweighted space on the same knots."""
    nd = draw(st.integers(2, 3))
    kvs = []
    for _ in range(nd):
        kv = single_span(draw(st.integers(1, 3 if nd == 2 else 2)))
        kvs.append(refine_uniform(kv) if draw(st.booleans()) else kv)
    space = DiscreteSpace(kvs)
    n = space.dim
    weights = draw(st.lists(st.floats(2 / 3, 1.5), min_size=n, max_size=n))
    shift = draw(st.lists(st.floats(-0.04, 0.04), min_size=n * nd, max_size=n * nd))
    geom = GeometryMap(DiscreteSpace(kvs, np.array(weights)),
                       greville_grid(space) + np.reshape(shift, (n, nd)))
    return geom, space


@settings(max_examples=40, deadline=None)
@given(maps=perturbed_identity_maps(), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_block_derivatives_on_random_nurbs_perturbations_of_the_identity(maps, picks):
    """At sampled quadrature points of the element blocks, ``J`` and ``H`` of
    the map match central differences, and the pulled-back basis derivatives
    satisfy ``J^T g = g_param`` and ``J^T H J + sum_k g_k H_geom[k] = H_param``."""
    geom, space = maps
    nd = space.ndim
    batcher = ElementBatcher(space, geom)
    assert not geom.is_identity
    blk = next(batcher.blocks(need=2))
    shape = tuple(kv.spans.shape[0] for kv in space.knot_vectors)
    nodes = [_span_rule(kv, o)[0] for kv, o in zip(space.knot_vectors, batcher.orders)]
    E, q = blk.w.shape
    e = 1e-5
    for pick in picks:
        k, i = divmod(pick % (E * q), q)
        multi = np.unravel_index(blk.index[k], shape)
        grid = np.meshgrid(*[nodes[a][multi[a]] for a in range(nd)], indexing='ij')
        xi = np.array([g.ravel()[i] for g in grid])
        J = blk.jac[k, i]
        x, _, H = at_point(geom, xi, 2)
        assert_allclose(blk.x[k, i], x, atol=1e-14)
        assert abs(blk.det[k, i] - np.linalg.det(J)) <= 1e-12 * abs(blk.det[k, i])
        for a in range(nd):
            step = np.zeros(nd)
            step[a] = e
            fd = (at_point(geom, xi + step)[0] - at_point(geom, xi - step)[0]) / (2 * e)
            assert np.abs(J[:, a] - fd).max() < 1e-8
            fd2 = (at_point(geom, xi + step, 1)[1] - at_point(geom, xi - step, 1)[1]) / (2 * e)
            assert np.abs(H[:, :, a] - fd2).max() < 1e-6
        active, _, g_param, h_param = point_basis(space, xi, 2)
        assert np.array_equal(active[0], blk.dofs[k])
        g, h = blk.grad[k, i], blk.hess[k, i]
        scale = 1.0 + np.abs(h_param).max()
        assert np.abs(g @ J - g_param[0, 0]).max() <= 1e-12 * scale
        back = np.einsum('ka,mkl,lb->mab', J, h, J) + np.einsum('mk,kab->mab', g, H)
        assert np.abs(back - h_param[0, 0]).max() <= 1e-11 * scale


def test_quarter_annulus_exact_measures():
    """Exact oracle for the rational geometry path of both entry points."""
    geom = quarter_annulus_cylinder()
    rng = np.random.default_rng(26)
    for xi in rng.uniform(0.0, 1.0, (20, 3)):
        x = at_point(geom, xi)[0]
        assert abs(np.hypot(x[0], x[1]) - (1.0 + xi[0])) < 1e-14
        assert abs(x[2] - xi[2]) < 1e-14
    space = solution_space(geom, 2, 2)
    batcher = ElementBatcher(space, geom, [p + 3 for p in space.degrees])
    volume = sum(blk.w.sum() for blk in batcher.blocks(need=0))
    assert abs(volume - 0.75 * np.pi) < 1e-12
    outer = sum(blk.w.sum() for blk in batcher.blocks(need=0, face=(0, 1)))
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
    assert abs(space.h_hat - expected) < 1e-14


def test_mesh_metrics_mapped_sizes():
    geom = builtin_cases()['moving-simple-1d'].geometry
    for level in (1, 2, 3):
        space = solution_space(geom, 2, level)
        mesh = mesh_metrics(geom, space)
        # knot-mesh size is a pure parameter quantity, read off the knots
        assert abs(space.h_hat - np.sqrt(2.0) * 0.5 ** level) < 1e-14
        assert space.h_hat == mesh.h_param.max()
        # the mapped size exceeds it: the map stretches space near t = 1
        assert mesh.h > space.h_hat
        assert mesh.h_elem.min() > 0


def test_knot_mesh_size_is_the_largest_parameter_cell():
    # h_hat reads the knots alone; it equals mesh_metrics' largest parameter
    # cell diameter bit for bit, on every geometry and on non-uniform knots
    geoms = [d.geometry for d in builtin_cases().values()] + [quarter_annulus_cylinder()]
    spaces = [(geom, solution_space(geom, p, level))
              for geom in geoms for p in (1, 2, 3) for level in range(3 - geom.ndim // 3)]
    rng = np.random.default_rng(24)
    for _ in range(10):
        kvs = [KnotVector(np.concatenate((np.zeros(p + 1), np.sort(rng.uniform(0, 1, 4)),
                                          np.ones(p + 1))), p)
               for p in rng.integers(1, 4, size=rng.integers(2, 4))]
        spaces.append((identity_geometry(DiscreteSpace(kvs)), DiscreteSpace(kvs)))
    for geom, space in spaces:
        assert space.h_hat == mesh_metrics(geom, space).h_param.max()


def lapack_largest_eigenvalue(s):
    return np.linalg.eigvalsh(np.moveaxis(s, (0, 1), (-2, -1)))[..., -1]


def test_largest_eigenvalue_matches_lapack(monkeypatch):
    # closed forms for 2x2 and 3x3, including multiples of I and exactly and nearly double
    # largest eigenvalues, rotated and diagonal; the 3x3 formula hands only a multiple of I
    # over to LAPACK
    rng = np.random.default_rng(14)
    lapack, fallback = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, 'eigvalsh', lambda s: fallback.append(len(s)) or lapack(s))
    for n in (2, 3, 4):
        q = np.linalg.qr(rng.standard_normal((3000, n, n)))[0]
        rest = np.ones((3000, n - 2))
        spectra = [rng.uniform(0.01, 10.0, (3000, n)), np.full((3000, n), 2.5),
                   np.concatenate((np.full((3000, 2), 4.0), rest), axis=1),
                   np.concatenate((np.full((3000, 2), 4.0), np.full((3000, n - 2), 4.0 - 1e-7)), axis=1)]
        spectra += [np.concatenate((np.full((3000, 1), 4.0), np.full((3000, 1), 4.0 - gap), rest),
                                   axis=1) for gap in (1e-12, 1e-8, 1e-4, 1e-2)]
        for k, ev in enumerate(spectra):
            for rotation in (q, np.eye(n)[rng.permutation(n)]):
                s = rotation @ (ev[:, :, None] * np.swapaxes(rotation, -1, -2))
                s = 0.5 * (s + np.swapaxes(s, -1, -2))
                ref = lapack(s)[..., -1]
                fallback.clear()
                got = geometry._largest_eigenvalue(np.moveaxis(s, 0, -1))   # points last
                assert np.max(np.abs(got - ref) / ref) < 1e-13
                assert n != 3 or k == 1 or not sum(fallback), (k, sum(fallback))
        assert np.array_equal(geometry._largest_eigenvalue(np.broadcast_to(np.eye(n)[..., None],
                                                                           (n, n, 5))), np.ones(5))


def test_mesh_metrics_element_sizes_match_lapack(monkeypatch):
    geoms = [d.geometry for d in builtin_cases().values()] + [quarter_annulus_cylinder()]
    spaces = [(geom, solution_space(geom, p, level))
              for geom in geoms for p in (1, 2, 3) for level in range(4 - geom.ndim // 3)]
    closed = [mesh_metrics(geom, space).h_elem for geom, space in spaces]
    monkeypatch.setattr(geometry, '_largest_eigenvalue', lapack_largest_eigenvalue)
    for (geom, space), h_elem in zip(spaces, closed):
        ref = mesh_metrics(geom, space).h_elem
        assert np.max(np.abs(h_elem - ref) / ref) <= 1e-12


def test_mesh_metrics_halving():
    geom = builtin_cases()['moving-curvi-1d'].geometry
    hs = []
    for level in (1, 2, 3, 4):
        space = solution_space(geom, 2, level)
        hs.append(mesh_metrics(geom, space).h)
    ratios = np.array(hs[:-1]) / np.array(hs[1:])
    assert np.all(ratios > 1.9) and np.all(ratios < 2.1)


def test_dimension_mismatch_raises():
    # a map of the (x, t) square against a solution space of (x, y, t)
    geom = builtin_cases()['fixed-1d'].geometry
    space = DiscreteSpace([single_span(1)] * 3)
    with pytest.raises(ValueError, match='geometry and space dimensions differ'):
        ElementBatcher(space, geom)
    with pytest.raises(ValueError, match='geometry dimension 2 does not match space dimension 3'):
        mesh_metrics(geom, space)


def test_mesh_metrics_requires_nested_breakpoints():
    kv_g = KnotVector(np.array([0, 0, 0.3, 1, 1.]), 1)
    geom_space = DiscreteSpace([kv_g, single_span(1)])
    geom = identity_geometry(geom_space)
    space = DiscreteSpace([single_span(1), single_span(1)])
    with pytest.raises(ValueError):
        mesh_metrics(geom, space)
