"""Tensor-product space: indexing, multivariate evaluation, dof classification."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spacetime_iga.splines import KnotVector, eval_basis, refine_uniform, single_span
from spacetime_iga.tensor_space import (DiscreteSpace, classify_dirichlet, point_rows,
                                        tensor_basis)


def make_space(degrees=(2, 2), levels=(1, 1), weights=None):
    kvs = []
    for p, lv in zip(degrees, levels):
        kv = single_span(p)
        for _ in range(lv):
            kv = refine_uniform(kv)
        kvs.append(kv)
    return DiscreteSpace(kvs, weights)


def eval_point(space, xi, max_deriv=2):
    """Active dofs and parameter-space values, gradients and Hessians at ``xi``.

    Derivatives above ``max_deriv`` come back zero-filled.
    """
    active, val, grad, hess = tensor_basis(space, *point_rows(space, xi, max_deriv), max_deriv)
    m, nd = active.shape[1], space.ndim
    grad = np.zeros((1, 1, m, nd)) if grad is None else grad
    hess = np.zeros((1, 1, m, nd, nd)) if hess is None else hess
    return active[0], val[0, 0], grad[0, 0], hess[0, 0]


def dense_point(space, xi, max_deriv=2):
    """Scatter the active functions at ``xi`` to full-length arrays for comparison."""
    active, values, gradients, hessians = eval_point(space, xi, max_deriv)
    n = space.dim
    vals = np.zeros(n)
    grads = np.zeros((n, space.ndim))
    hess = np.zeros((n, space.ndim, space.ndim))
    vals[active] = values
    grads[active] = gradients
    hess[active] = hessians
    return vals, grads, hess


def test_flat_multi_roundtrip():
    # the active dofs of a point are its univariate active ranges, combined
    # with direction 0 slowest in the local order and fastest in the flat index
    space = make_space((1, 2, 2), (1, 1, 0))
    rng = np.random.default_rng(10)
    for xi in rng.uniform(0, 1, (10, 3)):
        active = eval_point(space, xi)[0]
        firsts = [eval_basis(kv, float(x)).first_active for kv, x in zip(space.knot_vectors, xi)]
        ranges = [f + np.arange(kv.degree + 1) for f, kv in zip(firsts, space.knot_vectors)]
        local = np.stack([g.ravel() for g in np.meshgrid(*ranges, indexing='ij')])
        assert np.array_equal(np.ravel_multi_index(local, space.dims, order='F'), active)
        assert np.array_equal(np.unravel_index(active, space.dims, order='F'), local)
        # direction 0 is fastest: flat = i0 + n0 * (i1 + n1 * i2)
        n0, n1 = space.dims[:2]
        assert np.array_equal(active, local[0] + n0 * (local[1] + n1 * local[2]))


def test_dims_and_strides():
    space = make_space((2, 3), (2, 1))
    n0, n1 = space.dims
    assert space.dim == n0 * n1
    assert space.strides == (1, n0)
    assert space.degrees == (2, 3)


def test_values_match_univariate_products():
    space = make_space((2, 3), (2, 1))
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = rng.uniform(0, 1, 2)
        vals, grads, hess = dense_point(space, xi)
        # oracle: outer products of univariate rows scattered by hand
        rows = [eval_basis(kv, float(x)) for kv, x in zip(space.knot_vectors, xi)]
        full = [np.zeros((3, kv.n)) for kv in space.knot_vectors]
        for r, f in zip(rows, full):
            i0 = r.first_active
            f[0, i0:i0 + r.values.size] = r.values
            f[1, i0:i0 + r.values.size] = r.first_derivs
            f[2, i0:i0 + r.values.size] = r.second_derivs
        n0 = space.dims[0]
        for flat in range(space.dim):
            i, j = flat % n0, flat // n0
            assert abs(vals[flat] - full[0][0, i] * full[1][0, j]) < 1e-13
            assert abs(grads[flat, 0] - full[0][1, i] * full[1][0, j]) < 1e-11
            assert abs(grads[flat, 1] - full[0][0, i] * full[1][1, j]) < 1e-11
            assert abs(hess[flat, 0, 1] - full[0][1, i] * full[1][1, j]) < 1e-10
            assert abs(hess[flat, 1, 1] - full[0][0, i] * full[1][2, j]) < 1e-9


def test_gradients_match_finite_differences():
    space = make_space((2, 2, 2), (1, 1, 1))
    rng = np.random.default_rng(12)
    e = 1e-5
    for _ in range(5):
        xi = rng.uniform(0.1, 0.9, 3)
        _, grads, hess = dense_point(space, xi)
        for a in range(3):
            dp, dm = xi.copy(), xi.copy()
            dp[a] += e
            dm[a] -= e
            fd = (dense_point(space, dp)[0] - dense_point(space, dm)[0]) / (2 * e)
            assert np.abs(grads[:, a] - fd).max() < 1e-5
            fdg = (dense_point(space, dp)[1] - dense_point(space, dm)[1]) / (2 * e)
            assert np.abs(hess[:, :, a] - fdg).max() < 1e-4


def test_partition_of_unity_multivariate():
    for weights in (None, 'random'):
        space = make_space((2, 2), (2, 2))
        if weights == 'random':
            rng = np.random.default_rng(13)
            space = make_space((2, 2), (2, 2), weights=rng.uniform(0.5, 2.0, space.dim))
        rng = np.random.default_rng(14)
        for _ in range(15):
            xi = rng.uniform(0, 1, 2)
            _, values, gradients, hessians = eval_point(space, xi)
            assert abs(values.sum() - 1.0) < 1e-12
            assert np.abs(gradients.sum(axis=0)).max() < 1e-10
            assert np.abs(hessians.sum(axis=0)).max() < 1e-8


def test_unit_weights_reduce_to_bspline():
    plain = make_space((2, 2), (1, 1))
    weighted = make_space((2, 2), (1, 1), weights=np.full(plain.dim, 3.7))
    rng = np.random.default_rng(15)
    for _ in range(10):
        xi = rng.uniform(0, 1, 2)
        a = eval_point(plain, xi)
        b = eval_point(weighted, xi)
        assert_allclose(a[1], b[1], atol=1e-14)
        assert_allclose(a[2], b[2], atol=1e-13)
        assert_allclose(a[3], b[3], atol=1e-12)


def test_nurbs_derivatives_match_finite_differences():
    rng = np.random.default_rng(16)
    base = make_space((2, 2), (1, 1))
    space = make_space((2, 2), (1, 1), weights=rng.uniform(0.5, 2.0, base.dim))
    e = 1e-5
    for _ in range(8):
        xi = rng.uniform(0.1, 0.9, 2)
        vals, grads, hess = dense_point(space, xi)
        for a in range(2):
            dp, dm = xi.copy(), xi.copy()
            dp[a] += e
            dm[a] -= e
            vp, gp, _ = dense_point(space, dp, 1)
            vm, gm, _ = dense_point(space, dm, 1)
            assert np.abs(grads[:, a] - (vp - vm) / (2 * e)).max() < 1e-5
            assert np.abs(hess[:, :, a] - (gp - gm) / (2 * e)).max() < 1e-4


def test_classify_dirichlet_hand_mask():
    # one space + one time direction: lateral = both x ends, initial = t first
    space = make_space((2, 2), (1, 1))
    n0, n1 = space.dims
    dm = classify_dirichlet(space)
    for flat in range(space.dim):
        i, j = np.unravel_index(flat, space.dims, order='F')
        expect = i in (0, n0 - 1) or j == 0
        assert dm.dirichlet_mask[flat] == expect
    assert dm.free.size == (n0 - 2) * (n1 - 1)
    # partition: free and dirichlet are complementary and consistent
    assert np.array_equal(np.flatnonzero(~dm.dirichlet_mask), dm.free)


def test_classify_dirichlet_terminal_face_free():
    space = make_space((2, 2), (1, 1))
    dm = classify_dirichlet(space)
    n0, n1 = space.dims
    # interior-in-x dofs on the last time layer stay free
    for i in range(1, n0 - 1):
        assert not dm.dirichlet_mask[np.ravel_multi_index((i, n1 - 1), space.dims, order='F')]


def test_classify_dirichlet_3d_counts():
    space = make_space((1, 1, 2), (1, 1, 1))
    n0, n1, n2 = space.dims
    dm = classify_dirichlet(space)
    assert dm.free.size == (n0 - 2) * (n1 - 2) * (n2 - 1)


def test_space_validation():
    with pytest.raises(ValueError):
        DiscreteSpace([single_span(2)])  # needs space + time
    kvs = [single_span(1), single_span(1)]
    with pytest.raises(ValueError):
        DiscreteSpace(kvs, weights=np.ones(3))  # wrong length
    with pytest.raises(ValueError):
        DiscreteSpace(kvs, weights=np.array([1.0, 1.0, -1.0, 1.0]))  # nonpositive
    with pytest.raises(ValueError):
        point_rows(DiscreteSpace(kvs), np.array([0.5]), 2)  # wrong point size
