"""Univariate B-spline primitives against a direct Cox-de Boor oracle."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spacetime_iga._batch import _table
from spacetime_iga.splines import (KnotVector, eval_basis, find_span,
                                   refine_uniform, single_span)


def dense_basis(kv, xi, k=0):
    """All n basis values (or k-th derivatives) by the textbook recursion.

    Intentionally slow and independent of the packaged evaluation: the
    zero-degree indicators are built explicitly and raised degree by
    degree; derivatives use the knot-difference formula recursively on
    the raw knot array.
    """
    return _dense_deriv(kv.knots, kv.degree, float(xi), k)[:kv.n]


def _dense_deriv(U, p, xi, k):
    if k == 0:
        return _dense_any_degree(U, p, xi)
    lower = _dense_deriv(U, p - 1, xi, k - 1)
    n = U.size - p - 1
    out = np.zeros(n)
    for i in range(n):
        d1 = U[i + p] - U[i]
        d2 = U[i + p + 1] - U[i + 1]
        left = lower[i] / d1 if d1 > 0 else 0.0
        right = lower[i + 1] / d2 if d2 > 0 else 0.0
        out[i] = p * (left - right)
    return out


def _dense_any_degree(U, p, xi):
    n0 = U.size - 1
    N = np.zeros(n0)
    # half-open indicators, closed at the right end of the domain
    for i in range(n0):
        if U[i] <= xi < U[i + 1] or (xi == U[-1] and U[i] < U[i + 1] == U[-1]):
            N[i] = 1.0
    for q in range(1, p + 1):
        Nq = np.zeros(n0 - q)
        for i in range(n0 - q):
            d1 = U[i + q] - U[i]
            d2 = U[i + q + 1] - U[i + 1]
            a = (xi - U[i]) / d1 * N[i] if d1 > 0 else 0.0
            b = (U[i + q + 1] - xi) / d2 * N[i + 1] if d2 > 0 else 0.0
            Nq[i] = a + b
        N = Nq
    return N


def scatter(kv, xi):
    """Full-length rows of values and two derivatives from eval_basis.

    ``xi`` is a point or an array of points; the result has shape
    ``np.shape(xi) + (3, n)``.
    """
    first, ders = eval_basis(kv, xi)
    out = np.zeros(np.shape(xi) + (3, kv.n))
    cols = first[..., None, None] + np.arange(kv.degree + 1)
    np.put_along_axis(out, np.broadcast_to(cols, ders.shape), ders, axis=-1)
    return out


def assert_array_call_is_pointwise(kv, xs):
    """One call on the array ``xs`` gives, bit for bit, the rows of one call per point."""
    rows = scatter(kv, xs)
    assert rows.shape == xs.shape + (3, kv.n)
    for idx in np.ndindex(xs.shape):
        assert_array_equal(rows[idx], scatter(kv, float(xs[idx])))
    return rows


SAMPLE_KVS = [
    KnotVector(np.array([0, 0, 0.25, 0.5, 0.75, 1, 1.]), 1),
    KnotVector(np.array([0, 0, 0, 0.2, 0.5, 0.5, 0.8, 1, 1, 1.]), 2),
    KnotVector(np.array([0, 0, 0, 0, 0.3, 0.3, 0.3, 0.7, 1, 1, 1, 1.]), 3),
    single_span(4),
]


@pytest.mark.parametrize('kv', SAMPLE_KVS)
def test_values_match_dense_recursion(kv):
    rng = np.random.default_rng(1)
    xs = np.concatenate((rng.uniform(0, 1, 40), [0.0, 1.0, 0.5], kv.breakpoints))
    rows = assert_array_call_is_pointwise(kv, xs.reshape(-1, 1))
    for xi, row in zip(xs, rows[:, 0]):
        assert_allclose(row[0], dense_basis(kv, float(xi)), atol=1e-13)


@pytest.mark.parametrize('kv', SAMPLE_KVS)
def test_first_derivatives_match_dense_recursion(kv):
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.01, 0.99, 40)
    rows = assert_array_call_is_pointwise(kv, xs.reshape(4, 10)).reshape(40, 3, kv.n)
    for xi, row in zip(xs, rows):
        assert_allclose(row[1], dense_basis(kv, float(xi), k=1), atol=1e-11)


@pytest.mark.parametrize('kv', [kv for kv in SAMPLE_KVS if kv.degree >= 2])
def test_second_derivatives_match_finite_differences(kv):
    # interior points away from knots; FD noise floor scales with 1/e^2
    e = 1e-5
    for xi in (0.12, 0.41, 0.63, 0.93):
        vp, v0, vm = (scatter(kv, xi + s * e)[0] for s in (1, 0, -1))
        fd = (vp - 2 * v0 + vm) / e**2
        assert_allclose(scatter(kv, xi)[2], fd, atol=1e-4 * max(1, np.abs(fd).max()))


@pytest.mark.parametrize('kv', SAMPLE_KVS)
def test_partition_of_unity_and_derivative_sums(kv):
    rng = np.random.default_rng(3)
    for xi in rng.uniform(0, 1, 60):
        rows = scatter(kv, float(xi))
        assert abs(rows[0].sum() - 1.0) < 1e-12
        assert abs(rows[1].sum()) < 1e-9
        assert abs(rows[2].sum()) < 1e-7
    sums = scatter(kv, rng.uniform(0, 1, (6, 10))).sum(axis=-1)
    assert np.abs(sums[..., 0] - 1.0).max() < 1e-12
    assert np.abs(sums[..., 1]).max() < 1e-9
    assert np.abs(sums[..., 2]).max() < 1e-7


def test_values_nonnegative_and_local():
    kv = SAMPLE_KVS[1]
    xs = np.linspace(0, 1, 23)
    for xi in xs:
        first, ders = eval_basis(kv, float(xi))
        assert first.shape == () and ders.shape == (3, kv.degree + 1)
        assert ders[0].min() > -1e-14
    first, ders = eval_basis(kv, xs)
    assert first.shape == xs.shape and ders.shape == xs.shape + (3, kv.degree + 1)
    assert ders.flags.c_contiguous
    assert ders[:, 0].min() > -1e-14
    assert first.min() >= 0 and first.max() + kv.degree <= kv.n - 1
    # the values are the only non-zero functions: nothing lies outside the active rows
    rows = scatter(kv, xs)[:, 0]
    assert_allclose(rows.sum(axis=1), 1.0, atol=1e-14)
    active = np.take_along_axis(rows, first[:, None] + np.arange(kv.degree + 1), axis=1)
    assert_allclose(active.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize('kv', SAMPLE_KVS)
def test_find_span_brackets_point(kv):
    rng = np.random.default_rng(4)
    xs = np.concatenate((rng.uniform(0, 1, 50), [0.0, 1.0], kv.breakpoints))
    for xi in xs:
        s = find_span(kv, float(xi))
        assert kv.degree <= s <= kv.n - 1
        if xi < 1.0:
            assert kv.knots[s] <= xi < kv.knots[s + 1]
        else:
            assert kv.knots[s] < kv.knots[s + 1] == 1.0
    spans = find_span(kv, xs.reshape(1, -1, 1))
    assert spans.shape == (1, xs.size, 1)
    assert_array_equal(spans.ravel(), [find_span(kv, float(xi)) for xi in xs])


def test_find_span_rejects_outside_domain():
    kv = SAMPLE_KVS[0]
    with pytest.raises(ValueError):
        find_span(kv, -0.1)
    with pytest.raises(ValueError):
        find_span(kv, 1.1)


def test_find_span_rejects_bad_entries_inside_an_array():
    kv = SAMPLE_KVS[1]
    good = np.linspace(0, 1, 12).reshape(3, 4)
    find_span(kv, good)
    with pytest.raises(ValueError, match=r'parameter nan outside \[0, 1\]'):
        find_span(kv, np.nan)
    for bad in (np.nan, -1e-12, 1.0 + 1e-12, np.inf):
        xs = good.copy()
        xs[1, 2] = bad
        with pytest.raises(ValueError, match=r'outside \[0, 1\]'):
            find_span(kv, xs)
        with pytest.raises(ValueError, match=r'outside \[0, 1\]'):
            eval_basis(kv, xs)


def test_table_rejects_a_node_row_across_a_breakpoint():
    kv = SAMPLE_KVS[1]  # breakpoints 0, 0.2, 0.5, 0.8, 1
    nodes = np.array([[0.05, 0.15], [0.55, 0.75]])
    table = _table(kv, nodes)
    assert_array_equal(table.first, [0, 3])
    assert_array_equal(table.ders, eval_basis(kv, nodes)[1])
    for row in ([0.1, 0.3], [0.45, 0.55], [0.6, 0.8]):
        with pytest.raises(ValueError, match='solution spans must refine geometry spans'):
            _table(kv, np.vstack((nodes, row)))


def test_endpoint_interpolation():
    # open knot vectors: first/last functions are cardinal at the ends
    for kv in SAMPLE_KVS:
        r0 = scatter(kv, 0.0)[0]
        r1 = scatter(kv, 1.0)[0]
        assert_allclose(r0, np.eye(kv.n)[0], atol=1e-14)
        assert_allclose(r1, np.eye(kv.n)[-1], atol=1e-14)


def test_greville_single_span_equispaced():
    p = 3
    assert_allclose(single_span(p).greville(), np.arange(p + 1) / p, atol=1e-15)


def test_greville_count_and_range():
    for kv in SAMPLE_KVS:
        g = kv.greville()
        assert g.size == kv.n
        assert g.min() >= 0.0 and g.max() <= 1.0
        assert np.all(np.diff(g) > -1e-15)


def test_refine_uniform_nests_breakpoints():
    kv = SAMPLE_KVS[1]
    fine = refine_uniform(kv)
    assert fine.degree == kv.degree
    assert np.all(np.isin(kv.breakpoints, fine.breakpoints))
    assert fine.breakpoints.size == 2 * kv.breakpoints.size - 1
    assert fine.n == kv.n + kv.spans.shape[0]


def test_refine_preserves_coarse_functions():
    # nested spaces: the coarse function equals its refined re-expansion,
    # checked through dense least squares on a fine sample grid
    kv = SAMPLE_KVS[1]
    fine = refine_uniform(kv)
    rng = np.random.default_rng(5)
    coef = rng.standard_normal(kv.n)
    xs = np.linspace(0, 1, 200)
    coarse_vals = np.array([dense_basis(kv, x) @ coef for x in xs])
    A = np.array([dense_basis(fine, x) for x in xs])
    fit, res, *_ = np.linalg.lstsq(A, coarse_vals, rcond=None)
    assert np.abs(A @ fit - coarse_vals).max() < 1e-10


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        KnotVector(np.array([0, 0, 0.5, 0.4, 1, 1.]), 1)  # decreasing
    with pytest.raises(ValueError):
        KnotVector(np.array([0, 0.5, 1.]), 1)  # not open
    with pytest.raises(ValueError):
        KnotVector(np.array([0, 0, 0.5, 1, 1.]), 0)  # degree too low
    with pytest.raises(ValueError):
        KnotVector(np.array([0.1, 0.1, 0.5, 1, 1.]), 1)  # wrong interval
    with pytest.raises(ValueError):
        KnotVector(np.array([0, 0, 0.5, 0.5, 0.5, 1, 1.]), 1)  # multiplicity 3 > p+1
    with pytest.raises(ValueError, match='knots must be finite'):
        KnotVector(np.array([0, 0, np.nan, 1, 1.]), 1)


@st.composite
def open_knot_vectors(draw, max_degree=4):
    """Degree 1-``max_degree``, 1-6 interior knots on a 1/16 grid, multiplicity at most the
    degree."""
    p = draw(st.integers(1, max_degree))
    ticks = draw(st.lists(st.integers(1, 15), min_size=1, max_size=6)
                 .filter(lambda t: max(Counter(t).values()) <= p))
    return KnotVector(np.concatenate((np.zeros(p + 1), np.sort(ticks) / 16, np.ones(p + 1))), p)


@settings(max_examples=80, deadline=None)
@given(kv=open_knot_vectors(),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_array_kernel_matches_dense_recursion_on_random_knots(kv, xs):
    xs = np.concatenate((xs, kv.breakpoints))
    rows = assert_array_call_is_pointwise(kv, xs)
    scale = [1.0, 16.0 * kv.degree, (16.0 * kv.degree) ** 2]
    for xi, row in zip(xs, rows):
        for k in range(3):
            assert_allclose(row[k], dense_basis(kv, xi, k), rtol=0, atol=1e-12 * scale[k])
    sums = rows.sum(axis=-1)
    assert_allclose(sums[:, 0], 1.0, rtol=0, atol=1e-13)
    assert_allclose(sums[:, 1:], 0.0, rtol=0, atol=1e-12 * scale[2])


def spline_values(kv, coefficients, xi):
    first, ders = eval_basis(kv, xi)
    local = coefficients[first[:, None] + np.arange(kv.degree + 1)]
    return np.einsum('nm,nm->n', ders[:, 0], local)


@settings(max_examples=80, deadline=None)
@given(kv=open_knot_vectors(max_degree=3), seed=st.integers(0, 2**32 - 1),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_refined_spline_equals_the_coarse_one(kv, seed, xs):
    # the fine coefficients interpolate the coarse spline at the fine Greville
    # points; nested spaces make the interpolant the coarse spline itself
    coarse = np.random.default_rng(seed).uniform(-1, 1, kv.n)
    fine = refine_uniform(kv)
    greville = fine.greville()
    first, ders = eval_basis(fine, greville)
    collocation = np.zeros((fine.n, fine.n))
    np.put_along_axis(collocation, first[:, None] + np.arange(fine.degree + 1), ders[:, 0], axis=1)
    refined = np.linalg.solve(collocation, spline_values(kv, coarse, greville))
    xs = np.concatenate((xs, fine.breakpoints))
    scale = np.abs(coarse).max()
    assert_allclose(spline_values(fine, refined, xs), spline_values(kv, coarse, xs),
                    rtol=0, atol=1e-12 * scale)
