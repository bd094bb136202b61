"""Solver wrappers: agreement with dense references, reporting, failure modes,
and the fast diagonalization preconditioner of the parametric cylinder."""
import dataclasses
import time
import warnings
from collections import Counter
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spacetime_iga.linsolve as linsolve
from spacetime_iga.assembly import (LinearSystem, SchemeParams, apply_dirichlet, assemble_fixed,
                                    assemble_moving)
from spacetime_iga.harness import CaseConfig, _setup_level, builtin_cases, run_case
from spacetime_iga.linsolve import (ConvergenceError, SingularSystemError, SolveReport,
                                    cylinder_matrices, cylinder_operator,
                                    cylinder_preconditioner, solve_direct, solve_fd, solve_gmres)
from spacetime_iga.splines import KnotVector
from spacetime_iga.tensor_space import DiscreteSpace


def random_spd(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format='csr')
    A = A + A.T + n * sp.eye(n)
    return A.tocsr()


def random_nonsymmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.25, random_state=rng, format='csr')
    return (A + n * sp.eye(n)).tocsr()


def test_direct_matches_dense_solve():
    A = random_nonsymmetric(60, 7)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(60)
    x, report = solve_direct(A, b)
    assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-12, atol=1e-13)
    assert report.method == 'direct'
    assert report.iterations == 0
    assert report.residual <= 1e-13
    assert report.time_s >= 0.0


def test_gmres_matches_direct():
    A = random_nonsymmetric(80, 11)
    b = np.random.default_rng(12).standard_normal(80)
    xd, _ = solve_direct(A, b)
    xg, report = solve_gmres(A, b, tol=1e-12)
    assert np.linalg.norm(xd - xg) / np.linalg.norm(xd) < 1e-10
    assert report.method == 'gmres'
    assert report.iterations > 0
    assert report.residual <= 1e-12
    assert np.isfinite(report.residual)
    assert_allclose(report.residual, np.linalg.norm(b - A @ xg) / np.linalg.norm(b), rtol=1e-12)


def test_gmres_true_residual_claim():
    # the reported residual is the unpreconditioned one
    A = random_spd(50, 3)
    b = np.random.default_rng(4).standard_normal(50)
    x, report = solve_gmres(A, b, tol=1e-11)
    true_res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert abs(true_res - report.residual) < 1e-14
    assert true_res <= 1e-11


def test_zero_rhs_short_circuits():
    A = random_spd(10, 5)
    for solver in (solve_direct, solve_gmres):
        x, report = solver(A, np.zeros(10))
        assert np.all(x == 0.0)
        assert report.residual == 0.0


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        solve_direct(A, np.array([1.0, 1.0]))


def test_gmres_budget_exhaustion_reports_state():
    # ill-conditioned system, one inner iteration: must raise with context
    rng = np.random.default_rng(19)
    n = 40
    A = sp.csr_matrix(np.diag(np.logspace(0, 8, n)) + 0.1 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    with pytest.raises(ConvergenceError) as excinfo:
        solve_gmres(A, b, tol=1e-14, restart=2, max_iter=2)
    err = excinfo.value
    assert err.iterations >= 1
    assert np.isfinite(err.residual) and err.residual > 1e-14


def test_input_validation():
    A = random_spd(5, 1)
    with pytest.raises(TypeError):
        solve_direct(A.toarray(), np.ones(5))
    with pytest.raises(ValueError):
        solve_direct(A, np.ones(4))
    with pytest.raises(ValueError):
        solve_direct(sp.eye(3).tocsr()[:, :2], np.ones(3))


def test_gmres_builds_the_preconditioner_inside_the_timed_solve():
    A = random_nonsymmetric(60, 13)
    b = np.random.default_rng(14).standard_normal(60)
    built = []

    def jacobi(matrix):
        built.append(matrix)
        time.sleep(0.05)
        return spla.aslinearoperator(sp.diags(1.0 / matrix.diagonal()))

    x, report = solve_gmres(A, b, tol=1e-12, preconditioner=jacobi)
    assert len(built) == 1 and (built[0] != A).nnz == 0
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    assert report.time_s >= 0.05
    assert report.tol == 1e-12


def test_gmres_is_one_scipy_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return gmres(*args, **kwargs)

    gmres = linsolve.spla.gmres
    monkeypatch.setattr(linsolve.spla, 'gmres', counted)
    A = random_nonsymmetric(80, 11)
    b = np.random.default_rng(12).standard_normal(80)
    solve_gmres(A, b, tol=1e-12, restart=50, max_iter=120)
    assert len(calls) == 1
    assert calls[0]['maxiter'] == 2 and calls[0]['restart'] == 50 and calls[0]['rtol'] == 1e-12
    solve_gmres(A, b, tol=1e-12, restart=4, max_iter=80)
    assert len(calls) == 2


def test_gmres_counts_the_inner_iterations_of_every_cycle(monkeypatch):
    # five-iteration cycles on the FD-preconditioned moving-simple-1d p2 L5 system
    # (28 iterations in one cycle at the default restart)
    space, system, theta_h = builtin_system('moving-simple-1d', 2, 5)
    seen = []

    def spied(*args, callback, **kwargs):
        def count(r):
            seen.append(r)
            callback(r)
        return gmres(*args, callback=count, **kwargs)

    gmres = linsolve.spla.gmres
    monkeypatch.setattr(linsolve.spla, 'gmres', spied)
    x, report = solve_gmres(
        system.matrix, system.rhs, tol=1e-12, restart=5,
        preconditioner=lambda m: cylinder_preconditioner(space, m.shape[0], theta_h))
    true = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
    assert true <= 1e-12 and report.residual == pytest.approx(true, rel=1e-12)
    assert report.iterations == len(seen) > 5


def test_report_is_frozen():
    report = SolveReport('direct', 0, 0.0, 0.0)
    with pytest.raises(Exception):
        report.iterations = 3


def kronecker_operator(space, theta_h):
    """``(C_t + s K_t) (x) M_x + (M_t + s C_t^T) (x) K_x`` from the univariate matrices."""
    *spatial, (m_t, k_t, c_t) = cylinder_matrices(space)
    masses = [m for m, _, _ in spatial]
    m_x = reduce(np.kron, masses[::-1])
    k_x = sum(reduce(np.kron, [k if b == a else m for b, (m, k, _) in enumerate(spatial)][::-1])
              for a in range(len(spatial)))
    return np.kron(c_t + theta_h * k_t, m_x) + np.kron(m_t + theta_h * c_t.T, k_x)


def builtin_system(name, degree, level):
    """``(space, reduced system, theta h)`` of a built-in case, fixed or moving."""
    definition = builtin_cases()[name]
    case, geom = definition.case, definition.geometry
    space, dofmap = _setup_level(geom, degree, level)
    params = SchemeParams(0.1, space.h_hat)
    assemble = assemble_moving if case.moving else assemble_fixed
    system = apply_dirichlet(assemble(space, geom, case, params), dofmap, case, space, geom)
    return space, system, params.theta * params.h


@pytest.mark.parametrize('name,level', [('fixed-1d', 3), ('fixed-2d', 2)])
def test_kronecker_form_is_the_assembled_fixed_operator(name, level):
    space, system, theta_h = builtin_system(name, 2, level)
    reduced = system.matrix.toarray()
    kron = kronecker_operator(space, theta_h)
    assert np.linalg.norm(kron - reduced) <= 1e-13 * np.linalg.norm(reduced)

    # the fast diagonalization inverts that operator
    solve = cylinder_preconditioner(space, system.rhs.size, theta_h)
    v = np.random.default_rng(31).standard_normal(system.rhs.size)
    assert np.linalg.norm(solve @ (kron @ v) - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(kron @ (solve @ v) - v) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize('name,degree,level', [
    *(('fixed-1d', p, level) for p in (1, 2) for level in (5, 6)),
    *(('fixed-2d', p, level) for p in (1, 2) for level in (3, 4)),
])
def test_fast_diagonalization_solve_matches_lu(name, degree, level):
    space, system, theta_h = builtin_system(name, degree, level)
    xd, _ = solve_direct(system.matrix, system.rhs)
    xf, report = solve_fd(system.matrix, system.rhs, space, theta_h)
    assert np.linalg.norm(xf - xd) <= 1e-12 * np.linalg.norm(xd)
    assert (report.method, report.iterations) == ('fd', 0)
    assert report.residual <= 1e-13
    assert_allclose(report.residual, np.linalg.norm(system.rhs - system.matrix @ xf)
                    / np.linalg.norm(system.rhs), rtol=1e-12)


def test_fast_diagonalization_solve_failures_raise():
    space, system, theta_h = builtin_system('fixed-1d', 2, 3)
    rhs = system.rhs.copy()
    rhs[0] = np.nan
    with pytest.raises(SingularSystemError, match='fd solve produced non-finite values'):
        solve_fd(system.matrix, rhs, space, theta_h)
    # a NaN time pencil is a singular factorization
    with pytest.raises(SingularSystemError):
        solve_fd(system.matrix, system.rhs, space, np.nan)


def assembled_and_operator(space, d):
    """The assembled fixed form of ``space`` on the identity cylinder of ``d`` space
    dimensions, dense, and :func:`cylinder_operator` applied to the identity."""
    definition = builtin_cases()['fixed-1d' if d == 1 else 'fixed-2d']
    params = SchemeParams(0.1, space.h_hat)
    assembled = assemble_fixed(space, definition.geometry, definition.case, params).matrix
    operator = cylinder_operator(space, params.theta * params.h)
    return assembled.toarray(), operator @ np.eye(space.dim)


@pytest.mark.parametrize('name,degree,level', [
    *(('fixed-1d', p, 3) for p in (1, 2, 3)),
    *(('fixed-2d', p, 2) for p in (1, 2)),
])
def test_cylinder_operator_is_the_assembled_fixed_form(name, degree, level):
    # over all dofs, Dirichlet ones included: the lifting and the residual of a matrix-free level
    space, _ = _setup_level(builtin_cases()[name].geometry, degree, level)
    assembled, applied = assembled_and_operator(space, space.ndim - 1)
    assert np.linalg.norm(applied - assembled) <= 1e-13 * np.linalg.norm(assembled)


def superlu_time_solve(space, theta_h):
    """The fast diagonalization with its time systems stacked by ``sp.kron`` and factored by
    SuperLU: the reference of the banded LU, on the same spatial eigenpairs."""
    *spatial, (m_t, k_t, c_t) = cylinder_matrices(space)
    shape = (m_t.shape[0],) + tuple(m.shape[0] for m, _, _ in spatial[::-1])
    pairs = [linsolve._pencil_eigh(k, m) for m, k, _ in spatial]
    lam = reduce(np.add.outer, [ev for ev, _ in pairs[::-1]]).ravel()
    lu = spla.splu((sp.kron(sp.identity(lam.size), c_t + theta_h * k_t)
                    + sp.kron(sp.diags(lam), m_t + theta_h * c_t.T)).tocsc())

    def transform(x, transpose):
        for a, (_, u) in enumerate(pairs):
            axis = len(shape) - 1 - a
            x = np.moveaxis(np.tensordot(u.T if transpose else u, x, axes=(1, axis)), 0, axis)
        return x

    def apply(r):
        y = transform(r.reshape(shape), transpose=True).reshape(shape[0], -1)
        y = lu.solve(y.ravel(order='F')).reshape(y.shape, order='F')
        return transform(y.reshape(shape), transpose=False).ravel()
    return apply


@pytest.mark.parametrize('name,degree,level', [
    ('fixed-1d', 1, 5), ('fixed-1d', 2, 6), ('fixed-1d', 3, 4),
    ('fixed-2d', 1, 3), ('fixed-2d', 2, 3), ('moving-curvi-2d', 3, 2),
])
def test_banded_time_factor_matches_superlu(name, degree, level):
    space, dofmap = _setup_level(builtin_cases()[name].geometry, degree, level)
    theta_h = 0.1 * space.h_hat
    v = np.random.default_rng(41).standard_normal(dofmap.free.size)
    want = superlu_time_solve(space, theta_h)(v)
    got = cylinder_preconditioner(space, v.size, theta_h) @ v
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize('name,degree,level', [('fixed-1d', 2, 5), ('fixed-2d', 2, 3)])
def test_matrix_free_fast_diagonalization_solve_matches_lu(name, degree, level):
    # the solve ``run_case`` makes on such a level: the Kronecker operator restricted by
    # ``apply_dirichlet`` in place of the assembled matrix, the load from the same pass; the
    # Dirichlet data are nonzero, unlike the built-in solutions', so the lifting counts
    definition = builtin_cases()[name]
    geom = definition.geometry

    def solution(x):
        u = np.exp(0.3 * x.sum(axis=1))
        return u, 0.3 * np.repeat(u[:, None], x.shape[1], axis=1)
    case = dataclasses.replace(definition.case, solution=solution)
    space, dofmap = _setup_level(geom, degree, level)
    params = SchemeParams(0.1, space.h_hat)
    theta_h = params.theta * params.h
    full = assemble_fixed(space, geom, case, params)
    assembled = apply_dirichlet(full, dofmap, case, space, geom)
    free = apply_dirichlet(LinearSystem(cylinder_operator(space, theta_h), full.rhs), dofmap,
                           case, space, geom)
    assert np.linalg.norm(free.rhs - assembled.rhs) <= 1e-13 * np.linalg.norm(assembled.rhs)
    xd, _ = solve_direct(assembled.matrix, assembled.rhs)
    xf, report = solve_fd(free.matrix, free.rhs, space, theta_h)
    assert np.linalg.norm(xf - xd) <= 1e-12 * np.linalg.norm(xd)
    assert (report.method, report.iterations, report.tol) == ('fd', 0, None)
    assert report.residual <= 1e-13
    assert_allclose(report.residual, np.linalg.norm(free.rhs - free.matrix @ xf)
                    / np.linalg.norm(free.rhs), rtol=1e-12)


def test_failed_time_factorization_raises(monkeypatch):
    space, system, theta_h = builtin_system('fixed-1d', 2, 3)
    monkeypatch.setattr(linsolve, 'dgbtrf', lambda ab, kl, ku, **kw: (ab, None, 3))
    with pytest.raises(SingularSystemError, match='dgbtrf info 3'):
        solve_fd(system.matrix, system.rhs, space, theta_h)


@st.composite
def open_knot_vectors(draw):
    """Degree 1-3, 1-5 interior knots on a 1/16 grid, multiplicity at most the degree."""
    p = draw(st.integers(1, 3))
    ticks = draw(st.lists(st.integers(1, 15), min_size=1, max_size=5)
                 .filter(lambda t: max(Counter(t).values()) <= p))
    return KnotVector(np.concatenate((np.zeros(p + 1), np.sort(ticks) / 16, np.ones(p + 1))), p)


@settings(max_examples=60, deadline=None)
@given(kvs=st.integers(1, 2).flatmap(lambda d: st.lists(open_knot_vectors(), min_size=d + 1,
                                                          max_size=d + 1)),
       theta_h=st.floats(1e-3, 1.0))
def test_fast_diagonalization_inverts_on_nonuniform_knots(kvs, theta_h):
    space = DiscreteSpace(kvs)
    kron = kronecker_operator(space, theta_h)
    solve = cylinder_preconditioner(space, kron.shape[0], theta_h)
    v = np.random.default_rng(37).standard_normal(kron.shape[0])
    assert np.linalg.norm(solve @ (kron @ v) - v) <= 1e-10 * np.linalg.norm(v)
    assert np.linalg.norm(kron @ (solve @ v) - v) <= 1e-10 * np.linalg.norm(v)


@settings(max_examples=30, deadline=None)
@given(kvs=st.integers(1, 2).flatmap(lambda d: st.lists(open_knot_vectors(), min_size=d + 1,
                                                          max_size=d + 1)))
def test_cylinder_operator_is_the_assembled_form_on_nonuniform_knots(kvs):
    space = DiscreteSpace(kvs)
    assembled, applied = assembled_and_operator(space, space.ndim - 1)
    assert np.linalg.norm(applied - assembled) <= 1e-13 * np.linalg.norm(assembled)


def assert_pencil_matches_scipy(k, m):
    """:func:`linsolve._pencil_eigh` of ``(K, M)`` against ``scipy.linalg.eigh``."""
    lam, u = linsolve._pencil_eigh(k, m)
    want = scipy.linalg.eigh(k, m, eigvals_only=True)
    scale = np.abs(want).max()
    assert np.abs(lam - want).max() <= 1e-14 * scale
    assert np.abs(linsolve._pencil_eigh(k, m, eigvals_only=True) - want).max() <= 1e-14 * scale
    assert np.abs(u.T @ m @ u - np.eye(lam.size)).max() <= 1e-13
    assert np.linalg.norm(k @ u - m @ u * lam) <= 1e-12 * np.linalg.norm(k)


@pytest.mark.parametrize('name,degree,level', [
    *(('fixed-1d', p, level) for p in (1, 2, 3) for level in (3, 8)),
    ('fixed-2d', 2, 5), ('moving-curvi-2d', 3, 3),
])
def test_spatial_pencils_match_scipy(name, degree, level):
    # the fast diagonalization's pencils, solved on numpy's LAPACK
    space, _ = _setup_level(builtin_cases()[name].geometry, degree, level)
    for m, k, _ in cylinder_matrices(space)[:-1]:
        assert_pencil_matches_scipy(k, m)


@settings(max_examples=40, deadline=None)
@given(kvs=st.lists(open_knot_vectors(), min_size=2, max_size=3))
def test_spatial_pencils_match_scipy_on_nonuniform_knots(kvs):
    for m, k, _ in cylinder_matrices(DiscreteSpace(kvs))[:-1]:
        assert_pencil_matches_scipy(k, m)


def test_fast_diagonalization_needs_no_dense_scipy_linalg(monkeypatch):
    # the fast diagonalization runs its dense work on numpy's LAPACK, so that a solve
    # wakes one OpenBLAS thread pool, not scipy's as well
    fixed = builtin_system('fixed-1d', 2, 5)
    moving = builtin_system('moving-curvi-1d', 2, 5)

    def refuse(*args, **kwargs):
        raise AssertionError('dense scipy.linalg eigensolver called')
    for name in ('eigh', 'eig'):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    space, system, theta_h = fixed
    _, report = solve_fd(system.matrix, system.rhs, space, theta_h)
    assert report.method == 'fd' and report.residual <= 1e-13
    space, system, theta_h = moving
    _, report = solve_gmres(
        system.matrix, system.rhs, tol=1e-10,
        preconditioner=lambda m: cylinder_preconditioner(space, m.shape[0], theta_h))
    assert report.residual <= 1e-10


def test_fast_diagonalization_rejects_a_mismatched_free_set():
    space, dofmap = _setup_level(builtin_cases()['fixed-1d'].geometry, 2, 1)
    with pytest.raises(ValueError, match='tensor-product free set of 6 dofs'):
        cylinder_preconditioner(space, dofmap.free.size + 1, 0.1 * space.h_hat)


def _gmres_iterations(name, levels):
    with warnings.catch_warnings():
        warnings.simplefilter('ignore')
        report = run_case(CaseConfig(name, degree=2, levels=levels, solver='gmres'))
    assert [r.solve.method for r in report.records] == ['gmres'] * levels
    return [r.solve.iterations for r in report.records]


@pytest.mark.parametrize('name', ['moving-curvi-1d', 'moving-simple-1d'])
def test_preconditioned_gmres_is_level_robust(name):
    iterations = _gmres_iterations(name, 8)[4:]
    assert max(iterations) <= 1.25 * min(iterations), iterations


def test_preconditioned_gmres_reaches_level_8():
    # L8 has 65,792 free dofs, where a preconditioner that is not level-robust
    # spends the default 5000 iterations before reaching the tolerance
    assert max(_gmres_iterations('moving-curvi-1d', 9)) <= 30


def test_preconditioned_gmres_matches_lu_on_the_moving_2d_cylinder():
    # the solve ``auto`` picks on moving cylinders from FD_MIN_DOFS on
    iterations = []
    for degree in (1, 2, 3):
        for level in (3, 4):
            space, system, theta_h = builtin_system('moving-curvi-2d', degree, level)
            xd, _ = solve_direct(system.matrix, system.rhs)
            xg, report = solve_gmres(
                system.matrix, system.rhs, tol=1e-12,
                preconditioner=lambda m: cylinder_preconditioner(space, m.shape[0], theta_h))
            assert np.linalg.norm(xg - xd) <= 1e-11 * np.linalg.norm(xd), (degree, level)
            assert report.residual <= 1e-12
            iterations.append(report.iterations)
    # 13-16 at every degree and level
    mid = np.median(iterations)
    assert all(abs(k - mid) <= 0.2 * mid for k in iterations), iterations
