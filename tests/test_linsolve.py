"""Solver wrappers: agreement with dense references, reporting, failure modes,
and the fast diagonalization preconditioner of the parametric cylinder."""
import time
import warnings
from collections import Counter
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spacetime_iga.assembly import SchemeParams, apply_dirichlet, assemble_fixed, assemble_moving
from spacetime_iga.harness import CaseConfig, _setup_level, builtin_cases, run_case
from spacetime_iga.linsolve import (ConvergenceError, SingularSystemError, SolveReport,
                                    cylinder_matrices, cylinder_preconditioner,
                                    solve_direct, solve_fd, solve_gmres)
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
    # the solve ``auto`` picks on moving d >= 2 cylinders from FD_MIN_DOFS on
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
