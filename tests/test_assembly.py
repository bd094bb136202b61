"""Bilinear forms: structural identities, boundary data, stability warning.

The moving-domain form is validated against the fixed-domain form through
an exact integration-by-parts identity: restricted to test functions that
vanish on the lateral and initial boundary, the two stiffness matrices
differ by the lateral boundary integral of ``n_t grad_x u . grad_x v``
alone.  That surface term is assembled here independently through the
cofactor (Nanson) formula, so the volume Hessian term, the terminal face
term and the first-order terms all have to cancel exactly.

The moving form is also checked for consistency: applied to the exact
solution it reproduces the load on every test function that vanishes on
the lateral and initial boundary.

The fixed-cylinder coercivity identity, the agreement of the two forms on
fixed cylinders and the moving-domain coercivity margin are computed by
``harness.coercivity_identity_defect``, ``fixed_forms_gap`` and
``moving_coercivity``, and asserted by acceptance gates 08-10.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from geometries import identity_geometry
from spacetime_iga._batch import ElementBatcher, at_points
from spacetime_iga.assembly import (ManufacturedCase, SchemeParams,
                                    StabilityWarning, apply_dirichlet,
                                    assemble_fixed, assemble_moving, boundary_l2_project)
from spacetime_iga.geometry import mesh_metrics
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.linsolve import solve_direct
from spacetime_iga.postproc import (DiscreteField, a_priori_theta_bound, error_energy,
                                    estimate_inverse_constant, mesh_ratio)
from spacetime_iga.tensor_space import classify_dirichlet, point_rows, tensor_basis


def setup(name, degree=2, level=2):
    definition = builtin_cases()[name]
    case, geom = definition.case, definition.geometry
    space = solution_space(geom, degree, level)
    mesh = mesh_metrics(geom, space)
    params = SchemeParams(0.1, mesh.h_hat)
    return case, geom, space, mesh, params


def lateral_time_normal_matrix(space, geom, orders=None):
    """Assemble ``L[i, j] = int_Sigma n_t grad_x phi_j . grad_x phi_i ds``.

    Uses ``n ds = sign det(J) J^{-T} e_a dxi`` on each lateral face, so the
    time component of the scaled normal replaces the Gram factor carried
    by the face weights.
    """
    d = space.ndim - 1
    n = space.dim
    L = np.zeros((n, n))
    batcher = ElementBatcher(space, geom, orders)
    for a in range(d):
        for side in (0, 1):
            sign = 1.0 if side == 1 else -1.0
            for blk in batcher.face_blocks(a, side, need=1):
                Jinv = np.linalg.inv(blk.jac)
                nanson = sign * blk.det[..., None] * Jinv[..., a, :]
                w_nt = blk.w * nanson[..., d] / np.linalg.norm(nanson, axis=-1)
                gx = blk.grad[..., :d]
                local = np.einsum('eq,eqia,eqja->eij', w_nt, gx, gx)
                np.add.at(L, (blk.dofs[:, :, None], blk.dofs[:, None, :]), local)
    return L


@pytest.mark.parametrize('name,degree,level,orders', [
    ('moving-simple-1d', 2, 2, (10, 10)),
    ('moving-curvi-1d', 2, 2, (10, 10)),
    ('moving-curvi-1d', 3, 1, (10, 10)),
    ('moving-curvi-2d', 2, 1, (10, 10, 10)),
])
def test_moving_form_differs_by_lateral_term_only(name, degree, level, orders):
    # rational integrands: matched high-order rules make the integration
    # by parts in time exact to machine precision
    case, geom, space, mesh, params = setup(name, degree, level)
    free = classify_dirichlet(space).free
    A = assemble_fixed(space, geom, case, params, orders=orders).matrix.toarray()
    B = assemble_moving(space, geom, case, params, orders=orders).matrix.toarray()
    L = lateral_time_normal_matrix(space, geom, orders=orders)
    th = params.theta * params.h
    defect = (B - (A - th * L))[free, :]
    scale = np.abs(A).max()
    assert np.abs(defect).max() <= 1e-12 * scale


def space_factor(x, d):
    """``sin(pi x_1) ... sin(pi x_d)`` at space-time points ``x``."""
    return np.prod(np.sin(np.pi * x[:, :d]), axis=1)


def space_factor_gradient(x, d):
    """Spatial gradient of :func:`space_factor`, shape ``(n, d)``."""
    out = np.empty((x.shape[0], d))
    for a in range(d):
        others = [b for b in range(d) if b != a]
        out[:, a] = np.pi * np.cos(np.pi * x[:, a]) * space_factor(x[:, others], d - 1)
    return out


def sine_time_derivative_of_gradient(d):
    """``dt grad_x u`` of the shipped ``u = sin(pi x_1) ... sin(pi x_d) sin(pi t)``."""
    return lambda x: (space_factor_gradient(x, d)
                      * (np.pi * np.cos(np.pi * x[:, d]))[:, None])


def ramp_solution(d):
    """``u = sin(pi x_1) ... sin(pi x_d) (1 + t)`` and its ``dt grad_x u``.

    Unlike the shipped sine family its spatial gradient does not vanish
    at ``t = 1``, so the terminal-face term of ``b_h`` carries weight.
    """
    case = ManufacturedCase(
        'ramp', d, True,
        u=lambda x: space_factor(x, d) * (1.0 + x[:, d]),
        u_t=lambda x: space_factor(x, d),
        grad_u=lambda x: space_factor_gradient(x, d) * (1.0 + x[:, d])[:, None],
        f=lambda x: space_factor(x, d) * (1.0 + d * np.pi**2 * (1.0 + x[:, d])))
    return case, lambda x: space_factor_gradient(x, d)


def moving_form_rows(space, geom, params, trial, orders, terminal_face=True):
    """Rows ``b_h(w, phi_i)`` of the moving-domain form for a trial ``w``.

    ``trial(blk)`` returns ``dt w``, ``grad_x w`` and ``dt grad_x w`` at the
    quadrature points of a block of volume elements or terminal faces,
    shaped ``(E, q)``, ``(E, q, d)`` and ``(E, q, d)``, so ``w`` may be an
    analytic function outside the discrete space.
    """
    d = space.ndim - 1
    th = params.theta * params.h
    rows = np.zeros(space.dim)
    batcher = ElementBatcher(space, geom, orders)
    for blk in batcher.blocks(need=2):
        w_t, w_gx, w_gxt = trial(blk)
        dt = blk.grad[..., d]
        gx = blk.grad[..., :d]
        np.add.at(rows, blk.dofs, np.einsum('eqi,eq->ei', blk.val + th * dt, blk.w * w_t))
        np.add.at(rows, blk.dofs, np.einsum('eqia,eqa->ei', gx,
                                            blk.w[..., None] * (w_gx - th * w_gxt)))
    if terminal_face:
        for blk in batcher.face_blocks(d, 1, need=2):
            _, w_gx, _ = trial(blk)
            np.add.at(rows, blk.dofs, th * np.einsum('eqia,eqa->ei', blk.grad[..., :d],
                                                     blk.w[..., None] * w_gx))
    return rows


def analytic_trial(case, grad_u_t):
    return lambda blk: (at_points(case.u_t, blk.x), at_points(case.grad_u, blk.x),
                        at_points(grad_u_t, blk.x))


def discrete_trial(coeffs, d):
    def trial(blk):
        c = coeffs[blk.dofs]
        return (np.einsum('eqm,em->eq', blk.grad[..., d], c),
                np.einsum('eqma,em->eqa', blk.grad[..., :d], c),
                np.einsum('eqma,em->eqa', blk.hess[..., :d, d], c))
    return trial


@pytest.mark.parametrize('name,degree,level', [
    ('moving-simple-1d', 2, 2),
    ('moving-curvi-1d', 2, 2),
    ('moving-curvi-1d', 2, 3),
    ('moving-curvi-1d', 3, 2),
    ('moving-curvi-2d', 2, 1),
])
def test_moving_form_is_consistent(name, degree, level):
    # the exact solution satisfies b_h(u, v) = l(v) for every v vanishing
    # on the lateral and initial boundary, so the residual on the free rows
    # is quadrature round-off
    case, geom, space, mesh, params = setup(name, degree, level)
    d = case.d
    orders = [degree + 6] * space.ndim
    dofmap = classify_dirichlet(space)
    free = dofmap.free
    system = assemble_moving(space, geom, case, params, orders=orders)

    # the test-side transcription of b_h is the assembled matrix
    coeffs = np.random.default_rng(35).standard_normal(space.dim)
    rows = moving_form_rows(space, geom, params, discrete_trial(coeffs, d), orders)
    action = system.matrix @ coeffs
    assert np.abs(rows - action).max() <= 1e-12 * np.abs(action).max()

    scale = np.abs(system.rhs[free]).max()
    exact = analytic_trial(case, sine_time_derivative_of_gradient(d))
    residual = moving_form_rows(space, geom, params, exact, orders) - system.rhs
    assert np.abs(residual[free]).max() <= 1e-12 * scale
    # on Dirichlet rows v does not vanish on the boundary and the
    # integration by parts leaves boundary terms: the check can fail
    assert np.abs(residual[dofmap.dirichlet_mask]).max() > 1e-2 * scale

    # negative control: the sine solution vanishes at t = 1, so it cannot
    # see the terminal-face term; a solution that does not vanish there
    # is consistent with the term and inconsistent without it
    ramp, grad_u_t = ramp_solution(d)
    ramp_trial = analytic_trial(ramp, grad_u_t)
    load = assemble_moving(space, geom, ramp, params, orders=orders).rhs
    scale = np.abs(load[free]).max()
    with_face = moving_form_rows(space, geom, params, ramp_trial, orders) - load
    assert np.abs(with_face[free]).max() <= 1e-12 * scale
    without_face = moving_form_rows(space, geom, params, ramp_trial, orders,
                                    terminal_face=False) - load
    assert np.abs(without_face[free]).max() > 1e-2 * scale


def test_theta_threshold_is_positive_and_conservative():
    case, geom, space, mesh, params = setup('moving-simple-1d', 2, 2)
    bound = a_priori_theta_bound(estimate_inverse_constant(space, geom, mesh), mesh)
    assert 0.0 < bound < 0.1
    assert mesh_ratio(mesh) >= 1.0


def test_stability_warning_emitted_above_threshold():
    case, geom, space, mesh, _ = setup('moving-simple-1d', 2, 1)
    params = SchemeParams(0.9, mesh.h_hat, theta_bound=0.3)
    with pytest.warns(StabilityWarning):
        assemble_moving(space, geom, case, params)


def test_no_warning_below_threshold():
    import warnings

    case, geom, space, mesh, _ = setup('moving-simple-1d', 2, 1)
    params = SchemeParams(0.1, mesh.h_hat, theta_bound=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter('error', StabilityWarning)
        assemble_moving(space, geom, case, params)


def test_rhs_linear_in_source():
    case, geom, space, mesh, params = setup('fixed-1d', 2, 2)
    doubled = ManufacturedCase(case.name, case.d, case.moving, case.u, case.u_t,
                               case.grad_u, lambda x: 2.0 * case.f(x))
    s1 = assemble_fixed(space, geom, case, params)
    s2 = assemble_fixed(space, geom, doubled, params)
    assert_allclose(s2.rhs, 2.0 * s1.rhs, atol=1e-13)
    assert np.abs((s2.matrix - s1.matrix).toarray()).max() == 0.0


def test_quadrature_order_converged():
    # affine fixed case: default order integrates the forms exactly
    case, geom, space, mesh, params = setup('fixed-1d', 2, 2)
    base = assemble_fixed(space, geom, case, params, orders=(3, 3)).matrix
    finer = assemble_fixed(space, geom, case, params, orders=(5, 5)).matrix
    assert np.abs((base - finer).toarray()).max() < 1e-13
    # mapped moving case: rational integrands, elevated rules agree
    case, geom, space, mesh, params = setup('moving-simple-1d', 2, 2)
    base = assemble_moving(space, geom, case, params, orders=(8, 8)).matrix
    finer = assemble_moving(space, geom, case, params, orders=(10, 10)).matrix
    assert np.abs((base - finer).toarray()).max() < 1e-12


def curvi_energy_error(level, assemble_orders=None, error_orders=None):
    # one level of the moving-curvi-1d p2 sweep, as run_case computes it
    case, geom, space, mesh, params = setup('moving-curvi-1d', 2, level)
    dofmap = classify_dirichlet(space)
    full = assemble_moving(space, geom, case, params, orders=assemble_orders)
    reduced = apply_dirichlet(full, dofmap, case, space, geom, orders=assemble_orders)
    x, _ = solve_direct(reduced.matrix, reduced.rhs)
    coeffs = reduced.dirichlet_values.copy()
    coeffs[dofmap.free] = x
    return error_energy(DiscreteField(space, geom, coeffs), case, params,
                        orders=error_orders)


def test_curvilinear_energy_error_quadrature_converged():
    # the sweep assembles with p+1 and integrates errors with p+2 points;
    # elevating both to p+3 and p+4 moves the energy error by a relative
    # amount below 1e-5 at level 5, and the shift shrinks faster than the
    # error itself (observed 8.7x per level), so at the acceptance level 7
    # it is orders of magnitude below the 2% gate tolerance
    shifts = {}
    for level in (4, 5):
        base = curvi_energy_error(level)
        elevated = curvi_energy_error(level, (5, 5), (6, 6))
        shifts[level] = abs(elevated - base) / base
    assert shifts[5] < 1e-5
    assert shifts[5] < shifts[4] / 4.0


def test_boundary_projection_reproduces_trace_data():
    # data already in the trace space comes back with its own coefficients
    case, geom, space, mesh, params = setup('fixed-1d', 2, 2)
    geom_id = identity_geometry(space)
    dofmap = classify_dirichlet(space)
    rng = np.random.default_rng(34)
    coeffs = np.zeros(space.dim)
    coeffs[dofmap.dirichlet_mask] = rng.standard_normal(int(dofmap.dirichlet_mask.sum()))

    def g(x):
        out = np.empty(x.shape[0])
        for q, pt in enumerate(x):
            active, val, _, _ = tensor_basis(space, *point_rows(space, pt, 0), 0)
            out[q] = val[0, 0] @ coeffs[active[0]]
        return out

    values = boundary_l2_project(space, geom_id, g, dofmap.dirichlet_mask)
    assert_allclose(values[dofmap.dirichlet_mask], coeffs[dofmap.dirichlet_mask],
                    atol=1e-10)
    assert np.all(values[~dofmap.dirichlet_mask] == 0.0)


def test_apply_dirichlet_shapes_and_lifting():
    case, geom, space, mesh, params = setup('moving-simple-1d', 2, 2)
    dofmap = classify_dirichlet(space)
    full = assemble_moving(space, geom, case, params)
    reduced = apply_dirichlet(full, dofmap, case, space, geom)
    n_free = dofmap.free.size
    assert reduced.matrix.shape == (n_free, n_free)
    assert reduced.rhs.shape == (n_free,)
    assert reduced.dirichlet_values.shape == (space.dim,)
    # lifting: reduced rhs equals full rhs minus the boundary column action
    manual = full.rhs[dofmap.free] - (full.matrix @ reduced.dirichlet_values)[dofmap.free]
    assert_allclose(reduced.rhs, manual, atol=1e-14)


def test_boundary_values_interpolate_exact_solution():
    # projected data reproduces u on the lateral boundary at high order
    def trace_error(level):
        case, geom, space, mesh, params = setup('moving-simple-1d', 3, level)
        dofmap = classify_dirichlet(space)
        full = assemble_moving(space, geom, case, params)
        reduced = apply_dirichlet(full, dofmap, case, space, geom)
        batcher = ElementBatcher(space, geom)
        worst = 0.0
        for side in (0, 1):
            for blk in batcher.face_blocks(0, side, need=0):
                vals = np.einsum('eqm,em->eq', blk.val, reduced.dirichlet_values[blk.dofs])
                worst = max(worst, float(np.abs(vals - at_points(case.u, blk.x)).max()))
        return worst

    coarse, fine = trace_error(3), trace_error(4)
    assert coarse < 2e-4
    assert fine < coarse / 10.0
