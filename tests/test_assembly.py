"""Bilinear forms: structural identities, boundary data, stability warning, norm matrices.

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

Both forms are assembled by sum factorization in every d; the element path
they replaced (``_assemble_form``) is the oracle: the same CSR pattern,
entries and loads within 1e-13 of the largest.  The norm matrices are held the
same way to the element blocks they replaced, kept here as ``element_norms``.
The boundary projection, sum-factorized on each face, is held to the element
face blocks it replaced, and the one-pass Dirichlet restriction to scipy's
two-step slicing.
"""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import spacetime_iga._batch as _batch
import spacetime_iga.assembly as assembly
import spacetime_iga.harness as harness
from geometries import (identity_geometry, perturbed_nurbs_cylinder, point_basis,
                        quarter_annulus_cylinder)
from spacetime_iga._batch import ElementBatcher, at_points
from spacetime_iga.assembly import (LinearSystem, ManufacturedCase, SchemeParams,
                                    StabilityWarning, apply_dirichlet, assemble_fixed,
                                    assemble_load, assemble_moving, assemble_norm_matrices,
                                    boundary_l2_project)
from spacetime_iga.geometry import mesh_metrics
from spacetime_iga.harness import assembly_paths_gap, builtin_cases, solution_space
from spacetime_iga.linsolve import SingularSystemError, solve_direct
from spacetime_iga.postproc import (DiscreteField, a_priori_theta_bound, error_energy,
                                    estimate_inverse_constant, mesh_ratio)
from spacetime_iga.splines import KnotVector
from spacetime_iga.tensor_space import DiscreteSpace, classify_dirichlet, dirichlet_faces


def setup(name, degree=2, level=2):
    definition = builtin_cases()[name]
    case, geom = definition.case, definition.geometry
    space = solution_space(geom, degree, level)
    mesh = mesh_metrics(geom, space)
    params = SchemeParams(0.1, space.h_hat)
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
            for blk in batcher.blocks(need=1, face=(a, side)):
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
        for blk in batcher.blocks(need=2, face=(d, 1)):
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
    params = SchemeParams(0.9, space.h_hat, theta_bound=0.3)
    with pytest.warns(StabilityWarning):
        assemble_moving(space, geom, case, params)


def test_no_warning_below_threshold():
    import warnings

    case, geom, space, mesh, _ = setup('moving-simple-1d', 2, 1)
    params = SchemeParams(0.1, space.h_hat, theta_bound=0.3)
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
            active, val, _, _ = point_basis(space, pt, 0)
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
            for blk in batcher.blocks(need=0, face=(0, side)):
                vals = np.einsum('eqm,em->eq', blk.val, reduced.dirichlet_values[blk.dofs])
                worst = max(worst, float(np.abs(vals - at_points(case.u, blk.x)).max()))
        return worst

    coarse, fine = trace_error(3), trace_error(4)
    assert coarse < 2e-4
    assert fine < coarse / 10.0


def test_moving_form_memory_is_bounded():
    # element assembly of moving-curvi-2d p2 L4 would scatter 3.0M triplets, and one
    # COO-to-CSR conversion of them all took the traced peak to 150 MB; the
    # sum-factorized form is held well below that
    case, geom, space, mesh, params = setup('moving-curvi-2d', 2, 4)
    tracemalloc.start()
    try:
        system = assemble_moving(space, geom, case, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert system.matrix.nnz == 592704


def agreement_setup(name, degree, level):
    cases = builtin_cases()
    if name in ('quarter-annulus', 'perturbed'):
        geom = quarter_annulus_cylinder() if name == 'quarter-annulus' else perturbed_nurbs_cylinder()
        case = cases['moving-curvi-2d'].case
    else:
        geom, case = cases[name].geometry, cases[name].case
    space = solution_space(geom, degree, level)
    return space, geom, case, SchemeParams(0.1, space.h_hat)


def test_scheme_params_validation():
    for theta in (0.0, -0.1, float('nan')):
        with pytest.raises(ValueError, match='theta must be positive'):
            SchemeParams(theta, 0.5)
    for h in (0.0, -0.5, float('nan')):
        with pytest.raises(ValueError, match='mesh size must be positive'):
            SchemeParams(0.1, h)


def test_assembly_paths_gap_is_infinite_on_differing_patterns(monkeypatch):
    # negative control: the sum-factorized path loses one stored entry
    space, geom, case, params = agreement_setup('fixed-1d', 1, 1)
    assert assembly_paths_gap(space, geom, case, params) <= 1e-13
    grid = harness._assemble_grid

    def dropped(*args):
        system = grid(*args)
        matrix = system.matrix.copy()
        matrix.data[0] = 0.0
        matrix.eliminate_zeros()
        return LinearSystem(matrix, system.rhs)

    monkeypatch.setattr(harness, '_assemble_grid', dropped)
    assert assembly_paths_gap(space, geom, case, params) == float('inf')


@pytest.mark.parametrize('degree', [1, 2, 3])
@pytest.mark.parametrize('name', ['moving-curvi-2d', 'fixed-2d', 'quarter-annulus', 'perturbed',
                                  'fixed-1d', 'moving-simple-1d', 'moving-curvi-1d'])
def test_sum_factorized_forms_match_the_element_path(name, degree):
    # a moving B-spline map, the identity cylinder, a NURBS map and a NURBS map
    # whose J^-1 and Hessian are full (the shipped maps leave most chain-rule
    # coefficients zero), and the three d = 1 cylinders, at the default and at
    # elevated quadrature
    for level in (1, 2):
        space, geom, case, params = agreement_setup(name, degree, level)
        for orders in (None, [degree + 3] * space.ndim):
            for moving in (False, True):
                gap = assembly_paths_gap(space, geom, case, params, orders, moving)
                assert gap <= 1e-13, (level, orders, moving, gap)


def drop_terminal_face(monkeypatch):
    grid_terms = assembly._grid_terms
    monkeypatch.setattr(assembly, '_grid_terms', lambda *args: (
        grid_terms(*args) if args[-1] is not None else ({}, {})))


def drop_map_hessian(monkeypatch):
    grid_terms = assembly._grid_terms
    monkeypatch.setattr(assembly, '_grid_terms', lambda x, w, inv, hess, *args: grid_terms(
        x, w, inv, hess if hess is None else 0 * hess, *args))


def drop_second_derivative(monkeypatch):
    grid_terms = assembly._grid_terms

    def without(*args):
        matrix, load = grid_terms(*args)
        second = [k for k in matrix if any(sum(pair) == 3 for pair in k)]
        if second:  # a volume slab: first derivative of v times a second of u
            del matrix[max(second)]
        return matrix, load

    monkeypatch.setattr(assembly, '_grid_terms', without)


@pytest.mark.parametrize('mutation', [drop_terminal_face, drop_map_hessian,
                                      drop_second_derivative])
def test_assembly_agreement_fails_without_a_term(monkeypatch, mutation):
    # negative control: the moving form without its Sigma_T term, without the
    # map's second derivatives in the chain rule, or without one coefficient of
    # a second derivative of the trial function breaks the agreement
    space, geom, case, params = agreement_setup('moving-curvi-2d', 2, 1)
    assert assembly_paths_gap(space, geom, case, params, None, True) <= 1e-13
    mutation(monkeypatch)
    assert assembly_paths_gap(space, geom, case, params, None, True) > 1e-6


def element_norms(space, geom, params):
    """The norm matrices ``(n_fixed, n_moving, face_gradient)`` by element blocks and one
    COO-to-CSR conversion each: the oracle of the sum-factorized ones."""
    d, th = space.ndim - 1, params.theta * params.h
    batcher = ElementBatcher(space, geom)
    norm, face = [], []

    def gram(left, right, w):
        return np.einsum('eqia,eqja->eij', left * w[:, :, None, None], right)
    for blk in batcher.blocks(need=1):
        gx, dt = blk.grad[..., :d], blk.grad[..., d:]
        norm.append((blk.dofs, gram(gx, gx, blk.w) + th * gram(dt, dt, blk.w)))
    for blk in batcher.blocks(need=1, face=(d, 1)):
        gx = blk.grad[..., :d]
        norm.append((blk.dofs, 0.5 * gram(blk.val[..., None], blk.val[..., None], blk.w)))
        face.append((blk.dofs, gram(gx, gx, blk.w)))

    def scatter(blocks):
        dofs, local = map(np.concatenate, zip(*blocks))
        m = dofs.shape[1]
        rows, cols = np.repeat(dofs, m, axis=1).ravel(), np.tile(dofs, m).ravel()
        return sp.coo_matrix((local.ravel(), (rows, cols)), (space.dim,) * 2).tocsr()
    n_fixed, face_gradient = scatter(norm), scatter(face)
    return n_fixed, n_fixed + th * face_gradient, face_gradient


@pytest.mark.parametrize('degree', [1, 2, 3])
@pytest.mark.parametrize('name', ['moving-curvi-1d', 'moving-simple-1d', 'fixed-2d',
                                  'moving-curvi-2d', 'quarter-annulus', 'perturbed'])
def test_sum_factorized_norms_match_the_element_path(name, degree):
    # the perturbed cylinder does not keep t = tau: a face gradient without the
    # time-parameter pairs misses there by 2e-2 of n_moving and 5e-2 of itself (p2 L1)
    for level in (1, 2):
        space, geom, case, params = agreement_setup(name, degree, level)
        norms = assemble_norm_matrices(space, geom, params)
        got = (norms.n_fixed, norms.n_moving, norms.face_gradient)
        for field, a, b in zip(('n_fixed', 'n_moving', 'face_gradient'), got,
                               element_norms(space, geom, params)):
            scale = np.abs(b).max()
            assert scale > 0.0
            assert np.abs(a - b).max() <= 1e-13 * scale, (field, level)


@pytest.mark.parametrize('name,level', [('moving-curvi-1d', 2), ('moving-curvi-2d', 1)])
def test_dirichlet_restriction_is_the_two_step_slice(name, level):
    # one pass over the stored entries gives scipy's matrix[free][:, free]
    # exactly: the same pattern, explicit zeros included, and the same values
    case, geom, space, mesh, params = setup(name, 2, level)
    matrix = assemble_moving(space, geom, case, params).matrix
    matrix.data[::7] = 0.0
    free = classify_dirichlet(space).free
    ref = matrix[free][:, free]
    got = apply_dirichlet(LinearSystem(matrix, np.zeros(space.dim)),
                          classify_dirichlet(space), case, space, geom).matrix
    assert (got.data == 0.0).sum() == (ref.data == 0.0).sum() > 0
    for attr in ('indptr', 'indices', 'data'):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


@pytest.mark.parametrize('name,degree,level', [
    *(('fixed-1d', p, 4) for p in (1, 2, 3)),
    *(('fixed-2d', p, 2) for p in (1, 2)),
    ('moving-curvi-2d', 2, 2), ('quarter-annulus', 2, 1),
])
def test_load_pass_is_the_assembled_load_bit_for_bit(name, degree, level):
    # the load-only pass of a matrix-free level builds no band, and both forms share its load
    space, geom, case, params = agreement_setup(name, degree, level)
    want = (assemble_moving if case.moving else assemble_fixed)(space, geom, case, params).rhs
    assert assemble_load(space, geom, case, params).tobytes() == want.tobytes()


def boundary_data(x):
    # nonzero on every Dirichlet face, where most built-in solutions vanish
    return np.exp(0.3 * x.sum(axis=1)) + np.cos(2.0 * x[:, 0])


def element_face_system(batcher, g, face):
    """Mass matrix and moments of ``g`` on one face from the element face blocks, each
    scattering all its (p+1)^(d+1) functions, most of them zero on the face."""
    n, rows, cols, vals, load = batcher.space.dim, [], [], [], np.zeros(batcher.space.dim)
    for blk in batcher.blocks(need=0, face=face):
        valw_t = np.swapaxes(blk.val * blk.w[:, :, None], 1, 2)
        m = blk.dofs.shape[1]
        rows.append(np.repeat(blk.dofs, m, axis=1).ravel())
        cols.append(np.tile(blk.dofs, (1, m)).ravel())
        vals.append((valw_t @ blk.val).ravel())
        np.add.at(load, blk.dofs, (valw_t @ at_points(g, blk.x)[..., None])[..., 0])
    coo = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), (n, n))
    return coo.tocsr(), load


def element_projection(space, geom, g, orders=None):
    """The boundary projection summed from :func:`element_face_system`."""
    batcher = ElementBatcher(space, geom, orders)
    faces = [element_face_system(batcher, g, face) for face in dirichlet_faces(space.ndim)]
    idx = np.flatnonzero(classify_dirichlet(space).dirichlet_mask)
    mass, load = sum(m for m, _ in faces), sum(v for _, v in faces)
    values = np.zeros(space.dim)
    values[idx] = solve_direct(mass[idx][:, idx], load[idx])[0]
    return values


def projection_gap(ref, space, geom, orders=None) -> float:
    """Largest gap of the projected Dirichlet values to ``ref``, relative to its largest value;
    infinite when the boundary mass is singular, as it is without one of the faces."""
    try:
        got = boundary_l2_project(space, geom, boundary_data,
                                  classify_dirichlet(space).dirichlet_mask, orders)
    except SingularSystemError:
        return float('inf')
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize('degree', [1, 2, 3])
@pytest.mark.parametrize('name', ['moving-curvi-1d', 'moving-curvi-2d', 'fixed-2d',
                                  'quarter-annulus', 'perturbed'])
def test_boundary_projection_matches_the_element_blocks(name, degree):
    # the face masses agree to about 1e-16; at p = 3 in d = 2 the Dirichlet mass has a
    # condition number near 1e3 and both paths err by up to 1.4e-13 on a datum in the trace
    # space, whose projection is known, so the gap there is held to 2.5e-13
    bound = 1e-13 if degree < 3 else 2.5e-13
    for level in (1, 2):
        space, geom, case, params = agreement_setup(name, degree, level)
        for orders in (None, [degree + 3] * space.ndim):
            ref = element_projection(space, geom, boundary_data, orders)
            gap = projection_gap(ref, space, geom, orders)
            assert gap <= bound, (level, orders, gap)


@pytest.mark.parametrize('name', ['moving-curvi-1d', 'perturbed'])
def test_face_mass_couples_only_the_face_functions(name):
    # the element blocks' pattern without their explicit zeros: the functions whose index
    # in the pinned direction is its end index, and no stored zero
    space, geom, case, params = agreement_setup(name, 2, 2)
    batcher = ElementBatcher(space, geom)
    index = np.unravel_index(np.arange(space.dim), space.dims, order='F')   # direction 0 fastest
    for a, side in dirichlet_faces(space.ndim):
        got = assembly._face_system(batcher, boundary_data, (a, side))
        ref, load = element_face_system(batcher, boundary_data, (a, side))
        on_face = index[a] == side * (space.dims[a] - 1)
        rows = np.repeat(np.arange(space.dim), np.diff(got.matrix.indptr))
        assert on_face[rows].all() and on_face[got.matrix.indices].all()
        assert np.all(got.matrix.data != 0.0)
        assert np.array_equal(got.rhs != 0.0, on_face)
        ref.eliminate_zeros()
        assert np.array_equal(got.matrix.indptr, ref.indptr)
        assert np.array_equal(got.matrix.indices, ref.indices)
        assert np.abs(got.matrix.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
        assert np.abs(got.rhs - load).max() <= 1e-13 * np.abs(load).max()


def drop_a_face(monkeypatch):
    faces = assembly.dirichlet_faces
    monkeypatch.setattr(assembly, 'dirichlet_faces', lambda ndim: faces(ndim)[1:])


def volume_weight(monkeypatch):
    # det J of the volume in place of the face's surface measure: det adj = det J^(n - 1)
    monkeypatch.setattr(_batch, '_face_measure', lambda adj, face_dir: np.linalg.det(
        np.moveaxis(adj, (0, 1), (-2, -1))) ** (1 / (len(adj) - 1)))


@pytest.mark.parametrize('mutation', [drop_a_face, volume_weight])
def test_projection_agreement_fails_without_a_face_or_its_measure(monkeypatch, mutation):
    space, geom, case, params = agreement_setup('moving-curvi-2d', 2, 1)
    ref = element_projection(space, geom, boundary_data)
    assert projection_gap(ref, space, geom) <= 1e-13
    mutation(monkeypatch)
    assert projection_gap(ref, space, geom) > 1e-6


@pytest.mark.parametrize('name,level', [('fixed-1d', 5), ('moving-curvi-2d', 3)])
def test_symmetric_boundary_solve_matches_the_default_superlu(name, level):
    # the restricted boundary mass is symmetric positive definite, which the projection's
    # symmetric-mode SuperLU relies on; data that vanish on no Dirichlet face
    case, geom, space, mesh, params = setup(name, 2, level)
    mask = classify_dirichlet(space).dirichlet_mask
    idx = np.flatnonzero(mask)
    g = lambda x: np.exp(0.3 * x.sum(axis=1))
    batcher = ElementBatcher(space, geom)
    faces = [assembly._face_system(batcher, g, face) for face in dirichlet_faces(space.ndim)]
    mass = assembly._restrict(sum(f.matrix for f in faces), idx)
    want = spla.splu(mass.tocsc()).solve(sum(f.rhs for f in faces)[idx])
    got = boundary_l2_project(space, geom, g, mask)
    assert np.linalg.norm(got[idx] - want) <= 1e-13 * np.linalg.norm(want)
    assert not got[~mask].any()


def test_boundary_projection_memory_is_bounded():
    # the element face blocks, 88.9% of their triplets zeros, took the traced peak of
    # this projection to 20.2 MB
    case, geom, space, mesh, params = setup('moving-curvi-2d', 2, 4)
    mask = classify_dirichlet(space).dirichlet_mask
    tracemalloc.start()
    try:
        boundary_l2_project(space, geom, case.u, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_grid_path_rejects_a_nurbs_solution_space():
    # the sum-factorized forms, norms and projection read only the B-spline tables, so NURBS
    # weights would be silently ignored
    rng = np.random.default_rng(18)
    for name in ('moving-curvi-1d', 'moving-curvi-2d'):
        case, geom, plain, mesh, params = setup(name, 2, 1)
        space = DiscreteSpace(plain.knot_vectors, rng.uniform(0.5, 1.5, plain.dim))
        mask = classify_dirichlet(space).dirichlet_mask
        for call in (lambda: boundary_l2_project(space, geom, case.u, mask),
                     lambda: assemble_fixed(space, geom, case, params),
                     lambda: assemble_moving(space, geom, case, params),
                     lambda: assemble_norm_matrices(space, geom, params)):
            with pytest.raises(ValueError, match='NURBS weights'):
                call()


def coo_band_operator(table, test, trial=None):
    """The oracle: the band operator as a COO-to-CSR conversion of its broadcast triplets."""
    ns, q, _, m = table.ders.shape
    own = (table.first - table.first[0])[:, None, None] + np.arange(m)     # (ns, 1, m)
    rows, vals, cols = own, table.ders[:, :, test, :], np.arange(ns * q).reshape(ns, q, 1)
    width = 1 if trial is None else 2 * m - 1
    if trial is not None:
        rows = own[..., None] * width + (np.arange(m) - np.arange(m)[:, None] + m - 1)
        vals, cols = vals[..., None] * table.ders[:, :, trial, None, :], cols[..., None]
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=((own[-1, 0, -1] + 1) * width, ns * q))


@pytest.mark.parametrize('degree', [1, 2, 3])
def test_band_operator_is_the_coo_conversion_bit_for_bit(degree):
    # built directly in CSR, with every row's columns in the order COO-to-CSR gives, so the
    # contractions sum in the same order: whole span lists, slabs, a pinned point, repeated knots
    rng = np.random.default_rng(10 + degree)
    inner = np.sort(np.concatenate((rng.uniform(0, 1, 6), [0.5] * degree)))
    kv = KnotVector(np.concatenate(([0.0] * (degree + 1), inner, [1.0] * (degree + 1))), degree)
    full = _batch._table(kv, _batch._span_rule(kv, degree + 2)[0])
    for table in (full, _batch._Table(full.ders[3:6], full.first[3:6]),
                  _batch._table(kv, np.array([[0.0]]))):
        for key in [(t,) for t in range(3)] + [(t, s) for t in range(3) for s in range(3)]:
            got, want = _batch._band_operator(table, *key), coo_band_operator(table, *key)
            assert got.shape == want.shape
            for name in ('indptr', 'indices', 'data'):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (key, name)
