"""Sum-factorized field evaluation: the kernel and the error integrals on it.

``_batch._field`` evaluates spline fields on a block of elements by
contracting the coefficients with the univariate tables one direction at
a time.  It must agree with the full basis blocks of ``tensor_basis``
contracted with the same coefficients.  The error integrals built on it
must agree with the basis-contraction formulas they replaced, which are
kept below as the oracle, and must still refuse a folded map.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometries import quarter_annulus_cylinder
from spacetime_iga._batch import ElementBatcher, _field, _rows, _span_rule, _table, at_points
from spacetime_iga.assembly import SchemeParams
from spacetime_iga.geometry import (GeometryMap, SingularGeometryError, greville_grid,
                                    map_point, mesh_metrics)
from spacetime_iga.harness import builtin_cases, solution_space
from spacetime_iga.postproc import DiscreteField, error_energy, error_l2
from spacetime_iga.splines import KnotVector, single_span
from spacetime_iga.tensor_space import DiscreteSpace, tensor_basis


@st.composite
def field_blocks(draw):
    """Every element of a random space with its tables, and ``k`` random fields.

    Two or three directions of degree 1-3, each with up to three interior
    knots drawn from the multiples of 1/20 (non-uniform spans), Gauss rules
    of 1-4 points per span, B-spline or NURBS (weights in [1/2, 2]) and
    ``k`` from 1 to 3 fields with coefficients in [-1, 1]."""
    nd = draw(st.integers(2, 3))
    kvs, tables = [], []
    for _ in range(nd):
        p = draw(st.integers(1, 3))
        interior = draw(st.lists(st.integers(1, 19), max_size=3, unique=True))
        kv = KnotVector(np.concatenate([np.zeros(p + 1), np.sort(interior) / 20.0,
                                        np.ones(p + 1)]), p)
        kvs.append(kv)
        tables.append(_table(kv, _span_rule(kv, draw(st.integers(1, 4)))[0]))
    n = int(np.prod([kv.n for kv in kvs]))
    weights = draw(st.none() | st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    space = DiscreteSpace(kvs, None if weights is None else np.array(weights))
    k = draw(st.integers(1, 3))
    coefficients = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, (n, k))
    shape = tuple(t.first.size for t in tables)
    multi = np.unravel_index(np.arange(np.prod(shape)), shape)
    return space, _rows(tables, multi), coefficients


@settings(max_examples=60, deadline=None)
@given(block=field_blocks())
def test_field_kernel_matches_the_contracted_basis(block):
    space, (rows, firsts), coefficients = block
    val, grad = _field(space, rows, firsts, coefficients, 1)
    active, b_val, b_grad, _ = tensor_basis(space, rows, firsts, 1)
    local = coefficients[active]
    ref_val = np.einsum('eqm,emk->eqk', b_val, local)
    ref_grad = np.einsum('eqma,emk->eqka', b_grad, local)
    assert val.shape == ref_val.shape and grad.shape == ref_grad.shape
    # relative to the largest sum of absolute terms: random coefficients can
    # cancel a field down to round-off, in any order of summation
    val_scale = np.einsum('eqm,emk->eqk', np.abs(b_val), np.abs(local)).max()
    grad_scale = np.einsum('eqma,emk->eqka', np.abs(b_grad), np.abs(local)).max()
    assert np.abs(val - ref_val).max() <= 1e-13 * val_scale
    assert np.abs(grad - ref_grad).max() <= 1e-13 * grad_scale
    assert _field(space, rows, firsts, coefficients, 0)[1] is None


@settings(max_examples=40, deadline=None)
@given(block=field_blocks())
def test_field_kernel_second_derivatives_match_the_contracted_basis(block):
    # need = 2 adds the Hessians, NURBS quotient rule included, and keeps
    # the values and gradients
    space, (rows, firsts), coefficients = block
    val, grad, hess = _field(space, rows, firsts, coefficients, 2)
    active, b_val, b_grad, b_hess = tensor_basis(space, rows, firsts, 2)
    local = coefficients[active]
    for got, basis, sub in ((val, b_val, 'eqm,emk->eqk'), (grad, b_grad, 'eqma,emk->eqka'),
                            (hess, b_hess, 'eqmab,emk->eqkab')):
        ref = np.einsum(sub, basis, local)
        scale = np.einsum(sub, np.abs(basis), np.abs(local)).max()
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * scale


def reference_errors(field, case, params, moving):
    """``(L2, energy)`` errors by the basis-contraction formulas: basis blocks
    from ``tensor_basis`` and the per-function pullback, contracted with the
    coefficients by ``einsum``."""
    d = field.space.ndim - 1
    th = params.theta * params.h
    c = field.coefficients
    batcher = ElementBatcher(field.space, field.geom, [p + 2 for p in field.space.degrees])
    l2 = energy = 0.0
    for blk in batcher.blocks(need=1):
        diff = np.einsum('eqm,em->eq', blk.val, c[blk.dofs]) - at_points(case.u, blk.x)
        l2 += float(np.sum(blk.w * diff**2))
        e_grad = np.einsum('eqma,em->eqa', blk.grad, c[blk.dofs])
        e_grad[..., :d] -= at_points(case.grad_u, blk.x)
        e_grad[..., d] -= at_points(case.u_t, blk.x)
        density = (e_grad[..., :d] ** 2).sum(axis=2) + th * e_grad[..., d] ** 2
        energy += float(np.sum(blk.w * density))
    for blk in batcher.blocks(need=1, face=(d, 1)):
        ca = c[blk.dofs]
        diff = np.einsum('eqm,em->eq', blk.val, ca) - at_points(case.u, blk.x)
        energy += 0.5 * float(np.sum(blk.w * diff**2))
        if moving:
            e_gx = np.einsum('eqma,em->eqa', blk.grad[..., :d], ca) - at_points(case.grad_u, blk.x)
            energy += th * float(np.sum(blk.w * (e_gx**2).sum(axis=2)))
    return np.sqrt(l2), np.sqrt(energy)


def cases():
    out = {name: (d.case, d.geometry) for name, d in builtin_cases().items()}
    out['quarter-annulus'] = (builtin_cases()['fixed-2d'].case, quarter_annulus_cylinder())
    return out


@pytest.mark.parametrize('name', sorted(cases()))
def test_errors_match_the_basis_contraction(name):
    """p2 L2, with the field interpolating the exact solution at the images
    of the Greville points (so the errors are small against the solution)."""
    case, geom = cases()[name]
    space = solution_space(geom, 2, 2)
    points = np.array([map_point(geom, xi) for xi in greville_grid(space)])
    field = DiscreteField(space, geom, case.u(points))
    params = SchemeParams(0.1, space.h_hat)
    for moving in (True, False):
        ref_l2, ref_energy = reference_errors(field, case, params, moving)
        assert abs(error_l2(field, case) - ref_l2) <= 1e-12 * ref_l2, moving
        got = error_energy(field, case, params, moving=moving)
        assert abs(got - ref_energy) <= 1e-12 * ref_energy, moving


def test_errors_refuse_a_folded_map():
    # both walls overshoot mid-domain, so the map folds near tau = 1/2
    kvs = [single_span(1), single_span(2)]
    cp = np.array([[0, 0], [1, 0], [1.2, 0.5], [-0.2, 0.5], [0, 1], [1, 1]], float)
    geom = GeometryMap(DiscreteSpace(kvs), cp)
    case = builtin_cases()['moving-curvi-1d'].case
    space = solution_space(geom, 2, 1)
    field = DiscreteField(space, geom, np.ones(space.dim))
    params = SchemeParams(0.1, space.h_hat)
    with pytest.raises(SingularGeometryError, match='non-positive Jacobian determinant'):
        error_l2(field, case)
    for moving in (True, False):
        with pytest.raises(SingularGeometryError, match='non-positive Jacobian determinant'):
            error_energy(field, case, params, moving=moving)
    with pytest.raises(SingularGeometryError, match='non-positive Jacobian determinant'):
        mesh_metrics(geom, space)
