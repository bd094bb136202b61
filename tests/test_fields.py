"""Sum-factorized field evaluation: the kernel and the error integrals on it.

``_batch._grid_field`` evaluates spline fields on the tensor grid of the
Gauss points of a space's spans (or of a slab of them, or of a face) by
contracting the coefficient tensor with the univariate tables one
direction at a time.  It must agree with the full basis blocks of ``tensor_basis``
contracted with the same coefficients, on the volume and with one
direction pinned to a point, and a grid cut into slabs of spans must give
the whole grid's values.  The error integrals built on it must agree with
the basis-contraction formulas they replaced, which are kept below as the
oracle, and must still refuse a folded map.  Both norms come from one pass
(``error_norms``), bit for bit the two passes it replaced, and ``error_l2``
and ``error_energy`` are its components.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometries import at_point, quarter_annulus_cylinder
from spacetime_iga._batch import (ElementBatcher, _grid_field, _rows, _span_rule, _table, _Table,
                                  at_points)
from spacetime_iga.assembly import SchemeParams
from spacetime_iga.geometry import GeometryMap, SingularGeometryError, greville_grid, mesh_metrics
from spacetime_iga.harness import builtin_cases, solution_space
import spacetime_iga.postproc as postproc
from spacetime_iga.postproc import DiscreteField, error_energy, error_l2, error_norms
from spacetime_iga.splines import KnotVector, single_span
from spacetime_iga.tensor_space import DiscreteSpace, tensor_basis


@st.composite
def field_grids(draw):
    """A random space with the tables of its Gauss grid, and ``k`` random fields.

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
    return space, tables, coefficients


def contracted_basis(space, tables, coefficients, need):
    """The oracle: ``tensor_basis`` on every element of the grid of ``tables``, contracted with
    the coefficients by ``einsum``, and its sums of absolute terms, as
    ``[(values, scale), (gradients, scale), ...]`` up to ``need``, points in grid order."""
    shape = tuple(t.first.size for t in tables)
    multi = np.unravel_index(np.arange(np.prod(shape)), shape)
    active, *basis = tensor_basis(space, *_rows(tables, multi), need)
    local = coefficients[active]
    grid = [n for t in tables for n in (t.first.size, t.ders.shape[1])]
    nd, out = len(tables), []
    for order, b in enumerate(basis[:need + 1]):
        sub = 'eqm' + 'abc'[:order] + ',emk->eqk' + 'abc'[:order]
        ref, scale = np.einsum(sub, b, local), np.einsum(sub, np.abs(b), np.abs(local)).max()
        # (E, q, ...) to grid order: (s_0, ..., s_last, q_0, ..., q_last) -> (s_0, q_0, ...)
        ref = ref.reshape(*grid[::2], *grid[1::2], *ref.shape[2:])
        ref = ref.transpose(*(k for a in range(nd) for k in (a, nd + a)), *range(2 * nd, ref.ndim))
        out.append((ref.reshape(-1, *ref.shape[2 * nd:]), scale))
    return out


def grid_field(*args):
    """``_grid_field`` with the points moved first, the layout of the oracle."""
    return [None if f is None else np.moveaxis(f, -1, 0) for f in _grid_field(*args)]


@settings(max_examples=60, deadline=None)
@given(grid=field_grids())
def test_field_kernel_matches_the_contracted_basis(grid):
    space, tables, coefficients = grid
    got = grid_field(space, tables, coefficients, 1)
    # relative to the largest sum of absolute terms: random coefficients can
    # cancel a field down to round-off, in any order of summation
    for value, (ref, scale) in zip(got, contracted_basis(space, tables, coefficients, 1)):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-13 * scale
    assert got[2] is None and grid_field(space, tables, coefficients, 0)[1] is None


@settings(max_examples=40, deadline=None)
@given(grid=field_grids())
def test_field_kernel_second_derivatives_match_the_contracted_basis(grid):
    # need = 2 adds the Hessians, NURBS quotient rule included, and keeps
    # the values and gradients
    space, tables, coefficients = grid
    got = grid_field(space, tables, coefficients, 2)
    for value, (ref, scale) in zip(got, contracted_basis(space, tables, coefficients, 2)):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(grid=field_grids(), data=st.data())
def test_field_kernel_on_a_face_matches_the_contracted_basis(grid, data):
    # one direction pinned to a point, an end of the interval or inside it
    space, tables, coefficients = grid
    a = data.draw(st.integers(0, space.ndim - 1))
    xi = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    tables[a] = _table(space.knot_vectors[a], np.array([[xi]]))
    got = grid_field(space, tables, coefficients, 2)
    for value, (ref, scale) in zip(got, contracted_basis(space, tables, coefficients, 2)):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(grid=field_grids(), data=st.data())
def test_field_kernel_on_slabs_of_spans_is_the_whole_grid(grid, data):
    # the last direction cut into consecutive runs of spans, as grid slabs cut time
    space, tables, coefficients = grid
    last = tables[-1]
    cuts = sorted(data.draw(st.sets(st.integers(1, last.first.size - 1), max_size=3))
                  if last.first.size > 1 else [])
    whole = grid_field(space, tables, coefficients, 2)
    parts = [grid_field(space, [*tables[:-1], _Table(last.ders[i:j], last.first[i:j])],
                         coefficients, 2)
             for i, j in zip([0, *cuts], [*cuts, None])]
    points = [t.first.size * t.ders.shape[1] for t in tables[:-1]]
    for k, ref in enumerate(whole):
        got = np.concatenate([p[k].reshape(*points, -1, *ref.shape[1:]) for p in parts],
                             axis=len(points))
        scale = np.abs(ref).max()
        assert np.abs(got.reshape(ref.shape) - ref).max() <= 1e-13 * scale


def reference_errors(field, case, params, moving):
    """``(L2, energy)`` errors by the basis-contraction formulas: basis blocks
    from ``tensor_basis`` and the per-function pullback, contracted with the
    coefficients by ``einsum``."""
    d = field.space.ndim - 1
    th = params.theta * params.h
    c = field.coefficients
    batcher = ElementBatcher(field.space, field.geom, [p + 2 for p in field.space.degrees])
    l2 = energy = 0.0
    def exact(x, k):
        return at_points(lambda y: case.solution(y)[k], x)
    for blk in batcher.blocks(need=1):
        diff = np.einsum('eqm,em->eq', blk.val, c[blk.dofs]) - exact(blk.x, 0)
        l2 += float(np.sum(blk.w * diff**2))
        e_grad = np.einsum('eqma,em->eqa', blk.grad, c[blk.dofs]) - exact(blk.x, 1)
        density = (e_grad[..., :d] ** 2).sum(axis=2) + th * e_grad[..., d] ** 2
        energy += float(np.sum(blk.w * density))
    for blk in batcher.blocks(need=1, face=(d, 1)):
        ca = c[blk.dofs]
        diff = np.einsum('eqm,em->eq', blk.val, ca) - exact(blk.x, 0)
        energy += 0.5 * float(np.sum(blk.w * diff**2))
        if moving:
            e_gx = np.einsum('eqma,em->eqa', blk.grad[..., :d], ca) - exact(blk.x, 1)[..., :d]
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
    points = np.array([at_point(geom, xi)[0] for xi in greville_grid(space)])
    field = DiscreteField(space, geom, case.solution(points)[0])
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
            error_norms(field, case, params, moving=moving)
    with pytest.raises(SingularGeometryError, match='non-positive Jacobian determinant'):
        mesh_metrics(geom, space)
    # element blocks are views of the slabs and refuse the map with them
    with pytest.raises(SingularGeometryError, match='non-positive Jacobian determinant'):
        next(ElementBatcher(space, geom).blocks(need=0))


def two_pass_errors(field, case, params, moving, orders):
    """``(L2, energy)`` by one ``grid_slabs`` pass per norm and the exact solution's value,
    time derivative and spatial gradient taken apart: the passes :func:`error_norms`
    fused, in their order of sums."""
    d, th, c = field.space.ndim - 1, params.theta * params.h, field.coefficients
    l2 = energy = 0.0
    for s in ElementBatcher(field.space, field.geom, orders).grid_slabs(need=0, coefficients=c):
        l2 += float(np.sum(s.w * (s.val - case.solution(s.x.T)[0]) ** 2))
    batcher = ElementBatcher(field.space, field.geom, orders)
    for s in batcher.grid_slabs(coefficients=c):
        grad = case.solution(s.x.T)[1]
        e_gx, e_t = s.grad[:d] - grad[:, :d].T, s.grad[d] - grad[:, d]
        energy += float(np.sum(s.w * ((e_gx**2).sum(axis=0) + th * e_t**2)))
    for s in batcher.grid_slabs(need=1 if moving else 0, coefficients=c, face=(d, 1)):
        u, grad = case.solution(s.x.T)
        energy += 0.5 * float(np.sum(s.w * (s.val - u) ** 2))
        if moving:
            energy += th * float(np.sum(s.w * ((s.grad[:d] - grad[:, :d].T) ** 2).sum(axis=0)))
    return np.sqrt(l2), np.sqrt(energy)


@pytest.mark.parametrize('degree', [1, 2, 3])
@pytest.mark.parametrize('name', sorted(cases()))
def test_one_error_pass_is_bit_for_bit_the_two(name, degree):
    case, geom = cases()[name]
    space = solution_space(geom, degree, 1)
    field = DiscreteField(space, geom, np.random.default_rng(degree).standard_normal(space.dim))
    params = SchemeParams(0.1, space.h_hat)
    default = [p + 2 for p in space.degrees]
    elevated = [p + 3 for p in space.degrees]
    for moving, orders in ((True, None), (False, None), (case.moving, elevated)):
        l2, energy = error_norms(field, case, params, moving, orders)
        assert (l2, energy) == two_pass_errors(field, case, params, moving, orders or default)
        assert energy == error_energy(field, case, params, moving=moving, orders=orders)
        if orders is None:
            assert l2 == error_l2(field, case)


def test_one_error_pass_opens_one_batcher_and_two_slab_streams(monkeypatch):
    counts = {'batchers': 0, 'streams': 0}

    class Counted(ElementBatcher):
        def __init__(self, *args, **kwargs):
            counts['batchers'] += 1
            super().__init__(*args, **kwargs)

        def grid_slabs(self, *args, **kwargs):
            counts['streams'] += 1
            return super().grid_slabs(*args, **kwargs)

    monkeypatch.setattr(postproc, 'ElementBatcher', Counted)
    definition = builtin_cases()['moving-curvi-2d']
    space = solution_space(definition.geometry, 2, 1)
    field = DiscreteField(space, definition.geometry, np.ones(space.dim))
    error_norms(field, definition.case, SchemeParams(0.1, space.h_hat))
    assert counts == {'batchers': 1, 'streams': 2}
