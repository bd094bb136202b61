"""Convergence-study driver and command line interface.

Ships the manufactured model problems (fixed and moving space-time
cylinders with a smooth exact solution), runs refinement sweeps that
report errors in the L2 and discrete energy norms, writes CSV, and
hosts the self-verification suite behind ``spacetime-iga verify``.
Each structural identity of the scheme is coded once, and ``verify``
and the tests both call it: the map's Jacobian and Hessian against
differences (:func:`geometry_derivatives_defect`), the fixed-cylinder
coercivity identity (:func:`coercivity_identity_defect`), the agreement
of the fixed and moving forms (:func:`fixed_forms_gap`) and the
moving-domain coercivity margin (:func:`moving_coercivity`).
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, fields, replace
from functools import reduce
from numbers import Real

import numpy as np

from ._batch import _face_measure, _grid_field, _span_rule, _table
from .assembly import (LinearSystem, ManufacturedCase, SchemeParams, StabilityWarning,
                       _assemble_form, _assemble_grid, apply_dirichlet, assemble_fixed,
                       assemble_load, assemble_moving, assemble_norm_matrices)
from .geometry import GeometryMap, SingularGeometryError, _adjugate, mesh_metrics
from .linsolve import (ConvergenceError, SingularSystemError, cylinder_operator,
                       cylinder_preconditioner, solve_direct, solve_fd, solve_gmres)
from .postproc import (ConvergenceReport, DiscreteField, LevelRecord, a_priori_theta_bound,
                       error_norms, estimate_inverse_constant, rates)
from .quadrature import gauss_1d
from .splines import KnotVector, eval_basis, refine_uniform, single_span
from .tensor_space import DiscreteSpace, classify_dirichlet

__all__ = [
    'CaseConfig',
    'CaseDefinition',
    'builtin_cases',
    'load_config',
    'run_case',
    'emit_csv',
    'geometry_derivatives_defect',
    'coercivity_identity_defect',
    'fixed_forms_gap',
    'moving_coercivity',
    'assembly_paths_gap',
    'run_verification',
    'cli_main',
    'main',
]

CSV_HEADER = 'level,dofs,h,error_l2,rate_l2,error_energy,rate_energy,solver,iters,residual,time_s'
# Free dofs from which ``auto`` leaves sparse LU for the fast diagonalization:
# the exact solve where it inverts the form, the GMRES preconditioner
# elsewhere; below it sparse LU is as fast or faster (see ``_plan``).
FD_MIN_DOFS = 500
_RUN_ERRORS = (SingularGeometryError, ConvergenceError, SingularSystemError)


# ---------------------------------------------------------------------------
# built-in cases

def _sin_solution(d: int):
    """Manufactured family u = sin(pi x_1) ... sin(pi x_d) sin(pi t): ``(solution, f)``.

    ``solution`` takes the sine and cosine of each coordinate once and returns ``u`` with
    its gradient, time last (:class:`~spacetime_iga.assembly.ManufacturedCase`)."""

    def trig(x, fn):
        return [fn(np.pi * x[:, a]) for a in range(d + 1)]

    def solution(x):
        s, c = trig(x, np.sin), trig(x, np.cos)
        space = reduce(np.multiply, s[:d])
        grad = np.empty((x.shape[0], d + 1))
        for a in range(d):
            grad[:, a] = reduce(np.multiply, [s[b] for b in range(d) if b != a],
                                np.pi * c[a] * s[d])
        grad[:, d] = space * np.pi * c[d]
        return space * s[d], grad

    def f(x):
        s = trig(x, np.sin)
        return reduce(np.multiply, s[:d]) * np.pi * (np.cos(np.pi * x[:, d]) + d * np.pi * s[d])

    return solution, f


@dataclass(frozen=True)
class CaseDefinition:
    """A manufactured case together with its coarse geometry map."""

    case: ManufacturedCase
    geometry: GeometryMap
    description: str


def _make_geometry(degrees, control_points) -> GeometryMap:
    return GeometryMap(DiscreteSpace([single_span(p) for p in degrees]), control_points)


def _make_case(name, d, moving) -> ManufacturedCase:
    return ManufacturedCase(name, d, moving, *_sin_solution(d))


def builtin_cases() -> dict:
    """The shipped model problems, keyed by case id."""
    quarter = 1.0 - 0.25  # inner radius of the curvilinear motion at mid-time
    cases = {
        'fixed-1d': CaseDefinition(
            _make_case('fixed-1d', 1, False),
            _make_geometry([1, 1], [[0, 0], [1, 0], [0, 1], [1, 1]]),
            'unit square cylinder, 1d heat equation'),
        'fixed-2d': CaseDefinition(
            _make_case('fixed-2d', 2, False),
            _make_geometry([1, 1, 1], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                                       [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]),
            'unit cube cylinder, 2d heat equation'),
        'moving-simple-1d': CaseDefinition(
            _make_case('moving-simple-1d', 1, True),
            _make_geometry([1, 1], [[0, 0], [1, 0], [-0.5, 1], [1.5, 1]]),
            'linearly expanding interval (-t/2, 1 + t/2)'),
        'moving-curvi-1d': CaseDefinition(
            _make_case('moving-curvi-1d', 1, True),
            _make_geometry([1, 2], [[0, 0], [1, 0],
                                    [0.25, 0.5], [quarter, 0.5],
                                    [0, 1], [1, 1]]),
            'interval contracting to (t(1-t)/2, 1 - t(1-t)/2) and back'),
        'moving-curvi-2d': CaseDefinition(
            _make_case('moving-curvi-2d', 2, True),
            _make_geometry([1, 1, 2], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                                       [0.25, 0, 0.5], [quarter, 0, 0.5],
                                       [0.25, 1, 0.5], [quarter, 1, 0.5],
                                       [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]),
            'rectangle with first coordinate contracting as t(1-t)/2'),
    }
    return cases


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class CaseConfig:
    """One convergence run: case, degree, refinement depth, scheme and solver.  ``geometry``
    goes with case ``'custom'`` alone; whether it moves is read from it (:func:`_admit_map`)."""

    case: str
    degree: int = 2
    levels: int = 5
    theta: float = 0.1
    solver: str = 'auto'
    solver_tol: float = 1e-10
    out: str | None = None
    deterministic: bool = False
    geometry: dict | None = None

    def __post_init__(self):
        for key in ('degree', 'levels'):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f'{key} must be an integer, got {value!r}')
        if self.degree < 1:
            raise ValueError(f'degree must be at least 1, got {self.degree}')
        if self.levels < 1:
            raise ValueError(f'levels must be at least 1, got {self.levels}')
        for key in ('theta', 'solver_tol'):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, Real) or not np.isfinite(value):
                raise ValueError(f'{key} must be a finite number, got {value!r}')
        if not 0.0 < self.theta:
            raise ValueError(f'theta must be positive, got {self.theta}')
        if not 0.0 < self.solver_tol < 1.0:
            raise ValueError(f'solver_tol must lie strictly between 0 and 1, got {self.solver_tol}')
        if not isinstance(self.deterministic, (bool, np.bool_)):
            raise ValueError(f'deterministic must be true or false, got {self.deterministic!r}')
        if self.solver not in ('auto', 'direct', 'gmres'):
            raise ValueError(f"solver must be 'auto', 'direct' or 'gmres', got {self.solver!r}")
        if self.case != 'custom' and self.case not in builtin_cases():
            raise ValueError(f'unknown case {self.case!r}; see list-cases')
        if (self.geometry is None) == (self.case == 'custom'):
            verb = 'needs a' if self.geometry is None else 'takes no'
            raise ValueError(f'case {self.case!r} {verb} geometry block')


_CONFIG_KEYS = {f.name for f in fields(CaseConfig)}


def load_config(path: str) -> CaseConfig:
    """Read a JSON run configuration."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError('config must be a JSON object')
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f'unknown config keys: {sorted(unknown)}')
    if 'case' not in raw:
        raise ValueError("config needs a 'case' entry")
    return CaseConfig(**raw)


def _admit_map(gmap: GeometryMap) -> bool:
    """Raise ``ValueError`` unless ``t = tau`` on ``gmap``; return whether its lateral boundary
    moves, which picks ``b_h`` over ``a_h``.  ``t - tau`` has degree ``p_a + 1`` per span in
    direction ``a``, so ``p_a + 2`` points per span decide it.  A lateral face ``xi_a = 0, 1``
    moves where its normal, row ``a`` of ``adj J``, has a time entry above 1e-12 of the
    row's norm; the cofactor's numerator has degree ``2 d p_b`` in direction ``b``, decided by
    ``2 d p_b + 1`` points per span.  It is the normal speed, not ``dx/dtau``: fixed walls
    under a sliding parametrization stay fixed.  A folded map passes and fails at level 0."""
    kvs, d = gmap.space.knot_vectors, gmap.ndim - 1

    def on_grid(nodes, need):      # the map on the tensor grid of one node array per direction
        return _grid_field(gmap.space, [_table(kv, n) for kv, n in zip(kvs, nodes)],
                           gmap.control_points, need)

    nodes = [_span_rule(kv, kv.degree + 2)[0] for kv in kvs]
    t = on_grid(nodes, 0)[0][-1]
    xi = np.meshgrid(*[n.ravel() for n in nodes], indexing='ij')     # one grid per direction
    gap = t - xi[-1].ravel()
    k = int(np.argmax(np.abs(gap)))
    if abs(gap[k]) > 1e-12:
        where = ', '.join(f'{c.flat[k]:.6g}' for c in xi)
        raise ValueError(f'custom geometry must keep t = tau, but t - tau = {gap[k]:.6g} '
                         f'at parameter point ({where})')
    for a, side in np.ndindex(d, 2):
        nodes = [np.array([[float(side)]]) if b == a else _span_rule(kv, 2 * d * kv.degree + 1)[0]
                 for b, kv in enumerate(kvs)]
        adj = _adjugate(on_grid(nodes, 1)[1])[0]
        if np.any(np.abs(adj[a, d]) > 1e-12 * _face_measure(adj, a)):
            return True
    return False


def resolve_case(config: CaseConfig) -> CaseDefinition:
    if config.case != 'custom':
        return builtin_cases()[config.case]
    geo = config.geometry
    try:
        kvs = [KnotVector(np.asarray(k, dtype=float), int(p))
               for k, p in zip(geo['knots'], geo['degrees'], strict=True)]
        gmap = GeometryMap(DiscreteSpace(kvs, geo.get('weights')), geo['control_points'])
    except (KeyError, TypeError) as exc:
        raise ValueError(f'bad custom geometry block: {exc}') from exc
    case = _make_case('custom', gmap.ndim - 1, _admit_map(gmap))
    return CaseDefinition(case, gmap, 'user-supplied geometry, standard sine solution')


# ---------------------------------------------------------------------------
# driver

def solution_space(geom: GeometryMap, degree: int, level: int):
    """Degree-``degree`` spline space aligned with the geometry, refined ``level`` times."""
    kvs = []
    for kv_g in geom.space.knot_vectors:
        interior = kv_g.breakpoints[1:-1]
        knots = np.concatenate((np.zeros(degree + 1), interior, np.ones(degree + 1)))
        kv = KnotVector(knots, degree)
        for _ in range(level):
            kv = refine_uniform(kv)
        kvs.append(kv)
    return DiscreteSpace(kvs)


def _setup_level(geom: GeometryMap, degree: int, level: int):
    """``(space, dofmap)`` of refinement ``level``."""
    space = solution_space(geom, degree, level)
    return space, classify_dirichlet(space)


def _plan(config: CaseConfig, definition: CaseDefinition, n_free: int) -> tuple[str, float]:
    """``(method, tol)`` of a level of ``n_free`` free dofs, decided before assembly.

    ``direct`` and ``gmres`` are taken as given, GMRES at ``config.solver_tol``.
    ``auto`` solves by

    - sparse LU below ``FD_MIN_DOFS`` free dofs;
    - the exact fast diagonalization (``'fd'``) where it inverts the form, on an identity
      map (which never moves), with the matrix-free operator of :func:`_level_system`;
    - GMRES preconditioned by the fast diagonalization otherwise, at tolerance
      ``min(config.solver_tol, 1e-12)``: a true relative residual at or below it, not an
      error as small as the LU's (at moving-curvi-1d p4 L8 the energy error is 28% above).
    """
    tol = config.solver_tol
    if config.solver != 'auto':
        return config.solver, tol
    if n_free < FD_MIN_DOFS:
        return 'direct', tol
    if definition.geometry.is_identity:
        return 'fd', tol
    return 'gmres', min(tol, 1e-12)


def _level_system(space, geom, case, params: SchemeParams, method: str) -> LinearSystem:
    """The full-space system of a level: on an ``'fd'`` level the load alone next to the
    matrix-free :func:`cylinder_operator`, else the assembled form."""
    if method == 'fd':
        return LinearSystem(cylinder_operator(space, params.theta * params.h),
                            assemble_load(space, geom, case, params))
    return (assemble_moving if case.moving else assemble_fixed)(space, geom, case, params)


def _solve(system: LinearSystem, method: str, tol: float, space, params: SchemeParams):
    """Solve the reduced ``system`` by ``method`` of :func:`_plan`.

    ``'fd'`` is the exact fast diagonalization of the parametric cylinder of
    ``space``; ``'gmres'`` is preconditioned by it, runs to ``tol`` with
    :func:`solve_gmres`'s default restart and budget, and builds the
    preconditioner inside the timed solve; ``'direct'`` is sparse LU.
    """
    theta_h = params.theta * params.h
    if method == 'fd':
        return solve_fd(system.matrix, system.rhs, space, theta_h)
    if method == 'direct':
        return solve_direct(system.matrix, system.rhs)
    return solve_gmres(system.matrix, system.rhs, tol=tol,
                       preconditioner=lambda m: cylinder_preconditioner(space, m.shape[0], theta_h))


def _report(config: CaseConfig, case, levels) -> ConvergenceReport:
    """Attach dyadic rates to the finished ``(level, dofs, h, e_l2, e_energy, solve)`` tuples."""
    r2 = rates([lv[3] for lv in levels])
    re = rates([lv[4] for lv in levels])
    records = tuple(LevelRecord(level, dofs, h, e2, float(r2[k]), ee, float(re[k]), report)
                    for k, (level, dofs, h, e2, ee, report) in enumerate(levels))
    return ConvergenceReport(case.name, config.degree, config.theta, case.moving, records)


def _warn_above_bound(theta: float, bound: float):
    """Emit :class:`StabilityWarning` when ``theta`` is at or above the a-priori ``bound``
    of the moving-domain form (:func:`~spacetime_iga.postproc.a_priori_theta_bound`)."""
    if theta >= bound:
        warnings.warn(f'theta = {theta} exceeds the estimated coercivity bound {bound:.4g}; '
                      'the moving-domain form may lose stability', StabilityWarning, stacklevel=2)


def run_case(config: CaseConfig) -> ConvergenceReport:
    """Run the refinement sweep described by ``config``.

    Levels 0 .. levels-1 halve every knot span in turn; each level decides its solver once
    (:func:`_plan`), checks theta on a moving case (:func:`_warn_above_bound`), assembles
    the scheme (on a level solved by the exact fast diagonalization only its load; the form
    is applied matrix-free), applies Dirichlet data by boundary projection, solves, and
    records errors.  Rates are attached afterwards.  When a
    level raises ``SingularGeometryError``, ``ConvergenceError`` or
    ``SingularSystemError``, the error propagates with a ``report``
    attribute: the :class:`ConvergenceReport` of the levels before it.
    """
    definition = resolve_case(config)
    case, geom = definition.case, definition.geometry
    levels = []
    c_inv = None
    for level in range(config.levels):
        try:
            space, dofmap = _setup_level(geom, config.degree, level)
            if case.moving:
                mesh = mesh_metrics(geom, space)
                if c_inv is None or level <= 2:
                    c_inv = estimate_inverse_constant(space, geom, mesh)
                _warn_above_bound(config.theta, a_priori_theta_bound(c_inv, mesh))
            params = SchemeParams(config.theta, space.h_hat)
            method, tol = _plan(config, definition, dofmap.free.size)
            # no name holds the full-space system, so it is freed once reduced, before the solve
            reduced = apply_dirichlet(_level_system(space, geom, case, params, method),
                                      dofmap, case, space, geom)
            x, report = _solve(reduced, method, tol, space, params)
            coeffs = reduced.dirichlet_values.copy()
            coeffs[dofmap.free] = x
            field = DiscreteField(space, geom, coeffs)
            levels.append((level, space.dim, params.h, *error_norms(field, case, params), report))
            del field   # the level's space, with the rules and tables it keeps, goes now
        except _RUN_ERRORS as exc:
            exc.report = _report(config, case, levels)
            raise
    return _report(config, case, levels)


def emit_csv(report: ConvergenceReport, path: str, deterministic: bool = False):
    """Write one row per level; floats in 6-significant-digit scientific form.

    ``deterministic`` zeroes the wall-time column so identical runs give
    byte-identical files.
    """
    lines = [CSV_HEADER]
    for r in report.records:
        t = 0.0 if deterministic else r.solve.time_s
        lines.append(','.join([
            str(r.level), str(r.dofs), f'{r.h:.5e}',
            f'{r.error_l2:.5e}', f'{r.rate_l2:.5e}',
            f'{r.error_energy:.5e}', f'{r.rate_energy:.5e}',
            r.solve.method, str(r.solve.iterations),
            f'{r.solve.residual:.5e}', f'{t:.5e}',
        ]))
    with open(path, 'w', newline='\n') as fh:
        fh.write('\n'.join(lines) + '\n')


def _print_report(report: ConvergenceReport):
    print(f'case {report.case}, degree {report.degree}, theta {report.theta}')
    print(f'{"level":>5} {"dofs":>8} {"h":>12} {"L2 error":>12} {"rate":>6} {"energy":>12} {"rate":>6}')
    for r in report.records:
        print(f'{r.level:>5} {r.dofs:>8} {r.h:>12.5e} {r.error_l2:>12.5e} '
              f'{r.rate_l2:>6.2f} {r.error_energy:>12.5e} {r.rate_energy:>6.2f}')


# ---------------------------------------------------------------------------
# verification suite

def _roundoff(value: float, threshold: float) -> str:
    """``value`` and its ``threshold``, a passing value as the power of ten at or above it,
    at least 1e-15 (4.5 unit round-offs): reordered sums keep the text.  A failure shows digits."""
    bound = max(1e-15, 10.0 ** np.ceil(np.log10(max(value, 1e-300))))
    shown = f'<= {bound:.0e}' if value < threshold else f'{value:.2e}'
    return f'{shown} (threshold {threshold:.0e})'


def _check_partition_of_unity():
    rng = np.random.default_rng(7)
    kv = KnotVector(np.array([0, 0, 0, 0.2, 0.5, 0.5, 0.8, 1, 1, 1.]), 2)
    sums = eval_basis(kv, rng.uniform(0.0, 1.0, 500))[1].sum(axis=2)
    worst = float(max(np.abs(sums[:, 0] - 1.0).max(), np.abs(sums[:, 1]).max() * 1e-3,
                      np.abs(sums[:, 2]).max() * 1e-6))
    return worst < 1e-12, f'max deviation {_roundoff(worst, 1e-12)}'


def _check_quadrature():
    worst = 0.0
    for n in range(1, 9):
        nodes, weights = gauss_1d(n)
        for k in range(2 * n):
            val = float(weights @ nodes ** k)
            worst = max(worst, abs(val - 1.0 / (k + 1)))
    return worst < 1e-14, f'max monomial defect {_roundoff(worst, 1e-14)}'


def _check_geometry_derivatives():
    rng = np.random.default_rng(11)
    worst = 0.0
    for name in ('moving-simple-1d', 'moving-curvi-1d', 'moving-curvi-2d'):
        geom = builtin_cases()[name].geometry
        jac, hess = geometry_derivatives_defect(geom, rng.uniform(0.1, 0.9, (10, geom.ndim)))
        worst = max(worst, jac, 1e-2 * hess)
    return worst < 1e-8, f'max FD defect {_roundoff(worst, 1e-8)}'


# the stencil's offsets, and its difference rows: the centre node, at +-1e-4 the first and the
# second difference (round-off grows as eps / step^2), at +-1e-5 the first (truncation limits
# it); rows (c == a) + (c == b) along the directions c give H[:, a, b], rows 3 (c == a) J[:, a]
STEPS = (-1e-4, -1e-5, 0.0, 1e-5, 1e-4)
_STENCIL = np.array([[0, 0, 1, 0, 0], [-1, 0, 0, 0, 1], [1, 0, -2, 0, 1], [0, -1, 0, 1, 0]]) / [
    [1.0], [2 * STEPS[4]], [STEPS[4] ** 2], [2 * STEPS[3]]]


def geometry_derivatives_defect(geom: GeometryMap, points) -> tuple[float, float]:
    """Largest defects of the map's ``J`` and ``H`` at ``points`` against central differences.

    One field-kernel call per point gives the map on the ``5^dim`` grid of :data:`STEPS` about
    it, with ``J`` and ``H`` at its centre; a table row holds one node, so a stencil may cross
    a breakpoint.  ``J[:, a]`` is compared with the difference at +-1e-5, ``H[:, a, a]`` with
    the second and ``H[:, a, b]`` with the four-corner difference at +-1e-4."""
    nd, jac, hess = geom.ndim, 0.0, 0.0
    for xi in np.asarray(points, dtype=float):
        tables = [_table(kv, (node + np.array(STEPS))[:, None])
                  for kv, node in zip(geom.space.knot_vectors, xi)]
        x, J, H = (f.reshape(*f.shape[:-1], *(len(STEPS),) * nd)
                   for f in _grid_field(geom.space, tables, geom.control_points, 2))
        for _ in range(nd):     # each direction, the last first: fd[k, row_0, ..., row_last]
            x = np.moveaxis(x @ _STENCIL.T, -1, 1)
        centre = (..., *[2] * nd)
        for a, b in np.ndindex(nd, nd):
            if a == b:
                fd = x[(slice(None), *[3 * (c == a) for c in range(nd)])]
                jac = max(jac, float(np.abs(fd - J[:, a][centre]).max()))
            fd = x[(slice(None), *[(c == a) + (c == b) for c in range(nd)])]
            hess = max(hess, float(np.abs(fd - H[:, a, b][centre]).max()))
    return jac, hess


def coercivity_identity_defect(name: str, degree: int, level: int) -> float | None:
    """Largest defect of ``a_h(v, v) = |||v|||_h^2 + theta h/2 |grad_x v|^2_{Sigma_T}``.

    Relative to ``|||v|||_h^2``, over 20 random free vectors (seed 23) on a
    fixed built-in case.  None when the level has no free dofs."""
    definition = builtin_cases()[name]
    geom = definition.geometry
    space, dofmap = _setup_level(geom, degree, level)
    free = dofmap.free
    if free.size == 0:
        return None
    params = SchemeParams(0.1, space.h_hat)
    K = assemble_fixed(space, geom, definition.case, params).matrix
    norms = assemble_norm_matrices(space, geom, params)
    K, N, G = (m[free][:, free] for m in (K, norms.n_fixed, norms.face_gradient))
    th = params.theta * params.h
    worst = 0.0
    for v in np.random.default_rng(23).standard_normal((20, free.size)):
        ref = float(v @ (N @ v))
        worst = max(worst, abs(float(v @ (K @ v)) - ref - 0.5 * th * float(v @ (G @ v))) / ref)
    return worst


def fixed_forms_gap(name: str, degree: int, level: int) -> float:
    """Largest entry of ``a_h - b_h`` on the free rows, and of the load gap, on a fixed case."""
    definition = builtin_cases()[name]
    case, geom = definition.case, definition.geometry
    space, dofmap = _setup_level(geom, degree, level)
    params = SchemeParams(0.1, space.h_hat)
    a_sys = assemble_fixed(space, geom, case, params)
    b_sys = assemble_moving(space, geom, case, params)
    gap = abs(a_sys.matrix - b_sys.matrix)[dofmap.free].max()
    return max(float(gap), float(np.abs(a_sys.rhs - b_sys.rhs).max()))


def moving_coercivity(name: str, degree: int, level: int) -> tuple[float, bool, float]:
    """``(bound, warned, margin)`` of ``b_h`` on a moving built-in case at theta = 0.1.

    ``bound`` is the a-priori theta bound, ``warned`` whether :func:`_warn_above_bound`,
    which ``run_case`` calls on each moving level, raised :class:`StabilityWarning` here,
    and ``margin`` the least ``vT B v / vT N v`` over 20 random free vectors (seed 5)."""
    definition = builtin_cases()[name]
    case, geom = definition.case, definition.geometry
    space, dofmap = _setup_level(geom, degree, level)
    mesh = mesh_metrics(geom, space)
    bound = a_priori_theta_bound(estimate_inverse_constant(space, geom, mesh), mesh)
    params = SchemeParams(0.1, space.h_hat)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter('always')
        _warn_above_bound(params.theta, bound)
    warned = any(issubclass(w.category, StabilityWarning) for w in caught)
    free = dofmap.free
    B = assemble_moving(space, geom, case, params).matrix[free][:, free]
    N = assemble_norm_matrices(space, geom, params).n_moving[free][:, free]
    margin = min(float(v @ (B @ v)) / float(v @ (N @ v))
                 for v in np.random.default_rng(5).standard_normal((20, free.size)))
    return bound, warned, margin


def assembly_paths_gap(space, geom, case, params, orders=None, moving=False) -> float:
    """Largest gap of the sum-factorized form to the element path, relative to
    the largest matrix entry or load; infinite if the sparsity patterns differ."""
    args = (space, geom, case, params, orders, moving)
    ref, got = _assemble_form(*args), _assemble_grid(*args)
    if not all(np.array_equal(getattr(ref.matrix, k), getattr(got.matrix, k))
               for k in ('indptr', 'indices')):
        return float('inf')
    return max(float(np.abs(a - b).max() / np.abs(a).max())
               for a, b in ((ref.matrix.data, got.matrix.data), (ref.rhs, got.rhs)))


def _check_coercivity_identity():
    worst = max(coercivity_identity_defect(*combo)
                for combo in (('fixed-1d', 1, 2), ('fixed-1d', 2, 2), ('fixed-2d', 1, 1)))
    return worst < 1e-10, f'max relative defect {_roundoff(worst, 1e-10)}'


def _check_forms_agree():
    worst = fixed_forms_gap('fixed-1d', 2, 2)
    return worst < 1e-12, f'max entry difference {_roundoff(worst, 1e-12)}'


def _check_solvers_agree():
    # each solver against sparse LU: GMRES, whose preconditioner is exact on
    # the fixed cylinder (one iteration) and really iterates on the moving
    # case, and the two solvers ``auto`` picks from FD_MIN_DOFS free dofs on:
    # the exact fast diagonalization on a fixed identity cylinder and
    # FD-preconditioned GMRES on the moving d = 1 and d = 2 cylinders
    details = []
    worst = 0.0
    methods_ok = True
    for name, degree, level, solver, method in (
            ('fixed-1d', 1, 4, 'gmres', 'gmres'),
            ('moving-curvi-1d', 2, 3, 'gmres', 'gmres'),
            ('fixed-1d', 2, 5, 'auto', 'fd'),
            ('moving-curvi-1d', 2, 5, 'auto', 'gmres'),
            ('moving-curvi-2d', 2, 3, 'auto', 'gmres')):
        definition = builtin_cases()[name]
        case, geom = definition.case, definition.geometry
        space, dofmap = _setup_level(geom, degree, level)
        params = SchemeParams(0.1, space.h_hat)
        assemble = assemble_moving if case.moving else assemble_fixed
        system = apply_dirichlet(assemble(space, geom, case, params), dofmap, case, space, geom)
        xd, _ = solve_direct(system.matrix, system.rhs)
        xs, report = _solve(system, *_plan(CaseConfig(name, solver=solver), definition,
                                           system.rhs.size), space, params)
        gap = float(np.linalg.norm(xd - xs) / np.linalg.norm(xd))
        worst = max(worst, gap)
        methods_ok &= report.method == method
        details.append(f'{name} p{degree} L{level}: {report.method} relative gap '
                       f'{_roundoff(gap, 1e-8)}, '
                       f'{report.iterations} iterations')
    return methods_ok and worst < 1e-8, '; '.join(details)


def _check_moving_coercivity():
    details = []
    ok = True
    for name, level in (('moving-simple-1d', 2), ('moving-curvi-1d', 2), ('moving-curvi-2d', 1)):
        bound, warned, margin = moving_coercivity(name, 2, level)
        ok &= margin >= 0.5 - 1e-12 and warned == (0.1 >= bound)
        details.append(f'{name}: bound {bound:.3f}, '
                       f'{"warned" if warned else "quiet"}, min margin {margin:.3f}')
    return ok, '; '.join(details)


def _check_manufactured_residuals():
    # each built-in case's f against the PDE, and its solution's gradient (time last) against
    # central differences of the solution's value, at 100 random points per case
    rng = np.random.default_rng(3)
    pde, slope, e = 0.0, 0.0, 1e-5
    for definition in builtin_cases().values():
        case, d = definition.case, definition.case.d
        pts = rng.uniform(0.1, 0.9, size=(100, d + 1))
        f_ref = case.f(pts)
        u, grad = case.solution(pts)
        lap, fd = np.zeros(100), np.empty((100, d + 1))
        for a in range(d + 1):
            up, um = (case.solution(pts + sign * e * np.eye(d + 1)[a])[0] for sign in (1, -1))
            fd[:, a] = (up - um) / (2 * e)
            if a < d:
                lap += (up - 2 * u + um) / e**2
        scale = max(1.0, np.abs(f_ref).max())
        pde = max(pde, float(np.abs(f_ref - (fd[:, d] - lap)).max() / scale))
        slope = max(slope, float(np.abs(grad - fd).max() / np.abs(grad).max()))
    return (pde < 1e-5 and slope < 1e-8,
            f'max PDE residual {pde:.2e}, max gradient defect {_roundoff(slope, 1e-8)}')


def _check_assembly_paths():
    # the sum-factorized forms against the element path, mapped and identity cylinders
    worst = max(assembly_paths_gap(space, c.geometry, c.case, SchemeParams(0.1, space.h_hat),
                                   moving=moving)
                for name, level in (('moving-curvi-2d', 1), ('fixed-2d', 1), ('moving-curvi-1d', 2))
                for c in [builtin_cases()[name]]
                for space in [solution_space(c.geometry, 2, level)] for moving in (False, True))
    return worst <= 1e-13, f'max relative gap {_roundoff(worst, 1e-13)}'


def run_verification(stream=None) -> bool:
    """Run the consistency checks; print one PASS/FAIL line per check."""
    stream = stream or sys.stdout
    checks = [
        ('partition-of-unity', _check_partition_of_unity),
        ('quadrature-exactness', _check_quadrature),
        ('geometry-derivatives', _check_geometry_derivatives),
        ('coercivity-identity', _check_coercivity_identity),
        ('fixed-forms-agree', _check_forms_agree),
        ('solvers-agree', _check_solvers_agree),
        ('moving-coercivity', _check_moving_coercivity),
        ('manufactured-residuals', _check_manufactured_residuals),
        ('assembly-paths-agree', _check_assembly_paths),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        print(f'{"PASS" if ok else "FAIL"} {name}: {detail}', file=stream)
    return all_ok


# ---------------------------------------------------------------------------
# command line

def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog='spacetime-iga',
        description='Space-time isogeometric convergence studies for the heat equation.')
    sub = parser.add_subparsers(dest='command', required=True)

    p_run = sub.add_parser('run', help='run a convergence study from a JSON config')
    p_run.add_argument('--config', required=True, help='path to JSON configuration')
    p_run.add_argument('--degree', type=int, help='override spline degree')
    p_run.add_argument('--levels', type=int, help='override number of refinement levels')
    p_run.add_argument('--theta', type=float, help='override stabilization parameter')
    p_run.add_argument('--solver', choices=['direct', 'gmres'], help='override solver')
    p_run.add_argument('--out', help='override CSV output path')
    p_run.add_argument('--deterministic', action='store_true',
                       help='byte-stable output (zeroes timing columns)')

    sub.add_parser('list-cases', help='list built-in cases')

    sub.add_parser('verify', help='run the self-verification suite')

    args = parser.parse_args(argv)

    if args.command == 'list-cases':
        for name, definition in builtin_cases().items():
            print(f'{name:<20} d={definition.case.d} '
                  f'{"moving" if definition.case.moving else "fixed "} {definition.description}')
        return 0

    if args.command == 'verify':
        return 0 if run_verification() else 1

    try:
        config = load_config(args.config)
        overrides = {}
        for key in ('degree', 'levels', 'theta', 'solver', 'out'):
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        if args.deterministic:
            overrides['deterministic'] = True
        if overrides:
            config = replace(config, **overrides)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2

    try:
        report = run_case(config)
    except ValueError as exc:   # run_case resolves the case first: a malformed custom geometry
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except _RUN_ERRORS as exc:
        if exc.report.records:
            _print_report(exc.report)
        print(f'error: {exc}', file=sys.stderr)
        return 1
    _print_report(report)
    if config.out:
        emit_csv(report, config.out, deterministic=config.deterministic)
        print(f'wrote {config.out}')
    return 0


def main() -> None:
    sys.exit(cli_main())
