"""Convergence-study driver and command line interface.

Ships the manufactured model problems (fixed and moving space-time
cylinders with a smooth exact solution), runs refinement sweeps that
report errors in the L2 and discrete energy norms, writes CSV, and
hosts the self-verification suite behind ``spacetime-iga verify``.
Each structural identity of the scheme is coded once, and ``verify``
and the acceptance tests both call it: the fixed-cylinder coercivity
identity (:func:`coercivity_identity_defect`), the agreement of the
fixed and moving forms (:func:`fixed_forms_gap`) and the moving-domain
coercivity margin (:func:`moving_coercivity`).
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, fields, replace
from numbers import Real

import numpy as np

from ._batch import _grid_field, _span_rule, _table
from .assembly import (LinearSystem, ManufacturedCase, SchemeParams, StabilityWarning,
                       _assemble_form, _assemble_grid, apply_dirichlet, assemble_fixed,
                       assemble_load, assemble_moving, assemble_norm_matrices)
from .geometry import (GeometryMap, SingularGeometryError, hessian, jacobian, map_point,
                       mesh_metrics)
from .linsolve import (ConvergenceError, SingularSystemError, cylinder_operator,
                       cylinder_preconditioner, solve_direct, solve_fd, solve_gmres)
from .postproc import (ConvergenceReport, DiscreteField, LevelRecord, a_priori_theta_bound,
                       error_energy, error_l2, estimate_inverse_constant, rates)
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
    """Manufactured family u = sin(pi x_1) ... sin(pi x_d) sin(pi t)."""

    def space_factor(x):
        out = np.ones(x.shape[0])
        for a in range(d):
            out *= np.sin(np.pi * x[:, a])
        return out

    def u(x):
        return space_factor(x) * np.sin(np.pi * x[:, d])

    def u_t(x):
        return space_factor(x) * np.pi * np.cos(np.pi * x[:, d])

    def grad_u(x):
        out = np.empty((x.shape[0], d))
        st = np.sin(np.pi * x[:, d])
        for a in range(d):
            g = np.pi * np.cos(np.pi * x[:, a]) * st
            for b in range(d):
                if b != a:
                    g *= np.sin(np.pi * x[:, b])
            out[:, a] = g
        return out

    def f(x):
        return space_factor(x) * np.pi * (np.cos(np.pi * x[:, d])
                                          + d * np.pi * np.sin(np.pi * x[:, d]))

    return u, u_t, grad_u, f


@dataclass(frozen=True)
class CaseDefinition:
    """A manufactured case together with its coarse geometry map."""

    case: ManufacturedCase
    geometry: GeometryMap
    description: str

    @property
    def fd_exact(self) -> bool:
        """Whether the fast diagonalization of the parametric cylinder inverts
        the case's form exactly: a fixed case on an identity-geometry cylinder."""
        return not self.case.moving and self.geometry.is_identity


def _make_geometry(degrees, control_points) -> GeometryMap:
    return GeometryMap(DiscreteSpace([single_span(p) for p in degrees]), control_points)


def _make_case(name, d, moving) -> ManufacturedCase:
    u, u_t, grad_u, f = _sin_solution(d)
    return ManufacturedCase(name, d, moving, u, u_t, grad_u, f)


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
    """One convergence run: case, degree, refinement depth, scheme and solver."""

    case: str
    degree: int = 2
    levels: int = 5
    theta: float = 0.1
    solver: str = 'auto'
    solver_tol: float = 1e-10
    out: str | None = None
    deterministic: bool = False
    geometry: dict | None = None
    moving: bool | None = None

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
        for key, value in (('deterministic', self.deterministic), ('moving', self.moving)):
            if not isinstance(value, (bool, np.bool_)) and (key, value) != ('moving', None):
                raise ValueError(f'{key} must be true or false, got {value!r}')
        if self.solver not in ('auto', 'direct', 'gmres'):
            raise ValueError(f"solver must be 'auto', 'direct' or 'gmres', got {self.solver!r}")
        if self.case != 'custom' and self.case not in builtin_cases():
            raise ValueError(f'unknown case {self.case!r}; see list-cases')
        if self.case == 'custom':
            if self.geometry is None:
                raise ValueError("case 'custom' needs a geometry block")
            if self.moving is None:
                raise ValueError("case 'custom' needs 'moving': true|false")


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


def _check_time_is_tau(gmap: GeometryMap):
    """Raise ``ValueError`` unless the time coordinate of ``gmap`` is ``tau``.

    On a span the numerator of ``t - tau`` has degree at most ``p_a + 1`` in
    direction ``a``, so a grid of ``p_a + 2`` points per span decides it.
    Only the map's values are evaluated, so a folded map passes here and
    fails at its first level."""
    kvs = gmap.space.knot_vectors
    nodes = [_span_rule(kv, kv.degree + 2)[0] for kv in kvs]
    t = _grid_field(gmap.space, [_table(kv, n) for kv, n in zip(kvs, nodes)],
                    gmap.control_points, 0)[0][-1]
    xi = np.meshgrid(*[n.ravel() for n in nodes], indexing='ij')     # one grid per direction
    gap = t - xi[-1].ravel()
    k = int(np.argmax(np.abs(gap)))
    if abs(gap[k]) > 1e-12:
        where = ', '.join(f'{c.flat[k]:.6g}' for c in xi)
        raise ValueError(f'custom geometry must keep t = tau, but t - tau = {gap[k]:.6g} '
                         f'at parameter point ({where})')


def resolve_case(config: CaseConfig) -> CaseDefinition:
    if config.case != 'custom':
        return builtin_cases()[config.case]
    geo = config.geometry
    try:
        kvs = [KnotVector(np.asarray(k, dtype=float), int(p))
               for k, p in zip(geo['knots'], geo['degrees'], strict=True)]
        cp = geo['control_points']
        weights = geo.get('weights')
    except (KeyError, TypeError) as exc:
        raise ValueError(f'bad custom geometry block: {exc}') from exc
    gmap = GeometryMap(DiscreteSpace(kvs, weights), cp)
    _check_time_is_tau(gmap)
    case = _make_case('custom', gmap.ndim - 1, bool(config.moving))
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
    - the exact fast diagonalization (``'fd'``) where it inverts the form
      (``definition.fd_exact``), with the matrix-free operator of :func:`_level_system`;
    - GMRES preconditioned by the fast diagonalization otherwise, at tolerance
      ``min(config.solver_tol, 1e-12)``, which keeps the errors as exact as the LU's.
    """
    tol = config.solver_tol
    if config.solver != 'auto':
        return config.solver, tol
    if n_free < FD_MIN_DOFS:
        return 'direct', tol
    if definition.fd_exact:
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


def run_case(config: CaseConfig) -> ConvergenceReport:
    """Run the refinement sweep described by ``config``.

    Levels 0 .. levels-1 halve every knot span in turn; each level
    decides its solver once (:func:`_plan`), assembles the scheme (on a
    level solved by the exact fast diagonalization only its load; the form
    is applied matrix-free), applies Dirichlet data by boundary projection,
    solves, and records errors.  Rates are attached afterwards.  When a
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
            theta_bound = None
            if case.moving:
                mesh = mesh_metrics(geom, space)
                if c_inv is None or level <= 2:
                    c_inv = estimate_inverse_constant(space, geom, mesh)
                theta_bound = a_priori_theta_bound(c_inv, mesh)
            params = SchemeParams(config.theta, space.h_hat, theta_bound)
            method, tol = _plan(config, definition, dofmap.free.size)
            # no name holds the full-space system, so it is freed once reduced, before the solve
            reduced = apply_dirichlet(_level_system(space, geom, case, params, method),
                                      dofmap, case, space, geom)
            x, report = _solve(reduced, method, tol, space, params)
            coeffs = reduced.dirichlet_values.copy()
            coeffs[dofmap.free] = x
            field = DiscreteField(space, geom, coeffs)
            levels.append((level, space.dim, params.h, error_l2(field, case),
                           error_energy(field, case, params, moving=case.moving), report))
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
        nd = geom.ndim
        e1 = 1e-5   # first differences: truncation-limited
        e2 = 1e-4   # second differences: roundoff grows as eps / e^2
        for _ in range(10):
            xi = rng.uniform(0.1, 0.9, nd)
            J, _ = jacobian(geom, xi)
            H = hessian(geom, xi)
            for a in range(nd):
                dp, dm = xi.copy(), xi.copy()
                dp[a] += e1
                dm[a] -= e1
                fd = (map_point(geom, dp) - map_point(geom, dm)) / (2 * e1)
                worst = max(worst, float(np.abs(fd - J[:, a]).max()))
                dp, dm = xi.copy(), xi.copy()
                dp[a] += e2
                dm[a] -= e2
                fd2 = (map_point(geom, dp) - 2 * map_point(geom, xi) + map_point(geom, dm)) / e2**2
                worst = max(worst, float(np.abs(fd2 - H[:, a, a]).max()) * 1e-2)
    return worst < 1e-8, f'max FD defect {_roundoff(worst, 1e-8)}'


def coercivity_identity_defect(name: str, degree: int, level: int,
                               theta_skew: float = 1.0) -> float | None:
    """Largest defect of ``a_h(v, v) = |||v|||_h^2 + theta h/2 |grad_x v|^2_{Sigma_T}``.

    Relative to ``|||v|||_h^2``, over 20 random free vectors (seed 23) on a
    fixed built-in case; ``theta_skew`` scales theta on the norm side only.
    None when the level has no free dofs."""
    definition = builtin_cases()[name]
    geom = definition.geometry
    space, dofmap = _setup_level(geom, degree, level)
    free = dofmap.free
    if free.size == 0:
        return None
    K = assemble_fixed(space, geom, definition.case, SchemeParams(0.1, space.h_hat)).matrix
    norm_params = SchemeParams(0.1 * theta_skew, space.h_hat)
    norms = assemble_norm_matrices(space, geom, norm_params)
    K, N, G = (m[free][:, free] for m in (K, norms.n_fixed, norms.face_gradient))
    th = norm_params.theta * norm_params.h
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

    ``bound`` is the a-priori theta bound, ``warned`` whether assembly raised
    :class:`StabilityWarning`, and ``margin`` the least ``vT B v / vT N v``
    over 20 random free vectors (seed 5)."""
    definition = builtin_cases()[name]
    case, geom = definition.case, definition.geometry
    space, dofmap = _setup_level(geom, degree, level)
    mesh = mesh_metrics(geom, space)
    bound = a_priori_theta_bound(estimate_inverse_constant(space, geom, mesh), mesh)
    params = SchemeParams(0.1, space.h_hat, bound)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter('always')
        B = assemble_moving(space, geom, case, params).matrix
    warned = any(issubclass(w.category, StabilityWarning) for w in caught)
    free = dofmap.free
    B = B[free][:, free]
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


def _check_coercivity_identity(theta_skew: float):
    worst = max(coercivity_identity_defect(*combo, theta_skew)
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
    rng = np.random.default_rng(3)
    worst = 0.0
    for name, definition in builtin_cases().items():
        case = definition.case
        d = case.d
        e = 1e-5
        pts = rng.uniform(0.1, 0.9, size=(100, d + 1))
        f_ref = case.f(pts)
        lap = np.zeros(100)
        for a in range(d):
            dp, dm = pts.copy(), pts.copy()
            dp[:, a] += e
            dm[:, a] -= e
            lap += (case.u(dp) - 2 * case.u(pts) + case.u(dm)) / e**2
        dp, dm = pts.copy(), pts.copy()
        dp[:, d] += e
        dm[:, d] -= e
        ut = (case.u(dp) - case.u(dm)) / (2 * e)
        defect = np.abs(f_ref - (ut - lap)).max() / max(1.0, np.abs(f_ref).max())
        worst = max(worst, float(defect))
    return worst < 1e-5, f'max PDE residual {worst:.2e}'


def _check_assembly_paths():
    # the sum-factorized forms against the element path, mapped and identity cylinders
    worst = max(assembly_paths_gap(space, c.geometry, c.case, SchemeParams(0.1, space.h_hat),
                                   moving=moving)
                for name, level in (('moving-curvi-2d', 1), ('fixed-2d', 1), ('moving-curvi-1d', 2))
                for c in [builtin_cases()[name]]
                for space in [solution_space(c.geometry, 2, level)] for moving in (False, True))
    return worst <= 1e-13, f'max relative gap {_roundoff(worst, 1e-13)}'


def run_verification(theta_skew: float = 1.0, stream=None) -> bool:
    """Run the consistency checks; print one PASS/FAIL line per check.

    ``theta_skew`` scales theta on the norm side of the coercivity
    identity only; any value other than 1 must make that check fail,
    which is itself checked by the test suite.
    """
    stream = stream or sys.stdout
    checks = [
        ('partition-of-unity', _check_partition_of_unity),
        ('quadrature-exactness', _check_quadrature),
        ('geometry-derivatives', _check_geometry_derivatives),
        ('coercivity-identity', lambda: _check_coercivity_identity(theta_skew)),
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

    p_ver = sub.add_parser('verify', help='run the self-verification suite')
    p_ver.add_argument('--theta-skew', type=float, default=1.0,
                       help='fault-injection factor on the coercivity check (default 1.0)')

    args = parser.parse_args(argv)

    if args.command == 'list-cases':
        for name, definition in builtin_cases().items():
            print(f'{name:<20} d={definition.case.d} '
                  f'{"moving" if definition.case.moving else "fixed "} {definition.description}')
        return 0

    if args.command == 'verify':
        return 0 if run_verification(theta_skew=args.theta_skew) else 1

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
        resolve_case(config)  # a malformed custom geometry is a config error
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2

    try:
        report = run_case(config)
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
