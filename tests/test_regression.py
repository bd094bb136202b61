"""Per-level errors of every built-in case against stored values.

The acceptance gates allow 2%, which cannot tell a round-off change from
a real one.  This test holds the L2 and energy error of every level of a
cheap sweep set (each built-in case at degrees 1 and 2, levels 0-6 in
d=1 and 0-3 in d=2) to a relative 1e-10, so a change that moves any
reproduced number beyond round-off fails here.

The L2 error also has an absolute floor per level, ``l2_floor = eps
kappa_1(A) ||x||_inf``: the first-order forward-error bound of the solve
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 7)
with ``A`` the reduced matrix and ``x`` the solution of that level, both
1-norms estimated by ``onenormest`` (``A^-1`` applied through ``splu``).
A change of the matrix's last bits, such as another summation order, moves
the solution by up to that much; on the finest d = 1 levels the relative
1e-10 alone is below it.  The energy error has the same bound carried into
the energy norm, ``energy_floor = l2_floor sqrt(sum_ij |N_ij|)`` with ``N``
the level's norm matrix on the free dofs (``n_moving`` on a moving case,
else ``n_fixed``): a coefficient error ``dx`` with ``||dx||_inf <= l2_floor``
has ``dx^T N dx <= l2_floor^2 sum_ij |N_ij|``.

The stored values change only with a deliberate change of the numbers;
regenerate them with ``PYTHONPATH=src python tests/test_regression.py``.
With ``--floors-only`` the script recomputes both floors alone and keeps
every stored error value as it is.
"""
import json
import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import spacetime_iga.harness as harness
from spacetime_iga.assembly import (StabilityWarning, _restrict, assemble_fixed,
                                    assemble_norm_matrices)
from spacetime_iga.harness import CaseConfig, builtin_cases, resolve_case, run_case
from spacetime_iga.tensor_space import classify_dirichlet

DATA = os.path.join(os.path.dirname(__file__), 'data', 'regression.json')
RTOL = 1e-10


def _sweeps():
    for name, definition in builtin_cases().items():
        levels = 7 if definition.case.d == 1 else 4
        for degree in (1, 2):
            yield f'{name}-p{degree}', CaseConfig(case=name, degree=degree, levels=levels)


def _errors(config: CaseConfig) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter('ignore', StabilityWarning)
        report = run_case(config)
    return {'levels': config.levels,
            'error_l2': [float(e) for e in report.errors_l2],
            'error_energy': [float(e) for e in report.errors_energy]}


def _forward_error_floor(matrix, x) -> float:
    """``eps kappa_1(matrix) ||x||_inf``, zero on a level without free dofs."""
    if x.size == 0:
        return 0.0
    lu = spla.splu(matrix.tocsc())
    inverse = spla.LinearOperator(matrix.shape, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda v: lu.solve(v, trans='T'))
    np.random.seed(0)   # onenormest draws its start vectors from the global generator
    kappa = spla.onenormest(matrix) * spla.onenormest(inverse)
    return float(np.finfo(float).eps * kappa * np.abs(x).max())


def _energy_scale(space, params, definition) -> float:
    """``sqrt(sum_ij |N_ij|)`` of the level's energy-norm matrix on the free dofs."""
    norms = assemble_norm_matrices(space, definition.geometry, params)
    free = classify_dirichlet(space).free
    matrix = norms.n_moving if definition.case.moving else norms.n_fixed
    return float(np.sqrt(abs(matrix[free][:, free]).sum()))


def _regenerate(config: CaseConfig) -> dict:
    """:func:`_errors` plus each level's ``l2_floor`` and ``energy_floor``, from the systems
    ``run_case`` solves; a level solved matrix-free gets its reduced matrix assembled here."""
    floors, energy_floors, solve = [], [], harness._solve
    definition = resolve_case(config)

    def recording_solve(system, method, tol, space, params):
        x, report = solve(system, method, tol, space, params)
        matrix = system.matrix
        if not sp.issparse(matrix):
            full = assemble_fixed(space, definition.geometry, definition.case, params)
            matrix = _restrict(full.matrix, classify_dirichlet(space).free)
        floors.append(_forward_error_floor(matrix, x))
        energy_floors.append(floors[-1] * _energy_scale(space, params, definition))
        return x, report

    harness._solve = recording_solve
    try:
        out = _errors(config)
    finally:
        harness._solve = solve
    return {**out, 'l2_floor': floors, 'energy_floor': energy_floors}


SWEEPS = dict(_sweeps())


@pytest.mark.parametrize('key', sorted(SWEEPS))
def test_errors_match_stored_values(key):
    with open(DATA) as fh:
        stored = json.load(fh)[key]
    got = _errors(SWEEPS[key])
    assert (got['levels'] == stored['levels'] == len(stored['l2_floor'])
            == len(stored['energy_floor']))
    for level in range(got['levels']):
        for norm in ('l2', 'energy'):
            assert_allclose(got[f'error_{norm}'][level], stored[f'error_{norm}'][level],
                            rtol=RTOL, atol=stored[f'{norm}_floor'][level],
                            err_msg=f'{norm} error, level {level}')


if __name__ == '__main__':
    out = {key: _regenerate(config) for key, config in SWEEPS.items()}
    if sys.argv[1:] == ['--floors-only']:
        with open(DATA) as fh:
            out = {key: {**stored, **{k: out[key][k] for k in ('l2_floor', 'energy_floor')}}
                   for key, stored in json.load(fh).items()}
    with open(DATA, 'w') as fh:
        json.dump(out, fh, indent=1)
        fh.write('\n')
    print(f'wrote {len(out)} sweeps to {DATA}', file=sys.stderr)
