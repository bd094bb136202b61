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
1e-10 alone is below it.  The energy error has no floor.

The stored values change only with a deliberate change of the numbers;
regenerate them with ``PYTHONPATH=src python tests/test_regression.py``.
With ``--floors-only`` the script recomputes the floors alone and keeps
every stored error value as it is.
"""
import json
import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import spacetime_iga.harness as harness
from spacetime_iga.assembly import StabilityWarning
from spacetime_iga.harness import CaseConfig, builtin_cases, run_case

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


def _regenerate(config: CaseConfig) -> dict:
    """:func:`_errors` plus each level's ``l2_floor``, from the systems ``run_case`` solves."""
    floors, solve = [], harness._solve

    def recording_solve(system, *args, **kwargs):
        x, report = solve(system, *args, **kwargs)
        floors.append(_forward_error_floor(system.matrix, x))
        return x, report

    harness._solve = recording_solve
    try:
        out = _errors(config)
    finally:
        harness._solve = solve
    return {**out, 'l2_floor': floors}


SWEEPS = dict(_sweeps())


@pytest.mark.parametrize('key', sorted(SWEEPS))
def test_errors_match_stored_values(key):
    with open(DATA) as fh:
        stored = json.load(fh)[key]
    got = _errors(SWEEPS[key])
    assert got['levels'] == stored['levels'] == len(stored['l2_floor'])
    for level, floor in enumerate(stored['l2_floor']):
        assert_allclose(got['error_l2'][level], stored['error_l2'][level], rtol=RTOL,
                        atol=floor, err_msg=f'L2 error, level {level}')
    assert_allclose(got['error_energy'], stored['error_energy'], rtol=RTOL, atol=0.0)


if __name__ == '__main__':
    out = {key: _regenerate(config) for key, config in SWEEPS.items()}
    if sys.argv[1:] == ['--floors-only']:
        with open(DATA) as fh:
            out = {key: {**stored, 'l2_floor': out[key]['l2_floor']}
                   for key, stored in json.load(fh).items()}
    with open(DATA, 'w') as fh:
        json.dump(out, fh, indent=1)
        fh.write('\n')
    print(f'wrote {len(out)} sweeps to {DATA}', file=sys.stderr)
