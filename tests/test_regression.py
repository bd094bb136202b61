"""Per-level errors of every built-in case against stored values.

The acceptance gates allow 2%, which cannot tell a round-off change from
a real one.  This test holds the L2 and energy error of every level of a
cheap sweep set (each built-in case at degrees 1 and 2, levels 0-6 in
d=1 and 0-3 in d=2) to a relative 1e-10, so a change that moves any
reproduced number beyond round-off fails here.

The stored values change only with a deliberate change of the numbers;
regenerate them with ``PYTHONPATH=src python tests/test_regression.py``.
"""
import json
import os
import sys
import warnings

import pytest
from numpy.testing import assert_allclose

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


SWEEPS = dict(_sweeps())


@pytest.mark.parametrize('key', sorted(SWEEPS))
def test_errors_match_stored_values(key):
    with open(DATA) as fh:
        stored = json.load(fh)[key]
    got = _errors(SWEEPS[key])
    assert got['levels'] == stored['levels']
    assert_allclose(got['error_l2'], stored['error_l2'], rtol=RTOL, atol=0.0)
    assert_allclose(got['error_energy'], stored['error_energy'], rtol=RTOL, atol=0.0)


if __name__ == '__main__':
    out = {key: _errors(config) for key, config in SWEEPS.items()}
    with open(DATA, 'w') as fh:
        json.dump(out, fh, indent=1)
        fh.write('\n')
    print(f'wrote {len(out)} sweeps to {DATA}', file=sys.stderr)
