"""Checks of a sweep's outputs against properties the method must have.

None of them compares with a saved copy of earlier output.  Each check
belongs to one refinement level; a level fails when any of its checks
fails.  ``negative_controls`` perturbs a report once per check and
confirms that the check then fails, so a check that can no longer fire
shows up as an error of the benchmark itself.

The properties, for degree p in d space dimensions and level l:

- ``levels``: the sweep reports levels 0 .. levels-1, in order;
- ``dofs``: a level has (2^l + p)^(d+1) dofs (every built-in geometry is
  a single element, so level l has 2^l uniform spans per direction);
- ``decrease_l2``, ``decrease_energy``: from level 2 on, both errors are
  finite and smaller than at the level before;
- ``residual``: each solve's reported true relative residual is at most
  ``solver_tol``;
- ``energy_rate``: the finest energy rate is within ENERGY_RATE_BAND of p,
  the a priori estimate.  moving-curvi-2d p2 ends at L4 with 2.048;
- ``l2_rate``: on fixed cylinders only, the finest L2 rate is within
  L2_RATE_BAND of p+1.  On moving domains the L2 rate degrades (see
  test_06 in tests/test_acceptance.py);
- ``gate``: where tests/test_acceptance.py records a final value for the
  same case, degree and level, the error is within that gate's 2%.
"""
from __future__ import annotations

import copy
import math

ENERGY_RATE_BAND = 0.1
L2_RATE_BAND = 0.1
GATE_RTOL = 0.02
# (case, degree, level) -> (error field, value), from tests/test_acceptance.py
GATES = {
    ('fixed-1d', 2, 7): ('error_l2', 6.11484e-08),
    ('moving-curvi-1d', 2, 7): ('error_energy', 1.69783e-05),
}


def _applies(sweep: dict, config: dict) -> list:
    """Names of the checks that apply to this sweep's configuration."""
    names = ['levels', 'dofs', 'decrease_l2', 'decrease_energy', 'residual', 'energy_rate']
    if not sweep['moving']:
        names.append('l2_rate')
    if (sweep['case'], sweep['degree'], config['levels'] - 1) in GATES:
        names.append('gate')
    return names


def check_sweep(sweep: dict, config: dict) -> list:
    """Failed checks of one sweep as ``(level, check, message)`` tuples.

    ``sweep`` is the JSON object ``sweep.py`` prints; ``config`` the
    workload's run configuration.
    """
    p, d = sweep['degree'], sweep['d']
    tol = config.get('solver_tol', 1e-10)
    n_levels = config['levels']
    recs = sweep['levels']
    fails = []
    got = [r['level'] for r in recs]
    if got != list(range(n_levels)):
        for level in range(n_levels):
            if level >= len(got) or got[level] != level:
                fails.append((level, 'levels', f'expected levels 0..{n_levels - 1}, got {got}'))
        return fails

    for r in recs:
        lv = r['level']
        want = (2 ** lv + p) ** (d + 1)
        if r['dofs'] != want:
            fails.append((lv, 'dofs', f'{r["dofs"]} dofs, expected (2^{lv} + {p})^{d + 1} = {want}'))
        if not r['residual'] <= tol:
            fails.append((lv, 'residual', f'true residual {r["residual"]:.3e} above tol {tol:.1e}'))
        if lv >= 2:
            prev = recs[lv - 1]
            for field, name in (('error_l2', 'decrease_l2'), ('error_energy', 'decrease_energy')):
                if not (math.isfinite(r[field]) and r[field] < prev[field]):
                    fails.append((lv, name, f'{field} {r[field]:.6e} not below '
                                            f'{prev[field]:.6e} at level {lv - 1}'))

    last = recs[-1]
    lv = last['level']
    rate = last['rate_energy']
    if rate is None or abs(rate - p) > ENERGY_RATE_BAND:
        fails.append((lv, 'energy_rate', f'final energy rate {rate} not within '
                                         f'{ENERGY_RATE_BAND} of p = {p}'))
    if 'l2_rate' in _applies(sweep, config):
        rate = last['rate_l2']
        if rate is None or abs(rate - (p + 1)) > L2_RATE_BAND:
            fails.append((lv, 'l2_rate', f'final L2 rate {rate} not within '
                                         f'{L2_RATE_BAND} of p + 1 = {p + 1}'))
    gate = GATES.get((sweep['case'], p, lv))
    if gate is not None:
        field, want = gate
        dev = last[field] / want - 1.0
        if not abs(dev) <= GATE_RTOL:
            fails.append((lv, 'gate', f'{field} {last[field]:.6e} is {dev:+.2%} from the '
                                      f'recorded {want:.5e} (tolerance {GATE_RTOL:.0%})'))
    return fails


def _perturbed(sweep: dict, config: dict, check: str) -> dict:
    """A copy of ``sweep`` that ``check``, and only a working ``check``, must reject."""
    bad = copy.deepcopy(sweep)
    recs = bad['levels']
    last = recs[-1]
    p = bad['degree']
    if check == 'levels':
        recs.pop()
    elif check == 'dofs':
        last['dofs'] += 1
    elif check == 'residual':
        last['residual'] = 10.0 * config.get('solver_tol', 1e-10)
    elif check == 'decrease_l2':
        last['error_l2'] = recs[-2]['error_l2'] * 1.001
    elif check == 'decrease_energy':
        last['error_energy'] = recs[-2]['error_energy'] * 1.001
    elif check == 'energy_rate':
        last['rate_energy'] = p + 1.5 * ENERGY_RATE_BAND
    elif check == 'l2_rate':
        last['rate_l2'] = p + 1 - 1.5 * L2_RATE_BAND
    elif check == 'gate':
        field, _ = GATES[(bad['case'], p, last['level'])]
        last[field] *= 1.0 + 1.5 * GATE_RTOL
    else:
        raise ValueError(f'no perturbation for check {check!r}')
    return bad


def negative_controls(sweep: dict, config: dict) -> list:
    """Checks that do not fire on a report perturbed to break them (empty when all fire)."""
    silent = []
    for check in _applies(sweep, config):
        fired = {name for _, name, _ in check_sweep(_perturbed(sweep, config, check), config)}
        if check not in fired:
            silent.append(check)
    return silent
