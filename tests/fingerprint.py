"""Bit-parity fingerprint of the regression sweeps.

For every sweep of ``test_regression.SWEEPS`` and every level, prints one
line of sha256 digests (the first 16 hex digits) of

- the full assembled matrix (``indptr``, ``indices``, ``data``) and its load;
- the Dirichlet values;
- the reduced matrix and its load;
- the solution;

where a level is solved matrix-free (the exact fast diagonalization), both
matrix digests read ``-``;

followed by the ``repr`` of the L2 and energy errors, so a diff shows which
error moved and by how much.

The values are captured around ``run_case`` by wrapping the functions it
reaches through the ``harness`` module, so the package itself is not
changed.  No hashes are stored: a refactor that claims to keep every
number bit for bit runs this script on the parent's checkout and on its
own and compares the two outputs::

    PYTHONPATH=src python tests/fingerprint.py > after.txt
    PYTHONPATH=<parent checkout>/src python tests/fingerprint.py > before.txt
    diff before.txt after.txt

Sweep keys given as arguments restrict the run to those sweeps.  With
``--compare before.txt after.txt`` the script runs nothing and prints, per
sweep, which digests moved (and at which levels) and the largest relative
shift of the L2 and of the energy error, each with the share of its level's
floor in ``tests/data/regression.json`` that the shift uses::

    python tests/fingerprint.py --compare before.txt after.txt
"""
import hashlib
import json
import sys
import warnings

import numpy as np
import scipy.sparse as sp

import spacetime_iga.harness as harness
from spacetime_iga.assembly import StabilityWarning
from test_regression import DATA, SWEEPS


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f'{a.dtype}{a.shape}'.encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _matrix(m) -> str:
    """The digest of a CSR matrix, ``-`` for an operator (a level solved matrix-free)."""
    return _digest(m.indptr, m.indices, m.data) if sp.issparse(m) else '-'


def fingerprint(key: str) -> list:
    """One line per level of sweep ``key``."""
    lines, level = [], {}
    apply_dirichlet, solve = harness.apply_dirichlet, harness._solve
    error_l2, error_energy = harness.error_l2, harness.error_energy

    def traced_apply_dirichlet(system, *args, **kwargs):
        reduced = apply_dirichlet(system, *args, **kwargs)
        level.update(full=_matrix(system.matrix), load=_digest(system.rhs),
                     dirichlet=_digest(reduced.dirichlet_values),
                     reduced=_matrix(reduced.matrix), reduced_load=_digest(reduced.rhs))
        return reduced

    def traced_solve(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        level['solution'] = _digest(x)
        return x, report

    def traced_error_l2(*args, **kwargs):
        level['_l2'] = error_l2(*args, **kwargs)
        return level['_l2']

    def traced_error_energy(*args, **kwargs):
        energy = error_energy(*args, **kwargs)
        level.update(l2=repr(float(level.pop('_l2'))), energy=repr(float(energy)))
        lines.append(f'{key} L{len(lines)} ' + ' '.join(f'{k}={v}' for k, v in level.items()))
        level.clear()
        return energy

    patches = {'apply_dirichlet': traced_apply_dirichlet, '_solve': traced_solve,
               'error_l2': traced_error_l2, 'error_energy': traced_error_energy}
    originals = {name: getattr(harness, name) for name in patches}
    try:
        for name, fn in patches.items():
            setattr(harness, name, fn)
        with warnings.catch_warnings():
            warnings.simplefilter('ignore', StabilityWarning)
            harness.run_case(SWEEPS[key])
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)
    return lines


def _parse(path: str) -> dict:
    """``{sweep: {level: {name: value}}}`` of a fingerprint output."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, level, *fields = line.split()
            out.setdefault(key, {})[int(level[1:])] = dict(f.split('=', 1) for f in fields)
    return out


def compare(before: str, after: str) -> list:
    """One line per sweep of ``after``: the digests that moved, and for each norm the largest
    relative error shift with the share of that level's regression floor it uses."""
    old, new = _parse(before), _parse(after)
    with open(DATA) as fh:
        floors = json.load(fh)
    lines = []
    for key, levels in new.items():
        moved, shifts = {}, []
        for level, fields in levels.items():
            ref = old.get(key, {}).get(level, {})
            for name, value in fields.items():
                if name not in ('l2', 'energy') and ref.get(name) != value:
                    moved.setdefault(name, []).append(f'L{level}')
        for norm in ('l2', 'energy'):
            rows = []   # (relative shift, share of the floor, level)
            for level, fields in levels.items():
                a, b = float(old[key][level][norm]), float(fields[norm])
                floor = floors.get(key, {}).get(f'{norm}_floor', [0.0] * (level + 1))[level]
                shift = abs(b - a)
                rows.append((shift / abs(a) if a else shift,
                             shift / floor if floor else float(shift > 0), level))
            rel, share, level = max(rows, key=lambda row: row[:2])
            shifts.append(f'{norm} {rel:.1e} (L{level}, {share:.2g} of its floor)')
        digests = '; '.join(f'{name} {",".join(at)}' for name, at in moved.items()) or 'none'
        lines.append(f'{key}: moved {digests}; largest shift {", ".join(shifts)}')
    return lines


if __name__ == '__main__':
    if sys.argv[1:2] == ['--compare']:
        print('\n'.join(compare(*sys.argv[2:4])))
    else:
        for key in sys.argv[1:] or sorted(SWEEPS):
            print('\n'.join(fingerprint(key)), flush=True)
