"""Bit-parity fingerprint of the regression sweeps.

For every sweep of ``test_regression.SWEEPS`` and every level, prints one
line of sha256 digests (the first 16 hex digits) of

- the full assembled matrix (``indptr``, ``indices``, ``data``) and its load;
- the Dirichlet values;
- the reduced matrix and its load;
- the solution;

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

Sweep keys given as arguments restrict the run to those sweeps.
"""
import hashlib
import sys
import warnings

import numpy as np

import spacetime_iga.harness as harness
from spacetime_iga.assembly import StabilityWarning
from test_regression import SWEEPS


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f'{a.dtype}{a.shape}'.encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _matrix(m) -> str:
    return _digest(m.indptr, m.indices, m.data)


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


if __name__ == '__main__':
    for key in sys.argv[1:] or sorted(SWEEPS):
        print('\n'.join(fingerprint(key)), flush=True)
