"""Refinement-sweep benchmark of spacetime-iga.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  A workload is a JSON run configuration in ``bench/workloads``
(the same file ``spacetime-iga run --config`` accepts), and one operation
is one refinement level of a ``run_case`` sweep.  Every sweep runs in a
fresh Python process, one at a time, in a closed loop driven from this
process, with BLAS threads capped at the number of usable cores.

``--trace 0`` first times the set-up alone in a few fresh processes, then
runs sweeps until the next one would end after ``--seconds`` (at least
one), and reports medians of ``setup_s``, ``sweep_s`` and ``peak_rss_mb``.
``--trace 1`` runs one untraced and one traced sweep and reports the
per-layer figures of the traced one (see ``tracer.py`` and README.md).

The workloads are deterministic and have no random inputs: ``--seed`` is
accepted and printed but changes nothing.  Every sweep's outputs are
checked (``checks.py``); the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import check_sweep, negative_controls

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, 'src')
SWEEP = os.path.join(BENCH, 'sweep.py')
WORKLOAD_DIR = os.path.join(BENCH, 'workloads')
OUT_DIR = os.path.join(BENCH, 'out')
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def workloads() -> dict:
    return {f[:-5]: os.path.join(WORKLOAD_DIR, f)
            for f in sorted(os.listdir(WORKLOAD_DIR)) if f.endswith('.json')}


def child_env() -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = SRC
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):
        env[var] = nproc
    return env


def spawn(config_path: str, extra: list, env: dict, deadline: float) -> dict:
    """Start ``sweep.py`` in a fresh process, wait for it and return its JSON report."""
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, SWEEP, '--config', config_path, '--spawned', str(spawned), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f'{" ".join(cmd)} ran past the {RUN_LIMIT_S:.0f} s limit') from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f'{" ".join(cmd)} exited with {proc.returncode}:\n{proc.stderr}')
    return json.loads(lines[-1])


def tally(sweeps: list, config: dict) -> tuple:
    """(attempted, failed, problems) over the sweeps' refinement levels.

    A sweep that raised fails all its levels, because ``run_case`` returns
    no partial report; otherwise a level fails when one of its checks does.
    Problems are wrong outputs and checks that cannot fire; any of them
    makes the run incorrect.
    """
    attempted = failed = 0
    problems = []
    controlled = False
    for sw in sweeps:
        attempted += config['levels']
        if sw['error'] is not None:
            failed += config['levels']
            print(f'sweep raised: {sw["error"]}', file=sys.stderr)
            continue
        fails = check_sweep(sw, config)
        failed += len({level for level, _, _ in fails})
        problems += [f'L{level} {name}: {msg}' for level, name, msg in fails]
        if not fails and not controlled:
            silent = negative_controls(sw, config)
            problems += [f'check {name} does not fire on a perturbed report' for name in silent]
            controlled = True
    done = [sw for sw in sweeps if sw['error'] is None]
    errors = {tuple((r['error_l2'], r['error_energy']) for r in sw['levels']) for sw in done}
    if len(errors) > 1:
        problems.append('errors are not bit-identical between sweeps of the same '
                        'configuration (traced or not)')
    return attempted, failed, problems


def run_untraced(config_path: str, seconds: float, env: dict, deadline: float) -> tuple:
    setups = [spawn(config_path, ['--setup-only'], env, deadline)['setup_s']
              for _ in range(SETUP_PROBES)]
    sweeps, walls = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        sweeps.append(spawn(config_path, [], env, deadline))
        walls.append(time.monotonic() - t0)
        if time.monotonic() - start + max(walls) > seconds:
            break
    metrics = {
        'setup_s': (statistics.median(setups + [sw['setup_s'] for sw in sweeps]), 's'),
        'sweep_s': (statistics.median(sw['sweep_s'] for sw in sweeps), 's'),
        'peak_rss_mb': (statistics.median(sw['peak_rss_mb'] for sw in sweeps), 'MB'),
    }
    return sweeps, metrics, []


def run_traced(config_path: str, trace_path: str, env: dict, deadline: float) -> tuple:
    plain = spawn(config_path, [], env, deadline)
    traced = spawn(config_path, ['--trace', trace_path], env, deadline)
    problems = list(traced['trace_problems'])
    layers = traced['layers']
    units = {'linsolve.gmres_iterations': 'count', 'trace.absent_spans': 'count'}
    metrics = {name: (value, units.get(name, 'MB' if name.endswith('_mb') else 's'))
               for name, value in layers.items()}
    metrics['trace.overhead_s'] = (traced['sweep_s'] - plain['sweep_s'], 's')
    return [plain, traced], metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, 'spacetime_iga', '__init__.py')):
        raise BenchError(f'no package sources under {SRC}; run from a checkout of the repo')
    known = workloads()
    if args.workload not in known:
        raise BenchError(f'unknown workload {args.workload!r}; choose from {sorted(known)}')
    config_path = known[args.workload]
    with open(config_path) as fh:
        config = json.load(fh)
    env = child_env()
    spawn(config_path, ['--setup-only'], env, deadline)  # warm the file cache and bytecode

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f'trace-{args.workload}-seed{args.seed}.json')
        sweeps, metrics, problems = run_traced(config_path, trace_path, env, deadline)
    else:
        sweeps, metrics, problems = run_untraced(config_path, args.seconds, env, deadline)
    attempted, failed, check_problems = tally(sweeps, config)
    problems += check_problems
    for problem in problems:
        print(f'INCORRECT: {problem}', file=sys.stderr)

    print(f'workload {args.workload} (seed {args.seed}, unused), {len(sweeps)} sweeps, '
          f'levels attempted {attempted}, failed {failed}')
    done = [sw for sw in sweeps if sw['error'] is None and sw['levels']]
    if done:
        r = done[0]['levels'][-1]
        print(f'  finest level L{r["level"]}: {r["dofs"]} dofs, L2 error {r["error_l2"]:.6e} '
              f'(rate {r["rate_l2"]}), energy error {r["error_energy"]:.6e} '
              f'(rate {r["rate_energy"]}), {r["method"]} solve, {r["iterations"]} iterations, '
              f'residual {r["residual"]:.2e}')
    for name, (value, unit) in metrics.items():
        print(f'  {name:<40} {value:>14.6g} {unit}')
    print(json.dumps({
        'correct': not problems,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f'error: {exc}', file=sys.stderr)
        sys.exit(1)
