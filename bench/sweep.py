"""One refinement sweep of a workload, in this process, reported as JSON.

    python3 bench/sweep.py --config bench/workloads/fixed-1d-p2.json \
        --spawned NS [--setup-only] [--trace FILE]

``--spawned`` is the starting process's CLOCK_MONOTONIC reading, in
nanoseconds, taken just before it started this one.  CLOCK_MONOTONIC is
one clock for every process on the machine, so ``setup_s`` covers
interpreter start, ``import spacetime_iga``, loading the config and
``resolve_case``: everything a user waits for before the sweep begins.

``--trace FILE`` wraps the package's public functions in spans (see
``tracer.py``) and writes them to ``FILE`` when the sweep ends.

The last line of standard output is one JSON object.  A sweep that
raises still prints it, with the exception in ``error``; a nonzero exit
means the sweep could not be set up at all.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, 'src')


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


def report_levels(report) -> list:
    """The per-level fields of a ``ConvergenceReport`` that the checks read."""
    return [{
        'level': r.level,
        'dofs': r.dofs,
        'h': r.h,
        'error_l2': r.error_l2,
        'rate_l2': _finite_or_none(r.rate_l2),
        'error_energy': r.error_energy,
        'rate_energy': _finite_or_none(r.rate_energy),
        'method': r.solve.method,
        'iterations': r.solve.iterations,
        'residual': r.solve.residual,
    } for r in report.records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--config', required=True)
    parser.add_argument('--spawned', type=int, required=True)
    parser.add_argument('--setup-only', action='store_true')
    parser.add_argument('--trace')
    args = parser.parse_args(argv)

    import spacetime_iga
    from spacetime_iga.harness import load_config, resolve_case, run_case

    # an installed copy elsewhere must not stand in for the checkout's sources
    if not os.path.realpath(spacetime_iga.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f'spacetime_iga imported from {spacetime_iga.__file__}, not from {SRC}',
              file=sys.stderr)
        return 2
    config = load_config(args.config)
    definition = resolve_case(config)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned) / 1e9

    out = {'setup_s': setup_s, 'case': config.case, 'degree': config.degree,
           'd': definition.case.d, 'moving': definition.case.moving}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        out['error'] = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = run_case(config)
            else:
                with tracer.installed():
                    report = run_case(config)
        except Exception as exc:  # a failed sweep is a result to report, not a crash
            out['error'] = f'{type(exc).__name__}: {exc}'
            report = None
        out['sweep_s'] = time.perf_counter() - t0
        out['peak_rss_mb'] = peak_rss_mb()
        out['levels'] = [] if report is None else report_levels(report)
        if tracer is not None:
            out['layers'] = tracer.layer_metrics()
            out['trace_problems'] = tracer.problems()
            tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == '__main__':
    sys.exit(main())
