"""Spans around the package's public functions, recorded from outside it.

``run_case`` reaches each stage through a public function of one module.
The tracer replaces those functions, in every loaded ``spacetime_iga``
module that holds them, with wrappers that record one span per call:
name, function, start and end (seconds from the start of the sweep), the
index of the enclosing span, the refinement level and the rise in the
process's peak RSS during the call.  Spans stay in memory and are written
out once, when the sweep ends.

A function that a later change renames or merges away is reported as
missing, and a span none of whose functions exist as absent; neither
makes the traced sweep fail.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import resource
import sys
import time

ROOT_SPAN = 'harness.run_case'

# span name -> (module, public function) pairs it wraps
SPANS = {
    'harness.solution_space': [('harness', 'solution_space')],
    'tensor_space.classify_dirichlet': [('tensor_space', 'classify_dirichlet')],
    'geometry.mesh_metrics': [('geometry', 'mesh_metrics')],
    'postproc.estimate_inverse_constant': [('postproc', 'estimate_inverse_constant')],
    'assembly.assemble': [('assembly', 'assemble_fixed'), ('assembly', 'assemble_moving')],
    'assembly.apply_dirichlet': [('assembly', 'apply_dirichlet')],
    'assembly.boundary_l2_project': [('assembly', 'boundary_l2_project')],
    'linsolve.solve': [('linsolve', 'solve_direct'), ('linsolve', 'solve_gmres')],
    'postproc.errors': [('postproc', 'error_l2'), ('postproc', 'error_energy')],
}

# Time metrics sum the spans that run_case enters directly, so that with
# harness.run_case_self_s they add up to the sweep.  The boundary
# projection is the one nested stage; its metric sums its spans wherever
# they sit (inside apply_dirichlet today).  The projection's own linear
# solve is a linsolve.solve span nested in it and so not in linsolve.solve_s.
NESTED_METRICS = {'assembly.boundary_l2_project'}
RSS_MODULES = ('assembly', 'linsolve', 'postproc')


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans while :meth:`installed` is active."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.absent = []
        self._stack = []
        self._level = None
        self._t0 = None

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _open(self, name: str, function: str) -> dict:
        span = {'name': name, 'function': function,
                'parent': self._stack[-1] if self._stack else None,
                'level': self._level, 'start': self._now(), 'end': None}
        span['_rss0'] = _peak_rss_mb()
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict):
        span['end'] = self._now()
        span['rss_growth_mb'] = _peak_rss_mb() - span.pop('_rss0')
        self._stack.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if 'level' in signature.parameters:
                self._level = signature.bind(*args, **kwargs).arguments['level']
            span = self._open(name, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            _annotate(span, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the public functions, run the body inside the root span, restore."""
        import spacetime_iga  # noqa: F401  (loads every module of the package)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == 'spacetime_iga' or name.startswith('spacetime_iga.')}
        patched = []
        for span_name, functions in SPANS.items():
            found = 0
            for module_name, attr in functions:
                home = modules.get(f'spacetime_iga.{module_name}')
                original = getattr(home, attr, None)
                if original is None:
                    self.missing.append(f'{module_name}.{attr}')
                    continue
                found += 1
                wrapper = self._wrap(span_name, original)
                for mod in modules.values():
                    if getattr(mod, attr, None) is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            if not found:
                self.absent.append(span_name)
        self._t0 = time.perf_counter()
        root = self._open(ROOT_SPAN, 'run_case')
        try:
            yield self
        finally:
            self._close(root)
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def problems(self) -> list:
        """Nesting faults: a span that is left open or ends outside its parent."""
        out = []
        for k, s in enumerate(self.spans):
            if s['end'] is None:
                out.append(f'span {k} ({s["name"]}) never closed')
                continue
            p = s['parent']
            if p is not None and not (self.spans[p]['start'] <= s['start'] <= s['end']
                                      <= self.spans[p]['end']):
                out.append(f'span {k} ({s["name"]}) lies outside its parent {p}')
        return out

    def layer_metrics(self) -> dict:
        """Per-layer figures summed over the sweep's levels (see README.md)."""
        root = next(k for k, s in enumerate(self.spans) if s['name'] == ROOT_SPAN)
        top = [s for s in self.spans if s['parent'] == root]

        def dur(s):
            return s['end'] - s['start']

        sweep = dur(self.spans[root])
        out = {'harness.run_case_self_s': sweep - sum(dur(s) for s in top)}
        for name in SPANS:
            pool = self.spans if name in NESTED_METRICS else top
            out[f'{name}_s'] = sum((dur(s) for s in pool if s['name'] == name), 0.0)
        out['linsolve.gmres_iterations'] = sum(
            s.get('iterations', 0) for s in top
            if s['name'] == 'linsolve.solve' and s['function'] == 'solve_gmres')
        for module in RSS_MODULES:
            out[f'{module}.rss_growth_mb'] = sum(
                (s['rss_growth_mb'] for s in top if s['name'].startswith(module + '.')), 0.0)
        out['trace.sweep_s'] = sweep
        out['trace.absent_spans'] = len(self.absent)
        return out

    def write(self, path: str):
        with open(path, 'w') as fh:
            json.dump({'spans': self.spans, 'missing_functions': self.missing,
                       'absent_spans': self.absent}, fh, indent=1)


def _annotate(span: dict, result):
    """Counts at the span boundary, read from what the public function returned."""
    if span['name'] == 'linsolve.solve' and isinstance(result, tuple) and len(result) == 2:
        report = result[1]
        span['iterations'] = getattr(report, 'iterations', 0)
        span['residual'] = getattr(report, 'residual', None)
        span['unknowns'] = int(getattr(result[0], 'size', 0))
    elif span['name'] == 'assembly.assemble':
        matrix = getattr(result, 'matrix', None)
        span['nnz'] = int(getattr(matrix, 'nnz', 0))
        span['dofs'] = int(matrix.shape[0]) if matrix is not None else 0
    elif span['name'] == 'geometry.mesh_metrics':
        span['elements'] = int(getattr(result, 'n_elements', 0))
