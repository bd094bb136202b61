"""Sparse direct and iterative solution of the assembled systems.

Thin wrappers around scipy.sparse.linalg that fix the conventions the
rest of the package relies on: the direct path does one round of
iterative refinement, the GMRES path restarts until the *true* relative
residual ``||Ax - b|| / ||b||`` meets the tolerance (scipy's own
convergence claim is based on the preconditioned residual), and both
report what they did.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    'SolveReport',
    'SingularSystemError',
    'ConvergenceError',
    'solve_direct',
    'solve_gmres',
]


class SingularSystemError(RuntimeError):
    """The system matrix is singular or produced non-finite values."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its budget above tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SolveReport:
    """What a solve did: method tag, iteration count, final true relative
    residual and wall time.  Direct solves report zero iterations;
    ``residual_history`` holds one entry per GMRES restart cycle."""

    method: str
    iterations: int
    residual: float
    time_s: float
    residual_history: tuple = field(default=())


def _check(matrix, rhs):
    if not sp.issparse(matrix):
        raise TypeError('matrix must be a scipy sparse matrix')
    n, m = matrix.shape
    if n != m:
        raise ValueError(f'matrix must be square, got {matrix.shape}')
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f'rhs must have shape ({n},), got {rhs.shape}')
    return matrix.tocsr(), rhs


def _relative_residual(matrix, rhs, x, scale) -> float:
    return float(np.linalg.norm(rhs - matrix @ x) / scale)


def solve_direct(matrix, rhs):
    """Sparse LU solve with one round of iterative refinement.

    Returns ``(x, SolveReport)``; raises :class:`SingularSystemError` on
    singular factorizations or non-finite results.
    """
    matrix, rhs = _check(matrix, rhs)
    t0 = time.perf_counter()
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        x = np.zeros_like(rhs)
        return x, SolveReport('direct', 0, 0.0, time.perf_counter() - t0)
    try:
        lu = spla.splu(matrix.tocsc())
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError('direct solve produced non-finite values')
    residual = rhs - matrix @ x
    if np.linalg.norm(residual) > 1e-14 * scale:
        x = x + lu.solve(residual)
    return x, SolveReport('direct', 0, _relative_residual(matrix, rhs, x, scale),
                          time.perf_counter() - t0)


def solve_gmres(matrix, rhs, tol: float = 1e-10, restart: int = 50, max_iter: int = 5000):
    """Restarted GMRES with the stopping test on the true residual.

    One scipy restart cycle at a time; after each cycle the unpreconditioned
    relative residual is recomputed and iteration continues until it drops
    to ``tol`` or the inner-iteration budget ``max_iter`` is spent, which
    raises :class:`ConvergenceError`.  The system is Jacobi-preconditioned
    unless its diagonal has zeros.

    Returns ``(x, SolveReport)`` with one residual-history entry per cycle.
    """
    matrix, rhs = _check(matrix, rhs)
    t0 = time.perf_counter()
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(rhs), SolveReport('gmres', 0, 0.0, time.perf_counter() - t0)

    diag = matrix.diagonal()
    M = sp.diags(1.0 / diag) if np.all(diag != 0.0) else None
    x = np.zeros_like(rhs)
    inner = 0
    history = []
    counter = [0]
    scipy_rtol = tol

    def _count(_):
        counter[0] += 1

    while True:
        before = counter[0]
        x, info = spla.gmres(matrix, rhs, x0=x, rtol=scipy_rtol, atol=0.0,
                             restart=restart, maxiter=1, M=M,
                             callback=_count, callback_type='pr_norm')
        if info < 0:
            raise ConvergenceError(f'GMRES breakdown (info={info})', inner, float('nan'))
        inner = counter[0]
        res = _relative_residual(matrix, rhs, x, scale)
        history.append(res)
        if res <= tol:
            return x, SolveReport('gmres', inner, res, time.perf_counter() - t0,
                                  tuple(history))
        if inner >= max_iter:
            raise ConvergenceError(
                f'GMRES did not reach tol={tol} within {max_iter} iterations '
                f'(residual {res:.3e})', inner, res)
        if counter[0] == before:
            # scipy's preconditioned test converged early; tighten it so the
            # next cycle actually works on the true residual gap
            if scipy_rtol < 1e-15:
                raise ConvergenceError(
                    f'GMRES stagnated at residual {res:.3e} (tol {tol})', inner, res)
            scipy_rtol *= 1e-2
