"""Sparse direct, fast diagonalization and iterative solution of the assembled systems.

Thin wrappers around scipy.sparse.linalg that fix the conventions the
rest of the package relies on: the exact solves (sparse LU, and the fast
diagonalization on fixed identity-geometry cylinders) do one round of
iterative refinement, the GMRES path restarts until the *true* relative
residual ``||Ax - b|| / ||b||`` meets the tolerance (scipy's own
convergence claim is based on the preconditioned residual), and all
report what they did.

:func:`cylinder_preconditioner` is the fast diagonalization solve of the
fixed form on the parametric cylinder (Sangalli & Tani, SISC 38, 2016;
Loli, Montardini, Sangalli & Tani, CAMWA 80, 2020).  On the free dofs
that form is the Kronecker sum
``(C_t + theta h K_t) (x) M_x + (M_t + theta h C_t^T) (x) K_x`` of the
univariate mass ``M``, stiffness ``K`` and advection
``C[i, j] = int phi_j' phi_i`` matrices.  It is the assembled operator of
a fixed case whose geometry is the identity of the parameter cube, which
:func:`solve_fd` solves with it directly, and a level-robust GMRES
preconditioner on moving cylinders.  The spatial directions are
diagonalized by generalized eigenvectors, and the banded time systems
that remain are factored together as one sparse LU.

On a moving cylinder with d >= 2 the preconditioned GMRES replaces the
sparse LU of the whole space-time matrix from 500 free dofs on
(``harness.FD_MIN_DOFS``), stopping at a true residual of 1e-12 so that
its errors stay within round-off of the LU's.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._batch import _span_rule, _table
from .splines import KnotVector
from .tensor_space import DiscreteSpace, dirichlet_faces

__all__ = [
    'SolveReport',
    'SingularSystemError',
    'ConvergenceError',
    'solve_direct',
    'solve_fd',
    'solve_gmres',
    'cylinder_matrices',
    'cylinder_preconditioner',
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
    residual, wall time and the tolerance it ran at.

    ``method`` is ``'direct'`` (sparse LU), ``'fd'`` (exact fast
    diagonalization) or ``'gmres'``; ``time_s`` includes building the
    fast diagonalization operator for both of the last two.  The two exact
    solves report zero iterations and no tolerance."""

    method: str
    iterations: int
    residual: float
    time_s: float
    tol: float | None = None


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


def _solve_exact(matrix, rhs, method: str, factor):
    """Apply the inverse ``factor(matrix)`` and refine once against ``matrix``.

    ``factor`` is timed with the solve and may raise ``RuntimeError`` on a
    singular system."""
    matrix, rhs = _check(matrix, rhs)
    t0 = time.perf_counter()
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        x = np.zeros_like(rhs)
        return x, SolveReport(method, 0, 0.0, time.perf_counter() - t0)
    try:
        solve = factor(matrix)
        x = solve(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f'{method} solve produced non-finite values')
    residual = rhs - matrix @ x
    if np.linalg.norm(residual) > 1e-14 * scale:
        x = x + solve(residual)
    return x, SolveReport(method, 0, _relative_residual(matrix, rhs, x, scale),
                          time.perf_counter() - t0)


def solve_direct(matrix, rhs):
    """Sparse LU solve with one round of iterative refinement.

    Returns ``(x, SolveReport)``; raises :class:`SingularSystemError` on
    singular factorizations or non-finite results.
    """
    return _solve_exact(matrix, rhs, 'direct', lambda m: spla.splu(m.tocsc()).solve)


def solve_fd(matrix, rhs, space: DiscreteSpace, theta_h: float):
    """Exact fast diagonalization solve of a fixed identity-geometry cylinder.

    ``matrix`` is the reduced fixed form on such a cylinder, which is the
    operator :func:`cylinder_preconditioner` inverts; the operator build
    counts in the reported time.  As in :func:`solve_direct`, one round of
    iterative refinement against ``matrix`` follows when the residual is
    above round-off, and the report carries method ``'fd'`` and zero
    iterations.  Raises :class:`SingularSystemError` on a singular time
    factorization or non-finite results.
    """
    return _solve_exact(matrix, rhs, 'fd',
                        lambda m: cylinder_preconditioner(space, m.shape[0], theta_h).matvec)


def solve_gmres(matrix, rhs, tol: float = 1e-10, restart: int = 50, max_iter: int = 5000,
                preconditioner=None):
    """Restarted GMRES with the stopping test on the true residual.

    One scipy restart cycle at a time; after each cycle the unpreconditioned
    relative residual is recomputed and iteration continues until it drops
    to ``tol`` or the inner-iteration budget ``max_iter`` is spent, which
    raises :class:`ConvergenceError`.  ``preconditioner`` is a function of
    ``matrix`` that builds an operator approximating its inverse, such as
    ``lambda m: cylinder_preconditioner(space, m.shape[0], theta_h)``; the
    build counts in the reported time.  Without one GMRES runs unpreconditioned.

    Returns ``(x, SolveReport)``.
    """
    matrix, rhs = _check(matrix, rhs)
    t0 = time.perf_counter()
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(rhs), SolveReport('gmres', 0, 0.0, time.perf_counter() - t0, tol)
    if preconditioner is not None:
        preconditioner = preconditioner(matrix)

    x = np.zeros_like(rhs)
    inner = 0
    counter = [0]
    scipy_rtol = tol

    def _count(_):
        counter[0] += 1

    while True:
        before = counter[0]
        x, info = spla.gmres(matrix, rhs, x0=x, rtol=scipy_rtol, atol=0.0,
                             restart=restart, maxiter=1, M=preconditioner,
                             callback=_count, callback_type='pr_norm')
        if info < 0:
            raise ConvergenceError(f'GMRES breakdown (info={info})', inner, float('nan'))
        inner = counter[0]
        res = _relative_residual(matrix, rhs, x, scale)
        if res <= tol:
            return x, SolveReport('gmres', inner, res, time.perf_counter() - t0, tol)
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


# ---------------------------------------------------------------------------
# fast diagonalization on the parametric cylinder

def _univariate_matrices(kv: KnotVector):
    """Dense mass, stiffness and advection ``C[i, j] = int phi_j' phi_i`` on [0, 1]."""
    nodes, w = _span_rule(kv, kv.degree + 1)               # (ns, q)
    table = _table(kv, nodes)
    val, der = table.ders[:, :, 0, :], table.ders[:, :, 1, :]
    local = [np.einsum('sq,sqi,sqj->sij', w, a, b)
             for a, b in ((val, val), (der, der), (val, der))]
    idx = table.first[:, None] + np.arange(kv.degree + 1)
    rows, cols = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
    out = []
    for loc in local:
        mat = np.zeros((kv.n, kv.n))
        np.add.at(mat, (rows, cols), loc)
        out.append(mat)
    return tuple(out)


def cylinder_matrices(space: DiscreteSpace):
    """Univariate ``(M, K, C)`` of every direction, restricted to the free indices.

    A direction's free indices are those that no face of
    :func:`~spacetime_iga.tensor_space.dirichlet_faces` pins: the interior
    ones in space and those from 1 on in time.  Their tensor product is
    the free set of :func:`~spacetime_iga.tensor_space.classify_dirichlet`.
    The last entry belongs to time.
    """
    faces = dirichlet_faces(space.ndim)
    out = []
    for a, kv in enumerate(space.knot_vectors):
        keep = slice(int((a, 0) in faces), kv.n - int((a, 1) in faces))
        out.append(tuple(m[keep, keep] for m in _univariate_matrices(kv)))
    return out


def cylinder_preconditioner(space: DiscreteSpace, n_free: int, theta_h: float):
    """Fast diagonalization solve of the fixed form on the parametric cylinder.

    ``space`` is a B-spline solution space, ``n_free`` the size of the
    reduced system and ``theta_h`` the product ``theta h`` of the scheme.
    Returns a :class:`scipy.sparse.linalg.LinearOperator` applying the
    inverse of ``(C_t + s K_t) (x) M_x + (M_t + s C_t^T) (x) K_x``,
    ``s = theta_h``, on the free dofs, for :func:`solve_gmres`.  Raises
    ``ValueError`` when ``n_free`` is not the size of the tensor-product
    free set.

    Each spatial pencil gives ``K_a U_a = M_a U_a diag(lam_a)`` with
    ``U_a^T M_a U_a = I``.  In that basis the operator splits into one
    banded time system ``(C_t + s K_t) + lam (M_t + s C_t^T)`` per spatial
    eigenvalue ``lam``.  Their block-diagonal sum is factored once as one
    sparse LU, about ``6 n_free`` stored numbers at degree 2, and each
    application is one solve with it.
    """
    *spatial, (m_t, k_t, c_t) = cylinder_matrices(space)
    # flat order runs direction 0 fastest, time slowest
    shape = (m_t.shape[0],) + tuple(m.shape[0] for m, _, _ in spatial[::-1])
    if n_free != int(np.prod(shape)):
        raise ValueError(f'the fast diagonalization needs the tensor-product free set of '
                         f'{int(np.prod(shape))} dofs (interior in space, after t = 0 in '
                         f'time), got {n_free} free dofs')
    pairs = [sla.eigh(k, m) for m, k, _ in spatial]
    lam = reduce(np.add.outer, [ev for ev, _ in pairs[::-1]]).ravel()
    time_systems = (sp.kron(sp.identity(lam.size), c_t + theta_h * k_t)
                    + sp.kron(sp.diags(lam), m_t + theta_h * c_t.T))
    lu = spla.splu(time_systems.tocsc())

    def spatial_transform(x, transpose: bool):
        for a, (_, u) in enumerate(pairs):
            axis = len(shape) - 1 - a
            x = np.moveaxis(np.tensordot(u.T if transpose else u, x, axes=(1, axis)), 0, axis)
        return x

    def apply(r):
        y = spatial_transform(np.reshape(r, shape), transpose=True).reshape(shape[0], -1)
        # one time column per spatial eigenvalue, in the block order of the LU
        y = lu.solve(y.ravel(order='F')).reshape(y.shape, order='F')
        return spatial_transform(y.reshape(shape), transpose=False).reshape(r.shape)

    return spla.LinearOperator((n_free, n_free), matvec=apply, dtype=float)
