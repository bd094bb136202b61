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
that remain are factored together as one banded LU (LAPACK ``dgbtrf``),
``O(n_free p)`` numbers stored.  The spatial pencils run on numpy's LAPACK
(:func:`_pencil_eigh`): numpy and scipy load separate OpenBLAS builds with
separate thread pools, and a threaded scipy call in a solve left scipy's
workers spinning against the GMRES loop's numpy products.  The banded pair,
scipy's, runs on one thread at half-bandwidth ``p``.
:func:`cylinder_operator` applies the same form over all dofs by mode
products on the univariate factors (matrix-free IgA, Sangalli & Tani,
CMAME 338, 2018), so that a level solved by the fast
diagonalization needs no space-time matrix: the Dirichlet lifting and the
residual of the refinement are products with it.  The univariate factors
are integrated on their bands by the assembly's band operators.

On every cylinder it does not invert, moving or mapped, the preconditioned
GMRES replaces the sparse LU of the whole space-time matrix from 500 free
dofs on (``harness.FD_MIN_DOFS``), stopping at a true residual of 1e-12 so
that its errors stay within round-off of the LU's.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from ._batch import _band_operator, _level_table, _memo
from .tensor_space import DiscreteSpace, dirichlet_faces

__all__ = [
    'SolveReport',
    'SingularSystemError',
    'ConvergenceError',
    'solve_direct',
    'solve_fd',
    'solve_gmres',
    'cylinder_operator',
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


def _check(matrix, rhs, operators: bool = False):
    """``(matrix, rhs)`` as CSR and float, checked; ``operators`` admits a
    :class:`scipy.sparse.linalg.LinearOperator` as it is."""
    if not (sp.issparse(matrix) or operators and isinstance(matrix, spla.LinearOperator)):
        raise TypeError('matrix must be a scipy sparse matrix'
                        + (' or a LinearOperator' if operators else ''))
    n, m = matrix.shape
    if n != m:
        raise ValueError(f'matrix must be square, got {matrix.shape}')
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f'rhs must have shape ({n},), got {rhs.shape}')
    return (matrix.tocsr() if sp.issparse(matrix) else matrix), rhs


def _relative_residual(matrix, rhs, x, scale) -> float:
    return float(np.linalg.norm(rhs - matrix @ x) / scale)


def _solve_exact(matrix, rhs, method: str, factor):
    """Apply the inverse ``factor(matrix)`` and refine once against ``matrix``.

    ``factor`` is timed with the solve and may raise ``RuntimeError`` on a
    singular system."""
    matrix, rhs = _check(matrix, rhs, operators=method == 'fd')
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


def _solve_spd(matrix, rhs):
    """:func:`solve_direct` of a symmetric positive definite system: SuperLU in symmetric
    mode, ordered on ``A + A^T`` and pivoting on the diagonal, which such a system allows.
    The space-time matrices are nonsymmetric and keep :func:`solve_direct`."""
    return _solve_exact(matrix, rhs, 'direct', lambda m: spla.splu(
        m.tocsc(), permc_spec='MMD_AT_PLUS_A', diag_pivot_thresh=0.0,
        options={'SymmetricMode': True}).solve)


def solve_fd(matrix, rhs, space: DiscreteSpace, theta_h: float):
    """Exact fast diagonalization solve of a fixed identity-geometry cylinder.

    ``matrix`` is the reduced fixed form on such a cylinder, which is the
    operator :func:`cylinder_preconditioner` inverts: the assembled CSR, or
    matrix-free the restriction of :func:`cylinder_operator` to the free
    dofs.  The inverse's build counts in the reported time.  As in
    :func:`solve_direct`, one round of iterative refinement against
    ``matrix`` follows when the residual is above round-off, and the report
    carries method ``'fd'``, zero iterations and the true relative residual
    against ``matrix``.  Raises :class:`SingularSystemError` on a singular
    time factorization or non-finite results.
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

def _univariate_bands(space: DiscreteSpace, a: int):
    """Mass ``M``, stiffness ``K``, advection ``C[i, j] = int phi_j' phi_i`` and ``C^T`` of
    direction ``a`` on [0, 1] as band rows ``(n, 2p + 1)``, entry ``(i, o)`` holding matrix
    entry ``(i, i + o - p)``: each one :func:`~spacetime_iga._batch._band_operator` product
    with the ``p + 1``-point Gauss weights, kept in the level's store."""
    kv = space.knot_vectors[a]

    def build():
        weights, table = _level_table(space, kv, kv.degree + 1)
        return tuple((_band_operator(table, *pair) @ weights.ravel()).reshape(kv.n, -1)
                     for pair in ((0, 0), (1, 1), (0, 1), (1, 0)))
    return _memo(space._univariate, ('bands', kv.knots.tobytes()), build)


def _dense(band: np.ndarray) -> np.ndarray:
    """The square matrix of band rows ``(n, 2p + 1)``; entries outside it are dropped."""
    n, width = band.shape
    out, i = np.zeros((n, n + width - 1)), np.arange(n)[:, None]
    out[i, i + np.arange(width)] = band                      # column j + p
    return out[:, width // 2:n + width // 2]


def _gbtrf_storage(band: np.ndarray) -> np.ndarray:
    """LAPACK ``gbtrf`` storage of band rows ``(n, 2p + 1)``, ``kl = ku = p``, transposed to
    ``(n, 3p + 1)``: matrix entry ``(i, j)`` at ``[j, 2p + i - j]``, the first ``p`` of each
    row left for the fill-in; entries outside the square are dropped."""
    n, width = band.shape
    o, i = np.arange(width), np.arange(n)[:, None]
    out = np.zeros((n + width - 1, 3 * (width // 2) + 1))
    out[i + o, 3 * (width // 2) - o] = band                  # row j + p
    return out[width // 2:n + width // 2]


def _free_indices(space: DiscreteSpace, a: int) -> slice:
    """The indices of direction ``a`` that no face of
    :func:`~spacetime_iga.tensor_space.dirichlet_faces` pins: the interior ones in space and
    those from 1 on in time."""
    faces = dirichlet_faces(space.ndim)
    return slice(int((a, 0) in faces), space.dims[a] - int((a, 1) in faces))


def _pencil_eigh(k: np.ndarray, m: np.ndarray, eigvals_only: bool = False):
    """Eigenvalues, ascending, and ``M``-orthonormal eigenvectors of the symmetric-definite
    pencils ``(K, M)``, stacked on leading axes, by numpy's LAPACK.

    With ``M = L L^T`` the pencil has the eigenvalues of ``A = L^{-1} K L^{-T}``; the
    eigenvectors ``W`` of ``A`` give ``U = L^{-T} W``, ``U^T M U = I``.  ``L^{-1}`` is
    formed once and applied by products.  ``eigvals_only`` returns the eigenvalues alone.
    """
    inv = np.linalg.inv(np.linalg.cholesky(m))
    inv_t = np.swapaxes(inv, -1, -2)
    reduced = inv @ k @ inv_t
    if eigvals_only:
        return np.linalg.eigvalsh(reduced)
    lam, w = np.linalg.eigh(reduced)
    return lam, inv_t @ w


def _mode_products(x: np.ndarray, matrices) -> np.ndarray:
    """``x`` ``(n_last, ..., n_0)`` times ``matrices[a]``, dense or sparse, along the axis of
    each direction ``a`` from 0 on."""
    for a, u in enumerate(matrices):
        moved = np.moveaxis(x, x.ndim - 1 - a, 0)
        y = u @ moved.reshape(moved.shape[0], -1)
        x = np.moveaxis(y.reshape(-1, *moved.shape[1:]), 0, x.ndim - 1 - a)
    return x


def cylinder_matrices(space: DiscreteSpace, free: bool = True):
    """Dense univariate ``(M, K, C)`` of every direction, the last entry time's.

    With ``free`` they are restricted to a direction's free indices, those that no face of
    :func:`~spacetime_iga.tensor_space.dirichlet_faces` pins: the interior ones in space and
    those from 1 on in time.  Their tensor product is the free set of
    :func:`~spacetime_iga.tensor_space.classify_dirichlet`.
    """
    out = []
    for a in range(space.ndim):
        keep = _free_indices(space, a) if free else slice(None)
        out.append(tuple(_dense(b)[keep, keep] for b in _univariate_bands(space, a)[:3]))
    return out


def cylinder_operator(space: DiscreteSpace, theta_h: float):
    """The fixed form on the identity cylinder over all dofs of ``space``, matrix-free.

    Returns a :class:`scipy.sparse.linalg.LinearOperator` applying
    ``(C_t + s K_t) (x) M_x + (M_t + s C_t^T) (x) K_x``, ``s = theta_h``, with
    ``M_x = M_{d-1} (x) ... (x) M_0`` and ``K_x`` the sum over spatial directions of the same
    product with one ``M`` replaced by ``K``: one mode product per direction and term with the
    unrestricted :func:`cylinder_matrices`, held sparse (Sangalli & Tani, CMAME 338, 2018).
    It is the matrix :func:`~spacetime_iga.assembly.assemble_fixed` assembles on a map that is
    the identity of the parameter cube.
    """
    *spatial, (m_t, k_t, c_t) = ([sp.csr_matrix(m) for m in mats]
                                 for mats in cylinder_matrices(space, free=False))
    masses = [m for m, _, _ in spatial]
    terms = [[*masses, c_t + theta_h * k_t]]
    terms += [[*masses[:a], k, *masses[a + 1:], m_t + theta_h * c_t.T]
              for a, (_, k, _) in enumerate(spatial)]
    shape = space.dims[::-1]

    def apply(v):
        x = np.reshape(v, shape)
        return sum(_mode_products(x, t) for t in terms).reshape(v.shape)

    return spla.LinearOperator((space.dim,) * 2, matvec=apply, dtype=float)


def cylinder_preconditioner(space: DiscreteSpace, n_free: int, theta_h: float):
    """Fast diagonalization solve of the fixed form on the parametric cylinder.

    ``space`` is a B-spline solution space, ``n_free`` the size of the
    reduced system and ``theta_h`` the product ``theta h`` of the scheme.
    Returns a :class:`scipy.sparse.linalg.LinearOperator` applying the
    inverse of ``(C_t + s K_t) (x) M_x + (M_t + s C_t^T) (x) K_x``,
    ``s = theta_h``, on the free dofs, for :func:`solve_gmres` and :func:`solve_fd`.
    Raises ``ValueError`` when ``n_free`` is not the size of the
    tensor-product free set, and :class:`SingularSystemError` when a time
    system is singular.

    Each spatial pencil gives ``K_a U_a = M_a U_a diag(lam_a)`` with
    ``U_a^T M_a U_a = I`` (:func:`_pencil_eigh`).  In that basis the operator splits into one
    time system ``(C_t + s K_t) + lam (M_t + s C_t^T)`` of half-bandwidth
    ``p`` per spatial eigenvalue ``lam``.  Stacked eigenvalue-major they
    are one band matrix, factored once by LAPACK ``dgbtrf`` from the time
    direction's band rows (:func:`_univariate_bands`) into ``(3p + 1) n_free``
    stored numbers; each application is one ``dgbtrs``.
    """
    *spatial, _ = cylinder_matrices(space)
    t = space.ndim - 1
    keep = _free_indices(space, t)
    m_t, k_t, c_t, ct_t = (band[keep] for band in _univariate_bands(space, t))
    # flat order runs direction 0 fastest, time slowest
    shape = (m_t.shape[0],) + tuple(m.shape[0] for m, _, _ in spatial[::-1])
    if n_free != int(np.prod(shape)):
        raise ValueError(f'the fast diagonalization needs the tensor-product free set of '
                         f'{int(np.prod(shape))} dofs (interior in space, after t = 0 in '
                         f'time), got {n_free} free dofs')
    pairs = [_pencil_eigh(k, m) for m, k, _ in spatial]
    lam = reduce(np.add.outer, [ev for ev, _ in pairs[::-1]]).ravel()
    # row k n_t + j of the transposed storage is column j of the time system of eigenvalue k;
    # its transpose is Fortran-ordered, and factored in place
    a_t, b_t = _gbtrf_storage(c_t + theta_h * k_t), _gbtrf_storage(m_t + theta_h * ct_t)
    band = lam[:, None, None] * b_t
    band += a_t
    p = space.degrees[t]
    lu, piv, info = dgbtrf(band.reshape(-1, a_t.shape[1]).T, p, p, overwrite_ab=True)
    if info > 0:
        raise SingularSystemError(f'time system factorization is singular (dgbtrf info {info})')

    def apply(r):
        y = _mode_products(np.reshape(r, shape), [u.T for _, u in pairs])
        # one time column per spatial eigenvalue, in the block order of the band
        y = np.ascontiguousarray(y.reshape(shape[0], -1).T).reshape(-1, 1)
        y, _ = dgbtrs(lu, p, p, y, piv, overwrite_b=True)
        y = y.reshape(-1, shape[0]).T.reshape(shape)
        return _mode_products(y, [u for _, u in pairs]).reshape(r.shape)

    return spla.LinearOperator((n_free, n_free), matvec=apply, dtype=float)
