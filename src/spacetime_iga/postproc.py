"""Error measures, convergence rates and stability constants.

Errors against a manufactured solution are integrated with a Gauss rule one
point per direction richer than assembly, so the reported norms are not
polluted by the integration of the scheme itself.  Both norms come from one
pass (:func:`error_norms`): the discrete solution and the map are evaluated
on the global Gauss grid, slab by slab of time spans, by the one
sum-factorized field kernel of the internal ``_batch`` module
(``ElementBatcher.grid_slabs``); only the inverse-constant estimate builds
the full basis blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batch import ElementBatcher
from .assembly import ManufacturedCase, SchemeParams
from .geometry import GeometryMap, PhysicalMesh
from .linsolve import SolveReport, _pencil_eigh
from .tensor_space import DiscreteSpace

__all__ = [
    'DiscreteField',
    'LevelRecord',
    'ConvergenceReport',
    'error_norms',
    'error_l2',
    'error_energy',
    'rates',
    'estimate_inverse_constant',
    'mesh_ratio',
    'a_priori_theta_bound',
]


@dataclass(frozen=True)
class DiscreteField:
    """Spline/NURBS function given by coefficients over a space."""

    space: DiscreteSpace
    geom: GeometryMap
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coefficients, dtype=float))
        if c.shape != (self.space.dim,):
            raise ValueError(f'coefficients must have shape ({self.space.dim},), got {c.shape}')
        object.__setattr__(self, 'coefficients', c)


def _error_orders(space, orders=None):
    return [p + 2 for p in space.degrees] if orders is None else orders


def error_norms(field: DiscreteField, case: ManufacturedCase, params: SchemeParams,
                moving: bool | None = None, orders=None) -> tuple[float, float]:
    """``(L2, energy)`` norms of the error from one pass over the volume's Gauss grid and one
    over the terminal face, each slab bringing ``u_h`` with its gradient and the exact
    solution from one ``case.solution`` call.

    The L2 norm is taken over the cylinder.  The fixed-domain energy norm integrates
    ``|grad_x e|^2 + theta*h (dt e)^2`` over the cylinder plus ``e^2 / 2`` on the terminal
    face; the moving variant (default when the case moves) adds ``theta*h |grad_x e|^2`` on
    the terminal face.
    """
    moving = case.moving if moving is None else moving
    th, d, c = params.theta * params.h, field.space.ndim - 1, field.coefficients
    batcher = ElementBatcher(field.space, field.geom, _error_orders(field.space, orders))
    l2 = energy = 0.0
    for s in batcher.grid_slabs(need=1, coefficients=c):
        u, grad = case.solution(s.x.T)
        l2 += float(np.sum(s.w * (s.val - u) ** 2))
        e_gx, e_t = s.grad[:d] - grad[:, :d].T, s.grad[d] - grad[:, d]
        energy += float(np.sum(s.w * ((e_gx**2).sum(axis=0) + th * e_t**2)))
    for s in batcher.grid_slabs(need=1 if moving else 0, coefficients=c, face=(d, 1)):
        u, grad = case.solution(s.x.T)
        energy += 0.5 * float(np.sum(s.w * (s.val - u) ** 2))
        if moving:
            e_gx = s.grad[:d] - grad[:, :d].T
            energy += th * float(np.sum(s.w * (e_gx**2).sum(axis=0)))
    return np.sqrt(l2), np.sqrt(energy)


def error_l2(field: DiscreteField, case: ManufacturedCase) -> float:
    """L2(Q) distance between the field and the exact solution: :func:`error_norms`'s first."""
    return error_norms(field, case, SchemeParams(1.0, 1.0), moving=False)[0]


def error_energy(field: DiscreteField, case: ManufacturedCase, params: SchemeParams,
                 moving: bool | None = None, orders=None) -> float:
    """Discrete energy norm of the error: :func:`error_norms`'s second."""
    return error_norms(field, case, params, moving, orders)[1]


def rates(errors) -> np.ndarray:
    """Dyadic convergence rates ``log2(e_{k-1} / e_k)``; first entry 0.

    Levels with non-positive errors on either side get NaN.
    """
    errors = np.asarray(errors, dtype=float)
    out = np.zeros(errors.size)
    for k in range(1, errors.size):
        if errors[k - 1] > 0.0 and errors[k] > 0.0:
            out[k] = np.log2(errors[k - 1] / errors[k])
        else:
            out[k] = np.nan
    return out


def estimate_inverse_constant(space: DiscreteSpace, geom: GeometryMap,
                              mesh: PhysicalMesh) -> float:
    """Estimate of the inverse-inequality constant of the space.

    For each element the largest generalized eigenvalue of the local
    (full space-time) stiffness against the local mass matrix bounds
    ``||grad v|| / ||v||``; scaled by the element size it gives the
    sampled constant ``C`` with ``||grad v||_K <= C / h_K ||v||_K``.
    """
    batcher = ElementBatcher(space, geom, _error_orders(space))
    worst = 0.0
    for blk in batcher.blocks(need=1):
        E, q, m, nd = blk.grad.shape
        gw = (blk.grad * blk.w[:, :, None, None]).transpose(0, 2, 1, 3).reshape(E, m, q * nd)
        stiff = gw @ blk.grad.transpose(0, 1, 3, 2).reshape(E, q * nd, m)
        mass = np.swapaxes(blk.val * blk.w[:, :, None], 1, 2) @ blk.val
        lam = _pencil_eigh(stiff, mass, eigvals_only=True)[:, -1]
        worst = max(worst, float(np.max(mesh.h_elem[blk.index] * np.sqrt(np.maximum(lam, 0.0)))))
    return float(worst)


def mesh_ratio(mesh: PhysicalMesh) -> float:
    """Quasi-uniformity ratio ``h / min_K h_K``."""
    return float(mesh.h / mesh.h_elem.min())


def a_priori_theta_bound(c_inv: float, mesh: PhysicalMesh) -> float:
    """Admissible theta ``1 / (2 C_inv C_u)`` of the moving-domain form.

    ``c_inv`` is an inverse-constant estimate (:func:`estimate_inverse_constant`),
    possibly of a coarser level, and ``C_u`` the mesh ratio of ``mesh``.
    """
    return 1.0 / (2.0 * c_inv * mesh_ratio(mesh))


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level of a convergence study."""

    level: int
    dofs: int
    h: float
    error_l2: float
    rate_l2: float
    error_energy: float
    rate_energy: float
    solve: SolveReport


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level records of one case/degree run."""

    case: str
    degree: int
    theta: float
    moving: bool
    records: tuple

    @property
    def errors_l2(self) -> np.ndarray:
        return np.array([r.error_l2 for r in self.records])

    @property
    def errors_energy(self) -> np.ndarray:
        return np.array([r.error_energy for r in self.records])
