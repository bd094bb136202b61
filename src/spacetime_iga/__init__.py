"""Stable space-time isogeometric Galerkin method for parabolic problems.

The parameter cube is mapped by a spline/NURBS geometry onto a space-time
cylinder (last coordinate = time); a stabilized Galerkin discretization
of the heat equation is assembled on tensor-product spline spaces, with
variants for fixed and moving spatial domains.
"""
from .assembly import (LinearSystem, ManufacturedCase, NormMatrices, SchemeParams,
                       StabilityWarning, apply_dirichlet, assemble_fixed,
                       assemble_moving, assemble_norm_matrices, boundary_l2_project)
from .geometry import (GeometryMap, PhysicalMesh, SingularGeometryError, eval_geometry,
                       hessian, jacobian, map_point, mesh_metrics, pullback_derivatives)
from .harness import (CaseConfig, CaseDefinition, builtin_cases, emit_csv, load_config,
                      run_case, run_verification, solution_space)
from .linsolve import (ConvergenceError, SingularSystemError, SolveReport,
                       cylinder_preconditioner, solve_direct, solve_gmres)
from .postproc import (ConvergenceReport, DiscreteField, LevelRecord, a_priori_theta_bound,
                       error_energy, error_l2, estimate_inverse_constant, mesh_ratio, rates)
from .quadrature import QuadratureRule, gauss_1d
from .splines import (BasisEvalRow, KnotVector, eval_basis, find_span, refine_uniform,
                      single_span)
from .tensor_space import DiscreteSpace, DofMap, classify_dirichlet, point_rows, tensor_basis

__version__ = '0.1.0'
