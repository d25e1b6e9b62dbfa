"""Viscoplastic duct flow in stress variables.

Stationary Bingham and shear-thinning Herschel-Bulkley flow through a
duct cross-section, discretised with P1 velocities and P0 stresses and
solved either by a trust-region SQP method on the constrained stress
minimisation or by the classical alternating-direction augmented
Lagrangian (ALG2).
"""

from .augmented_lagrangian import Alg2Config, ShrinkConvergenceError, solve_alg2
from .fem import DiscreteOperators, FactorizationError, assemble
from .mesh import (MeshError, Triangulation, generate_disk_mesh, generate_square_mesh, load_mesh,
                   save_mesh)
from .objective import FluidParams, block_norms, gradient, hessian, hessian_apply, objective
from .pipe import PipeSolution, exact_velocity, relative_difference, relative_error
from .report import SolveReport
from .trust_region import TrsConfig, cg_steihaug, solve_trs, update_radius

__all__ = [
    "Alg2Config", "DiscreteOperators", "FactorizationError", "FluidParams",
    "MeshError", "PipeSolution", "ShrinkConvergenceError", "SolveReport", "Triangulation",
    "TrsConfig",
    "assemble", "block_norms", "cg_steihaug",
    "exact_velocity", "generate_disk_mesh", "generate_square_mesh", "gradient", "hessian",
    "hessian_apply", "load_mesh", "objective",
    "relative_difference", "relative_error", "save_mesh",
    "solve_alg2", "solve_trs", "update_radius",
]

__version__ = "0.1.0"
