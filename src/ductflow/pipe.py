"""Closed-form velocity profile for the unit circular pipe.

For unit consistency and unit driving force the axial velocity depends
only on the radius ``R``.  With plug radius ``R0 = 2 tau0`` and exponent
``beta = 1/(alpha - 1)``:

    y(R) = C (1 - R0)^(1+beta)                          for R <= R0
    y(R) = C ((1 - R0)^(1+beta) - (R - R0)^(1+beta))    for R0 < R <= 1

with ``C = 1 / (2^beta (1 + beta))``.  For ``R0 >= 1`` the whole
cross-section is below the yield stress and the flow is arrested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Triangulation
from .objective import FluidParams

# Mesh rounding may put boundary nodes a hair outside the unit circle.
_RADIUS_SLACK = 1e-12


@dataclass(frozen=True)
class PipeSolution:
    """Analytic solution handle; only valid for kappa = 1, f = 1."""

    params: FluidParams
    beta: float = field(init=False)
    plug_radius: float = field(init=False)

    def __post_init__(self):
        if self.params.kappa != 1.0:
            raise ValueError(
                "the closed-form pipe profile assumes unit consistency; "
                f"got kappa = {self.params.kappa}"
            )
        object.__setattr__(self, "beta", 1.0 / (self.params.alpha - 1.0))
        object.__setattr__(self, "plug_radius", 2.0 * self.params.tau0)


def exact_velocity(sol: PipeSolution, radius):
    """Velocity at radius (scalar or array) in [0, 1]."""
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0 + _RADIUS_SLACK):
        raise ValueError("radius outside [0, 1]")
    r = np.minimum(r, 1.0)

    beta = sol.beta
    r0 = sol.plug_radius
    if r0 >= 1.0:
        return np.zeros_like(r) if r.ndim else 0.0

    try:
        coeff = 1.0 / (2.0 ** beta * (1.0 + beta))
    except OverflowError:  # alpha within 1/1023 of 1; 2^-beta only underflows
        coeff = 0.5 ** beta / (1.0 + beta)
    plug_value = coeff * (1.0 - r0) ** (1.0 + beta)
    values = plug_value - coeff * np.maximum(r - r0, 0.0) ** (1.0 + beta)
    return values if r.ndim else float(values)


def relative_error(y_num: np.ndarray, tri: Triangulation, sol: PipeSolution) -> float:
    """Euclidean relative error of free-node velocities against the profile."""
    coords = tri.nodes[tri.free_nodes]
    radii = np.hypot(coords[:, 0], coords[:, 1])
    exact = exact_velocity(sol, radii)
    norm_exact = float(np.linalg.norm(exact))
    if norm_exact == 0.0:
        raise ValueError("analytic velocity vanishes; relative error undefined")
    return float(np.linalg.norm(np.asarray(y_num, dtype=float) - exact)) / norm_exact


def relative_difference(y_a: np.ndarray, y_b: np.ndarray) -> float:
    """Euclidean relative difference ``|y_a - y_b| / |y_b|``."""
    y_a = np.asarray(y_a, dtype=float)
    y_b = np.asarray(y_b, dtype=float)
    if y_a.shape != y_b.shape:
        raise ValueError(f"shape mismatch: {y_a.shape} vs {y_b.shape}")
    norm_b = float(np.linalg.norm(y_b))
    if norm_b == 0.0:
        raise ValueError("reference velocity vanishes; relative difference undefined")
    return float(np.linalg.norm(y_a - y_b)) / norm_b
