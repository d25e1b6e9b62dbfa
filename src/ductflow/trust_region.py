"""Trust-region SQP solver for the constrained stress minimisation.

The outer loop keeps every iterate on the momentum manifold ``D tau =
f_h`` (the starting point is projected onto it and all steps lie in
``null(D)``), so each iteration only solves the tangential subproblem

    min  s^T grad J + 1/2 s^T hess J s   s.t.  D s = 0,  |s| <= delta

by a projected CG-Steihaug iteration (Steihaug 1983; Nocedal & Wright,
Alg. 7.2).  Both of its tests are scale-free: a direction ``d`` counts as
one of non-positive curvature when its Rayleigh quotient
``d^T H d / d^T d`` is below ``_DIVTOL``, and the outer loop stops CG once
the projected residual has fallen to ``_CG_FORCING = 0.5`` of its start,
an inexact-Newton forcing term.  Steps are accepted and the radius
updated from the ratio ``rho = ared/pred`` of actual to model decrease,
with thresholds 0.9 / 0.3 for radius growth and ``_ETA`` for acceptance.

Convergence is declared when the stationarity residual
``max |grad J - D^T y|`` drops below ``abstol`` and the recovered
velocity is stable, ``|y_k - y_(k-1)| <= reltol |y_k|``.  A non-finite
stationarity residual stops the loop with status ``non_finite``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .fem import DiscreteOperators
from .objective import FluidParams, gradient, hessian, hessian_apply, objective
from .report import SolveReport

# Projected CG iterates drift out of null(D) through the residual
# recurrence; re-project the accumulated step this often.
_REPROJECT_EVERY = 50

_ARMIJO_MAX_HALVINGS = 60

# Inexact-Newton forcing term of the outer loop: CG stops once the
# projected residual is below this share of its start, the cap in
# Nocedal & Wright's min(0.5, sqrt|g|) rule.  Solving each subproblem
# accurately instead costs thousands of CG iterations far from the solution.
_CG_FORCING = 0.5

# Least Rayleigh quotient d^T H d / d^T d of a CG direction that counts as
# positive curvature; relative to |d|^2, so it does not fire merely
# because the projected gradient has become small.
_DIVTOL = 1e-10

# Armijo fraction of the boundary step taken along a curvature direction.
_GAMMA = 1e-2

# Least ared/pred of an accepted step (Nocedal & Wright, Alg. 4.1).
_ETA = 0.1

# Initial and largest trust radius (Nocedal & Wright, Alg. 4.1).
_DELTA0 = 10.0
_DELTA_MAX = 1e5

# CG iterations allowed per triangle in one subproblem.  null(D) has
# fewer than 2 dimensions per triangle, which bounds CG in exact
# arithmetic; the rest is room for rounding.
_CG_PER_TRIANGLE = 10


@dataclass
class TrsConfig:
    """Stopping tolerances and the outer-iteration cap.

    ``abstol`` bounds the stationarity residual, and CG returns the zero
    step when the projected gradient is already below it.  ``reltol``
    bounds the relative velocity increment between outer iterations.
    """

    abstol: float = 1e-4
    reltol: float = 1e-4
    max_outer: int = 500

    def __post_init__(self):
        if not all(0.0 < tol < math.inf for tol in (self.abstol, self.reltol)):
            raise ValueError("tolerances must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


def _boundary_intersection(z: np.ndarray, d: np.ndarray, delta: float) -> float:
    """Positive root ``s`` of ``|z + s d| = delta`` for ``|z| < delta``.

    Uses the sign-aware quadratic formula to avoid cancellation.
    """
    a = float(d @ d)
    b = 2.0 * float(z @ d)
    c = float(z @ z) - delta * delta
    if a == 0.0:
        return 0.0
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    if b >= 0.0:
        return -2.0 * c / (b + disc)
    return (disc - b) / (2.0 * a)


def cg_steihaug(ops: DiscreteOperators, grad: np.ndarray, projected: np.ndarray,
                hess: np.ndarray, delta: float, abstol: float, forcing: float,
                callback=None):
    """Approximately solve the tangential trust-region subproblem.

    ``projected`` is the projected gradient ``P grad`` onto null(D).
    Returns ``(step, exit_reason, inner_iterations)`` with reason one of
    ``converged`` (projected residual reduced below ``forcing`` of its
    start, or already below ``abstol`` -- then the step is zero and the
    count 0), ``boundary`` (iterate left the trust ball), ``curvature``
    (Rayleigh quotient ``d^T H d / d^T d`` of a direction below
    ``_DIVTOL``; the boundary step is Armijo-backtracked) or ``cap``
    (``_CG_PER_TRIANGLE`` iterations per triangle).  Apart from the
    ``abstol`` shortcut, every test is invariant under scaling ``grad``:
    a scaled gradient gives the same exit and count and the same step,
    scaled.

    ``callback``, if given, receives every new accumulated step,
    including the returned one.
    """
    n = grad.shape[0]
    z = np.zeros(n)
    r = np.array(grad, dtype=float)
    g = projected
    d = -g
    # g^T r equals |g|^2 for an orthogonal projection; the |g|^2 form
    # avoids the eps*|r|^2 rounding floor of the mixed product (r keeps
    # its large range(D^T) part by construction).
    gr = float(g @ g)

    sqrt_gr0 = math.sqrt(gr)
    if sqrt_gr0 < abstol:
        return z, "converged", 0

    max_cg = _CG_PER_TRIANGLE * ops.tri.n_triangles
    for j in range(max_cg):
        h_d = hessian_apply(hess, d)
        curvature = float(d @ h_d)

        if curvature < _DIVTOL * float(d @ d):
            s = _boundary_intersection(z, d, delta)
            # model slope at z along d; Armijo guards against tiny
            # positive curvature making the full boundary step uphill
            slope = float((grad + hessian_apply(hess, z)) @ d)
            for _ in range(_ARMIJO_MAX_HALVINGS):
                if s * slope + 0.5 * s * s * curvature <= _GAMMA * s * slope:
                    break
                s *= 0.5
            else:
                return np.zeros(n), "curvature", j + 1
            step = z + s * d
            if callback is not None:
                callback(step)
            return step, "curvature", j + 1

        alpha = gr / curvature
        z_trial = z + alpha * d
        if float(np.linalg.norm(z_trial)) >= delta:
            s = _boundary_intersection(z, d, delta)
            step = z + s * d
            if callback is not None:
                callback(step)
            return step, "boundary", j + 1

        z = z_trial
        if (j + 1) % _REPROJECT_EVERY == 0:
            z = ops.project_nullspace(z)
        if callback is not None:
            callback(z)

        r = r + alpha * h_d
        g = ops.project_nullspace(r)
        gr_next = float(g @ g)
        if gr_next == 0.0 or math.sqrt(gr_next) < forcing * sqrt_gr0:
            return z, "converged", j + 1
        d = -g + (gr_next / gr) * d
        gr = gr_next

    return z, "cap", max_cg


def update_radius(delta: float, ared: float, pred: float, step_norm: float):
    """Accept/reject a trial step and rescale the trust radius.

    The shrink on rejection uses the norm of the rejected trial step.
    ``pred <= 0`` (possible only through rounding) is treated as a failed
    model, i.e. rejection with the maximal shrink factor 0.1.
    """
    rho = ared / pred if pred > 0.0 else -math.inf
    if not math.isfinite(rho):
        rho = -math.inf

    if rho >= 0.9:
        return True, min(max(10.0 * step_norm, delta), _DELTA_MAX)
    if rho >= 0.3:
        return True, min(max(2.0 * step_norm, delta), _DELTA_MAX)
    if rho >= _ETA:
        return True, delta
    factor = max(0.1, min(0.5, (1.0 - _ETA) / (1.0 - rho)))
    return False, factor * step_norm


def solve_trs(params: FluidParams, ops: DiscreteOperators,
              tau_init: np.ndarray | None = None, cfg: TrsConfig | None = None):
    """Run the outer trust-region loop.

    Returns ``(tau, y, report)`` where ``tau`` is the final feasible
    stress, ``y`` the least-squares velocity recovered from it and
    ``report`` the full iteration record.  Non-convergence within
    ``max_outer`` passes, or a non-finite residual, is reported, not
    raised.
    """
    cfg = cfg if cfg is not None else TrsConfig()
    start = time.perf_counter()

    if tau_init is None:
        tau_init = np.zeros(ops.n_stress)
    tau = ops.project_feasible(tau_init)
    delta = _DELTA0

    report = SolveReport()
    y = np.zeros(ops.n_free)
    y_prev = None

    for k in range(cfg.max_outer):
        grad = gradient(params, ops, tau)
        y = ops.recover_velocity(grad)
        # grad - D^T (D D^T)^-1 D grad: the projected gradient CG starts from
        stationarity = grad - ops.DT @ y
        kkt = float(np.max(np.abs(stationarity))) if stationarity.size else 0.0
        value = objective(params, ops, tau)

        report.kkt_history.append(kkt)
        report.objective_history.append(value)
        report.radius_history.append(delta)
        report.feasibility_history.append(ops.momentum_residual(tau))

        if not math.isfinite(kkt):
            report.status = "non_finite"
            report.iterations = k + 1
            break
        if (kkt <= cfg.abstol and y_prev is not None
                and float(np.linalg.norm(y - y_prev)) <= cfg.reltol * float(np.linalg.norm(y))):
            report.status = "converged"
            report.iterations = k + 1
            break
        y_prev = y

        hess = hessian(params, ops, tau)
        step, reason, inner = cg_steihaug(ops, grad, stationarity, hess, delta,
                                          cfg.abstol, _CG_FORCING)
        report.cg_iterations.append((inner, reason))

        if inner == 0 and reason == "converged":
            # Projected gradient already below abstol.  At k = 0 there is
            # no previous velocity to compare against, so this is the
            # converged state; later on the unchanged iterate satisfies
            # the velocity test on the next pass.
            if k == 0:
                report.status = "converged"
                report.iterations = 1
                break
            continue

        step_norm = float(np.linalg.norm(step))
        if step_norm == 0.0:
            # Armijo exhaustion returned the zero step; shrink directly
            # since a zero trial norm would collapse the radius update.
            report.rejected_steps += 1
            delta = 0.5 * delta
            continue

        ared = value - objective(params, ops, tau + step)
        pred = -float(step @ grad) - 0.5 * float(step @ hessian_apply(hess, step))
        accepted, delta = update_radius(delta, ared, pred, step_norm)
        if accepted:
            tau = tau + step
            report.accepted_steps += 1
        else:
            report.rejected_steps += 1
    else:
        report.status = "max_iterations"
        report.iterations = cfg.max_outer

    report.wall_time = time.perf_counter() - start
    return tau, y, report
