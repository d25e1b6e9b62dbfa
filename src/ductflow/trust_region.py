"""Trust-region SQP solver for the constrained stress minimisation.

The outer loop keeps every iterate on the momentum manifold ``D tau =
f_h`` (the starting point is projected onto it and all steps lie in
``null(D)``), so each iteration only solves the tangential subproblem

    min  s^T grad J + 1/2 s^T hess J s   s.t.  D s = 0,  |s| <= delta

by a projected CG-Steihaug iteration (Steihaug 1983; Nocedal & Wright,
Alg. 7.2).  Both of its tests are scale-free: a direction ``d`` counts as
flat when its Rayleigh quotient ``d^T H d / d^T d`` is below
``_DIVTOL``, and the outer loop stops CG once the projected residual has
fallen to ``_CG_FORCING = 0.5`` of its start, an inexact-Newton forcing
term.  Steps are accepted and the radius updated from the ratio
``rho = ared/pred`` of actual to model decrease, with thresholds
0.9 / 0.3 for radius growth and ``_ETA`` for acceptance.

Each iterate is evaluated once.  The first pass at an iterate computes
its gradient, recovered velocity, stationarity vector and momentum
residual, and builds its Hessian before running CG; its objective value
is the trial value that accepted it (only the start point gets an
``objective`` call of its own).  A rejected step changes only the radius,
so the pass after it reuses all of these and re-runs only CG and the
trial objective (Nocedal & Wright, Alg. 4.1).

Convergence is declared when the projected gradient
``grad J - D^T y`` has Euclidean norm below ``abstol``, or when the
stationarity residual ``max |grad J - D^T y|`` is below ``abstol`` and
the recovered velocity is stable, ``|y_k - y_(k-1)| <= reltol |y_k|``.
A non-finite stationarity residual, model decrease or step norm stops
the loop with status ``non_finite``; a rejected step whose model
decrease is below the rounding of ``J`` (``pred <= 8 eps |J|``) stops it
with status ``stalled``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .fem import DiscreteOperators
from .objective import FluidParams, gradient, hessian, hessian_apply, objective
from .report import SolveReport, check_max_outer

# Projected CG iterates drift out of null(D) through the residual
# recurrence; re-project the accumulated step this often.
_REPROJECT_EVERY = 50

# Inexact-Newton forcing term of the outer loop: CG stops once the
# projected residual is below this share of its start, the cap in
# Nocedal & Wright's min(0.5, sqrt|g|) rule.  Solving each subproblem
# accurately instead costs thousands of CG iterations far from the solution.
_CG_FORCING = 0.5

# Least Rayleigh quotient d^T H d / d^T d of a CG direction that counts as
# positive curvature; relative to |d|^2, so it does not fire merely
# because the projected gradient has become small.
_DIVTOL = 1e-10

# Least ared/pred of an accepted step (Nocedal & Wright, Alg. 4.1).
_ETA = 0.1

# Initial and largest trust radius (Nocedal & Wright, Alg. 4.1).
_DELTA0 = 10.0
_DELTA_MAX = 1e5

# A rejected step whose model decrease is at most this share of |J| is
# below the rounding of J: no trial step can be judged any more, and the
# loop stops as stalled rather than shrink the radius towards zero.
_STALL_PRED = 8.0 * np.finfo(float).eps

# CG iterations allowed per triangle in one subproblem.  null(D) has
# fewer than 2 dimensions per triangle, which bounds CG in exact
# arithmetic; the rest is room for rounding.
_CG_PER_TRIANGLE = 10


@dataclass
class TrsConfig:
    """Stopping tolerances and the outer-iteration cap.

    ``abstol`` bounds the stationarity residual; a projected gradient
    whose Euclidean norm is below it stops the loop at once.  ``reltol``
    bounds the relative velocity increment between outer iterations.
    """

    abstol: float = 1e-4
    reltol: float = 1e-4
    max_outer: int = 500

    def __post_init__(self):
        if not all(0.0 < tol < math.inf for tol in (self.abstol, self.reltol)):
            raise ValueError("tolerances must be positive and finite")
        check_max_outer(self.max_outer)


def _boundary_intersection(z: np.ndarray, d: np.ndarray, delta: float) -> float:
    """Positive root ``s`` of ``|z + s d| = delta`` for ``|z| < delta``.

    The root of ``a s^2 + b s + c`` is ``-2 c / (b + disc)``: with ``c <
    0``, ``disc > |b|``, so the denominator is positive for either sign
    of ``b``, and free of cancellation for ``b = 2 z.d >= 0``, the only
    sign CG-Steihaug asks for, as its iterates grow in norm (Steihaug
    1983).  When ``z`` is already on the boundary to rounding (``|z|^2 >=
    delta^2``, as once ``delta^2`` underflows) the root is 0.
    """
    a = float(d @ d)
    b = 2.0 * float(z @ d)
    c = float(z @ z) - delta * delta
    if a == 0.0 or c >= 0.0:
        return 0.0
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    return -2.0 * c / (b + disc)


def cg_steihaug(ops: DiscreteOperators, grad: np.ndarray, projected: np.ndarray,
                hess: np.ndarray, delta: float, forcing: float, callback=None):
    """Approximately solve the tangential trust-region subproblem.

    ``projected`` is the projected gradient ``P grad`` onto null(D).
    Returns ``(step, exit_reason, inner_iterations)`` with reason one of
    ``converged`` (projected residual reduced below ``forcing`` of its
    start; a zero projected gradient gives the zero step and count 0),
    ``boundary`` (iterate left the trust ball), ``curvature`` (Rayleigh
    quotient ``d^T H d / d^T d`` of a direction below ``_DIVTOL``; the
    step goes along it to the model minimiser, or to the boundary when
    that is nearer) or ``cap`` (``_CG_PER_TRIANGLE`` iterations per
    triangle).  Every test is invariant under scaling ``grad``: a scaled
    gradient gives the same exit and count and the same step, scaled.

    ``callback``, if given, receives every new accumulated step,
    including the returned one.
    """
    z = np.zeros(grad.shape[0])
    r = np.array(grad, dtype=float)
    g = projected
    d = -g
    # g^T r equals |g|^2 for an orthogonal projection; the |g|^2 form
    # avoids the eps*|r|^2 rounding floor of the mixed product (r keeps
    # its large range(D^T) part by construction).
    gr = float(g @ g)
    if gr == 0.0:
        return z, "converged", 0
    sqrt_gr0 = math.sqrt(gr)

    max_cg = _CG_PER_TRIANGLE * ops.tri.n_triangles
    for j in range(max_cg):
        h_d = hessian_apply(hess, d)
        curvature = float(d @ h_d)

        if curvature < _DIVTOL * float(d @ d):
            # the model falls along d at slope -gr; stop at its minimiser
            # gr / curvature or at the boundary, whichever is nearer, for
            # a decrease of at least s gr / 2
            s = _boundary_intersection(z, d, delta)
            if curvature > 0.0:
                s = min(s, gr / curvature)
            step = z + s * d
            if callback is not None:
                callback(step)
            return step, "curvature", j + 1

        alpha = gr / curvature
        z_trial = z + alpha * d
        if math.sqrt(float(z_trial @ z_trial)) >= delta:
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


def solve_trs(params: FluidParams, ops: DiscreteOperators, cfg: TrsConfig | None = None):
    """Run the outer trust-region loop from the feasible projection of zero.

    Returns ``(tau, y, report)`` where ``tau`` is the final feasible
    stress, ``y`` the least-squares velocity recovered from it and
    ``report`` the full iteration record.  Non-convergence within
    ``max_outer`` passes, a non-finite residual or model, or a stall at
    the rounding of ``J`` is reported, not raised.
    """
    cfg = cfg if cfg is not None else TrsConfig()
    start = time.perf_counter()

    tau = ops.project_feasible(np.zeros(ops.n_stress))
    delta = _DELTA0

    value = objective(params, ops, tau)
    grad = hess = None

    report = SolveReport()
    y_prev = None

    for k in range(cfg.max_outer):
        if grad is None:
            # first pass at this iterate; a pass after a rejected step
            # reuses all of it, since only the radius has changed
            grad = gradient(params, ops, tau)
            y = ops.recover_velocity(grad)
            # grad - D^T (D D^T)^-1 D grad: the projected gradient CG starts from
            stationarity = grad - ops.DT @ y
            kkt = float(np.abs(stationarity).max(initial=0.0))
            residual = ops.momentum_residual(tau)

        report.kkt_history.append(kkt)
        report.objective_history.append(value)
        report.radius_history.append(delta)
        report.feasibility_history.append(residual)

        if not math.isfinite(kkt):
            report.status = "non_finite"
            break
        stable = (y_prev is not None and float(np.linalg.norm(y - y_prev))
                  <= cfg.reltol * float(np.linalg.norm(y)))
        if (math.sqrt(float(stationarity @ stationarity)) < cfg.abstol
                or (kkt <= cfg.abstol and stable)):
            report.status = "converged"
            break
        y_prev = y

        if hess is None:
            hess = hessian(params, ops, tau)
        step, reason, inner = cg_steihaug(ops, grad, stationarity, hess, delta, _CG_FORCING)
        report.cg_iterations.append((inner, reason))

        step_norm = math.sqrt(float(step @ step))
        pred = -float(step @ grad) - 0.5 * float(step @ hessian_apply(hess, step))
        if not (math.isfinite(pred) and math.isfinite(step_norm)):
            report.status = "non_finite"
            break
        trial = tau + step
        trial_value = objective(params, ops, trial)
        ared = value - trial_value
        accepted, delta = update_radius(delta, ared, pred, step_norm)
        if accepted:
            tau, value = trial, trial_value
            grad = hess = None
            report.accepted_steps += 1
        else:
            report.rejected_steps += 1
            if pred <= _STALL_PRED * abs(value):
                report.status = "stalled"
                break
    report.iterations = k + 1

    report.wall_time = time.perf_counter() - start
    return tau, y, report
