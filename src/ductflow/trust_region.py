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

Each iterate is evaluated once.  Its block norms, excess and yield mask
(``objective._norms_and_excess``) are computed at its trial evaluation,
or at the start point, and shared by its objective, gradient and
Hessian.  The first pass at an iterate computes its gradient, recovered
velocity, stationarity vector and momentum residual, and builds its
Hessian before running CG; its objective value is the trial value that
accepted it (only the start point gets an ``objective`` call of its
own).  A rejected step changes only the radius, so the pass after it
reuses all of these (Nocedal & Wright, Alg. 4.1).  It does not run CG
again either: CG-Steihaug's iterates do not depend on the radius until
they leave the ball, and the radius only shrinks, so the pass replays
the stored path of the last CG run up to the new boundary and evaluates
only the trial objective.

The loop runs in ``report.run_passes`` and stops by ``TrsConfig``'s
test.  A non-finite model decrease or step norm also stops it as
``non_finite``, and a rejected step whose model decrease is below the
rounding of ``J`` (``pred <= 8 eps |J|``) as ``stalled``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import DiscreteOperators
from .objective import (FluidParams, _norms_and_excess, gradient, hessian, hessian_apply,
                        objective)
from .report import RELTOL, abstol_for, check_count, check_positive, run_passes

# Projected CG iterates drift out of null(D) through the residual
# recurrence; re-project the accumulated step this often.  A CG path keeps
# at most this many steps for replay, so its size does not grow with the
# CG cap and no replayed step starts from a re-projected iterate.
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


@dataclass(kw_only=True)
class TrsConfig:
    """Stopping tolerances and the outer-iteration cap.

    An iterate passes the stopping test when its projected gradient
    ``grad J - D^T y`` has Euclidean norm below ``abstol`` (required), or
    its area-weighted stationarity residual ``max |grad J - D^T y|`` is
    below ``abstol`` and the recovered velocity moved by at most ``reltol
    |y|`` since the previous pass.  ``abstol``'s unit carries a triangle
    area, so ``report.abstol_for`` gives it for a strain-rate tolerance.
    """

    abstol: float
    reltol: float = RELTOL
    max_outer: int = 500

    def __post_init__(self):
        check_positive(abstol=self.abstol, reltol=self.reltol)
        check_count(max_outer=self.max_outer)


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
    # reached by test_boundary_intersection_is_zero_on_or_outside_the_ball
    if a == 0.0 or c >= 0.0:
        return 0.0
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    return -2.0 * c / (b + disc)


def _exit_step(z: np.ndarray, d: np.ndarray, delta: float, s_max: float = math.inf):
    """``z + s d`` at the boundary root ``s`` of radius ``delta``, or at ``s_max`` if nearer.

    ``min`` keeps a first argument that is NaN, so a NaN ``s_max`` gives a NaN step.
    """
    return z + min(s_max, _boundary_intersection(z, d, delta)) * d


def _replay(path: list, delta: float):
    """Step and exit reason of a fresh ``cg_steihaug`` run at radius ``delta``.

    ``path`` is the ``path`` list of an earlier run on the same subproblem.
    A run at ``delta`` walks its steps until the first whose trial norm
    reaches ``delta``, and leaves there by the same formula.  The start
    points are summed again as CG summed them, so the result is
    bit-identical to a fresh run's; the sum runs in place, in an array
    of its own.  Returns ``None`` when no kept step
    reaches ``delta``: the run then ends at an exit or a crossing that
    was not kept, and CG must run.
    """
    if not path:
        return None
    z = np.zeros(path[0][0].shape[0])
    for d, alpha, reach, s_max, reason in path:
        if reach >= delta:
            return _exit_step(z, d, delta, s_max), reason
        z += alpha * d
    return None


def cg_steihaug(ops: DiscreteOperators, grad: np.ndarray, projected: np.ndarray,
                hess: np.ndarray, delta: float, path: list):
    """Approximately solve the tangential trust-region subproblem.

    ``projected`` is the projected gradient ``P grad`` onto null(D).
    Returns ``(step, exit_reason, inner_iterations)`` with reason one of
    ``converged`` (projected residual reduced below ``_CG_FORCING`` of its
    start; a zero projected gradient gives the zero step and count 0),
    ``boundary`` (iterate left the trust ball), ``curvature`` (Rayleigh
    quotient ``d^T H d / d^T d`` of a direction below ``_DIVTOL``; the
    step goes along it to the model minimiser, or to the boundary when
    that is nearer; a ``d^T H d`` that is not finite exits here too, with
    a NaN step) or ``cap`` (``_CG_PER_TRIANGLE`` iterations per
    triangle).  Every test is invariant under scaling ``grad``: a scaled
    gradient gives the same exit and count and the same step, scaled.

    ``path``, an empty list, receives one ``(d_j, alpha_j, reach, s_max,
    reason)`` entry for each of the first ``_REPROJECT_EVERY`` steps, for
    ``_replay``: the direction (a reference, not a copy) and CG step
    length (``nan`` at a curvature exit, which takes no CG step); the
    trial norm ``|z_j + alpha_j d_j|``, or ``inf`` for a curvature exit,
    which stops at any radius; the longest step along ``d_j`` (the model
    minimiser of a curvature exit, else ``inf``); and the exit reason of
    a run that stops there.  The start points ``z_j`` are not kept:
    holding them as well slows runs that are never replayed.  Summing
    ``alpha_j d_j`` rebuilds them, bit for bit, up to the first
    re-projection.

    The recurrences run in place: the trial ``z + alpha d`` in one
    buffer, which then swaps with ``z``, and ``alpha H d`` in the array
    of ``H d``, dead once added to ``r``.  ``d`` is a fresh array at
    every step, since ``path`` keeps references to it; the next
    direction ``beta d - g`` is formed in the product ``beta d``.  Every
    sum and product has the operands of the plain recurrences, so the
    iterates are the same bytes as theirs.
    """
    z = np.zeros(grad.shape[0])
    z_trial = np.empty_like(z)
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

        if not math.isfinite(curvature) or curvature < _DIVTOL * float(d @ d):
            # the model falls along d at slope -gr; stop at its minimiser
            # gr / curvature or at the boundary, whichever is nearer, for
            # a decrease of at least s gr / 2.  A d^T H d that is not finite
            # gives no minimiser: its NaN step stops the outer loop as non_finite
            s_max = (math.nan if not math.isfinite(curvature)
                     else gr / curvature if curvature > 0.0 else math.inf)
            if j < _REPROJECT_EVERY:
                path.append((d, math.nan, math.inf, s_max, "curvature"))
            return _exit_step(z, d, delta, s_max), "curvature", j + 1

        alpha = gr / curvature
        np.add(z, np.multiply(alpha, d, out=z_trial), out=z_trial)
        reach = math.sqrt(float(z_trial @ z_trial))
        if j < _REPROJECT_EVERY:
            path.append((d, alpha, reach, math.inf, "boundary"))
        if reach >= delta:
            return _exit_step(z, d, delta), "boundary", j + 1

        z, z_trial = z_trial, z
        if (j + 1) % _REPROJECT_EVERY == 0:  # seen by test_inner_cap_reported
            z = ops.project_nullspace(z)

        r += np.multiply(alpha, h_d, out=h_d)
        g = ops.project_nullspace(r)
        gr_next = float(g @ g)
        if gr_next == 0.0 or math.sqrt(gr_next) < _CG_FORCING * sqrt_gr0:
            return z, "converged", j + 1
        d = np.multiply(d, gr_next / gr)
        d -= g
        gr = gr_next

    return z, "cap", max_cg  # reached by test_inner_cap_reported


def update_radius(delta: float, ared: float, pred: float, step_norm: float):
    """Accept/reject a trial step and rescale the trust radius.

    The shrink on rejection uses the norm of the rejected trial step.
    ``pred <= 0`` (possible only through rounding) is treated as a failed
    model, i.e. rejection with the maximal shrink factor 0.1.
    """
    rho = ared / pred if pred > 0.0 else -math.inf
    if not math.isfinite(rho):  # reached by test_non_finite_ratio_is_a_failed_model
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

    Returns ``(tau, y, report)``: the final feasible stress, the velocity
    recovered from it by least squares and the iteration record.
    Without ``cfg`` the loop stops at ``abstol_for(ops.tri)``.
    """
    cfg = cfg if cfg is not None else TrsConfig(abstol=abstol_for(ops.tri))
    return run_passes(cfg.max_outer, _passes, params, ops, cfg)


def _passes(report, params, ops, cfg):
    """``solve_trs``'s outer loop as ``run_passes`` steps it."""
    tau = ops.project_feasible(np.zeros(ops.n_stress))
    delta = _DELTA0
    norms_excess = _norms_and_excess(tau, params.tau0)
    value = objective(params, ops, tau, norms_excess)
    grad = hess = y_prev = None

    while True:
        if grad is None:
            # first pass at this iterate; a pass after a rejected step
            # reuses all of it, since only the radius has changed
            grad = gradient(params, ops, tau, norms_excess)
            y = ops.recover_velocity(grad)
            # grad - D^T (D D^T)^-1 D grad: the projected gradient CG starts
            # from, formed in the product's array; grad is read, not written
            stationarity = ops.DT @ y
            np.subtract(grad, stationarity, out=stationarity)
            kkt = float(np.abs(stationarity).max(initial=0.0))
            residual = ops.momentum_residual(tau)
            path = []  # CG's path at this iterate, replayed after a rejection

        report.objective_history.append(value)
        report.radius_history.append(delta)
        # the velocity increment is taken only once the max-residual test passes
        converged = (math.sqrt(float(stationarity @ stationarity)) < cfg.abstol
                     or (kkt <= cfg.abstol and y_prev is not None
                         and np.linalg.norm(y - y_prev) <= cfg.reltol * np.linalg.norm(y)))
        if not (yield kkt, residual, converged):
            break
        y_prev = y

        if hess is None:
            hess = hessian(params, ops, tau, norms_excess)
        replayed = _replay(path, delta)
        if replayed is None:
            path = []
            step, reason, inner = cg_steihaug(ops, grad, stationarity, hess, delta, path)
        else:
            (step, reason), inner = replayed, 0
        report.cg_iterations.append((inner, reason))

        step_norm = math.sqrt(float(step @ step))
        pred = -float(step @ grad) - 0.5 * float(step @ hessian_apply(hess, step))
        if not (math.isfinite(pred) and math.isfinite(step_norm)):
            report.status = "non_finite"
            break
        trial = tau + step
        trial_norms_excess = _norms_and_excess(trial, params.tau0)
        trial_value = objective(params, ops, trial, trial_norms_excess)
        ared = value - trial_value
        accepted, delta = update_radius(delta, ared, pred, step_norm)
        if accepted:
            tau, value, norms_excess = trial, trial_value, trial_norms_excess
            grad = hess = None
            report.accepted_steps += 1
        else:
            report.rejected_steps += 1
            if pred <= _STALL_PRED * abs(value):
                report.status = "stalled"
                break
    return tau, y, report
