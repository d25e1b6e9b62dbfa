"""Alternating-direction augmented-Lagrangian baseline (ALG2).

Works on the same P1-P0 discretisation as the trust-region solver and
iterates three exact minimisation/update steps with augmentation
parameter ``r`` and over-relaxation factor ``rho = _RELAXATION``:

1. velocity:    solve ``r (D A^-1 D^T) y = f_h - D tau + r D q``
2. strain rate: per triangle, ``q_k = m(|w_k|) w_k / |w_k|`` with
                ``w_k = tau_k + r g_k``, the relaxed gradient
                ``g = rho grad y + (1 - rho) q_prev`` and magnitude ``m``
                solving ``kappa m^(alpha-1) + r m = (|w_k| - tau0)_+``
                (closed form for the paper's exponents: alpha = 2,
                alpha = 7/4, a quartic in ``m^(1/4)``, and alpha = 3/2,
                a quadratic in ``sqrt(m)``; scalar Newton in log space
                for any other alpha, solved to rounding)
3. multiplier:  ``tau_k += r (g_k - q_k)``, which is ``w_k - r q_k``

With ``rho = 1`` this is the classical ALG2.  Over-relaxation (Eckstein
& Bertsekas 1992) keeps its fixed points, ``grad y = q``, and takes
35-40 % fewer passes on the benchmark meshes.  Where nothing yields (an
arrested flow) the momentum defect contracts by ``|1 - rho|`` per pass,
where plain ALG2 removes it in one.  All nonlinearity is carried by the
strain-rate step, which keeps the velocity step a single Laplacian
solve.  The loop runs in ``report.run_passes`` and stops by
``Alg2Config``'s test.

After steps 2 and 3 the stress gradient is known without evaluating it:
``grad J(tau) = A q`` holds exactly, ADMM's dual-feasibility identity
(Boyd et al. 2011, sec. 3.3).  The new ``tau_k = w_k - r q_k`` is
parallel to ``w_k``; on a yielded block its norm is ``|w_k| - r m =
tau0 + kappa m^(alpha-1)`` by the shrink equation, so the gradient
block ``|T_k| ((|tau_k| - tau0) / kappa)^(1/(alpha-1)) tau_k / |tau_k|``
is ``|T_k| m w_k / |w_k| = |T_k| q_k``; elsewhere ``q_k = 0`` and
``|tau_k| = |w_k| <= tau0``, where the gradient vanishes too.  Each pass
therefore reads its stationarity residual from ``A q - D^T y``, which
differs from ``grad J(tau) - D^T y`` only by the rounding of the shrink
step.  On the pass whose residuals and increments would stop the loop,
``gradient`` is evaluated once to confirm: the loop stops only if the
residual from it passes too, and records that residual, so a solve
evaluates the gradient once and ``converged`` means what it did when
every pass evaluated it.

The strain-rate Newton, which serves every alpha but 2, 7/4 and 3/2, is
one Newton over the whole field, and stops only once a log-space step is
below ``newton_reltol = 1e-8``; quadratic convergence then leaves a
relative error near 1e-16, so the shrink step is exact to rounding and
the outer residuals can fall to any tolerance the outer loop asks for.
Each iteration starts Newton from the previous iteration's magnitudes,
clamped to the cold single-term start, which is an upper bound on the
root; near the fixed point that costs no more passes than a loose cold
solve.  The alpha = 7/4 and alpha = 3/2 closed forms land within a few
ulps of the root and need no warm start.

Each iteration takes three sparse products: ``D q``, ``D^T y`` (shared
by the gradient step and the stationarity residual) and ``D tau``
(shared by the momentum residual and the next velocity right-hand side).
Its per-triangle work runs in three buffers allocated once per solve:
``w``, the previous strain rate and the stationarity residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import DiscreteOperators
from .objective import FluidParams, block_norms, gradient, objective
from .report import RELTOL, abstol_for, check_count, check_positive, run_passes


@dataclass(kw_only=True)
class Alg2Config:
    """Stopping tolerances, augmentation parameter, Newton tolerances and cap.

    ``abstol`` (required) bounds the area-weighted stationarity residual
    ``max |grad J - D^T y|`` and the momentum defect ``max |D tau -
    f_h|``; its unit carries a triangle area, so ``report.abstol_for``
    gives the value for a tolerance in strain-rate units.  ``reltol``
    bounds the relative velocity and strain-rate increments between passes.
    """

    abstol: float
    r: float = 10.0
    reltol: float = RELTOL
    newton_abstol: float = 1e-13
    newton_reltol: float = 1e-8
    max_outer: int = 5000

    def __post_init__(self):
        check_positive(abstol=self.abstol, r=self.r, reltol=self.reltol,
                       newton_abstol=self.newton_abstol, newton_reltol=self.newton_reltol)
        check_count(max_outer=self.max_outer)


class ShrinkConvergenceError(RuntimeError):
    """The strain-rate Newton left an element unconverged after ``_NEWTON_MAX`` sweeps."""


def _shrink_field(params: FluidParams, r: float, w_norms: np.ndarray,
                  cfg: Alg2Config, previous: np.ndarray) -> np.ndarray:
    """Per element, the ``m >= 0`` solving ``kappa m^(alpha-1) + r m = (|w| - tau0)_+``,
    exactly 0 at or below the yield stress.

    Closed forms serve alpha = 2 (``m = rhs / (kappa + r)``), alpha = 7/4
    (``_seven_quarters_magnitudes``) and alpha = 3/2, where the equation is
    the quadratic ``kappa s + r s^2 = rhs`` in ``s = sqrt(m)``.  Its
    positive root is taken as ``s = 2 u / (c + sqrt(c^2 + 4 r))`` with ``u
    = sqrt(rhs)`` and ``c = kappa / u``: no cancellation, and no overflow
    of ``4 r rhs`` as in the textbook ``2 rhs / (kappa + sqrt(kappa^2 + 4 r
    rhs))``.  Where ``rhs = 0``, ``c`` is infinite and ``s`` exactly 0;
    where ``c^2`` overflows, the root is below the double range anyway.
    Only an alpha outside the paper's grid runs ``_newton_magnitudes`` on
    the whole field, with ``previous`` as warm start (zero where there is
    no previous root).
    """
    rhs = np.maximum(w_norms - params.tau0, 0.0)
    if params.alpha == 1.5:
        with np.errstate(divide="ignore", over="ignore"):
            u = np.sqrt(rhs)
            c = params.kappa / u
            s = 2.0 * u / (c + np.sqrt(c * c + 4.0 * r))
        return s * s
    if params.alpha == 2.0:
        return rhs / (params.kappa + r)
    if params.alpha == 1.75:
        return _seven_quarters_magnitudes(params.kappa, r, rhs)
    return _newton_magnitudes(params.alpha, params.kappa, r, rhs, w_norms, cfg, previous)


# The alpha = 7/4 closed form runs for beta in [_BETA_MIN, _BETA_MAX].
# Outside it the root differs from the dominant single-term root by a
# relative beta^(1/3) or beta^(-1/4), at most 1e-20, below rounding.
_BETA_MIN = 1e-60
_BETA_MAX = 1e80


def _seven_quarters_magnitudes(kappa, r, rhs):
    """The root of ``kappa m^(3/4) + r m = rhs`` in closed form, per element.

    With ``s = m^(1/4) = (kappa / r) x`` the equation is the quartic ``x^4
    + x^3 = beta``, ``beta = rhs r^3 / kappa^4``.  Ferrari's method writes
    it as ``(x^2 + x/2 + u)^2 = (e x + f)^2`` with ``e^2 = 1/4 + 2 u``, ``f
    = -sqrt(u^2 + beta)``, ``2 e f = u`` and ``u`` the real root of the
    resolvent cubic ``u^3 + beta u + beta/8 = 0``, which lies in ``(-1/8,
    0)``.  Cardano's root of the cubic is ``u = -(3/8) z / (1 + z + z^2)``
    with ``z^3 = 1 + (27/8) (S + 1/16) / beta`` and ``S = sqrt(1/256 +
    beta/27)``.  The positive root is the one of ``x^2 + c x + u + f``
    with ``c = 1/2 + e = 1/2 + u / (2 f)``; with ``v = -(u + f)`` and ``h
    = c/2`` it is ``x = v / (h + sqrt(h^2 + v))``, and ``m = rhs / (r (1 +
    1/x))``.  Every sum above adds terms of one sign, so ``m`` lands within
    a few ulps of the root.

    ``beta`` is scaled by a power of two so that it overflows only where
    it is beyond ``_BETA_MAX`` anyway.  Elements whose ``beta`` is outside
    ``[_BETA_MIN, _BETA_MAX]`` get the dominant single-term root, ``min(rhs
    / r, (rhs / kappa)^(4/3))``; at ``rhs = 0`` the closed form gives an
    exact 0.  The work runs in place in three arrays allocated per call.
    """
    (mr, er), (mk, ek) = math.frexp(r), math.frexp(kappa)
    with np.errstate(over="ignore"):
        beta = np.ldexp(rhs, 3 * er - 4 * ek)
        beta *= (mr / mk) ** 3 / mk
        far = (beta > _BETA_MAX) | ((beta < _BETA_MIN) & (rhs > 0.0))
        np.clip(beta, _BETA_MIN, _BETA_MAX, out=beta)

        # z = cbrt(1 + (27/8) (S + 1/16) / beta), S = sqrt(1/256 + beta/27)
        z = np.add(beta, 27.0 / 256.0)
        np.sqrt(z, out=z)
        z += math.sqrt(27.0) / 16.0
        z /= beta
        z *= 3.375 / math.sqrt(27.0)
        z += 1.0
        np.cbrt(z, out=z)
        p = np.add(z, 1.0)  # 1 + z + z^2
        p *= z
        p += 1.0
        z /= p  # z becomes a = -u
        z *= 0.375
        np.square(z, out=p)  # p becomes w = -f = sqrt(u^2 + beta)
        p += beta
        np.sqrt(p, out=p)
        np.divide(z, p, out=beta)  # beta becomes h = c/2 = 1/4 + e/2, e = a / (2 w)
        beta *= 0.25
        beta += 0.25
        p += z  # p becomes v = w + a
        np.square(beta, out=z)  # z becomes r (v + h + sqrt(h^2 + v)) / v = r (1 + 1/x)
        z += p
        np.sqrt(z, out=z)
        z += beta
        z += p
        z /= p
        z *= r
        np.divide(rhs, z, out=z)
        if far.any():
            b = rhs[far]
            z[far] = np.minimum(b / r, b / kappa * np.cbrt(b / kappa))
    return z


# Roots below exp(_LOG_TINY) are not representable in double precision
# and round to an exact zero strain rate.
_LOG_TINY = -700.0

# Newton passes allowed per shrink step; an element still unconverged
# after them raises ShrinkConvergenceError naming it.
_NEWTON_MAX = 100


def _newton_magnitudes(alpha, kappa, r, rhs, w_norms, cfg, previous):
    """Vectorised Newton for the scalar shrink equation, in log space.

    For alpha near 1 the root ``m`` of ``kappa m^(alpha-1) + r m = rhs``
    is exponentially small, so the iteration works on ``t = ln m`` where
    ``psi(t) = kappa e^((alpha-1) t) + r e^t - rhs`` is convex and
    increasing.  The cold start ``t_cold`` is the smaller single-term
    root (where one summand alone equals ``rhs``, hence ``psi >= 0``), an
    upper bound on the root.  Because ``psi`` is convex its tangent lies
    below it, so every Newton step lands at or right of the root: from
    the right the iterates decrease monotonically to it, and a step from
    the left (a warm start below the root) lands right of it in one go.

    ``previous`` holds warm-start magnitudes.  Each element starts at
    ``min(ln previous, t_cold)``; zeros (no previous root) start cold.
    Every step is clamped at ``t_cold``, which keeps an overshoot from
    far left inside ``[root, t_cold]``, where the iteration is monotone.

    An element counts as converged after the step in which ``|step| <=
    newton_reltol`` or ``|psi| <= newton_abstol rhs``, and the sweeps end
    once every element has.  Since ``psi'' / psi' <= 1`` in log space,
    quadratic convergence leaves an error of at most ``step^2 / 2``,
    about 5e-17 for a step of 1e-8.  The residual test is relative to
    ``rhs`` because ``psi' >= min(alpha - 1, 1) rhs`` near the root: a
    residual of ``newton_abstol rhs`` is then a log error of at most
    ``newton_abstol / (alpha - 1)`` however close ``|w|`` is to the
    yield stress, where an absolute test would stop at once.

    Elements whose root is below ``exp(_LOG_TINY)``, every one at or below
    the yield stress (``rhs = 0``, ``t_cold = -inf``) among them, are done
    before the first sweep and get an exact 0, so they need no gather and
    change no other element's sweeps.

    Converged elements are not frozen: a further step on them moves ``t``
    by rounding only, and sweeping every element saves a per-sweep
    select.  A sweep is two ``exp`` and about a dozen other elementwise
    operations, written in place into four work arrays allocated once per
    call.
    """
    am1 = alpha - 1.0
    # Elements whose root is not representable (not live) iterate along,
    # unfrozen, through infinities and NaNs that the final mask discards.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cold = np.minimum(np.log(rhs / kappa) / am1, np.log(rhs / r))
        t = np.minimum(np.log(np.where(previous > 0.0, previous, np.inf)), t_cold)
        live = t_cold >= _LOG_TINY
        abs_tol = cfg.newton_abstol * rhs
        done = ~live
        pow_term, lin_term, psi, step = (np.empty_like(t) for _ in range(4))

        for _ in range(_NEWTON_MAX):
            np.exp(np.multiply(t, am1, out=pow_term), out=pow_term)
            pow_term *= kappa
            np.exp(t, out=lin_term)
            lin_term *= r
            np.add(pow_term, lin_term, out=psi)
            psi -= rhs
            np.multiply(pow_term, am1, out=step)
            step += lin_term
            np.divide(psi, step, out=step)
            t -= step
            np.minimum(t, t_cold, out=t)
            done |= (np.abs(psi) <= abs_tol) | (np.abs(step) <= cfg.newton_reltol)
            if done.all():
                break
        else:
            i = np.flatnonzero(~done)[0]
            raise ShrinkConvergenceError(
                f"strain-rate Newton did not converge on element {int(i)} "
                f"(|w| = {float(w_norms[i])!r}, residual {float(psi[i])!r})"
            )
    return np.where(live, np.exp(t), 0.0)


# Over-relaxation factor of the strain-rate and multiplier steps: both use
# ``rho grad y + (1 - rho) q_prev`` in place of ``grad y`` (Eckstein &
# Bertsekas 1992; Boyd et al. 2011, sec. 3.4.3).  Any rho in (0, 2) keeps
# the fixed point; 1 is plain ALG2.  In a sweep of 1.5-1.8 over every
# benchmark cell, 1.7 takes the fewest passes summed over the pipe grid
# and never more than 1.6 on a flowing cell; 1.8 takes fewer on most
# cells but slows the alpha = 1.5, tau0 = 0.2 pipe cells from 41 to 52.
_RELAXATION = 1.7


def solve_alg2(params: FluidParams, ops: DiscreteOperators,
               cfg: Alg2Config | None = None):
    """Run ALG2 from the zero state.

    Returns ``(y, q, tau, report)``: velocity, per-triangle strain rate,
    stress multiplier and the iteration record.  Without ``cfg`` the loop
    stops at ``abstol_for(ops.tri)``.
    """
    cfg = cfg if cfg is not None else Alg2Config(abstol=abstol_for(ops.tri))
    return run_passes(cfg.max_outer, _passes, params, ops, cfg)


def _passes(report, params, ops, cfg):
    """``solve_alg2``'s outer loop as ``run_passes`` steps it."""
    r = cfg.r

    y = np.zeros(ops.n_free)
    q = np.zeros(ops.n_stress)
    tau = np.zeros(ops.n_stress)
    d_tau = np.zeros(ops.n_free)  # D @ tau, carried from the momentum check
    # Buffers reused by every pass: w, the previous strain rate, and the
    # stationarity residual (also scratch while w is formed).
    w = np.empty(ops.n_stress)
    q_prev = np.empty(ops.n_stress)
    stationarity = np.empty(ops.n_stress)
    # Arrested flow leaves y and q at rounding-level noise where a purely
    # relative increment test can never pass; increments below the
    # data-scale floor count as converged.
    floor = ops.rounding_floor()

    magnitudes = np.zeros(ops.tri.n_triangles)  # the Newton warm start
    while True:
        rhs = ops.f_h - d_tau + r * (ops.D @ q)
        y_prev, y = y, ops.solve_stiffness(rhs) / r

        # w = tau + r (rho grad y + (1 - rho) q),  grad y = A^-1 D^T y
        dt_y = ops.DT @ y
        np.divide(dt_y, ops.area2, out=w)
        w *= r * _RELAXATION
        w += np.multiply(q, r * (1.0 - _RELAXATION), out=stationarity)
        w += tau
        w_norms = block_norms(w)
        magnitudes = _shrink_field(params, r, w_norms, cfg, magnitudes)
        scale = np.divide(magnitudes, w_norms, out=np.zeros_like(magnitudes),
                          where=w_norms > 0.0)
        q, q_prev = q_prev, q
        # per component: an (n, 2) x (n, 1) broadcast loops once per row
        np.multiply(w[0::2], scale, out=q[0::2])
        np.multiply(w[1::2], scale, out=q[1::2])

        # the multiplier step tau + r (relaxed - q) is w - r q
        np.multiply(q, -r, out=tau)
        tau += w

        # grad J(tau) = A q by the shrink equation, so the stationarity
        # residual needs no gradient evaluation until the loop would stop
        np.multiply(ops.area2, q, out=stationarity)
        stationarity -= dt_y
        kkt = float(np.abs(stationarity, out=stationarity).max(initial=0.0))
        d_tau = ops.D @ tau
        momentum = float(np.abs(d_tau - ops.f_h).max(initial=0.0))
        stop = (max(kkt, momentum) <= cfg.abstol
                and float(np.linalg.norm(y - y_prev))
                <= cfg.reltol * float(np.linalg.norm(y)) + floor
                and float(np.linalg.norm(q - q_prev))
                <= cfg.reltol * float(np.linalg.norm(q)) + floor)
        if stop:
            kkt = float(np.abs(gradient(params, ops, tau) - dt_y).max(initial=0.0))
            stop = max(kkt, momentum) <= cfg.abstol
        if not (yield kkt, momentum, stop):
            break

    report.objective_history.append(objective(params, ops, tau))
    return y, q, tau, report
