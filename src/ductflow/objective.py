"""Stress-space objective for Herschel-Bulkley duct flow.

With per-triangle stress blocks ``t_k = tau[2k:2k+2]``, block norm
``n_k = |t_k|`` and the truncation ``(x)_+ = max(x, 0)``, the objective is

    J(tau) = 1/(alpha' * kappa^(1/(alpha-1))) * sum_k |T_k| (n_k - tau0)_+^alpha'

where ``1/alpha + 1/alpha' = 1``.  Its gradient and Hessian have closed
forms; both vanish identically on blocks inside the yield surface
(``n_k <= tau0``), which is the exact derivative for alpha < 2 and the
semismooth (Newton-derivative) choice at the kink for alpha = 2.

The Hessian is block diagonal with symmetric 2x2 blocks and only ever
applied to vectors, so it is stored as the ``(3, n_T)`` array of their
components ``h11``, ``h12`` and ``h22`` and never materialised as a matrix.

``objective``, ``gradient`` and ``hessian`` all start from the block
norms, the excess and the yield mask of ``tau``, the read-only triple of
``_norms_and_excess``.  Each takes that triple as an optional last
argument and computes it when it is absent; the trust-region solver
computes it once per iterate, at the trial evaluation that accepts it,
and passes it to all three.

``hessian`` runs at every TRS iterate and ``hessian_apply`` at every CG
step, so they build their results in the arrays they return, with few
work arrays and no stacking copy.  Each keeps the floating-point operations
of the closed form and the operands of each one (only their order
within a product or sum may differ), so the results are the same bytes
as the plain expressions give.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fem import DiscreteOperators
from .report import check_positive


@dataclass(frozen=True)
class FluidParams:
    """Constitutive parameters.

    alpha : power-law exponent in (1, 2]; 2 is the Bingham case where
        kappa plays the role of the plastic viscosity.
    kappa : consistency, finite and > 0, with ``kappa^(1/(alpha-1))`` a
        finite normal double, so that its reciprocal is finite too.
    tau0 : yield stress, finite and >= 0.
    """

    alpha: float
    kappa: float = 1.0
    tau0: float = 0.0
    alpha_prime: float = field(init=False, repr=False)
    kappa_pow: float = field(init=False, repr=False)  # kappa^(1/(alpha-1))

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(
                f"alpha must lie in (1, 2], got {self.alpha}; "
                "shear-thickening exponents alpha > 2 are not supported"
            )
        check_positive(kappa=self.kappa)
        if not (math.isfinite(self.tau0) and self.tau0 >= 0.0):
            raise ValueError(f"tau0 must be finite and non-negative, got {self.tau0}")
        try:
            kappa_pow = self.kappa ** (1.0 / (self.alpha - 1.0))
        except OverflowError:
            kappa_pow = math.inf
        if not sys.float_info.min <= kappa_pow < math.inf:
            raise ValueError(f"kappa = {self.kappa} is out of range for alpha = {self.alpha}: "
                             "kappa^(1/(alpha-1)) leaves the normal double range")
        object.__setattr__(self, "alpha_prime", self.alpha / (self.alpha - 1.0))
        object.__setattr__(self, "kappa_pow", kappa_pow)


def _blocks(tau: np.ndarray) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size % 2:
        raise ValueError(f"stress vector must have even length, got shape {tau.shape}")
    return tau.reshape(-1, 2)


# Square root of the smallest positive normal double, 2^-511.  A norm
# below it comes from a sum of squares that has lost relative precision
# to underflow; an infinite one from a sum that has overflowed.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def block_norms(tau: np.ndarray) -> np.ndarray:
    """Per-triangle Euclidean stress magnitudes ``|t_k|``.

    ``sqrt(x*x + y*y)`` is within an ulp or two of ``np.hypot`` at a
    fraction of its cost wherever the sum of squares is a finite normal
    double; blocks whose sum overflows, or underflows from nonzero
    components, are recomputed by ``np.hypot``.
    """
    t = _blocks(tau)
    x, y = t[:, 0], t[:, 1]
    with np.errstate(over="ignore"):
        norms = np.sqrt(x * x + y * y)
    if not (norms.min(initial=np.inf) >= _SQRT_TINY and norms.max(initial=0.0) < np.inf):
        out_of_range = ~((norms >= _SQRT_TINY) & (norms < np.inf))
        redo = np.flatnonzero(out_of_range & ((x != 0.0) | (y != 0.0)))
        norms[redo] = np.hypot(x[redo], y[redo])
    return norms


def objective(params: FluidParams, ops: DiscreteOperators, tau: np.ndarray,
              norms_excess=None) -> float:
    excess = (norms_excess or _norms_and_excess(tau, params.tau0))[1]
    coeff = 1.0 / (params.alpha_prime * params.kappa_pow)
    return coeff * float(np.dot(ops.tri.areas, excess ** params.alpha_prime))


def _norms_and_excess(tau: np.ndarray, tau0: float):
    """Block norms, the truncated excess ``(n_k - tau0)_+`` and the yield mask.

    The mask ``n_k - tau0 > 0`` is the one yield rule of the package: the
    objective's derivatives and the writers' yielded flags both read it.
    The three arrays are read-only, so one triple can be shared by every
    evaluation at ``tau``.
    """
    norms = block_norms(tau)
    excess = norms - tau0
    yielded = excess > 0.0
    np.maximum(excess, 0.0, out=excess)
    for a in (norms, excess, yielded):
        a.flags.writeable = False
    return norms, excess, yielded


def gradient(params: FluidParams, ops: DiscreteOperators, tau: np.ndarray,
             norms_excess=None) -> np.ndarray:
    t = _blocks(tau)
    norms, excess, yielded = norms_excess or _norms_and_excess(tau, params.tau0)
    scale = ops.tri.areas / params.kappa_pow * excess ** (1.0 / (params.alpha - 1.0))
    # zero already where unyielded, since excess is 0 there
    np.divide(scale, norms, out=scale, where=yielded)
    return (scale[:, None] * t).ravel()


def hessian(params: FluidParams, ops: DiscreteOperators, tau: np.ndarray,
            norms_excess=None) -> np.ndarray:
    """Hessian components, shape ``(3, n_T)``: rows ``h11``, ``h12`` and
    ``h22`` of each symmetric block; zero inside the yield surface.

    With ``p = |T| excess^(1/(alpha-1) - 1) / (kappa^(1/(alpha-1))
    (alpha-1) n^3)`` the rows are ``p ((alpha-1) t2^2 excess + t1^2 n)``,
    ``p (-t1 t2 ((alpha-1) excess - n))`` and ``p ((alpha-1) t1^2 excess
    + t2^2 n)``.  They are formed in place in the output array, through
    four one-row work arrays, each product and sum with the operands of
    that expression.
    """
    t = _blocks(tau)
    norms, excess, yielded = norms_excess or _norms_and_excess(tau, params.tau0)
    am1 = params.alpha - 1.0
    t1 = t[:, 0]
    t2 = t[:, 1]
    h = np.empty((3, norms.shape[0]))
    h11, h12, h22 = h
    sq1 = np.square(t1)
    sq2 = np.square(t2)
    np.multiply(sq2, am1, out=h11)
    h11 *= excess
    np.multiply(sq1, am1, out=h22)
    h22 *= excess
    sq1 *= norms
    h11 += sq1
    sq2 *= norms
    h22 += sq2
    np.multiply(excess, am1, out=sq1)
    sq1 -= norms
    np.negative(t1, out=h12)
    h12 *= t2
    h12 *= sq1

    # excess^0 = 1 at alpha = 2, so the unyielded prefactor is zeroed explicitly
    coeff = excess ** (1.0 / am1 - 1.0)
    coeff *= np.divide(ops.tri.areas, params.kappa_pow * am1, out=sq1)
    h *= np.divide(coeff, np.power(norms, 3, out=sq2), out=np.zeros_like(norms),
                   where=yielded)
    return h


def hessian_apply(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Blockwise product of a ``(3, n_T)`` Hessian with a stress vector.

    Each block's product is ``(h11 w1 + h12 w2, h12 w1 + h22 w2)``, the
    same floating-point operations as ``einsum("kij,kj->ki")`` on the
    full symmetric blocks, so the two agree bit for bit.  Both
    components are formed in the output array, with one temporary for
    ``h12 w1``.
    """
    w = _blocks(v)
    if h.shape != (3, w.shape[0]):
        raise ValueError("Hessian block count does not match vector length")
    w1, w2 = w[:, 0], w[:, 1]
    h11, h12, h22 = h[0], h[1], h[2]
    out = np.empty_like(w)
    out1, out2 = out[:, 0], out[:, 1]
    np.multiply(h11, w1, out=out1)
    out1 += np.multiply(h12, w2, out=out2)
    np.multiply(h22, w2, out=out2)
    out2 += h12 * w1
    return out.ravel()
