"""Log-price model definitions and the coefficient functions consumed by the
generator construction.

Four parametric models of the asset price S_t (log-price X_t = ln S_t):

* BS   -- geometric Brownian motion, constant volatility.
* CEV  -- constant elasticity of variance, state-dependent volatility
          sigma * exp(beta * x) for the log price.
* DEJD -- Kou's double exponential jump diffusion (finite activity).
* VG   -- variance gamma, a pure-jump infinite-activity process written in
          Levy-density form  nu(dy) = exp(A*y - B*|y|) / (nu_vg*|y|) dy.

All jump-measure integrals (bin masses, first/second moments over an
interval) have elementary antiderivatives (exponentials for DEJD, the
exponential integral E1 for VG masses), so no numerical quadrature is used.
Bin masses take arrays of bins, each on one side of 0.
Every function here is pure; ModelSpec is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelSpec",
    "UnboundedMass",
    "drift",
    "truncated_drift",
    "diffusion_var",
    "levy_density",
    "levy_bin_mass",
    "levy_bin_mean",
    "levy_bin_second_moment",
    "small_jump_compensators",
]

KINDS = ("BS", "CEV", "DEJD", "VG")


class UnboundedMass(ValueError):
    """A jump-measure bin straddles 0: bin masses take one side of 0 at a
    time, and VG puts infinite mass there."""


@dataclass(frozen=True)
class ModelSpec:
    """Immutable parameter set for one of the four supported models.

    Rates are per year, sigma per sqrt-year, jump sizes in log-price units.
    Unused parameters for a given kind are ignored.
    """

    kind: str
    r_f: float = 0.5
    d: float = 0.02
    sigma: float = 0.3
    beta: float = -0.25           # CEV elasticity
    lam: float = 3.0              # DEJD jump intensity
    p_plus: float = 0.5           # DEJD upward-jump probability
    p_minus: float = 0.5
    eta_plus: float = 10.0        # DEJD exponential rates of |jump|
    eta_minus: float = 10.0
    theta: float = -2.206         # VG drift of the subordinated BM
    nu_vg: float = 0.00254        # VG variance rate of the gamma clock

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.kind in ("BS", "CEV", "DEJD") and not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.kind == "DEJD":
            if not self.eta_plus > 1.0:
                raise ValueError("eta_plus must exceed 1 (finite mean of e^jump)")
            if not self.eta_minus > 0.0:
                raise ValueError("eta_minus must be positive")
            if not (0.0 <= self.p_plus <= 1.0 and 0.0 <= self.p_minus <= 1.0):
                raise ValueError("jump-direction probabilities must lie in [0, 1]")
            if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
                raise ValueError("p_plus + p_minus must equal 1")
            if not self.lam >= 0.0:
                raise ValueError("jump intensity must be nonnegative")
        if self.kind == "VG":
            if not self.sigma > 0.0:
                raise ValueError("sigma must be positive")
            if not 1.0 - self.theta * self.nu_vg - 0.5 * self.sigma**2 * self.nu_vg > 0.0:
                raise ValueError("martingale correction undefined: need 1 - theta*nu - sigma^2*nu/2 > 0")
            if not self.nu_vg > 0.0:
                raise ValueError("nu_vg must be positive")

    # -- structure predicates ------------------------------------------------

    @property
    def has_jumps(self) -> bool:
        return self.kind in ("DEJD", "VG") and not (self.kind == "DEJD" and self.lam == 0.0)

    @property
    def is_levy(self) -> bool:
        """True when the log-price has spatially constant coefficients."""
        return self.kind in ("BS", "DEJD", "VG")

    # -- DEJD / VG derived constants ----------------------------------------

    @property
    def dejd_zeta(self) -> float:
        """Mean relative jump size E[V]-1 of the price under DEJD."""
        return (self.p_plus * self.eta_plus / (self.eta_plus - 1.0)
                + self.p_minus * self.eta_minus / (self.eta_minus + 1.0) - 1.0)

    @property
    def vg_decay_pos(self) -> float:
        """Exponential decay rate of the VG Levy density on y > 0."""
        s2 = self.sigma**2
        return math.sqrt(self.theta**2 + 2.0 * s2 / self.nu_vg) / s2 - self.theta / s2

    @property
    def vg_decay_neg(self) -> float:
        """Exponential decay rate of the VG Levy density on y < 0."""
        s2 = self.sigma**2
        return math.sqrt(self.theta**2 + 2.0 * s2 / self.nu_vg) / s2 + self.theta / s2

    # -- convenience constructors with the benchmark defaults ----------------

    @staticmethod
    def bs(sigma: float = 0.3, r_f: float = 0.5, d: float = 0.02) -> "ModelSpec":
        return ModelSpec(kind="BS", sigma=sigma, r_f=r_f, d=d)

    @staticmethod
    def cev(sigma: float = 0.3, beta: float = -0.25, r_f: float = 0.5, d: float = 0.02) -> "ModelSpec":
        return ModelSpec(kind="CEV", sigma=sigma, beta=beta, r_f=r_f, d=d)

    @staticmethod
    def dejd(sigma: float = 0.3, lam: float = 3.0, p_plus: float = 0.5, p_minus: float = 0.5,
             eta_plus: float = 10.0, eta_minus: float = 10.0,
             r_f: float = 0.5, d: float = 0.02) -> "ModelSpec":
        return ModelSpec(kind="DEJD", sigma=sigma, lam=lam, p_plus=p_plus, p_minus=p_minus,
                         eta_plus=eta_plus, eta_minus=eta_minus, r_f=r_f, d=d)

    @staticmethod
    def vg(theta: float = -2.206, sigma: float = 0.962, nu_vg: float = 0.00254,
           r_f: float = 0.5, d: float = 0.02) -> "ModelSpec":
        return ModelSpec(kind="VG", theta=theta, sigma=sigma, nu_vg=nu_vg, r_f=r_f, d=d)


# ---------------------------------------------------------------------------
# drift / diffusion coefficients
# ---------------------------------------------------------------------------

# Each takes one state x or an array of states; a spatially constant
# coefficient comes back as a scalar, which broadcasts against the array.

def drift(model: ModelSpec, x: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Log-price drift, with jumps entering uncompensated (added raw).

    BS:   r_f - d - sigma^2/2
    CEV:  r_f - d - sigma^2 e^{2 beta x}/2
    DEJD: r_f - d - lam*zeta - sigma^2/2
    VG:   r_f - d + ln(1 - theta*nu - sigma^2*nu/2)/nu   (pure-jump part excluded)
    """
    if model.kind == "BS":
        return model.r_f - model.d - 0.5 * model.sigma**2
    if model.kind == "CEV":
        return model.r_f - model.d - 0.5 * model.sigma**2 * np.exp(2.0 * model.beta * x)
    if model.kind == "DEJD":
        return model.r_f - model.d - model.lam * model.dejd_zeta - 0.5 * model.sigma**2
    # VG: martingale correction of the subordinated exponent
    corr = math.log(1.0 - model.theta * model.nu_vg - 0.5 * model.sigma**2 * model.nu_vg) / model.nu_vg
    return model.r_f - model.d + corr


def truncated_drift(model: ModelSpec, x: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Drift coefficient of the generator written with the y*1_{|y|<=1}
    compensator, i.e. drift(x) + integral of y over |y| <= 1 against the
    jump measure.  Equals drift() for models without jumps."""
    if not model.has_jumps:
        return drift(model, x)
    return drift(model, x) + levy_bin_mean(model, -1.0, 0.0) + levy_bin_mean(model, 0.0, 1.0)


def diffusion_var(model: ModelSpec, x: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Diffusion variance sigma^2(x) of the log price; 0 for VG (pure jump)."""
    if model.kind == "BS" or model.kind == "DEJD":
        return model.sigma**2
    if model.kind == "CEV":
        return model.sigma**2 * np.exp(2.0 * model.beta * x)
    return 0.0


# ---------------------------------------------------------------------------
# jump-measure integrals (all closed-form)
# ---------------------------------------------------------------------------

def levy_density(model: ModelSpec, y):
    """Pointwise Levy density nu(y) of the log price (vectorized in y)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    if model.kind == "DEJD":
        pos = y >= 0.0
        out[pos] = model.lam * model.p_plus * model.eta_plus * np.exp(-model.eta_plus * y[pos])
        out[~pos] = model.lam * model.p_minus * model.eta_minus * np.exp(model.eta_minus * y[~pos])
    elif model.kind == "VG":
        lp, lm = model.vg_decay_pos, model.vg_decay_neg
        pos = y > 0.0
        neg = y < 0.0
        out[pos] = np.exp(-lp * y[pos]) / (model.nu_vg * y[pos])
        out[neg] = np.exp(lm * y[neg]) / (model.nu_vg * (-y[neg]))
    return out


def _exp_mass(rate: float, lo: float, hi: float) -> float:
    """integral of rate*e^{-rate*t} over [lo, hi] subset of [0, inf]."""
    hi_term = 0.0 if math.isinf(hi) else math.exp(-rate * hi)
    return math.exp(-rate * lo) - hi_term


def _exp_mean(rate: float, lo: float, hi: float) -> float:
    """integral of t * rate*e^{-rate*t} over [lo, hi] subset of [0, inf]."""
    lo_term = (lo + 1.0 / rate) * math.exp(-rate * lo)
    hi_term = 0.0 if math.isinf(hi) else (hi + 1.0 / rate) * math.exp(-rate * hi)
    return lo_term - hi_term


def _exp_second(rate: float, lo: float, hi: float) -> float:
    """integral of t^2 * rate*e^{-rate*t} over [lo, hi] subset of [0, inf]."""

    def anti(t: float) -> float:
        return (t * t + 2.0 * t / rate + 2.0 / rate**2) * math.exp(-rate * t)

    return anti(lo) - (0.0 if math.isinf(hi) else anti(hi))


def _e1(z: np.ndarray) -> np.ndarray:
    """Exponential integral E1 of an array, with E1(inf) = 0 taken as such:
    infinite points are not evaluated.  Only VG bin masses need it, so
    scipy.special is imported here: BS, CEV and DEJD runs never load it."""
    from scipy.special import exp1

    out = np.zeros(np.shape(z))
    finite = np.isfinite(z)
    out[finite] = exp1(z[finite])
    return out


def _split_at_zero(fn_neg, fn_pos, lo: float, hi: float) -> float:
    """Evaluate a signed-side integral, splitting [lo, hi] at 0."""
    total = 0.0
    if lo < 0.0:
        total += fn_neg(lo, min(hi, 0.0))
    if hi > 0.0:
        total += fn_pos(max(lo, 0.0), hi)
    return total


def levy_bin_mass(model: ModelSpec, lo, hi) -> np.ndarray:
    """Jump-measure mass nubar over the bins [lo, hi] (arrays of the same
    shape, or scalars for a 0-d result); lo may be -inf, hi may be +inf.

    Every bin lies on one side of 0, else UnboundedMass; no generator bin
    straddles it.  A VG bin with an end at 0 has infinite mass.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(lo.shape)
    if not model.has_jumps:
        return out
    pos = lo >= 0.0
    neg = hi <= 0.0
    if not np.all(pos | neg):
        raise UnboundedMass("jump bins must not straddle 0")
    if model.kind == "DEJD":
        lp, lm = model.eta_plus, model.eta_minus
        wp, wm = model.lam * model.p_plus, model.lam * model.p_minus

        def exp_drop(z):
            # e^{-z} with e^{-inf} = 0 and no overflow fuss (z >= 0 here)
            return np.where(np.isinf(z), 0.0, np.exp(-np.minimum(z, 700.0)))

        out[pos] = wp * (exp_drop(lp * lo[pos]) - exp_drop(lp * hi[pos]))
        out[neg] = wm * (exp_drop(-lm * hi[neg]) - exp_drop(-lm * lo[neg]))
        return out
    lp, lm = model.vg_decay_pos, model.vg_decay_neg
    nv = model.nu_vg
    out[pos] = (_e1(lp * lo[pos]) - _e1(lp * hi[pos])) / nv
    out[neg] = (_e1(-lm * hi[neg]) - _e1(-lm * lo[neg])) / nv
    return out


def levy_bin_mean(model: ModelSpec, lo: float, hi: float) -> float:
    """integral of y nu(dy) over [lo, hi] (bins may straddle 0; the integrand
    y*nu(y) is bounded near 0 even for VG)."""
    if not model.has_jumps:
        return 0.0
    if model.kind == "DEJD":
        lam = model.lam

        def neg(a, b):
            return -lam * model.p_minus * _exp_mean(model.eta_minus, -b, -a)

        def pos(a, b):
            return lam * model.p_plus * _exp_mean(model.eta_plus, a, b)

        return _split_at_zero(neg, pos, lo, hi)
    nv = model.nu_vg
    lp, lm = model.vg_decay_pos, model.vg_decay_neg

    def neg(a, b):
        return -(_exp_mass(lm, -b, -a)) / (nv * lm)

    def pos(a, b):
        return _exp_mass(lp, a, b) / (nv * lp)

    return _split_at_zero(neg, pos, lo, hi)


def levy_bin_second_moment(model: ModelSpec, lo: float, hi: float) -> float:
    """integral of y^2 nu(dy) over [lo, hi]."""
    if not model.has_jumps:
        return 0.0
    if model.kind == "DEJD":
        lam = model.lam

        def neg(a, b):
            return lam * model.p_minus * _exp_second(model.eta_minus, -b, -a)

        def pos(a, b):
            return lam * model.p_plus * _exp_second(model.eta_plus, a, b)

        return _split_at_zero(neg, pos, lo, hi)
    nv = model.nu_vg
    lp, lm = model.vg_decay_pos, model.vg_decay_neg

    def neg(a, b):
        return _exp_mean(lm, -b, -a) / (nv * lm)

    def pos(a, b):
        return _exp_mean(lp, a, b) / (nv * lp)

    return _split_at_zero(neg, pos, lo, hi)


def small_jump_compensators(model: ModelSpec, lo: float, hi: float):
    """Small-jump corrections for the window [lo, hi] around 0.

    Returns (b_bar, sigma2_bar) with

        b_bar      = integral of y*1_{|y|<=1} nu(dy) over R \\ [lo, hi],
        sigma2_bar = 1/2 * integral of y^2 nu(dy) over [lo, hi].
    """
    if not lo < 0.0 < hi:
        raise ValueError("small-jump window must contain 0 strictly inside")
    if not model.has_jumps:
        return 0.0, 0.0
    b_bar = 0.0
    if lo > -1.0:
        b_bar += levy_bin_mean(model, -1.0, lo)
    if hi < 1.0:
        b_bar += levy_bin_mean(model, hi, 1.0)
    sigma2_bar = 0.5 * levy_bin_second_moment(model, lo, hi)
    return b_bar, sigma2_bar
