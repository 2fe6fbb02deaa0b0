"""Concentrated test profiles, their moment asymptotics, and functional sweeps.

The flat-space profile u_a(r) = ((r^2 + a^2)/a)^{(2-n)/2} is the standard
sharp-Sobolev bubble; its L^p norm (p = 2n/(n-2)) is independent of the
concentration scale a, with int u_a^p = 2^{-n} omega_n.  Glued onto the sphere
through a smooth cutoff at a polar cap it probes the mass functional near the
concentration limit; the second-moment integrals int u_a^2 r^{k+n-1} dr obey a
three-branch rate law in a (a^{k+2}, a^{k+2} log(1/a), or a^{n-2}) that the
rate-fitting helper detects from data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .background import ConformalBackground
from .errors import ZeroFieldError
from .functionals import mass_functional
from .params import check_dimension, sphere_volume
from .zonal import ZonalField, integrate

# Integration cap for rate fits: large enough that the subleading constant
# inside the k+2 log branch (about log(cap) - 11/12 at its worst tested case)
# stays small over the fitted decade window.  Sweep caps on the sphere are a
# separate, geometric parameter.
RATE_CAP_DEFAULT = 2.5
SWEEP_EPSILON_DEFAULT = 0.3

MIN_FIT_SAMPLES = 8
MIN_FIT_DECADES = 2.0

# relative tolerances of the adaptive radial quadratures
_FLAT_MASS_REL_TOL = 1e-12
_MOMENT_REL_TOL = 1e-10


@dataclass(frozen=True)
class ProfileParams:
    """Concentration scale, cap half-width, and sphere dimension."""

    alpha: float
    epsilon: float
    n: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (0.0 < self.epsilon < math.pi / 2.0):
            raise ValueError("epsilon must lie in (0, pi/2) so the support fits a hemisphere")
        check_dimension(self.n)


def bubble_profile(alpha: float, r, n: int):
    """((r^2 + alpha^2)/alpha)^{(2-n)/2}; scalar or array in r."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    r = np.asarray(r, dtype=float)
    out = ((r * r + alpha * alpha) / alpha) ** ((2.0 - n) / 2.0)
    return float(out) if out.ndim == 0 else out


def flat_profile_lp_mass(alpha: float, n: int) -> float:
    """int over R^n of u_alpha^p dx, by radial quadrature (equals 2^{-n} omega_n)."""
    from scipy.integrate import quad  # here, so only the commands that integrate load scipy

    surface = sphere_volume(n - 1)

    def integrand(r):
        return bubble_profile(alpha, r, n) ** (2.0 * n / (n - 2.0)) * r ** (n - 1)

    head, _ = quad(integrand, 0.0, 10.0 * alpha, epsabs=0.0, epsrel=_FLAT_MASS_REL_TOL, limit=400)
    tail, _ = quad(integrand, 10.0 * alpha, np.inf, epsabs=0.0, epsrel=_FLAT_MASS_REL_TOL,
                   limit=400)
    return surface * (head + tail)


def smooth_cutoff(epsilon: float, r):
    """C-infinity plateau cutoff: 1 for r <= eps, 0 for r >= 2 eps.

    Built from the classic exponential bump blend
    B(x) = sigma(x) / (sigma(x) + sigma(1-x)), sigma(x) = exp(-1/x) for x > 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    r = np.asarray(r, dtype=float)
    x = (2.0 * epsilon - r) / epsilon

    def sigma(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    num = sigma(x)
    # sigma(x) and sigma(1-x) never vanish together, and the blend is exactly
    # 1 for x >= 1 and 0 for x <= 0
    out = num / (num + sigma(1.0 - x))
    return float(out) if out.ndim == 0 else out


def capped_bubble(params: ProfileParams, grid) -> ZonalField:
    """The glued profile eta(theta) u_alpha(theta) on the grid, zero past 2 eps."""
    if grid.n != params.n:
        raise ValueError(f"grid has n={grid.n}, params have n={params.n}")
    theta = grid.theta
    vals = smooth_cutoff(params.epsilon, theta) * bubble_profile(params.alpha, theta, params.n)
    return ZonalField(grid, vals)


def bubble_moment(alpha: float, epsilon: float, k: float, n: int) -> float:
    """int_0^eps u_alpha(r)^2 r^{k+n-1} dr by adaptive quadrature.

    Computed in the self-similar variable r = alpha t, where the integrand
    t^{k+n-1} (1+t^2)^{2-n} is scale-free and the prefactor alpha^{k+2} is
    exact; this keeps the quadrature well conditioned across the whole
    concentration range.
    """
    from scipy.integrate import quad  # here, so only the commands that integrate load scipy

    check_dimension(n)
    if k <= -n:
        raise ValueError(f"need k > -n for convergence, got k={k}, n={n}")
    if alpha <= 0 or epsilon <= 0:
        raise ValueError("alpha and epsilon must be positive")

    def integrand(t):
        return t ** (k + n - 1.0) * (1.0 + t * t) ** (2.0 - n)

    top = epsilon / alpha
    pieces = []
    cut = min(top, 10.0)
    pieces.append(quad(integrand, 0.0, cut, epsabs=0.0, epsrel=_MOMENT_REL_TOL, limit=400)[0])
    if top > cut:
        pieces.append(quad(integrand, cut, top, epsabs=0.0, epsrel=_MOMENT_REL_TOL, limit=400)[0])
    return alpha ** (k + 2.0) * math.fsum(pieces)


def predicted_branch(n: int, k: float) -> str:
    if n > k + 4:
        return "k_plus_2"
    if n == k + 4:
        return "k_plus_2_log"
    return "n_minus_2"


def predicted_exponent(n: int, k: float) -> float:
    return k + 2.0 if n >= k + 4 else n - 2.0


@dataclass(frozen=True)
class RateFit:
    k: float
    exponent_fit: float
    log_factor_detected: bool
    r2: float
    predicted: str


def fit_decay_rate(alphas, values, n: int, k: float) -> RateFit:
    """Log-log least squares with and without a log(1/alpha) factor.

    The model with the smaller residual wins; its slope is the reported
    exponent.  Demands >= 8 samples spanning >= 2 decades.
    """
    alphas = np.asarray(alphas, dtype=float)
    values = np.asarray(values, dtype=float)
    if alphas.shape != values.shape or alphas.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} (alpha, value) samples")
    if np.log10(alphas.max() / alphas.min()) < MIN_FIT_DECADES - 1e-12:
        raise ValueError("alpha samples must span at least two decades")
    if np.any(values <= 0):
        raise ValueError("rate fit needs positive values")

    t = np.log(alphas)
    design = np.vstack([t, np.ones_like(t)]).T

    def lsq(y):
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        return coef[0], float((resid**2).sum())

    y_plain = np.log(values)
    slope_plain, ss_plain = lsq(y_plain)
    y_log = y_plain - np.log(np.log(1.0 / alphas))
    slope_log, ss_log = lsq(y_log)

    use_log = ss_log < ss_plain
    slope = slope_log if use_log else slope_plain
    y_win = y_log if use_log else y_plain
    ss_tot = float(((y_win - y_win.mean()) ** 2).sum())
    r2 = 1.0 - min(ss_plain, ss_log) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        k=k,
        exponent_fit=float(slope),
        log_factor_detected=bool(use_log),
        r2=float(r2),
        predicted=predicted_branch(n, k),
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    m_psi: float
    sphere_value: float
    margin: float
    mu: float


def concentration_sweep(alphas, epsilon: float, bg: ConformalBackground) -> list[SweepRow]:
    """Mass functional along the glued-bubble family on a round-sphere base.

    Per alpha: M(psi_alpha), the sphere orbit value -b_n * Y(S^n), their
    margin, and mu = min of the normalized-mass data over the support cap.
    """
    n = bg.params.n
    sphere_value = -bg.params.b_n * bg.params.yamabe_sphere
    cap = bg.grid.theta <= 2.0 * epsilon
    mu = float(bg.mnor.values[cap].min()) if np.any(cap) else float("nan")
    rows = []
    for alpha in np.asarray(alphas, dtype=float):
        psi = capped_bubble(ProfileParams(alpha=float(alpha), epsilon=epsilon, n=n), bg.grid)
        if not np.any(psi.values):
            raise ZeroFieldError(
                f"the capped bubble for n={n}, alpha={alpha:g} is zero at every node of the "
                f"{bg.grid.size}-node grid: no node lies inside its cap, or the profile underflows")
        m_psi = mass_functional(psi, bg)
        rows.append(SweepRow(
            alpha=float(alpha),
            m_psi=m_psi,
            sphere_value=sphere_value,
            margin=m_psi - sphere_value,
            mu=mu,
        ))
    return rows


def profile_norm_defect(alpha: float, epsilon: float, bg: ConformalBackground) -> float:
    """||psi_alpha||_p^p relative to the alpha-independent flat-space value."""
    psi = capped_bubble(ProfileParams(alpha=alpha, epsilon=epsilon, n=bg.params.n), bg.grid)
    flat = 2.0 ** (-bg.params.n) * bg.params.omega_n
    return integrate(ZonalField(bg.grid, np.abs(psi.values) ** bg.params.p)) / flat
