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
import sys
from dataclasses import dataclass
from functools import lru_cache

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

# nodes of the Gauss rules on [0, 1] behind the radial quadratures
_JACOBI_NODES = 40

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    """int over R^n of u_alpha^p dx, by radial quadrature (equals 2^{-n} omega_n).

    The profile is sampled at r = alpha t, so the quadrature sees the scale;
    with the Jacobian alpha^n of r^{n-1} dr, u_alpha(alpha t)^p alpha^n equals
    (1+t^2)^{-n}, and the ratio of the two is the factor integrated against
    t^{n-1} (1+t^2)^{-n}.
    """
    p = 2.0 * n / (n - 2.0)

    def ratio(t):
        return alpha ** n * bubble_profile(alpha, alpha * t, n) ** p * (1.0 + t * t) ** n

    return sphere_volume(n - 1) * _radial_moment(n - 1.0, n, math.inf, ratio)


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
    """int_0^eps u_alpha(r)^2 r^{k+n-1} dr by Gauss quadrature.

    Computed in the self-similar variable r = alpha t, where the integrand
    t^{k+n-1} (1+t^2)^{2-n} is scale-free and the prefactor alpha^{k+2} is
    exact; this keeps the quadrature well conditioned across the whole
    concentration range.  Raises OverflowError when t^{k+n-1} overflows a
    float at the upper limit t = eps/alpha.
    """
    check_dimension(n)
    if k <= -n:
        raise ValueError(f"need k > -n for convergence, got k={k}, n={n}")
    if alpha <= 0 or epsilon <= 0:
        raise ValueError("alpha and epsilon must be positive")
    m = k + n - 1.0
    top = float(epsilon) / float(alpha)
    if top > 0.0 and m * math.log(top) > _LOG_FLOAT_MAX:  # eps/alpha may underflow to 0
        raise OverflowError(f"t^{m:g} overflows at t = {top:g}")
    return alpha ** (k + 2.0) * _radial_moment(m, n - 2.0, top)


def _radial_moment(m: float, q: float, top: float, factor=np.ones_like) -> float:
    """int_0^top t^m (1+t^2)^{-q} factor(t) dt, for m > -1 and a smooth factor.

    * [0, min(top, 1)]: Gauss-Jacobi for the weight t^m.
    * [1, top]: u = ln t, and Gauss-Legendre (the Gauss-Jacobi rule with
      beta = 0) on unit panels in u.  The integrand
      exp((m+1) u - q ln(1 + e^{2u})) is formed in log form, so t^{m+1} and
      (1+t^2)^{-q} never overflow or underflow apart.
    * [1, inf) when top is infinite: s = 1/t gives s^{2q-m-2} (1+s^2)^{-q} on
      [0, 1], and Gauss-Jacobi for the weight s^{2q-m-2}.
    """
    head = min(top, 1.0)
    x, w = _jacobi_rule(m)
    t = head * x
    total = head ** (m + 1.0) * float(w @ ((1.0 + t * t) ** -q * factor(t)))
    if top == math.inf:
        s, w = _jacobi_rule(2.0 * q - m - 2.0)
        total += float(w @ ((1.0 + s * s) ** -q * factor(1.0 / s)))
    elif top > 1.0:
        y, w = _jacobi_rule(0.0)
        edges = np.append(np.arange(0.0, math.log(top), 1.0), math.log(top))
        width = np.diff(edges)[:, None]
        u = edges[:-1, None] + width * y
        integrand = np.exp((m + 1.0) * u - q * np.logaddexp(0.0, 2.0 * u)) * factor(np.exp(u))
        total += float((width * w * integrand).sum())
    return total


@lru_cache(maxsize=128)
def _jacobi_rule(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule for int_0^1 x^beta g(x) dx, beta > -1.

    Golub-Welsch (Math. Comp. 23, 1969) for the shifted Jacobi weight with
    alpha = 0: the monic recurrence on [0, 1] has the diagonal
    (1 + beta^2 / ((2k+beta)(2k+beta+2))) / 2, (beta+1)/(beta+2) at k = 0, and
    the couplings k (k+beta) / ((2k+beta) sqrt((2k+beta+1)(2k+beta-1))).  The
    nodes are the eigenvalues of that Jacobi matrix, and the weights are the
    squared first eigenvector components times int_0^1 x^beta dx = 1/(beta+1).
    """
    if not beta > -1.0:
        raise ValueError(f"int_0^1 x^beta dx diverges for beta={beta:g}")
    k = np.arange(1, _JACOBI_NODES, dtype=float)
    s = 2.0 * k + beta
    diag = np.concatenate([[(beta + 1.0) / (beta + 2.0)],
                           (1.0 + beta * beta / (s * (s + 2.0))) / 2.0])
    off = k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2 / (beta + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    The bubbles go through the mass functional as one stack.
    """
    n = bg.params.n
    sphere_value = -bg.params.b_n * bg.params.yamabe_sphere
    cap = bg.grid.theta <= 2.0 * epsilon
    mu = float(bg.mnor.values[cap].min()) if np.any(cap) else float("nan")
    alphas = np.asarray(alphas, dtype=float)
    if not alphas.size:
        return []
    fields = []
    for alpha in alphas:
        psi = capped_bubble(ProfileParams(alpha=float(alpha), epsilon=epsilon, n=n), bg.grid)
        if not np.any(psi.values):
            raise ZeroFieldError(
                f"the capped bubble for n={n}, alpha={alpha:g} is zero at every node of the "
                f"{bg.grid.size}-node grid: no node lies inside its cap, or the profile underflows")
        fields.append(psi.values)
    m_psi = mass_functional(ZonalField(bg.grid, np.stack(fields)), bg).tolist()
    return [SweepRow(alpha=float(alpha), m_psi=m, sphere_value=sphere_value,
                     margin=m - sphere_value, mu=mu)
            for alpha, m in zip(alphas, m_psi)]


def profile_norm_defect(alpha: float, epsilon: float, bg: ConformalBackground) -> float:
    """||psi_alpha||_p^p relative to the alpha-independent flat-space value."""
    psi = capped_bubble(ProfileParams(alpha=alpha, epsilon=epsilon, n=bg.params.n), bg.grid)
    flat = 2.0 ** (-bg.params.n) * bg.params.omega_n
    return integrate(ZonalField(bg.grid, np.abs(psi.values) ** bg.params.p)) / flat
