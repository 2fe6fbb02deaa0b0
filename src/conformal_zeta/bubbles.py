"""Concentrated test profiles, their moment asymptotics, and functional sweeps.

The flat-space profile u_a(r) = ((r^2 + a^2)/a)^{(2-n)/2} is the standard
sharp-Sobolev bubble; its L^p norm (p = 2n/(n-2)) is independent of the
concentration scale a, with int u_a^p = 2^{-n} omega_n.  Glued onto the sphere
through a smooth cutoff at a polar cap it probes the mass functional near the
concentration limit; the second-moment integrals int u_a^2 r^{k+n-1} dr obey a
three-branch rate law in a (a^{k+2}, a^{k+2} log(1/a), or a^{n-2}) that the
rate-fitting helper detects from data.

The rate experiment runs on radial quadratures alone, so the grid and
operator layers (``zonal``, ``functionals``) are imported by the functions that
put profiles on a grid, and ``rates`` never loads them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ZeroFieldError
from .gauss import jacobi_polish, jacobi_start
from .params import RATE_CAP_DEFAULT, check_dimension, sphere_volume

if TYPE_CHECKING:
    from .background import ConformalBackground
    from .zonal import ZonalField

# concentration scales of the rate experiment (``decay_rate``)
RATE_ALPHAS = np.logspace(-3, -1, 25)
RATE_ALPHAS.setflags(write=False)

MIN_FIT_SAMPLES = 8
MIN_FIT_DECADES = 2.0

# nodes of the Gauss rules on [0, 1] behind the radial quadratures
_JACOBI_NODES = 40

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_cap_half_width(epsilon: float) -> None:
    """Raise ValueError unless the cap half-width has 0 < epsilon < pi/2."""
    if not (0.0 < epsilon < math.pi / 2.0):
        raise ValueError("epsilon must lie in (0, pi/2) so the support fits a hemisphere")


def bubble_profile(alpha, r, n: int):
    """((r^2 + alpha^2)/alpha)^{(2-n)/2}; scalar or array in alpha and r, broadcast."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
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


def capped_bubble(alpha, epsilon: float, grid) -> ZonalField:
    """The glued profile eta(theta) u_alpha(theta) on the grid, zero past 2 eps;
    an array of scales gives one row per scale, all under one cutoff."""
    from .zonal import ZonalField

    alpha = np.asarray(alpha, dtype=float)
    check_cap_half_width(epsilon)
    theta = grid.theta
    profile = bubble_profile(alpha[..., None] if alpha.ndim else alpha, theta, grid.n)
    return ZonalField(grid, smooth_cutoff(epsilon, theta) * profile)


def bubble_moment(alpha, epsilon: float, k: float, n: int):
    """int_0^eps u_alpha(r)^2 r^{k+n-1} dr by Gauss quadrature.

    Computed in the self-similar variable r = alpha t, where the integrand
    t^{k+n-1} (1+t^2)^{2-n} is scale-free and the prefactor alpha^{k+2} is
    exact; this keeps the quadrature well conditioned across the whole
    concentration range.  ``alpha`` may be an array of scales: the moments
    of all of them go through one quadrature, one value per scale.  Raises
    OverflowError when t^{k+n-1} overflows a float at the upper limit
    t = eps/alpha of any scale.
    """
    check_dimension(n)
    if k <= -n:
        raise ValueError(f"need k > -n for convergence, got k={k}, n={n}")
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0) or epsilon <= 0:
        raise ValueError("alpha and epsilon must be positive")
    m = k + n - 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # eps/alpha may overflow or underflow
        top = float(epsilon) / alpha
        over = (top > 0.0) & (m * np.log(np.where(top > 0.0, top, 1.0)) > _LOG_FLOAT_MAX)
    if np.any(over):
        raise OverflowError(f"t^{m:g} overflows at t = {top[over].flat[0]:g}")
    out = alpha ** (k + 2.0) * _radial_moment(m, n - 2.0, top)
    return float(out) if out.ndim == 0 else out


def _radial_moment(m: float, q: float, top, factor=np.ones_like):
    """int_0^top t^m (1+t^2)^{-q} factor(t) dt, for m > -1 and a smooth factor;
    ``top`` may be an array of upper limits, one moment each.

    * [0, min(top, 1)]: Gauss-Jacobi for the weight t^m.
    * [1, top]: u = ln t, and Gauss-Legendre (the Gauss-Jacobi rule with
      beta = 0) on unit panels in u, as many as the largest top needs; a
      smaller top's panels past its own end have width 0.  The integrand
      exp((m+1) u - q ln(1 + e^{2u})) is formed in log form, so t^{m+1} and
      (1+t^2)^{-q} never overflow or underflow apart.
    * [1, inf) where top is infinite: s = 1/t gives s^{2q-m-2} (1+s^2)^{-q}
      on [0, 1], and Gauss-Jacobi for the weight s^{2q-m-2}.
    """
    top = np.asarray(top, dtype=float)
    head = np.minimum(top, 1.0)
    x, w = _jacobi_rule(m)
    t = head[..., None] * x
    total = head ** (m + 1.0) * (((1.0 + t * t) ** -q * factor(t)) @ w)
    length = np.log(np.maximum(top, 1.0))
    finite = np.isfinite(length)
    if not finite.all():
        s, w = _jacobi_rule(2.0 * q - m - 2.0)
        total = total + np.where(finite, 0.0, w @ ((1.0 + s * s) ** -q * factor(1.0 / s)))
    length = np.where(finite, length, 0.0)
    panels = math.ceil(length.max())
    if panels:
        y, w = _jacobi_rule(0.0)
        edges = np.minimum(np.arange(panels + 1.0), length[..., None])
        width = np.diff(edges)[..., None]
        u = edges[..., :-1, None] + width * y
        integrand = np.exp((m + 1.0) * u - q * np.logaddexp(0.0, 2.0 * u)) * factor(np.exp(u))
        total = total + (width * w * integrand).sum(axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


@lru_cache(maxsize=128)
def _jacobi_rule(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule for int_0^1 x^beta g(x) dx, beta > -1.

    The Gauss-Jacobi rule with alpha = 0 on (-1, 1) (``gauss``), mapped to
    x = (1+z)/2, with the weights scaled to sum to int_0^1 x^beta dx =
    1/(beta+1).  The float64 start is polished twice in longdouble, since a
    step takes its weights at the nodes it starts from: after one step they
    hold 1e-13 to 2e-11 relative, after two 3e-15 at beta = -0.99 and 2e-16
    at beta = 0..203.  alpha and beta go in as longdouble, since the
    recurrence's coefficients are formed from them; as floats they would
    leave 2.4e-13 at beta = -0.99.
    """
    if not beta > -1.0:
        raise ValueError(f"int_0^1 x^beta dx diverges for beta={beta:g}")
    z = jacobi_start(_JACOBI_NODES, 0.0, beta).astype(np.longdouble)
    for _ in range(2):
        z, w = jacobi_polish(z, np.longdouble(0), np.longdouble(beta), _JACOBI_NODES)
    nodes = ((1 + z) / 2).astype(float)
    weights = (w / (w.sum() * (beta + 1))).astype(float)
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


def decay_rate(n: int, k: float, cap: float = RATE_CAP_DEFAULT) -> RateFit:
    """The rate experiment: ``bubble_moment`` up to ``cap`` at every scale of
    RATE_ALPHAS, all in one call, fitted by ``fit_decay_rate``.  Raises
    OverflowError as ``bubble_moment`` does."""
    values = bubble_moment(RATE_ALPHAS, cap, k, n)
    return fit_decay_rate(RATE_ALPHAS, values, n, k)


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
    The bubbles are built as one stack (``capped_bubble``) and go through the
    mass functional as one.  Raises ZeroFieldError, naming the first such
    scale, when a bubble is zero at every node.
    """
    from .functionals import mass_functional

    sphere_value = bg.params.sphere_value
    cap = bg.grid.theta <= 2.0 * epsilon
    mu = float(bg.mnor.values[cap].min()) if np.any(cap) else float("nan")
    alphas = np.asarray(alphas, dtype=float)
    if not alphas.size:
        return []
    psi = capped_bubble(alphas, epsilon, bg.grid)
    empty = ~psi.values.any(axis=-1)
    if empty.any():
        raise ZeroFieldError(
            f"the capped bubble for n={bg.params.n}, alpha={alphas[empty.argmax()]:g} is zero at "
            f"every node of the {bg.grid.size}-node grid: no node lies inside its cap, or the "
            "profile underflows")
    m_psi = mass_functional(psi, bg).tolist()
    return [SweepRow(alpha=float(alpha), m_psi=m, sphere_value=sphere_value,
                     margin=m - sphere_value, mu=mu)
            for alpha, m in zip(alphas, m_psi)]

