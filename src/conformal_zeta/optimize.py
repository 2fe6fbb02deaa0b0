"""Maximization of the mass functional over positive conformal factors.

Projected ascent on u -> M(u) at the critical exponent p = 2n/(n-2): at each
step the Euler-Lagrange residual field

    r = -(P u - Lambda |u|^{p-2} u),   Lambda = int u P u / int |u|^p,

is mapped through the inverse of the positive sphere operator
c_n (D + n(n-2)/4) -- a Sobolev-metric gradient, diagonal in the Gegenbauer
basis -- and a backtracking line search accepts only M-increases, after which
the iterate is clipped at the positivity floor and renormalized to
||u||_p = 1.  The Sobolev direction converges in tens of steps; the plain L2
gradient has the same fixed points but needs ~10^5 iterations at these grid
resolutions.

Once M stops improving at working precision, a short Picard polish
(u <- A^{-1}[Lambda |u|^{p-2} u + (m_g + shift) u], A = c_n D + shift) drives
the residual itself to tolerance; polish steps are accepted only while the
residual decreases.  The ascent is needed first: the polish alone stalls far
from the optimum on a background with mass data.

``OptimizerResult.stop_reason`` says what ended the run: ``tolerance_met``
(the residual fell below tolerance in either stage), ``polish_stalled`` (the
ascent reached its plateau, then a polish step failed to lower the residual),
``max_iters`` (the ascent used all _MAX_ITERS steps, then the polish stalled)
or ``max_polish`` (the polish used all _MAX_POLISH steps).

P is applied through ``laws.p_operator_apply`` and A^{-1} through
``ZonalGrid.apply_multiplier``, the same operator layer the laws and the
functionals use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .background import ConformalBackground
from .functionals import dilation_factor, mass_functional
from .laws import mass_pushforward, p_operator_apply
from .zonal import ZonalField, inner, lp_norm, random_band_limited

_STEP0 = 1.0  # first line-search step
_POSITIVITY_FLOOR = 1e-8  # iterates are clipped here before renormalizing
_MAX_ITERS = 2000  # ascent steps
_MAX_POLISH = 200  # Picard polish steps


@dataclass(frozen=True)
class OptimizerConfig:
    tol_residual: float = 1e-8
    seed: int = 0


@dataclass(frozen=True)
class OptimizerResult:
    u_star: ZonalField
    value: float
    lam: float
    residual: float
    mass_mean: float
    mass_reldev: float
    iterations: int
    converged: bool
    stop_reason: str  # tolerance_met | polish_stalled | max_iters | max_polish (module docstring)
    # accepted functional values of the ascent, nondecreasing
    history: tuple[float, ...] = field(repr=False, default=())


def euler_lagrange_residual(u: ZonalField, bg: ConformalBackground) -> tuple[float, float]:
    """(Lambda, residual) of P u = Lambda u^{p-1} with the Rayleigh Lambda."""
    if np.any(u.values <= 0):
        raise ValueError("Euler-Lagrange residual needs u > 0")
    p = bg.params.p
    w = u.grid.weights
    pu = p_operator_apply(u, bg).values
    lam = float((u.values * pu) @ w) / float((u.values**p) @ w)
    mismatch = pu - lam * u.values ** (p - 1.0)
    residual = math.sqrt(float((mismatch**2) @ w)) / math.sqrt(float((pu**2) @ w))
    return lam, residual


def constant_mass_check(u: ZonalField, bg: ConformalBackground) -> tuple[float, float]:
    """Mean and relative deviation of the pushed-forward mass field.

    Statistics are taken in the volume element of the new metric,
    dV_new = u^p dV.
    """
    if np.any(u.values <= 0):
        raise ValueError("constant-mass check needs u > 0")
    mass = mass_pushforward(u, bg).values
    wnew = u.values ** bg.params.p * u.grid.weights
    mean = float((mass @ wnew) / wnew.sum())
    var = float((((mass - mean) ** 2) @ wnew) / wnew.sum())
    reldev = math.sqrt(var) / abs(mean) if mean != 0 else math.inf
    return mean, reldev


def fit_dilation_orbit(u: ZonalField, bg: ConformalBackground) -> tuple[float, float]:
    """Best dilation strength t and the sup-distance of p-normalized profiles.

    Golden-section search for the minimum of the gap over t in [-6, 6], down
    to a bracket of width 1e-12 (about 60 gap evaluations).
    """
    p = bg.params.p
    ref = u.values / lp_norm(u, p)

    def gap(t: float) -> float:
        cand = dilation_factor(t, u.grid)
        return float(np.abs(ref - cand.values / lp_norm(cand, p)).max())

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -6.0, 6.0
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    g_left, g_right = gap(left), gap(right)
    while hi - lo > 1e-12:
        if g_left < g_right:
            hi, right, g_right = right, left, g_left
            left = hi - shrink * (hi - lo)
            g_left = gap(left)
        else:
            lo, left, g_left = left, right, g_right
            right = lo + shrink * (hi - lo)
            g_right = gap(right)
    return (left, g_left) if g_left < g_right else (right, g_right)


def _project(vals: np.ndarray, bg: ConformalBackground):
    """Clip at the positivity floor, renormalize to ||u||_p = 1 and apply P.

    Returns (u, P u, M(u)); with ||u||_p = 1 the functional is -int u P u.
    """
    u = ZonalField(bg.grid, np.clip(vals, _POSITIVITY_FLOOR, None))
    u = ZonalField(bg.grid, u.values / lp_norm(u, bg.params.p))
    pu = p_operator_apply(u, bg)
    return u, pu, -inner(u, pu)


def _residual(u: ZonalField, pu: ZonalField, m_val: float, p: float) -> tuple[np.ndarray, float]:
    """Euler-Lagrange residual field and its L2 size relative to ||P u||."""
    r = -(pu.values + m_val * np.abs(u.values) ** (p - 2.0) * u.values)
    w = u.grid.weights
    return r, math.sqrt(float((r * r) @ w)) / math.sqrt(float((pu.values * pu.values) @ w))


def maximize_mass_functional(bg: ConformalBackground, cfg: OptimizerConfig | None = None,
                             start: ZonalField | None = None) -> OptimizerResult:
    """Run the ascent and the polish, then certify the final iterate.

    Returns converged=False (with diagnostics populated) when the iterate
    cannot reach ``tol_residual``; raises FloatingPointError on NaN/overflow.
    """
    cfg = cfg or OptimizerConfig()
    p = bg.params.p
    grid = bg.grid
    n, c_n = bg.params.n, bg.params.c_n
    # (c_n D + shift)^{-1}, diagonal in the Gegenbauer basis
    inv_sphere_op = 1.0 / (c_n * (grid.laplacian_eigenvalues + n * (n - 2) / 4.0))
    mass_shift = bg.mass_field().values + c_n * (n * (n - 2) / 4.0)

    if start is None:
        pert = random_band_limited(grid, cfg.seed, l_max=6, amplitude=0.1)
        u = ZonalField(grid, 1.0 + pert.values - pert.values.min())
    elif np.any(start.values <= 0):
        raise ValueError("starting field must be positive")
    else:
        u = start

    tol = cfg.tol_residual
    iterations = 0
    stop_reason = "max_iters"  # until a stage ends otherwise
    u, pu, m_val = _project(u.values, bg)
    step = _STEP0
    accepted: list[float] = [m_val]
    for _ in range(_MAX_ITERS):
        r, residual = _residual(u, pu, m_val, p)
        if not math.isfinite(residual):
            raise FloatingPointError("optimizer produced a non-finite residual")
        if residual < tol:
            stop_reason = "tolerance_met"
            break
        direction = grid.apply_multiplier(r, inv_sphere_op)
        improved = False
        for _ in range(60):
            trial = u.values + step * direction
            cand, pcand, m_cand = _project(trial, bg)
            if not math.isfinite(m_cand):
                raise FloatingPointError("optimizer produced a non-finite value")
            if m_cand > m_val:
                u, pu, m_val = cand, pcand, m_cand
                accepted.append(m_val)
                step *= 1.5
                improved = True
                break
            if np.array_equal(trial, u.values):
                break  # every smaller step rounds to this same rejected trial
            step *= 0.5
        iterations += 1
        if not improved:
            stop_reason = "polish_stalled"  # unless the polish meets tol or its cap
            break  # M at working-precision plateau; hand over to polish

    # Picard polish: drive the residual itself once M is flat.
    if residual >= tol:
        for _ in range(_MAX_POLISH):
            uv = u.values
            lam = -m_val / float((np.abs(uv) ** p) @ grid.weights)
            rhs = lam * np.abs(uv) ** (p - 2.0) * uv + mass_shift * uv
            cand, pcand, m_cand = _project(grid.apply_multiplier(rhs, inv_sphere_op), bg)
            _, res_cand = _residual(cand, pcand, m_cand, p)
            if not math.isfinite(res_cand):
                raise FloatingPointError("polish produced a non-finite residual")
            if res_cand >= residual:
                break
            u, pu, m_val, residual = cand, pcand, m_cand, res_cand
            iterations += 1
            if residual < tol:
                stop_reason = "tolerance_met"
                break
        else:
            stop_reason = "max_polish"

    lam, residual = euler_lagrange_residual(u, bg)
    mass_mean, mass_reldev = constant_mass_check(u, bg)
    converged = residual <= cfg.tol_residual
    # report the canonical (cross-checked) functional value at the optimum
    value = mass_functional(u, bg)
    return OptimizerResult(
        u_star=u,
        value=value,
        lam=lam,
        residual=residual,
        mass_mean=mass_mean,
        mass_reldev=mass_reldev,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        history=tuple(accepted),
    )
