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

One engine runs a (B, N) stack of starts in lockstep (``maximize_stack``); a
single start (``maximize_mass_functional``) is the B = 1 case.  Each row keeps
its own step, line-search count, stage, residual, history and stop reason, and
follows the one-field algorithm above step for step, with the same caps, read
at call time.  In each round every unfinished row makes one line-search trial
or one polish step: the rows that need a new Sobolev direction and the rows
that need a polish right-hand side share one ``apply_multiplier``, and all
trials and polish candidates share one projection (clip, per-row L^p
normalization, one application of P).  A row that finishes leaves the stack
and costs no further transforms.  The certificate (residual, constant mass,
functional value) then runs once on the whole stack.  The rows' scalar state
lives in Python lists and the fields in (B, N) arrays: for the few rows of a
stack, list updates cost less than numpy calls on arrays of B scalars, which
would make a lone start noticeably slower.

A stacked row agrees with the same start run alone within float64 rounding,
not bit for bit: the kernel sums the remainder column of a wider GEMM in
another order (see ``zonal``), and the (B, N) reductions of a stack use
another BLAS kernel than the dot product of one field.  Near a stopping test
that can move a row's step counts by a few.

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
from .zonal import ZonalField, ZonalGrid, _per_field, lp_norm, random_band_limited

_STEP0 = 1.0  # first line-search step
_POSITIVITY_FLOOR = 1e-8  # iterates are clipped here before renormalizing
_MAX_ITERS = 2000  # ascent steps
_MAX_POLISH = 200  # Picard polish steps
_MAX_TRIALS = 60  # line-search trials per ascent step


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
    iterations: int  # ascent_steps + polish_steps
    converged: bool
    stop_reason: str  # tolerance_met | polish_stalled | max_iters | max_polish (module docstring)
    ascent_steps: int  # line searches, a final one that found no increase included
    backtracks: int  # rejected line-search trials
    polish_steps: int  # accepted polish steps
    # accepted functional values of the ascent, nondecreasing
    history: tuple[float, ...] = field(repr=False, default=())


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two fields or stacks, each row summed as a lone
    vector's (a stack of 1 x N by N x 1 products)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def euler_lagrange_residual(u: ZonalField, bg: ConformalBackground):
    """(Lambda, residual) of P u = Lambda u^{p-1} with the Rayleigh Lambda.

    Floats for one field, arrays of B values for a stack.
    """
    if np.any(u.values <= 0):
        raise ValueError("Euler-Lagrange residual needs u > 0")
    p = bg.params.p
    w = u.grid.weights
    uv = u.values
    pu = p_operator_apply(u, bg).values
    lam = ((uv * pu) @ w) / ((uv**p) @ w)
    mismatch = pu - lam[..., None] * uv ** (p - 1.0)
    residual = np.sqrt((mismatch**2) @ w) / np.sqrt((pu**2) @ w)
    return _per_field(lam), _per_field(residual)


def constant_mass_check(u: ZonalField, bg: ConformalBackground):
    """Mean and relative deviation of the pushed-forward mass field.

    Statistics are taken in the volume element of the new metric,
    dV_new = u^p dV.  Floats for one field, arrays of B values for a stack.
    """
    if np.any(u.values <= 0):
        raise ValueError("constant-mass check needs u > 0")
    mass = mass_pushforward(u, bg).values
    wnew = u.values ** bg.params.p * u.grid.weights
    total = wnew.sum(axis=-1)
    mean = _row_dot(mass, wnew) / total
    var = _row_dot((mass - np.expand_dims(mean, -1)) ** 2, wnew) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        reldev = np.where(mean != 0, np.sqrt(var) / np.abs(mean), np.inf)
    return _per_field(mean), _per_field(reldev)


def fit_dilation_orbit(u: ZonalField, bg: ConformalBackground):
    """Best dilation strength t and the sup-distance of p-normalized profiles.

    Golden-section search for the minimum of the gap over t in [-6, 6], down
    to a bracket of width 1e-12 (about 60 gap evaluations).  A stack is
    searched row by row at once, one stacked gap evaluation per step; floats
    for one field, arrays of B values for a stack.
    """
    p = bg.params.p
    ref = u.values / np.expand_dims(lp_norm(u, p), -1)

    def gap(t: np.ndarray) -> np.ndarray:
        cand = dilation_factor(t[..., None], u.grid)
        return np.abs(ref - cand.values / np.expand_dims(lp_norm(cand, p), -1)).max(axis=-1)

    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.full(u.values.shape[:-1], -6.0), np.full(u.values.shape[:-1], 6.0)
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    g_left, g_right = gap(left), gap(right)
    while True:
        # each row keeps its own bracket; they shrink alike, but rounding may
        # close one a step before another
        open_ = hi - lo > 1e-12
        if not open_.any():
            break
        lower = g_left < g_right
        go_left, go_right = open_ & lower, open_ & ~lower
        # moving left: hi, right, g_right = right, left, g_left; a new left
        hi, lo = np.where(go_left, right, hi), np.where(go_right, left, lo)
        right, g_right, left, g_left = (np.where(go_left, left, right),
                                        np.where(go_left, g_left, g_right),
                                        np.where(go_right, right, left),
                                        np.where(go_right, g_right, g_left))
        probe = np.where(go_left, hi - shrink * (hi - lo), lo + shrink * (hi - lo))
        g_probe = gap(probe)
        left, g_left = np.where(go_left, probe, left), np.where(go_left, g_probe, g_left)
        right, g_right = np.where(go_right, probe, right), np.where(go_right, g_probe, g_right)
    best = g_left < g_right
    return _per_field(np.where(best, left, right)), _per_field(np.where(best, g_left, g_right))


def _rows(stack: np.ndarray, rows: list[int]) -> np.ndarray:
    """The given rows (ascending) of a stack; the stack itself when they are all of them."""
    return stack if len(rows) == len(stack) else stack[rows]


def _project(vals: np.ndarray, bg: ConformalBackground):
    """Clip a (B, N) stack at the positivity floor, renormalize each row to
    ||u||_p = 1 and apply P.

    Returns (u, P u, M(u)); with ||u||_p = 1 the functional is -int u P u.
    """
    u = np.clip(vals, _POSITIVITY_FLOOR, None)
    u /= lp_norm(ZonalField(bg.grid, u), bg.params.p)[:, None]
    pu = p_operator_apply(ZonalField(bg.grid, u), bg).values
    return u, pu, -((u * pu) @ bg.grid.weights)


def _residual(u: np.ndarray, pu: np.ndarray, m_val: np.ndarray, p: float, w: np.ndarray):
    """Euler-Lagrange residual fields of a stack and their L2 sizes relative to ||P u||."""
    r = -(pu + m_val[:, None] * np.abs(u) ** (p - 2.0) * u)
    return r, np.sqrt((r * r) @ w) / np.sqrt((pu * pu) @ w)


def seeded_start(grid: ZonalGrid, seed) -> ZonalField:
    """The optimizer's default start: 1 plus a smooth degree-6 perturbation of
    sup norm 0.1, shifted so its minimum is 1.  An array of seeds gives the
    stack of the per-seed starts."""
    pert = random_band_limited(grid, seed, l_max=6, amplitude=0.1).values
    return ZonalField(grid, 1.0 + pert - pert.min(axis=-1, keepdims=True))


def maximize_mass_functional(bg: ConformalBackground, cfg: OptimizerConfig | None = None,
                             start: ZonalField | None = None) -> OptimizerResult:
    """Run the ascent and the polish from one start, then certify the final iterate.

    The start defaults to ``seeded_start(bg.grid, cfg.seed)``.  Returns
    converged=False (with diagnostics populated) when the iterate cannot reach
    ``tol_residual``; raises FloatingPointError on NaN/overflow.
    """
    cfg = cfg or OptimizerConfig()
    if start is None:
        start = seeded_start(bg.grid, cfg.seed)
    elif start.values.ndim != 1:
        raise ValueError("one starting field expected; maximize_stack takes a stack")
    (result,) = maximize_stack(bg, ZonalField(start.grid, start.values[None]), cfg)
    return result


def maximize_stack(bg: ConformalBackground, starts: ZonalField,
                   cfg: OptimizerConfig | None = None) -> list[OptimizerResult]:
    """Run the ascent and the polish on a (B, N) stack of starts in lockstep, then
    certify every row; one result per row (module docstring).

    ``cfg.seed`` is not read: ``seeded_start(grid, seeds)`` gives a stack of
    seeded starts.  Raises FloatingPointError when any row goes non-finite.
    """
    cfg = cfg or OptimizerConfig()
    if np.any(starts.values <= 0):
        raise ValueError("starting field must be positive")
    p = bg.params.p
    grid = bg.grid
    w = grid.weights
    n, c_n = bg.params.n, bg.params.c_n
    # (c_n D + shift)^{-1}, diagonal in the Gegenbauer basis
    inv_sphere_op = 1.0 / (c_n * (grid.laplacian_eigenvalues + n * (n - 2) / 4.0))
    mass_shift = bg.mass_field().values + c_n * (n * (n - 2) / 4.0)
    # read at call time: tests lower the caps
    tol, max_iters, max_polish = cfg.tol_residual, _MAX_ITERS, _MAX_POLISH

    # The fields are (B, N) stacks; each row's scalar state is a list entry.
    u, pu, m_start = _project(starts.values.reshape(-1, grid.size), bg)
    grad, res_start = _residual(u, pu, m_start, p, w)
    direction = np.empty_like(u)
    rows = range(m_start.shape[0])
    m_val, residual = m_start.tolist(), [math.inf for _ in rows]
    step = [_STEP0 for _ in rows]
    trials = [0 for _ in rows]  # of the current line search
    ascent_steps, backtracks, polish_steps = ([0 for _ in rows] for _ in range(3))
    stop = ["max_iters" for _ in rows]  # until a stage ends otherwise
    history = [[v] for v in m_val]
    # the round's work: rows that need a new Sobolev direction (their residual
    # fields are the rows of ``grad``), rows whose line search goes on, rows in
    # the polish
    fresh, search_on, polish = [], [], []

    def to_polish(i):
        if polish_steps[i] < max_polish:
            polish.append(i)
        else:
            stop[i] = "max_polish"

    def ascent_step(i, res):
        """Start row i's next ascent step at residual ``res``; True if it needs
        a direction."""
        if ascent_steps[i] >= max_iters:
            to_polish(i)
            return False
        if not math.isfinite(res):
            raise FloatingPointError("optimizer produced a non-finite residual")
        residual[i] = res
        if res < tol:
            stop[i] = "tolerance_met"
            return False
        fresh.append(i)
        return True

    for i, res in zip(rows, res_start.tolist()):
        ascent_step(i, res)
    grad = grad[fresh]
    while fresh or search_on or polish:
        # one multiplier for the new directions and the polish right-hand sides
        sources = grad
        if polish:
            uv = _rows(u, polish)
            lam = -np.array([m_val[i] for i in polish]) / ((np.abs(uv) ** p) @ w)
            rhs = lam[:, None] * np.abs(uv) ** (p - 2.0) * uv + mass_shift * uv
            sources = np.concatenate([grad, rhs])
        if fresh or polish:
            mapped = grid.apply_multiplier(sources, inv_sphere_op)
            direction[fresh] = mapped[: len(fresh)]
        for i in fresh:
            trials[i] = 0
        # one projection for the line-search trials and the polish candidates
        search = sorted(fresh + search_on)
        trial = (_rows(u, search) + np.array([step[i] for i in search])[:, None]
                 * _rows(direction, search))
        cand, pcand, m_cand = _project(
            np.concatenate([trial, mapped[len(fresh):]]) if polish else trial, bg)
        m_list = m_cand.tolist()
        if not all(map(math.isfinite, m_list[: len(search)])):
            raise FloatingPointError("optimizer produced a non-finite value")
        up = [m_list[j] > m_val[i] for j, i in enumerate(search)]
        if polish or any(up):
            cand_grad, cand_res = _residual(cand, pcand, m_cand, p, w)
            res_list = cand_res.tolist()

        moved, taken = [], []  # rows that take a candidate, and its position
        polishing, fresh, search_on, polish = polish, [], [], []
        fresh_at = []  # candidate positions of the rows in ``fresh``
        for j, i in enumerate(search):
            if up[j]:
                moved.append(i)
                taken.append(j)
                m_val[i] = m_list[j]
                history[i].append(m_list[j])
                step[i] *= 1.5
                ascent_steps[i] += 1
                if ascent_step(i, res_list[j]):
                    fresh_at.append(j)
                continue
            backtracks[i] += 1
            trials[i] += 1
            if np.array_equal(trial[j], u[i]):
                stalled = True  # every smaller step rounds to this same trial
            else:
                step[i] *= 0.5
                stalled = trials[i] >= _MAX_TRIALS
            if stalled:
                # M at its working-precision plateau: hand over to the polish
                ascent_steps[i] += 1
                stop[i] = "polish_stalled"
                to_polish(i)
            else:
                search_on.append(i)
        for j, i in enumerate(polishing, len(search)):
            if not math.isfinite(res_list[j]):
                raise FloatingPointError("polish produced a non-finite residual")
            if res_list[j] >= residual[i]:
                continue  # the polish stalled: the row is done
            moved.append(i)
            taken.append(j)
            m_val[i], residual[i] = m_list[j], res_list[j]
            polish_steps[i] += 1
            if residual[i] < tol:
                stop[i] = "tolerance_met"
            else:
                to_polish(i)
        if moved == taken == list(rows):
            u, pu = cand, pcand
        else:
            u[moved], pu[moved] = cand[taken], pcand[taken]
        polish.sort()
        grad = cand_grad[fresh_at] if fresh_at else np.empty((0, grid.size))

    final = ZonalField(grid, u)
    lam, certified = euler_lagrange_residual(final, bg)
    mass_mean, mass_reldev = constant_mass_check(final, bg)
    # report the canonical (cross-checked) functional value at the optimum
    value = mass_functional(final, bg)
    return [
        OptimizerResult(
            u_star=ZonalField(grid, u[i]),
            value=float(value[i]),
            lam=float(lam[i]),
            residual=float(certified[i]),
            mass_mean=float(mass_mean[i]),
            mass_reldev=float(mass_reldev[i]),
            iterations=ascent_steps[i] + polish_steps[i],
            converged=bool(certified[i] <= tol),
            stop_reason=stop[i],
            ascent_steps=ascent_steps[i],
            backtracks=backtracks[i],
            polish_steps=polish_steps[i],
            history=tuple(history[i]),
        )
        for i in rows
    ]
