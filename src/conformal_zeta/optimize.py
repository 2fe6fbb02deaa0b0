"""Maximization of the mass functional over positive conformal factors.

Projected ascent on u -> M(u) at the critical exponent p = 2n/(n-2): at each
step the Euler-Lagrange residual field

    r = -(P u - Lambda |u|^{p-2} u),   Lambda = int u P u / int |u|^p,

is mapped through the inverse of the positive sphere operator
A = c_n (D + n(n-2)/4) -- a Sobolev-metric gradient, diagonal in the
Gegenbauer basis -- and a backtracking line search accepts only M-increases,
after which the iterate is clipped at the positivity floor and renormalized to
||u||_p = 1.  The Sobolev direction converges in tens of steps; the plain L2
gradient has the same fixed points but needs ~10^5 iterations at these grid
resolutions.

Each rejected trial halves the step.  To first order a step s along
A^{-1} r raises M by 2 s <r, A^{-1} r>_w; once that predicted gain of the
next trial is below eps |M|, no trial can raise M at working precision, and
the line search stalls (_MAX_TRIALS trials is the backstop).  ``backtracks``
counts the rejected trials, the stalling one included.  On a stall a short
Picard polish drives the residual itself to tolerance.  A polish step is the
ascent's own step at unit length, u <- u + A^{-1} r, accepted only while the
residual decreases.  On the round S^n, m_g = m_nor - c_n n(n-2)/4, so
P = A - m_nor, and at ||u||_p = 1

    u + A^{-1} r = A^{-1}[Lambda |u|^{p-2} u + m_nor u],

which is the Picard map.  The ascent is needed first: the polish alone stalls
far from the optimum on a background with mass data.

The tolerance is tested at the start and in the polish only.  It sits near
the ascent's working-precision plateau, where the residual is about sqrt(eps),
so whether an ascent step crosses it just before the line search stalls hangs
on the last bits of the kernel's rounding, and a row stopped there can keep a
constant-mass deviation of 2e-7 at a residual below 1e-8.  So a row whose
ascent step lands below tolerance ascends on to its plateau, and every run
that starts above tolerance ends in the polish.

``OptimizerResult.stop_reason`` says what ended the run: ``tolerance_met``
(the residual was below tolerance at the start or after a polish step),
``polish_stalled`` (the ascent reached its plateau, then a polish step failed
to lower the residual), ``max_iters`` (the ascent used all _MAX_ITERS steps,
then the polish stalled) or ``max_polish`` (the polish used all _MAX_POLISH
steps).

One engine runs a (B, N) stack of starts in lockstep (``maximize_stack``); a
single start (``maximize_mass_functional``) is the B = 1 case.  Each row keeps
its own step, line-search count, stage, residual, history and stop reason, and
follows the one-field algorithm above step for step, with the same caps, read
at call time.  In each round every unfinished row makes one trial: a
line-search trial or a polish step.  All trials share one projection (clip,
per-row L^p normalization, the images P u, the residual fields r).  The
iterates u, their images P u, their residual fields r, the directions d and
their images P d are (B, N) stacks indexed by row; a row that takes its trial
copies the candidate's rows into u, P u and r.  A row that moved needs a new
direction, and these rows share one ``apply_multiplier`` on their rows of r;
its image is pointwise, P d = A d - m_nor d = r - m_nor d.  A row whose trial
was rejected keeps its direction, so a stalled line search hands it to the
first polish step.  A finished row leaves the round and costs no further
transforms; the certificate (``certify``: Lambda, the residual and the mass
statistics from one P u) and the functional value then run once on the
whole stack.  Row scalars live in Python lists: numpy masks and index arrays
gave the same results bit for bit but were slower, 18-25 ms against 13-17 ms
for the suite's lone bump start and 20-21 ms against 17-18 ms for its 10-seed
stack (N = 256, 2-vCPU x86-64, minimum of 30 calls).

P is linear, so a line-search trial's image needs no transform:
P(u + s d) / nu = (P u + s P d) / nu, nu the trial's L^p norm.  P is applied
afresh, in one ``p_operator_apply`` per round, only at the start, to every
polish trial and to a trial row that the positivity clip touches, where the
clipped trial is no longer u + s d.  A fresh P carries the rounding of the
iterate's samples, amplified by the Laplacian; a carried image does not, so
the polish, a fixed-point iteration, would drive a carried residual below
what the certificate recomputes.  Fresh polish trials keep the residual a run
stops on the certificate's: with images carried through the polish too, the
bump run from 1 + 0.3x stopped ``tolerance_met`` at tolerances 1e-14 and
1e-13 while the certified residual stayed 78 and 7 times above them.  The
suite's bump run takes 87 kernel products, against 201 with P applied to
every trial.

A stacked row agrees with the same start run alone within float64 rounding,
not bit for bit: BLAS may sum a row of the kernel's wider GEMM in another
order than a lone field's product (see ``zonal``), and the (B, N) reductions
of a stack use another BLAS kernel than the dot product of one field.  Near a stopping test
that can move a row's step counts by a few.

P is applied through ``laws.p_operator_apply`` and A^{-1} through
``ZonalGrid.apply_multiplier``, the same operator layer the laws and the
functionals use, with the shift n(n-2)/4 of ``DimensionParams.sphere_shift``.
The pointwise images P d and P u + s P d and the certificate's statistics run
under the projection's overflow rule, so an overflow raises
FloatingPointError and no numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .background import ConformalBackground
from .functionals import dilation_factor, mass_functional
from .laws import p_operator_apply, pushed_mass
from .params import OPTIMIZER_SEED_DEFAULT, OPTIMIZER_TOL_DEFAULT
from .zonal import ZonalField, ZonalGrid, _per_field, lp_norm, random_band_limited

_STEP0 = 1.0  # first line-search step
_POSITIVITY_FLOOR = 1e-8  # iterates are clipped here before renormalizing
_MAX_ITERS = 2000  # ascent steps
_MAX_POLISH = 200  # Picard polish steps
_MAX_TRIALS = 60  # line-search trials per ascent step
_EPS = float(np.finfo(float).eps)


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
    # tolerance_met (at the start or after a polish step) | polish_stalled |
    # max_iters | max_polish (module docstring)
    stop_reason: str
    ascent_steps: int  # line searches, a final one that found no increase included
    backtracks: int  # rejected line-search trials, a stalling one included
    polish_steps: int  # accepted polish steps
    # accepted functional values of the ascent, nondecreasing
    history: tuple[float, ...] = field(repr=False, default=())


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two fields or stacks, each row summed as a lone
    vector's (a stack of 1 x N by N x 1 products)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def certify(u: ZonalField, bg: ConformalBackground):
    """(Lambda, residual, mass mean, mass deviation) of u > 0, from one P u.

    Lambda = int u P u / int u^p, residual = ||P u - Lambda u^{p-1}|| / ||P u||;
    a maximizer's mass field (``laws.pushed_mass``) is constant, and its mean
    and relative deviation are taken in dV_new = u^p dV.  Floats for one field,
    arrays of B values for a stack; an overflow raises FloatingPointError.
    """
    if np.any(u.values <= 0):
        raise ValueError("the certificate needs u > 0")
    p, w, uv = bg.params.p, u.grid.weights, u.values
    pu = p_operator_apply(u, bg).values
    with np.errstate(over="raise", invalid="raise"):
        up = uv**p
        lam = ((uv * pu) @ w) / (up @ w)
        mismatch = pu - lam[..., None] * uv ** (p - 1.0)
        residual = np.sqrt((mismatch**2) @ w) / np.sqrt((pu**2) @ w)
        mass = pushed_mass(uv, pu, bg.params.n)
        wnew = up * w
        total = wnew.sum(axis=-1)
        mean = _row_dot(mass, wnew) / total
        var = _row_dot((mass - np.expand_dims(mean, -1)) ** 2, wnew) / total
        with np.errstate(divide="ignore", invalid="ignore"):
            reldev = np.where(mean != 0, np.sqrt(var) / np.abs(mean), np.inf)
    return _per_field(lam), _per_field(residual), _per_field(mean), _per_field(reldev)


def fit_dilation_orbit(u: ZonalField, bg: ConformalBackground):
    """Dilation strength t fitted to u, and the sup-distance of the
    p-normalized profiles at that t.

    On the orbit u^{-2/(n-2)} is proportional to cosh t + sinh t x, affine in
    x = cos theta.  Its weighted projections onto 1 and x (the weights are even
    in x) give tanh t in closed form, clipped to tanh(+-6).  The gap is taken at
    the fitted t, so it bounds the distance of u to the orbit from above.
    Floats for one field, arrays of B values for a stack.
    """
    if np.any(u.values <= 0):
        raise ValueError("dilation-orbit fit needs u > 0")
    p, x, w = bg.params.p, u.grid.nodes, u.grid.weights
    ref = u.values / np.expand_dims(lp_norm(u, p), -1)
    v = ref ** (-2.0 / (bg.params.n - 2))
    tanh_t = (v @ (w * x) / (w @ (x * x))) / (v @ w / w.sum())
    t = np.arctanh(np.clip(tanh_t, -math.tanh(6.0), math.tanh(6.0)))
    cand = dilation_factor(t[..., None], u.grid)
    gap = np.abs(ref - cand.values / np.expand_dims(lp_norm(cand, p), -1)).max(axis=-1)
    return _per_field(t), _per_field(gap)


def _project(vals: np.ndarray, bg: ConformalBackground, image: np.ndarray | None = None,
             linear: np.ndarray | None = None):
    """Clip a (B, N) stack at the positivity floor, renormalize each row to
    ||u||_p = 1 and take its image P u.

    ``image`` holds P vals on the rows that the boolean ``linear`` marks.  P
    is linear, so such a row that the clip leaves alone has the image
    image / ||vals||_p, pointwise work only.  Every other row takes P afresh,
    all of them in one ``p_operator_apply``.

    Returns (u, P u, M(u), r, |r|): with ||u||_p = 1 the functional is
    -int u P u and Lambda = -M(u), so the Euler-Lagrange residual field is
    r = -(P u + M(u) |u|^{p-2} u); |r| is its L2 size relative to ||P u||.
    Overflow and invalid values raise FloatingPointError, not numpy's warning.
    """
    p, w = bg.params.p, bg.grid.weights
    with np.errstate(over="raise", invalid="raise"):
        u = np.clip(vals, _POSITIVITY_FLOOR, None)
        norm = lp_norm(ZonalField(bg.grid, u), p)[:, None]
        u /= norm
        if image is None:
            pu = p_operator_apply(ZonalField(bg.grid, u), bg).values
        else:
            pu = image / norm
            fresh = ~linear | np.any(vals < _POSITIVITY_FLOOR, axis=1)
            if fresh.any():
                pu[fresh] = p_operator_apply(ZonalField(bg.grid, u[fresh]), bg).values
        m_val = -((u * pu) @ w)
        r = -(pu + m_val[:, None] * np.abs(u) ** (p - 2.0) * u)
        return u, pu, m_val, r, np.sqrt((r * r) @ w) / np.sqrt((pu * pu) @ w)


def seeded_start(grid: ZonalGrid, seed) -> ZonalField:
    """The optimizer's default start: 1 plus a smooth degree-6 perturbation of
    sup norm 0.1, shifted so its minimum is 1.  An array of seeds gives a
    stack of starts drawn from one generator (``random_band_limited``); an int
    seed and a one-seed array give ``default_rng(seed)``'s start."""
    pert = random_band_limited(grid, seed, l_max=6, amplitude=0.1).values
    return ZonalField(grid, 1.0 + pert - pert.min(axis=-1, keepdims=True))


def maximize_mass_functional(bg: ConformalBackground, start: ZonalField | None = None,
                             tol: float = OPTIMIZER_TOL_DEFAULT) -> OptimizerResult:
    """Run the ascent and the polish from one start, then certify the final iterate.

    The start defaults to ``seeded_start(bg.grid, OPTIMIZER_SEED_DEFAULT)``; a
    seeded run passes ``start=seeded_start(grid, seed)``.  Returns
    converged=False (with diagnostics populated) when the iterate cannot reach
    the residual ``tol``; raises FloatingPointError on NaN/overflow.
    """
    if start is None:
        start = seeded_start(bg.grid, OPTIMIZER_SEED_DEFAULT)
    elif start.values.ndim != 1:
        raise ValueError("one starting field expected; maximize_stack takes a stack")
    (result,) = maximize_stack(bg, ZonalField(start.grid, start.values[None]), tol)
    return result


def maximize_stack(bg: ConformalBackground, starts: ZonalField,
                   tol: float = OPTIMIZER_TOL_DEFAULT) -> list[OptimizerResult]:
    """Run the ascent and the polish on a (B, N) stack of starts in lockstep, then
    certify every row; one result per row (module docstring).

    ``seeded_start(grid, seeds)`` gives a stack of seeded starts.  Raises
    FloatingPointError when any row goes non-finite.
    """
    if np.any(starts.values <= 0):
        raise ValueError("starting field must be positive")
    grid, w = bg.grid, bg.grid.weights
    # A^{-1} = (c_n (D + n(n-2)/4))^{-1}, diagonal in the Gegenbauer basis
    inv_sphere_op = 1.0 / (bg.params.c_n * (grid.laplacian_eigenvalues + bg.params.sphere_shift))
    # read at call time: tests lower the caps
    max_iters, max_polish = _MAX_ITERS, _MAX_POLISH

    # P d = A d - m_nor d = r - m_nor d for a direction d = A^{-1} r
    mnor = bg.mnor.values

    # (B, N) stacks indexed by row: u, its image P u, the residual fields
    # ``grad`` at u, the directions and their images; each row's scalar
    # state is a list entry
    u, pu, m_start, grad, res_start = _project(starts.values.reshape(-1, grid.size), bg)
    direction, p_direction = np.empty_like(u), np.empty_like(u)
    rows = range(m_start.shape[0])
    m_val, residual = m_start.tolist(), [math.inf for _ in rows]
    step = [_STEP0 for _ in rows]
    polish = [False for _ in rows]  # the row's steps are polish steps, at step 1
    trials = [0 for _ in rows]  # of the current line search
    gain_rate = [0.0 for _ in rows]  # predicted gain of the line search's unit step
    ascent_steps, backtracks, polish_steps = ([0 for _ in rows] for _ in range(3))
    stop = ["max_iters" for _ in rows]  # until a stage ends otherwise
    history = [[v] for v in m_val]

    def to_polish(i):
        """Move row i to the polish; True if its cap allows another step."""
        polish[i], step[i] = True, 1.0
        if polish_steps[i] < max_polish:
            return True
        stop[i] = "max_polish"
        return False

    def accepted(i, res):
        """Row i now stands at a point of residual ``res``; True if it steps on
        from there."""
        if not math.isfinite(res):
            raise FloatingPointError("optimizer produced a non-finite residual")
        residual[i] = res
        # the tolerance ends a run only at its start or in the polish; an
        # ascent row ascends on to its plateau (module docstring)
        if res < tol and (polish[i] or not ascent_steps[i]):
            stop[i] = "tolerance_met"
            return False
        if polish[i] or ascent_steps[i] >= max_iters:
            return to_polish(i)
        return True

    # the round's work: rows that need a new direction A^{-1} r at u, and rows
    # that step on along the direction they hold
    fresh = [i for i, res in zip(rows, res_start.tolist()) if accepted(i, res)]
    going = []
    while fresh or going:
        with np.errstate(over="raise", invalid="raise"):
            if fresh:
                # one multiplier for every new direction, whose image is
                # pointwise; a line search's first-order gain at unit step is
                # 2 <r, A^{-1} r>_w
                r = grad[fresh]
                mapped = grid.apply_multiplier(r, inv_sphere_op)
                direction[fresh] = mapped
                p_direction[fresh] = r - mnor * mapped
                rates = 2.0 * _row_dot(r * w, mapped)
                for i, rate in zip(fresh, rates.tolist()):
                    trials[i] = 0
                    gain_rate[i] = rate
            # one projection for every row's trial; a line-search trial's
            # image is P u + s P d, a polish trial takes P afresh
            active = sorted(fresh + going)
            steps = np.array([step[i] for i in active])[:, None]
            trial = u[active] + steps * direction[active]
            image = pu[active] + steps * p_direction[active]
        linear = np.array([not polish[i] for i in active])
        cand, cand_pu, m_cand, cand_grad, cand_res = _project(trial, bg, image, linear)
        m_list, res_list = m_cand.tolist(), cand_res.tolist()
        if not all(map(math.isfinite, m_list)):
            raise FloatingPointError("optimizer produced a non-finite value")

        fresh, going = [], []
        for j, i in enumerate(active):
            if polish[i]:
                # a polish step must lower the residual, else the row is done
                if res_list[j] >= residual[i]:
                    continue
                polish_steps[i] += 1
            elif m_list[j] > m_val[i]:
                history[i].append(m_list[j])
                step[i] *= 1.5
                ascent_steps[i] += 1
            else:
                backtracks[i] += 1
                trials[i] += 1
                step[i] *= 0.5
                # the next trial's predicted gain below the rounding of M: no
                # trial from here on can raise M at working precision
                if step[i] * gain_rate[i] < _EPS * abs(m_val[i]) or trials[i] >= _MAX_TRIALS:
                    # M at its working-precision plateau: the polish steps on
                    # along the direction the row holds at u
                    ascent_steps[i] += 1
                    stop[i] = "polish_stalled"
                    if to_polish(i):
                        going.append(i)
                else:
                    going.append(i)
                continue
            # the row takes its trial
            u[i], pu[i], grad[i] = cand[j], cand_pu[j], cand_grad[j]
            m_val[i] = m_list[j]
            if accepted(i, res_list[j]):
                fresh.append(i)

    final = ZonalField(grid, u)
    lam, certified, mass_mean, mass_reldev = certify(final, bg)
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
