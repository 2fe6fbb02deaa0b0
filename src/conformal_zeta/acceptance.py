"""Acceptance suite: every golden-value and property check, with provenance.

Each check carries the measured value, the registered expectation (a number
with a tolerance, or an interval), a pass flag, and a provenance tag:

* ``paper``   -- the expectation reproduces a printed closed form or claim;
* ``derived`` -- the expectation was computed from an independent oracle
  (exact rational closed forms, brute-force summation, quadrature);
* ``trivial`` -- structural identities.

The two real-projective-space targets (the finite part on RP^4 and its
paper-variant normalized mass) are the registered literals +1/36 and
fp/vol + 12 b_4 = 1/(24 pi^2), the values of the exact-rational finite part
``zeta.rational_finite_part``.  They replace the former registered values
+1/18 (the continuation over degrees l = 0, 4, 8, ... only) and 1/(16 pi^2)
(the calibrated-constants value).  See the README.
"""

from __future__ import annotations

import ctypes
import datetime as _dt
import functools
import math
import os
import pickle
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bubbles, functionals, laws, optimize, zeta, zonal
from .background import round_sphere_background
from .params import dim_params, sphere_volume
from .spectra import SpectrumQuery
from .zonal import (ZonalField, constant_field, floored_field, make_grid, random_band_limited,
                    random_zonal, random_zonal_coefficients)

SUITE_SEED = 7041

# field-generation law for the conformal-identity checks: smooth enough that
# exp(phi)-type composites stay fully resolved at N=256 (see zonal module notes)
_LAW_LMAX = 16
_PHI_AMPLITUDE = 0.3
_F_AMPLITUDE = 0.5

# Each seeded family is drawn once, from one generator (a conformal-law family
# is synthesized whole, in one product), and its fields go through the kernel
# in slices of this many, one kernel product (one GEMM per parity block) per
# transform per slice; so the sizes set memory use, not which fields are
# drawn.  At N=256 a transform's allocations, its result included, peak at
# about 8-16 KB per field, and a synthesis of the Sobolev fields' 49 degrees
# at 6 KB; the conformal-law producers keep more of them alive at once.
_SOBOLEV_STACK = 50
_LAW_STACK = 25


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    expected: float | tuple[float | None, float | None]
    tolerance: float
    passed: bool
    provenance: str  # paper | derived | trivial
    note: str = ""

    @property
    def margin(self) -> float:
        """Distance to the gate (tolerance or nearer bound); negative when failing."""
        if isinstance(self.expected, tuple):
            lo, hi = self.expected
            return min(math.inf if lo is None else self.value - lo,
                       math.inf if hi is None else hi - self.value)
        return self.tolerance - abs(self.value - self.expected)


@dataclass(frozen=True)
class ReportDocument:
    checks: tuple[Check, ...]
    environment: dict
    overall_pass: bool
    generated_at: str = field(default_factory=lambda: _dt.datetime.now(_dt.timezone.utc).isoformat())

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "expected": list(c.expected) if isinstance(c.expected, tuple) else c.expected,
                    "tolerance": c.tolerance,
                    "margin": c.margin,
                    "pass": c.passed,
                    "provenance": c.provenance,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "environment": self.environment,
            "overall_pass": self.overall_pass,
            "generated_at": self.generated_at,
        }


def _scalar_check(name, value, expected, tol, provenance, note="") -> Check:
    return Check(name=name, value=float(value), expected=float(expected),
                 tolerance=float(tol), passed=bool(abs(value - expected) <= tol),
                 provenance=provenance, note=note)


def _interval_check(name, value, lo, hi, provenance, note="") -> Check:
    ok = (lo is None or value >= lo) and (hi is None or value <= hi)
    return Check(name=name, value=float(value), expected=(lo, hi), tolerance=0.0,
                 passed=bool(ok), provenance=provenance, note=note)


# ---------------------------------------------------------------------------
# producers (grouped so expensive artifacts are shared)
# ---------------------------------------------------------------------------

def _zeta_checks(env) -> list[Check]:
    out = []
    sphere = {n: zeta.spectral_zeta_at_one(SpectrumQuery(space="sphere", n=n)) for n in (4, 6)}
    for n, lv in sphere.items():
        out.append(_interval_check(f"zeta_residue_sphere_n{n}", abs(lv.residue),
                                   None, 1e-10, "paper",
                                   "regularity of the series at its expansion point"))
        oracle = zeta.rational_finite_part(n)
        target = {4: Fraction(-1, 9), 6: Fraction(-1, 45)}[n]
        out.append(_scalar_check(
            f"finite_part_sphere_n{n}", lv.finite_part, float(target), 1e-9, "derived",
            f"oracle {oracle} ({'matches' if oracle == target else 'DISAGREES with'} registered target)"))
    rp_q = SpectrumQuery(space="projective", n=4)
    rp = zeta.spectral_zeta_at_one(rp_q)
    out.append(_interval_check("zeta_residue_projective_n4", abs(rp.residue),
                               None, 1e-10, "paper", ""))
    oracle_rp = zeta.rational_finite_part(4, step=rp_q.step)
    target_rp = Fraction(1, 36)
    out.append(_scalar_check(
        "finite_part_projective_n4", rp.finite_part, float(target_rp), 1e-9, "derived",
        f"oracle {oracle_rp} ({'matches' if oracle_rp == target_rp else 'DISAGREES with'} registered target)"))

    # printed-trace reproduction and the factor-two ratio (paper constants)
    for n, target in ((4, Fraction(-1, 18)), (6, Fraction(-1, 90))):
        grid = env[f"grid{n}"]
        bg = round_sphere_background(n, grid, variant="paper")
        tr = functionals.conformal_trace(constant_field(grid, 1.0), bg)
        out.append(_scalar_check(f"trace_const_n{n}", tr, float(target), 1e-12, "paper"))
        out.append(_scalar_check(f"trace_ratio_n{n}", sphere[n].finite_part / tr, 2.0, 1e-6,
                                 "derived", "series finite part over printed-constant trace"))

    # calibration identity for the homogeneous sphere mass
    for n in (4, 6):
        q = SpectrumQuery(space="sphere", n=n)
        cal = zeta.homogeneous_mass(q, dim_params(n, "calibrated"))
        out.append(_scalar_check(f"calibration_mnor_zero_n{n}", cal.normalized_mass,
                                 0.0, 1e-9, "paper",
                                 "round-sphere normalized mass vanishes (calibrated constants)"))
        paper = dim_params(n, "paper")
        out.append(_scalar_check(f"calibration_mnor_paper_n{n}",
                                 zeta.homogeneous_mass(q, paper).normalized_mass,
                                 -paper.sphere_mass_offset, 1e-9, "paper",
                                 "paper constants leave -b_n n(n-1)"))

    # projective-space positivity and the registered value
    rp_mass = {variant: zeta.homogeneous_mass(rp_q, dim_params(4, variant)).normalized_mass
               for variant in ("paper", "calibrated")}
    for variant, mass in rp_mass.items():
        out.append(_interval_check(f"projective_mass_positive_{variant}",
                                   mass, 0.0, None, "paper",
                                   "positive-mass claim for real projective space"))
    out.append(_scalar_check(
        "projective_normalized_mass_value", rp_mass["paper"],
        1 / (24 * math.pi**2), 1e-9, "derived",
        "fp/vol + 12 b_4 with fp = 1/36 and vol = omega_4/2 (paper constants)"))
    return out


def _covariance_checks(env) -> list[Check]:
    n = 4
    grid = env["grid4"]
    worst_y = worst_p = worst_m = 0.0
    seeds = np.arange(100)
    fs = random_band_limited(grid, 3000 + seeds, _LAW_LMAX, _F_AMPLITUDE).values
    phis = random_band_limited(grid, 9000 + seeds, _LAW_LMAX, _PHI_AMPLITUDE).values
    mnors = random_zonal(grid, 15000 + seeds, _LAW_LMAX, 0.3, 0.05).values
    for a in range(0, len(seeds), _LAW_STACK):
        f, phi, mnor = (ZonalField(grid, family[a:a + _LAW_STACK]) for family in (fs, phis, mnors))
        bg = round_sphere_background(n, grid, variant="calibrated", mnor=mnor)
        u = ZonalField(grid, np.exp((n - 2) / 2.0 * phi.values))
        ramp = np.exp(-(n + 2) / 2.0 * phi.values)
        scal_h, mnor_h = (h.values for h in laws.transform_background(bg, phi))
        lap_h = laws.transformed_laplacian(f, phi, bg).values

        # conformal Laplacian covariance
        lhs = lap_h + bg.params.a_n * scal_h * f.values
        rhs = ramp * laws.yamabe_apply(u * f, bg).values
        worst_y = max(worst_y, float(np.abs(lhs - rhs).max()))

        # mass-transport operator covariance on a background with mass data,
        # with m_h = e^{-2 phi} m_nor - b_n scal_h
        lhs_p = bg.params.c_n * lap_h - (mnor_h - bg.params.b_n * scal_h) * f.values
        rhs_p = ramp * laws.p_operator_apply(u * f, bg).values
        worst_p = max(worst_p, float(np.abs(lhs_p - rhs_p).max()))

        # normalized-mass covariance through the two independent routes
        lhs_m = laws.mass_pushforward(u, bg).values + bg.params.b_n * scal_h
        worst_m = max(worst_m, float(np.abs(lhs_m - mnor_h).max()))

    return [
        _interval_check("covariance_yamabe", worst_y, None, 1e-8, "paper",
                        "100 seeded pairs at N=256"),
        _interval_check("covariance_p_operator", worst_p, None, 1e-8, "paper",
                        "100 seeded pairs at N=256"),
        _interval_check("covariance_normalized_mass", worst_m, None, 1e-8, "paper",
                        "100 seeded pairs at N=256"),
    ]


def _transport_checks(env) -> list[Check]:
    # transport ODE vs closed form
    n = 4
    grid = env["grid4"]
    bg = round_sphere_background(n, grid, variant="calibrated")
    # the 20 seeds, fewer than _LAW_STACK, go through as one stack
    phi = random_band_limited(grid, 21000 + np.arange(20), _LAW_LMAX, _PHI_AMPLITUDE)
    u = ZonalField(grid, np.exp((n - 2) / 2.0 * phi.values))
    closed = laws.mass_pushforward(u, bg).values
    marched = laws.mass_transport_ode(bg, phi).values
    worst = float(np.abs(closed - marched).max())
    return [_interval_check("mass_transport_ode", worst, None, 1e-6, "derived",
                            "4th-order march of the infinitesimal law, 64 steps, 20 seeds")]


def _sobolev_checks(env) -> list[Check]:
    # the seeds are drawn once, and each slice's coefficients synthesized on both grids
    bgs = {n: round_sphere_background(n, env[f"grid{n}"]) for n in (4, 6)}
    worst = dict.fromkeys(bgs, math.inf)
    coeffs = random_zonal_coefficients(40000 + np.arange(1000), 48)
    for a in range(0, len(coeffs), _SOBOLEV_STACK):
        for n, bg in bgs.items():
            u = floored_field(bg.grid, coeffs[a:a + _SOBOLEV_STACK], 1.0, 0.05)
            worst[n] = min(worst[n], float(functionals.sobolev_gap(u, bg).min()))
    out = [_interval_check(f"sobolev_gap_random_n{n}", worst[n], -1e-9, None, "paper",
                           "min gap over 1000 seeded positive band-limited fields")
           for n in bgs]
    # the four dilations go through as one stack per grid
    ts = np.array([0.0, 0.5, 1.0, 2.0])[:, None]
    worst_dil = max(float(np.abs(functionals.sobolev_gap(functionals.dilation_factor(ts, bg.grid),
                                                         bg)).max()) for bg in bgs.values())
    out.append(_interval_check("sobolev_gap_dilations", worst_dil, None, 1e-8, "derived",
                               "dilation factors are the extremal family"))
    return out


def _optimizer_checks(env) -> list[Check]:
    grid = env["grid4"]
    bg = round_sphere_background(4, grid, variant="paper")
    target = bg.params.sphere_value
    # the 10 seeds run as one stack, and their orbit fits as one
    results = optimize.maximize_stack(
        bg, optimize.seeded_start(grid, SUITE_SEED + np.arange(10)))
    worst_rel = max(abs(res.value / target - 1.0) for res in results)
    worst_res = max(res.residual for res in results)
    optima = ZonalField(grid, np.stack([res.u_star.values for res in results]))
    worst_fit = float(optimize.fit_dilation_orbit(optima, bg)[1].max())
    return [
        _interval_check("optimizer_sphere_value", worst_rel, None, 1e-6, "derived",
                        "relative deviation from the orbit value, 10 seeds"),
        _interval_check("optimizer_sphere_residual", worst_res, None, 1e-8, "derived",
                        "Euler-Lagrange residual at the optimum, 10 seeds"),
        _interval_check("optimizer_orbit_fit", worst_fit, None, 1e-4, "paper",
                        "sup distance to the dilation at the fitted strength, an upper "
                        "bound on the distance to the orbit, 10 seeds"),
    ]


def _bump_checks(env) -> list[Check]:
    grid = env["grid4"]
    theta = grid.theta
    mnor = ZonalField(grid, 0.02 * np.exp(-(theta**2) / 0.1))
    bg = round_sphere_background(4, grid, variant="paper", mnor=mnor)
    # concentration scales the N=256 grid resolves (several nodes per core)
    rows = bubbles.concentration_sweep(np.logspace(np.log10(0.02), np.log10(0.3), 12), 0.3, bg)
    best_margin = max(r.margin for r in rows)
    res = optimize.maximize_mass_functional(bg, optimize.seeded_start(grid, SUITE_SEED))
    return [
        _interval_check("positive_bump_sweep_margin", best_margin, 0.0, None, "paper",
                        "glued-bubble sweep on the positive-mass bump background"),
        _interval_check("positive_bump_optimizer_margin", res.value - bg.params.sphere_value,
                        1e-4, None, "paper", "optimizer exceeds the orbit value strictly"),
        _interval_check("positive_bump_constant_mass_reldev", res.mass_reldev, None, 1e-6, "paper",
                        "optimal metric has constant mass"),
    ]


def _rate_checks(env) -> list[Check]:
    out = []
    for n, k in ((6, 0), (8, 0), (8, 2), (4, 0), (6, 2)):
        fit = bubbles.decay_rate(n, k)
        want_exp = bubbles.predicted_exponent(n, k)
        want_log = fit.predicted == "k_plus_2_log"
        ok = (abs(fit.exponent_fit - want_exp) <= 0.05
              and fit.log_factor_detected == want_log and fit.r2 >= 0.999)
        out.append(Check(
            name=f"rate_n{n}_k{k}", value=fit.exponent_fit, expected=want_exp,
            tolerance=0.05, passed=ok, provenance="paper",
            note=f"log factor {'detected' if fit.log_factor_detected else 'absent'} "
                 f"(want {'detected' if want_log else 'absent'}), r2={fit.r2:.7f}"))
    return out


def _flat_norm_checks(env) -> list[Check]:
    worst = 0.0
    for n in (4, 6):
        target = 2.0 ** (-n) * sphere_volume(n)
        for alpha in (0.1, 1.0, 10.0):
            worst = max(worst, abs(bubbles.flat_profile_lp_mass(alpha, n) - target))
    return [_interval_check("flat_norm_identity", worst, None, 1e-8, "paper",
                            "concentration-scale independence of the critical norm")]


# each producer with the names of the checks it emits, so a filtered run calls
# only the producers it needs
_PRODUCERS = (
    (_zeta_checks, (
        "zeta_residue_sphere_n4", "zeta_residue_sphere_n6", "zeta_residue_projective_n4",
        "finite_part_sphere_n4", "finite_part_sphere_n6", "finite_part_projective_n4",
        "trace_const_n4", "trace_const_n6", "trace_ratio_n4", "trace_ratio_n6",
        "calibration_mnor_zero_n4", "calibration_mnor_zero_n6",
        "calibration_mnor_paper_n4", "calibration_mnor_paper_n6",
        "projective_mass_positive_paper", "projective_mass_positive_calibrated",
        "projective_normalized_mass_value")),
    (_covariance_checks, ("covariance_yamabe", "covariance_p_operator", "covariance_normalized_mass")),
    (_transport_checks, ("mass_transport_ode",)),
    (_sobolev_checks, ("sobolev_gap_random_n4", "sobolev_gap_random_n6", "sobolev_gap_dilations")),
    (_optimizer_checks, ("optimizer_sphere_value", "optimizer_sphere_residual", "optimizer_orbit_fit")),
    (_bump_checks, ("positive_bump_sweep_margin", "positive_bump_optimizer_margin",
                    "positive_bump_constant_mass_reldev")),
    (_rate_checks, ("rate_n6_k0", "rate_n8_k0", "rate_n8_k2", "rate_n4_k0", "rate_n6_k2")),
    (_flat_norm_checks, ("flat_norm_identity",)),
)

CHECK_NAMES = tuple(sorted(name for _, names in _PRODUCERS for name in names))

# registered expectations that disagree with the package's own oracle route
# and so are expected to fail; none since the projective targets were corrected
KNOWN_DISPUTED_CHECKS = ()


# The producers a forked worker runs beside the others (``run_suite``).  Warm,
# they take about half of the run's time, and neither fills a per-process
# cache; the zeta head table, the decay-rate rules and make_grid's memo are
# filled by the others, in this process, and so stay filled from run to run.
_WORKER_PRODUCERS = (_sobolev_checks, _optimizer_checks)


class _Run(NamedTuple):
    producer: str
    checks: list[Check]
    seconds: float
    process: str  # main | worker


def _label(producer) -> str:
    return producer.__name__.removeprefix("_").removesuffix("_checks")


def _timed(producers, env, process: str) -> list[_Run]:
    """Run each producer in turn, timing it."""
    runs = []
    for fn in producers:
        start = time.perf_counter()
        checks = fn(env)
        runs.append(_Run(_label(fn), checks, time.perf_counter() - start, process))
    return runs


def bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, loaded by ctypes, or None where numpy carries
    no such library or it does not load."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        return ctypes.CDLL(str(libs[0]))
    except (IndexError, OSError):
        return None


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None where
    numpy carries no such library or it exports no thread-count calls."""
    lib = bundled_openblas()
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # lib is None, or lacks the calls
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _fork_available() -> bool:
    """Whether a forked worker can run beside this process: os.fork exists, at
    least two CPUs are usable, and the BLAS threads can be shared out between
    the two processes."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and _openblas_threads() is not None)


def _fork_worker(producers, env) -> tuple[int, int] | None:
    """Fork a worker that runs ``producers`` on the grids of ``env`` (shared
    copy-on-write) and pickles their runs into a pipe.  Returns the worker's
    pid and the pipe's read end, or None where the fork fails."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # the worker leaves by os._exit, so it never returns into the caller's code
    # and never flushes the stdio buffers it inherited; it exits 0 only once
    # its runs are written, and otherwise the caller runs its producers itself
    status = 1
    try:
        os.close(read_fd)
        runs = _timed(producers, env, "worker")
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(runs, pipe)
        status = 0
    finally:
        os._exit(status)


def _run_split(worker, main, env) -> list[_Run]:
    """Run ``worker`` in a forked worker and ``main`` here, at the same time.

    Each process runs its GEMMs on half the usable CPUs, at least one, and
    this process gets its BLAS thread count back afterwards: OpenBLAS's
    threads wait for work by spinning, so two processes each running as many
    as there are CPUs slowed the suite at N = 512 to twice its one-process
    time.  Unless the worker exits 0, its producers then run here, after
    the others, so a failed fork or worker costs time, not the run.
    """
    get_threads, set_threads = _openblas_threads()
    threads = get_threads()
    set_threads(max(1, min(threads, len(os.sched_getaffinity(0)) // 2)))
    code = None
    try:
        forked = _fork_worker(worker, env)
        try:
            runs = _timed(main, env, "main")
        finally:
            if forked:
                try:
                    # drained before the worker is reaped, also when a producer
                    # here raised, so a worker blocked on a full pipe can finish
                    with os.fdopen(forked[1], "rb") as pipe:
                        payload = pipe.read()
                finally:
                    code = os.waitstatus_to_exitcode(os.waitpid(forked[0], 0)[1])
    finally:
        set_threads(threads)
    return runs + (pickle.loads(payload) if code == 0 else _timed(worker, env, "main"))


def _matches(name: str, pattern: str) -> bool:
    return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern


def run_suite(names: list[str] | None = None, jobs: int = 1,
              grid_size: int = zonal.DEFAULT_GRID_SIZE) -> ReportDocument:
    """Run the acceptance checks (optionally filtered by exact name or prefix).

    When the selected producers include the Sobolev or optimizer producer
    (``_WORKER_PRODUCERS``) and one of the others, and ``_fork_available()``
    (``os.fork``, two usable CPUs and numpy's bundled OpenBLAS), those two run
    in a forked worker while this process runs the rest, each on half the
    BLAS threads.  The worker only saves time: where the fork fails or the
    worker does not exit 0, its producers run here after the others, so
    their exceptions are raised here as themselves.  Otherwise every
    producer runs here, one after another.  The check values are the same
    either way, and ``jobs`` is accepted for existing callers and ignored.
    The report's ``environment["producers"]`` holds each producer's wall
    time and the process that ran it.

    Raises ValueError when ``names`` is empty or one of its patterns matches
    no registered check, so a misspelt filter cannot pass vacuously.
    """
    selected = set(CHECK_NAMES)
    if names is not None:
        unmatched = [pat for pat in names if not any(_matches(c, pat) for c in CHECK_NAMES)]
        if unmatched or not names:
            raise ValueError(f"no registered check matches {unmatched or names!r}")
        selected = {c for c in CHECK_NAMES if any(_matches(c, pat) for pat in names)}
    env = {
        "grid4": make_grid(4, grid_size),
        "grid6": make_grid(6, grid_size),
    }
    chosen = [fn for fn, emits in _PRODUCERS if selected.intersection(emits)]
    worker = [fn for fn in chosen if fn in _WORKER_PRODUCERS]
    main = [fn for fn in chosen if fn not in _WORKER_PRODUCERS]
    if worker and main and _fork_available():
        runs = _run_split(worker, main, env)
    else:
        runs = _timed(chosen, env, "main")
    by_producer = {run.producer: run for run in runs}
    runs = [by_producer[_label(fn)] for fn in chosen]
    # a full run keeps every check, so the registry test sees an unregistered one
    checks = sorted((c for run in runs for c in run.checks
                     if names is None or c.name in selected), key=lambda c: c.name)
    producers = {run.producer: {"seconds": run.seconds, "process": run.process} for run in runs}
    return ReportDocument(
        checks=tuple(checks),
        environment={"grid_N": grid_size, "constant_variant": "per-check (paper unless noted)",
                     "seed": SUITE_SEED, "producers": producers},
        overall_pass=all(c.passed for c in checks),
    )
