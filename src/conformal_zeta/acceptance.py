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

import datetime as _dt
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bubbles, functionals, laws, optimize, zeta, zonal
from .background import round_sphere_background
from .params import dim_params, sphere_volume
from .spectra import SpectrumQuery
from .zonal import (ZonalField, constant_field, make_grid, random_band_limited,
                    random_zonal)

SUITE_SEED = 7041

# field-generation law for the conformal-identity checks: smooth enough that
# exp(phi)-type composites stay fully resolved at N=256 (see zonal module notes)
_LAW_LMAX = 16
_PHI_AMPLITUDE = 0.3
_F_AMPLITUDE = 0.5

# Seeded fields go through the kernel as stacks of this many, one GEMM per
# transform per stack.  A stack's temporaries cost about 30 KB per field at
# N=256, and the conformal-law producers keep more of them alive at once.
_SOBOLEV_STACK = 50
_LAW_STACK = 25


def _seed_stacks(first: int, count: int, size: int):
    """The seeds first..first+count-1 as arrays of at most ``size``."""
    return [np.arange(a, min(a + size, count)) + first for a in range(0, count, size)]


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    expected: float | tuple[float | None, float | None]
    tolerance: float
    passed: bool
    provenance: str  # paper | derived | trivial
    note: str = ""


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
    for n in (4, 6):
        lv = zeta.spectral_zeta_at_one(SpectrumQuery(space="sphere", n=n))
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
        fp = zeta._finite_part(SpectrumQuery(space="sphere", n=n))
        out.append(_scalar_check(f"trace_ratio_n{n}", fp / tr, 2.0, 1e-6, "derived",
                                 "series finite part over printed-constant trace"))

    # calibration identity for the homogeneous sphere mass
    for n in (4, 6):
        q = SpectrumQuery(space="sphere", n=n)
        cal = zeta.homogeneous_mass(q, dim_params(n, "calibrated"))
        out.append(_scalar_check(f"calibration_mnor_zero_n{n}", cal.normalized_mass,
                                 0.0, 1e-9, "paper",
                                 "round-sphere normalized mass vanishes (calibrated constants)"))
        pap = zeta.homogeneous_mass(q, dim_params(n, "paper"))
        b_n = dim_params(n, "paper").b_n
        out.append(_scalar_check(f"calibration_mnor_paper_n{n}", pap.normalized_mass,
                                 -b_n * n * (n - 1), 1e-9, "paper",
                                 "paper constants leave -b_n n(n-1)"))

    # projective-space positivity and the registered value
    for variant in ("paper", "calibrated"):
        hm = zeta.homogeneous_mass(rp_q, dim_params(4, variant))
        out.append(_interval_check(f"projective_mass_positive_{variant}",
                                   hm.normalized_mass, 0.0, None, "paper",
                                   "positive-mass claim for real projective space"))
    hm = zeta.homogeneous_mass(rp_q, dim_params(4, "paper"))
    out.append(_scalar_check(
        "projective_normalized_mass_value", hm.normalized_mass,
        1 / (24 * math.pi**2), 1e-9, "derived",
        "fp/vol + 12 b_4 with fp = 1/36 and vol = omega_4/2 (paper constants)"))
    return out


def _covariance_checks(env) -> list[Check]:
    n = 4
    grid = env["grid4"]
    bg = round_sphere_background(n, grid, variant="calibrated")
    worst_y = worst_p = worst_m = 0.0
    for seeds in _seed_stacks(0, 100, _LAW_STACK):
        f = random_band_limited(grid, 3000 + seeds, _LAW_LMAX, _F_AMPLITUDE)
        phi = random_band_limited(grid, 9000 + seeds, _LAW_LMAX, _PHI_AMPLITUDE)
        mnor = random_zonal(grid, 15000 + seeds, _LAW_LMAX, 0.3, 0.05)
        bg_m = round_sphere_background(n, grid, variant="calibrated", mnor=mnor)
        u = ZonalField(grid, np.exp((n - 2) / 2.0 * phi.values))
        ramp = np.exp(-(n + 2) / 2.0 * phi.values)
        # bg and bg_m share scal, and D_h reads no mass data: one transform each
        bg_h = laws.transform_background(bg_m, phi)
        lap_h = laws.transformed_laplacian(f, phi, bg).values

        # conformal Laplacian covariance
        lhs = lap_h + bg.params.a_n * bg_h.scal.values * f.values
        rhs = ramp * laws.yamabe_apply(u * f, bg).values
        worst_y = max(worst_y, float(np.abs(lhs - rhs).max()))

        # mass-transport operator covariance on a background with mass data,
        # with m_h = e^{-2 phi} m_nor - b_n scal_h
        lhs_p = bg.params.c_n * lap_h - bg_h.mass_field().values * f.values
        rhs_p = ramp * laws.p_operator_apply(u * f, bg_m).values
        worst_p = max(worst_p, float(np.abs(lhs_p - rhs_p).max()))

        # normalized-mass covariance through the two independent routes
        lhs_m = laws.mass_pushforward(u, bg_m).values + bg_m.params.b_n * bg_h.scal.values
        rhs_m = laws.normalized_mass_pushforward(bg_m.mnor, phi).values
        worst_m = max(worst_m, float(np.abs(lhs_m - rhs_m).max()))

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
    worst = 0.0
    for seeds in _seed_stacks(21000, 20, _LAW_STACK):
        phi = random_band_limited(grid, seeds, _LAW_LMAX, _PHI_AMPLITUDE)
        u = ZonalField(grid, np.exp((n - 2) / 2.0 * phi.values))
        closed = laws.mass_pushforward(u, bg).values
        marched = laws.mass_transport_ode(bg, phi).values
        worst = max(worst, float(np.abs(closed - marched).max()))
    return [_interval_check("mass_transport_ode", worst, None, 1e-6, "derived",
                            "4th-order march of the infinitesimal law, 64 steps, 20 seeds")]


def _sobolev_checks(env) -> list[Check]:
    out = []
    for n in (4, 6):
        grid = env[f"grid{n}"]
        bg = round_sphere_background(n, grid)
        worst = math.inf
        for seeds in _seed_stacks(40000, 1000, _SOBOLEV_STACK):
            u = random_zonal(grid, seeds, 48, 1.0, 0.05)
            worst = min(worst, float(functionals.sobolev_gap(u, bg).min()))
        out.append(_interval_check(f"sobolev_gap_random_n{n}", worst, -1e-9, None, "paper",
                                   "min gap over 1000 seeded positive band-limited fields"))
    worst_dil = 0.0
    for n in (4, 6):
        grid = env[f"grid{n}"]
        bg = round_sphere_background(n, grid)
        for t in (0.0, 0.5, 1.0, 2.0):
            gap = abs(functionals.sobolev_gap(functionals.dilation_factor(t, grid), bg))
            worst_dil = max(worst_dil, gap)
    out.append(_interval_check("sobolev_gap_dilations", worst_dil, None, 1e-8, "derived",
                               "dilation factors are the extremal family"))
    return out


def _optimizer_checks(env) -> list[Check]:
    grid = env["grid4"]
    bg = round_sphere_background(4, grid, variant="paper")
    target = -bg.params.b_n * bg.params.yamabe_sphere
    # the 10 seeds run as one stack, and their orbit fits as one search
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
                        "sup distance to the dilation orbit, 10 seeds"),
    ]


def _bump_checks(env) -> list[Check]:
    grid = env["grid4"]
    theta = grid.theta
    mnor = ZonalField(grid, 0.02 * np.exp(-(theta**2) / 0.1))
    bg = round_sphere_background(4, grid, variant="paper", mnor=mnor)
    sphere_value = -bg.params.b_n * bg.params.yamabe_sphere

    # concentration scales the N=256 grid resolves (several nodes per core)
    rows = bubbles.concentration_sweep(np.logspace(np.log10(0.02), np.log10(0.3), 12), 0.3, bg)
    best_margin = max(r.margin for r in rows)
    res = optimize.maximize_mass_functional(bg, optimize.OptimizerConfig(seed=SUITE_SEED))
    return [
        _interval_check("positive_bump_sweep_margin", best_margin, 0.0, None, "paper",
                        "glued-bubble sweep on the positive-mass bump background"),
        _interval_check("positive_bump_optimizer_margin", res.value - sphere_value, 1e-4, None, "paper",
                        "optimizer exceeds the orbit value strictly"),
        _interval_check("positive_bump_constant_mass_reldev", res.mass_reldev, None, 1e-6, "paper",
                        "optimal metric has constant mass"),
    ]


def _rate_checks(env) -> list[Check]:
    alphas = np.logspace(-3, -1, 25)
    out = []
    for n, k in ((6, 0), (8, 0), (8, 2), (4, 0), (6, 2)):
        vals = [bubbles.bubble_moment(a, bubbles.RATE_CAP_DEFAULT, k, n) for a in alphas]
        fit = bubbles.fit_decay_rate(alphas, vals, n, k)
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


# producer -> name prefixes it can emit, so filtered runs skip unrelated work
_PRODUCERS = (
    (_zeta_checks, ("zeta_residue", "finite_part", "trace_", "calibration_", "projective_")),
    (_covariance_checks, ("covariance_",)),
    (_transport_checks, ("mass_transport",)),
    (_sobolev_checks, ("sobolev_",)),
    (_optimizer_checks, ("optimizer_",)),
    (_bump_checks, ("positive_bump_",)),
    (_rate_checks, ("rate_",)),
    (_flat_norm_checks, ("flat_norm",)),
)

CHECK_NAMES = (
    "calibration_mnor_paper_n4", "calibration_mnor_paper_n6",
    "calibration_mnor_zero_n4", "calibration_mnor_zero_n6",
    "covariance_normalized_mass", "covariance_p_operator", "covariance_yamabe",
    "finite_part_projective_n4", "finite_part_sphere_n4", "finite_part_sphere_n6",
    "flat_norm_identity",
    "mass_transport_ode",
    "optimizer_orbit_fit", "optimizer_sphere_residual", "optimizer_sphere_value",
    "projective_mass_positive_calibrated", "projective_mass_positive_paper",
    "projective_normalized_mass_value",
    "rate_n4_k0", "rate_n6_k0", "rate_n6_k2", "rate_n8_k0", "rate_n8_k2",
    "sobolev_gap_dilations", "sobolev_gap_random_n4", "sobolev_gap_random_n6",
    "positive_bump_constant_mass_reldev", "positive_bump_optimizer_margin", "positive_bump_sweep_margin",
    "trace_const_n4", "trace_const_n6", "trace_ratio_n4", "trace_ratio_n6",
    "zeta_residue_projective_n4", "zeta_residue_sphere_n4", "zeta_residue_sphere_n6",
)

# registered expectations that disagree with the package's own oracle route
# and so are expected to fail; none since the projective targets were corrected
KNOWN_DISPUTED_CHECKS = ()


def _matches(name: str, patterns: list[str]) -> bool:
    for pat in patterns:
        if pat.endswith("*"):
            if name.startswith(pat[:-1]):
                return True
        elif name == pat:
            return True
    return False


def run_suite(names: list[str] | None = None, jobs: int = 1,
              grid_size: int = zonal.DEFAULT_GRID_SIZE) -> ReportDocument:
    """Run the acceptance checks (optionally filtered by exact name or prefix).

    The producers hold the GIL, so they run one after another; ``jobs`` is
    accepted for existing callers and ignored.  Raises ValueError when
    ``names`` is empty or one of its patterns matches no registered check, so
    a misspelt filter cannot pass vacuously.
    """
    if names is not None:
        unmatched = [pat for pat in names if not any(_matches(c, [pat]) for c in CHECK_NAMES)]
        if unmatched or not names:
            raise ValueError(f"no registered check matches {unmatched or names!r}")
    env = {
        "grid4": make_grid(4, grid_size),
        "grid6": make_grid(6, grid_size),
    }
    producers = [fn for fn, prefixes in _PRODUCERS
                 if names is None
                 or any(pat.rstrip("*").startswith(p) or p.startswith(pat.rstrip("*"))
                        for pat in names for p in prefixes)]
    checks = [c for fn in producers for c in fn(env)]
    if names:
        checks = [c for c in checks if _matches(c.name, names)]
    checks.sort(key=lambda c: c.name)
    return ReportDocument(
        checks=tuple(checks),
        environment={"grid_N": grid_size, "constant_variant": "per-check (paper unless noted)",
                     "seed": SUITE_SEED},
        overall_pass=all(c.passed for c in checks),
    )
