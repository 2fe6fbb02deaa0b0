import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformal_zeta import bubbles
from conformal_zeta.background import round_sphere_background
from conformal_zeta.bubbles import (ProfileParams, bubble_moment, bubble_profile,
                                    capped_bubble, concentration_sweep, fit_decay_rate,
                                    flat_profile_lp_mass, predicted_branch,
                                    profile_norm_defect, smooth_cutoff)
from conformal_zeta.params import sphere_volume
from conformal_zeta.zonal import ZonalField

from oracles import radial_moment_reference, radial_moment_to_infinity


def test_profile_at_origin():
    for n in (4, 6, 8):
        assert bubble_profile(1.0, 0.0, n) == 1.0


@given(alpha=st.floats(min_value=0.05, max_value=5.0),
       r1=st.floats(min_value=0.0, max_value=3.0),
       dr=st.floats(min_value=1e-3, max_value=2.0))
def test_profile_strictly_decreasing(alpha, r1, dr):
    assert bubble_profile(alpha, r1 + dr, 4) < bubble_profile(alpha, r1, 4)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_flat_norm_alpha_independent(n, alpha):
    # closed form 2^{-n} omega_n, independent of the concentration scale
    want = 2.0 ** (-n) * sphere_volume(n)
    assert flat_profile_lp_mass(alpha, n) == pytest.approx(want, abs=1e-8)


def test_flat_norm_constant_across_three_decades():
    vals = [flat_profile_lp_mass(a, 4) for a in (0.01, 0.1, 1.0, 10.0)]
    assert max(vals) - min(vals) < 1e-10


def test_cutoff_plateau_and_support():
    eps = 0.3
    assert smooth_cutoff(eps, eps / 2) == 1.0
    assert smooth_cutoff(eps, 2 * eps) == 0.0
    assert smooth_cutoff(eps, 3 * eps) == 0.0


def test_cutoff_strictly_decreasing_in_transition():
    # the blend is flat-to-all-orders at the ends, so strict decrease is only
    # resolvable in float64 away from the plateaus
    eps = 0.3
    r = np.linspace(1.05 * eps, 1.95 * eps, 1000)
    vals = smooth_cutoff(eps, r)
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals > 0) & (vals < 1))


def test_capped_bubble_support(grid4):
    params = ProfileParams(alpha=0.1, epsilon=0.3, n=4)
    psi = capped_bubble(params, grid4)
    outside = grid4.theta > 2 * params.epsilon
    assert np.abs(psi.values[outside]).max() == 0.0
    assert np.all(psi.values >= 0)


def test_capped_bubble_norm_approaches_flat_value(grid4):
    bg = round_sphere_background(4, grid4)
    eps = 0.3
    assert abs(profile_norm_defect(0.1 * eps, eps, bg) - 1.0) < 0.05
    # tightens as the concentration sharpens (within the grid-resolved range)
    sharper = abs(profile_norm_defect(0.1 * eps, eps, bg) - 1.0)
    broader = abs(profile_norm_defect(0.3 * eps, eps, bg) - 1.0)
    assert sharper < broader


def test_profile_params_validation():
    with pytest.raises(ValueError):
        ProfileParams(alpha=0.0, epsilon=0.3, n=4)
    with pytest.raises(ValueError):
        ProfileParams(alpha=0.1, epsilon=1.7, n=4)  # support would leave the hemisphere
    with pytest.raises(ValueError):
        ProfileParams(alpha=0.1, epsilon=0.3, n=5)


def test_moment_closed_form():
    # alpha=1, eps=1, k=0, n=4: int r^3 (r^2+1)^{-2} dr = (ln 2 - 1/2)/2
    want = (math.log(2.0) - 0.5) / 2.0
    assert bubble_moment(1.0, 1.0, 0, 4) == pytest.approx(want, rel=1e-10)


def test_moment_vanishes_with_alpha():
    assert bubble_moment(1e-6, 0.5, 0, 6) < 1e-10


def test_moment_monotone_in_cap():
    vals = [bubble_moment(0.1, eps, 0, 4) for eps in (0.2, 0.4, 0.8)]
    assert vals[0] < vals[1] < vals[2]


def test_moment_rejects_bad_k():
    with pytest.raises(ValueError):
        bubble_moment(0.1, 0.5, -4, 4)


# bubble_moment integrands t^{k+n-1} (1+t^2)^{2-n} with (n, k) = (20, 12), (4, -3.99),
# (8, 0.3), (8, 0), (10, 2), and flat-norm integrands t^{n-1} (1+t^2)^{-n} with
# n = 4, 5, 6, 20 (odd n takes the half-integer branch of the oracle)
@pytest.mark.parametrize("m,q", [(31, 18), (-0.99, 2), (7.3, 6), (7, 6), (11, 8),
                                 (3, 4), (4, 5), (5, 6), (19, 20)])
def test_radial_moment_to_infinity_matches_beta(m, q):
    got = bubbles._radial_moment(float(m), float(q), math.inf)
    assert got == pytest.approx(radial_moment_to_infinity(m, q), rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [4, 8, 104])
@pytest.mark.parametrize("k", [0, 2, 0.3, "-n+0.01"])
@pytest.mark.parametrize("top", [25.0, 0.5, 0.02])
def test_moment_matches_incomplete_beta(n, k, top):
    # alpha = 1 makes the prefactor alpha^{k+2} exactly 1, so this is the
    # radial quadrature alone; top < 1 uses the Gauss-Jacobi head only
    k = -n + 0.01 if k == "-n+0.01" else k
    want = radial_moment_reference(k + n - 1, n - 2, top)
    assert bubble_moment(1.0, top, k, n) == pytest.approx(want, rel=1e-11, abs=0)


def test_moment_over_many_panels():
    # ln(5e5) = 13.1: fourteen panels, the last one short
    want = radial_moment_reference(3, 2, 5e5)
    assert bubble_moment(1.0, 5e5, 0, 4) == pytest.approx(want, rel=1e-11, abs=0)


def test_rate_sweep_reuses_the_cached_rules():
    bubbles._jacobi_rule.cache_clear()
    for a in np.logspace(-3, -1, 25):
        bubble_moment(a, 2.5, 0, 6)
    info = bubbles._jacobi_rule.cache_info()
    # one Gauss-Jacobi rule for t^{n+k-1}, one Gauss-Legendre rule for the panels
    assert (info.misses, info.hits) == (2, 48)


def test_moment_refuses_overflow_at_the_upper_limit():
    # t^{n+k-1} = t^103 at t = eps/alpha: ln(max float)/103 = 6.891
    assert bubble_moment(1.0, math.exp(6.89), 0, 104) > 0
    with pytest.raises(OverflowError):
        bubble_moment(1.0, math.exp(6.9), 0, 104)
    with pytest.raises(OverflowError):
        bubble_moment(1e-3, 1e306, 0, 4)  # eps/alpha is not a float


def test_moment_over_an_underflowing_cap_is_zero():
    assert bubble_moment(1e10, 1e-320, 0, 4) == 0.0  # eps/alpha underflows to 0


@pytest.mark.parametrize("n,k", [(6, 0), (8, 0), (8, 2), (4, 0), (6, 2)])
def test_rate_trichotomy(n, k):
    alphas = np.logspace(-3, -1, 25)
    vals = [bubble_moment(a, 2.5, k, n) for a in alphas]
    fit = fit_decay_rate(alphas, vals, n, k)
    want_log = n == k + 4
    want_exp = k + 2.0
    assert fit.log_factor_detected == want_log
    assert fit.exponent_fit == pytest.approx(want_exp, abs=0.05)
    assert fit.r2 >= 0.999
    assert fit.predicted == predicted_branch(n, k)


def test_fit_requires_enough_samples():
    alphas = np.logspace(-3, -1, 5)
    with pytest.raises(ValueError):
        fit_decay_rate(alphas, alphas**2, 6, 0)
    narrow = np.logspace(-2, -1.5, 10)
    with pytest.raises(ValueError):
        fit_decay_rate(narrow, narrow**2, 6, 0)


# sweeps only probe concentration scales the N=256 grid resolves (the bubble
# core needs several collocation nodes, which clusters near alpha ~ 0.02)
RESOLVED_ALPHAS = np.logspace(np.log10(0.02), np.log10(0.3), 12)


def _loglog_slope(alphas, values, with_log_factor):
    t = np.log(alphas)
    y = np.log(values) - (np.log(np.log(1.0 / alphas)) if with_log_factor else 0.0)
    design = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[0]


def test_sweep_stays_below_orbit_value_without_mass_data(grid4):
    bg = round_sphere_background(4, grid4)
    rows = concentration_sweep(RESOLVED_ALPHAS, 0.3, bg)
    assert max(r.margin for r in rows) <= 1e-9
    # and the deficit closes at least linearly in the concentration scale
    slope = _loglog_slope(RESOLVED_ALPHAS, [-r.margin for r in rows], False)
    assert slope >= 0.9


def test_sweep_margin_positive_with_bump_n6(grid6):
    theta = grid6.theta
    mnor = ZonalField(grid6, 0.05 * np.exp(-theta**2 / 0.1))
    bg = round_sphere_background(6, grid6, mnor=mnor)
    rows = concentration_sweep(RESOLVED_ALPHAS, 0.3, bg)
    assert rows[0].margin > 0  # smallest concentration scale wins
    assert rows[0].mu >= 0


@pytest.mark.parametrize("n", [4, 6])
def test_constant_mass_data_dominates_at_small_alpha(n, grid4, grid6):
    grid = grid4 if n == 4 else grid6
    c = 0.05
    bg = round_sphere_background(n, grid, mnor=ZonalField(grid, np.full(grid.size, c)))
    alphas = np.logspace(np.log10(0.02), np.log10(0.06), 10)
    rows = concentration_sweep(alphas, 0.5, bg)
    assert all(r.margin > 0 for r in rows)
    slope = _loglog_slope(alphas, [r.margin for r in rows], with_log_factor=(n == 4))
    assert slope == pytest.approx(2.0, rel=0.15)
