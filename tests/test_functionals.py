import math

import numpy as np
import pytest

from conformal_zeta.background import round_sphere_background
from conformal_zeta.errors import ConsistencyError
from conformal_zeta.functionals import (_spectral_form, conformal_trace, dilation_factor,
                                        functional_report, mass_functional, sobolev_gap,
                                        yamabe_functional)
from conformal_zeta.params import sphere_volume
from conformal_zeta.zonal import (ZonalField, constant_field, inner, laplacian, lp_norm,
                                  make_grid, random_zonal)


@pytest.fixture(scope="module")
def sphere4(grid4):
    return round_sphere_background(4, grid4, variant="paper")


@pytest.fixture(scope="module")
def sphere6(grid6):
    return round_sphere_background(6, grid6, variant="paper")


def test_mass_functional_on_constants(grid4, sphere4):
    got = mass_functional(constant_field(grid4, 1.0), sphere4)
    want = -sphere4.params.b_n * 12.0 * math.sqrt(sphere_volume(4))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("c", [0.1, 3.0, 100.0])
def test_mass_functional_scale_invariant(grid4, sphere4, c):
    u = random_zonal(grid4, 31, 12, 0.8, 0.2)
    base = mass_functional(u, sphere4)
    scaled = mass_functional(ZonalField(grid4, c * u.values), sphere4)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_mass_functional_constant_along_dilations(grid4, sphere4):
    vals = [mass_functional(dilation_factor(t, grid4), sphere4) for t in (0.0, 0.5, 1.0, 2.0)]
    assert max(vals) - min(vals) < 1e-8


def test_mass_functional_forms_agree_with_mass_data(grid4_small):
    # the 1e-10 operator-form vs curvature-form guard, over 1000 seeded pairs
    for seed in range(1000):
        mnor = random_zonal(grid4_small, 800 + seed, 12, 0.4, 0.02)
        bg = round_sphere_background(4, grid4_small, variant="calibrated", mnor=mnor)
        u = random_zonal(grid4_small, 900 + seed, 16, 1.0, 0.1)
        mass_functional(u, bg)  # raises ConsistencyError on form disagreement


def test_mass_functional_rejects_zero(grid4, sphere4):
    with pytest.raises(ValueError):
        mass_functional(constant_field(grid4, 0.0), sphere4)


def test_form_disagreement_raises(grid4, sphere4, monkeypatch):
    import conformal_zeta.functionals as fmod

    # corrupt one route only: the cross-check must trip
    broken = lambda u, bg: ZonalField(u.grid, 0.0 * u.values)
    monkeypatch.setattr(fmod, "yamabe_apply", broken)
    with pytest.raises(ConsistencyError):
        fmod.mass_functional(constant_field(grid4, 1.0), sphere4)


def test_form_disagreement_in_one_field_of_a_stack_raises(grid4, sphere4, monkeypatch):
    import conformal_zeta.functionals as fmod

    yamabe_apply = fmod.yamabe_apply

    def broken(u, bg):
        vals = yamabe_apply(u, bg).values.copy()
        vals[1] = 0.0  # the Y form of the middle field only
        return ZonalField(u.grid, vals)

    stack = ZonalField(grid4, np.ones((3, grid4.size)))
    assert mass_functional(stack, sphere4).shape == (3,)
    monkeypatch.setattr(fmod, "yamabe_apply", broken)
    with pytest.raises(ConsistencyError):
        fmod.mass_functional(stack, sphere4)


def test_yamabe_functional_sphere_value(grid4, sphere4):
    got = yamabe_functional(constant_field(grid4, 1.0), sphere4)
    assert got == pytest.approx(12.0 * math.sqrt(sphere_volume(4)), rel=1e-12)


def test_yamabe_functional_dilation_invariant(grid4, sphere4):
    base = sphere4.params.yamabe_sphere
    for t in (0.5, 1.0, 2.0):
        got = yamabe_functional(dilation_factor(t, grid4), sphere4)
        assert got == pytest.approx(base, abs=1e-8)


def test_yamabe_functional_sharp_lower_bound(grid4, sphere4):
    base = sphere4.params.yamabe_sphere
    for seed in range(100):
        u = random_zonal(grid4, 1000 + seed, 32, 1.0, 0.05)
        assert yamabe_functional(u, sphere4) >= base - 1e-6


def test_trace_on_constants(grid4, grid6, sphere4, sphere6):
    got4 = conformal_trace(constant_field(grid4, 1.0), sphere4)
    assert got4 == pytest.approx(-1.0 / 18.0, abs=1e-12)
    got6 = conformal_trace(constant_field(grid6, 1.0), sphere6)
    assert got6 == pytest.approx(-1.0 / 90.0, abs=1e-12)


def test_trace_matches_mass_functional_route(grid4, sphere4):
    for seed in range(20):
        u = random_zonal(grid4, 1200 + seed, 16, 1.0, 0.1)
        trace = conformal_trace(u, sphere4)
        m = mass_functional(u, sphere4)
        vol = lp_norm(u, sphere4.params.p) ** sphere4.params.p
        assert trace == pytest.approx(m * vol ** 0.5, abs=1e-10)


def test_trace_constant_along_dilations(grid4, sphere4):
    vals = [conformal_trace(dilation_factor(t, grid4), sphere4) for t in (0.0, 0.5, 1.0, 2.0)]
    assert max(vals) - min(vals) < 1e-8


def test_trace_rejects_mass_backgrounds(grid4):
    mnor = random_zonal(grid4, 41, 8, 0.2, 0.01)
    bg = round_sphere_background(4, grid4, mnor=mnor)
    with pytest.raises(ValueError):
        conformal_trace(constant_field(grid4, 1.0), bg)


def test_sobolev_gap_zero_on_constants(grid4, sphere4):
    assert abs(sobolev_gap(constant_field(grid4, 1.0), sphere4)) < 1e-10


def test_sobolev_gap_zero_on_dilations(grid4, sphere4):
    for t in (0.5, 1.0, 2.0):
        assert abs(sobolev_gap(dilation_factor(t, grid4), sphere4)) < 1e-8


@pytest.mark.parametrize("n", [4, 6])
def test_sobolev_gap_nonnegative(n, grid4, grid6, sphere4, sphere6):
    grid = grid4 if n == 4 else grid6
    bg = sphere4 if n == 4 else sphere6
    for seed in range(100):
        u = random_zonal(grid, 2000 + seed, 32, 1.0, 0.05)
        assert sobolev_gap(u, bg) > -1e-9


@pytest.mark.parametrize("n", [4, 6])
def test_sobolev_gap_of_a_stack_matches_per_field(n, grid4, grid6, sphere4, sphere6):
    grid = grid4 if n == 4 else grid6
    bg = sphere4 if n == 4 else sphere6
    seeds = 2000 + np.arange(20)
    gaps = sobolev_gap(random_zonal(grid, seeds, 32, 1.0, 0.05), bg)
    assert gaps.shape == (20,)
    for gap, seed in zip(gaps, seeds):
        one = sobolev_gap(random_zonal(grid, int(seed), 32, 1.0, 0.05), bg)
        assert gap == pytest.approx(one, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("size", [97, 256])
@pytest.mark.parametrize("n", [4, 6, 104])
def test_coefficient_form_is_the_grid_form(n, size):
    # B W B^T = I on the Gauss grid, so sum_l (l(l+n-1) + s) c_l^2 is
    # u^T W (D + s) u and the two differ by rounding alone.  The bound is
    # relative to sum_i w_i |u_i ((D + s) u)_i|, the rounding scale of the
    # grid form; the worst measured was 2.0 eps (n = 6, N = 256).  Relative to
    # the value, n = 4 and 6 agree to 4.5e-15, but n = 104 only to 2.6e-3: its
    # fields reach 1e33 at the poles, their degree-0 part swamps the rest, and
    # against the exact sum of the drawn coefficients both forms are off by
    # that much.
    grid = make_grid(n, size)
    stack = random_zonal(grid, 2600 + np.arange(20), 32, 1.0, 0.05)
    fields = [stack] + [ZonalField(grid, row) for row in stack.values[:3]]
    for shift in (0.0, n * (n - 2) / 4.0):
        for u in fields:
            lu = laplacian(u)
            want = inner(u, lu) + shift * inner(u, u)
            scale = np.abs(u.values * (lu.values + shift * u.values)) @ grid.weights
            got = _spectral_form(u, shift)
            assert np.shape(got) == np.shape(want)
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("functional", [sobolev_gap, conformal_trace, yamabe_functional])
def test_quadratic_forms_take_one_kernel_product(functional, grid4, sphere4, kernel_products):
    # one analysis per call, for one field and for a stack alike
    stack = random_zonal(grid4, np.arange(5), 16, 1.0, 0.1)
    for u in (ZonalField(grid4, stack.values[0]), stack):
        kernel_products.clear()
        functional(u, sphere4)
        assert kernel_products == [u.values.shape]


def test_report_takes_two_laplacians_and_three_analyses(grid4, sphere4, kernel_products):
    u = random_zonal(grid4, 77, 12, 0.6, 0.2)
    kernel_products.clear()
    functional_report(u, sphere4)
    assert len(kernel_products) == 2 * 2 + 3


def test_zero_guard_holds_per_row(grid4, sphere4):
    stack = random_zonal(grid4, np.arange(3), 16, 1.0, 0.1).values.copy()
    sobolev_gap(ZonalField(grid4, stack), sphere4)
    stack[1] = 0.0
    with pytest.raises(ValueError):
        sobolev_gap(ZonalField(grid4, stack), sphere4)


def test_dilation_factor_t_zero_is_one(grid4):
    assert np.abs(dilation_factor(0.0, grid4).values - 1.0).max() == 0.0


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [4, 6])
def test_dilation_factor_preserves_volume(t, n, grid4, grid6):
    grid = grid4 if n == 4 else grid6
    u = dilation_factor(t, grid)
    p = 2.0 * n / (n - 2)
    assert lp_norm(u, p) ** p == pytest.approx(sphere_volume(n), rel=1e-10)
    assert np.all(u.values > 0)


def test_report_invariant(grid4, sphere4):
    u = random_zonal(grid4, 77, 12, 0.6, 0.2)
    rep = functional_report(u, sphere4)
    assert rep.trace == pytest.approx(
        rep.mass_functional * rep.volume ** 0.5, abs=1e-10)
    assert rep.volume == pytest.approx(lp_norm(u, 4.0) ** 4.0, rel=1e-14)


def test_report_on_mass_background(grid4):
    mnor = random_zonal(grid4, 78, 8, 0.2, 0.01)
    bg = round_sphere_background(4, grid4, mnor=mnor)
    u = random_zonal(grid4, 79, 12, 0.6, 0.2)
    rep = functional_report(u, bg)
    assert rep.trace == pytest.approx(rep.mass_functional * rep.volume ** 0.5, rel=1e-12)


def test_sphere_value_is_maximum_over_test_family(grid4, sphere4):
    m_one = mass_functional(constant_field(grid4, 1.0), sphere4)
    family = [mass_functional(dilation_factor(t, grid4), sphere4) for t in (0.5, 1.0, 2.0)]
    assert max(family + [m_one]) <= m_one + 1e-8
