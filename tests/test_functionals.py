import dataclasses
import math
import warnings

import numpy as np
import pytest

from conformal_zeta import acceptance
from conformal_zeta.acceptance import run_suite
from conformal_zeta.background import round_sphere_background
from conformal_zeta.errors import ConsistencyError, ZeroFieldError
from conformal_zeta.functionals import (_spectral_form, conformal_trace, dilation_factor,
                                        functional_report, mass_functional, sobolev_gap,
                                        yamabe_functional)
from conformal_zeta.params import sphere_volume
from conformal_zeta.zonal import (ZonalField, constant_field, floored_field, inner, laplacian,
                                  lp_norm, make_grid, random_zonal, random_zonal_coefficients)
from oracles import kernel_reference_tables


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


def test_form_disagreement_in_a_stack_is_one_line_naming_the_worst_row(grid4, sphere4):
    # b_n off its coupling a_n c_n: the forms differ by 1e-6 c_n int u D u / ||u||_p^2,
    # largest for the most concentrated of the five dilations, row 3
    params = dataclasses.replace(sphere4.params, b_n=sphere4.params.b_n * (1 + 1e-6))
    bg = dataclasses.replace(sphere4, params=params)
    stack = ZonalField(grid4, np.stack([dilation_factor(t, grid4).values
                                        for t in (0.0, 0.25, 0.5, 1.5, 1.0)]))
    with pytest.raises(ConsistencyError) as err:
        mass_functional(stack, bg)
    message = str(err.value)
    assert "\n" not in message and "row 3 of 5" in message and "1e-10" in message


def test_yamabe_functional_sphere_value(grid4, sphere4):
    got = yamabe_functional(constant_field(grid4, 1.0), sphere4)
    assert got == pytest.approx(12.0 * math.sqrt(sphere_volume(4)), rel=1e-12)


@pytest.mark.parametrize("n", [4, 6, 20])
def test_yamabe_functional_dilation_invariant(n, grid4, grid6):
    # the sphere form reads the sharp constant to a few ulps along the orbit
    grid = {4: grid4, 6: grid6}.get(n) or make_grid(n, 256)
    bg = round_sphere_background(n, grid)
    base = bg.params.yamabe_sphere
    for t in (0.5, 1.0, 2.0):
        got = yamabe_functional(dilation_factor(t, grid), bg)
        assert got == pytest.approx(base, rel=1e-14)


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


def _rounding_scale(u, shift):
    """S = sum_l (l(l+n-1) + shift) |c_l| c_scale_l per field, from the
    longdouble reference: c = A u and the analysis product scale
    c_scale = |A| |u| of test_zonal._within.  A float64 analysis moves each
    c_l by at most k eps c_scale_l, k = 8, so int u (D + shift) u by 2 k eps S."""
    grid = u.grid
    analysis = kernel_reference_tables(grid.n, grid.size)[0]
    v = np.asarray(u.values, dtype=np.longdouble)
    c, c_scale = v @ analysis.T, np.abs(v) @ np.abs(analysis).T
    return ((np.abs(c) * c_scale) @ (grid.laplacian_eigenvalues + shift)).astype(float)


def _stacked_gap_bound(stack, bg):
    """Per field, how far two evaluations of ``sobolev_gap`` may differ by the
    kernel's rounding alone: each moves the form by 2 k eps S and the norm
    term by k eps of itself, k = 8."""
    n = bg.params.n
    const = n * (n - 2) / 4.0
    norm_terms = const * bg.params.omega_n ** (2.0 / n) * lp_norm(stack, bg.params.p) ** 2
    return 2 * 8 * np.finfo(float).eps * (2 * _rounding_scale(stack, const) + norm_terms)


@pytest.mark.parametrize("n", [4, 6])
def test_sobolev_gap_of_a_stack_matches_per_field(n, grid4, grid6, sphere4, sphere6):
    # each row of the stack against the same values taken as a lone field: they
    # differ by the kernel's rounding alone (``_stacked_gap_bound``).  The gap
    # cancels the two terms, near 1.5e5 at n = 6, down to O(1); the worst
    # measured was 5.0 eps S, 9.4 eps of the form (n = 6)
    grid = grid4 if n == 4 else grid6
    bg = sphere4 if n == 4 else sphere6
    stack = random_zonal(grid, 2000 + np.arange(20), 32, 1.0, 0.05)
    gaps = sobolev_gap(stack, bg)
    assert gaps.shape == (20,)
    for gap, row, bound in zip(gaps, stack.values, _stacked_gap_bound(stack, bg)):
        assert abs(gap - sobolev_gap(ZonalField(grid, row), bg)) <= bound


def test_sobolev_check_values_do_not_depend_on_the_slice_size(monkeypatch, sphere4, sphere6):
    # the suite draws its 1000 Sobolev fields once and slices them into
    # stacks, so the slice size moves each minimum by rounding alone: within
    # the stacked-versus-lone bound of the fields near that minimum
    names = ["sobolev_gap_random_n4", "sobolev_gap_random_n6"]
    default = run_suite(names=names).checks
    monkeypatch.setattr(acceptance, "_SOBOLEV_STACK", 40)
    sliced = run_suite(names=names).checks
    coeffs = random_zonal_coefficients(40000 + np.arange(1000), 48)
    for bg, one, other in zip((sphere4, sphere6), default, sliced):
        fields = floored_field(bg.grid, coeffs, 1.0, 0.05)
        gaps = sobolev_gap(fields, bg)
        near = ZonalField(bg.grid, fields.values[gaps <= gaps.min() + 1.0])
        assert abs(one.value - other.value) <= _stacked_gap_bound(near, bg).max()


@pytest.mark.parametrize("size", [97, 256])
@pytest.mark.parametrize("n", [4, 6, 104])
def test_coefficient_form_is_the_grid_form(n, size):
    # B W B^T = I on the Gauss grid, so sum_l (l(l+n-1) + s) c_l^2 is
    # u^T W (D + s) u and the two differ by rounding alone.  The float64
    # analysis moves the coefficient form by 2 k eps S (``_rounding_scale``);
    # the grid form's analysis and synthesis move it as much again, since
    # sum_i w_i u_i B_li = c_l.  Its own sums add 4 eps of
    # sum_i w_i |u_i ((D + s) u)_i|.  The worst measured was 7.8 eps S, 22% of
    # the bound (n = 6, N = 256).  Relative to the value, n = 4 and 6 agree to
    # 1.4e-14, but n = 104 only to 2.6e-3: its fields reach 1e33 at the poles,
    # their degree-0 part swamps the rest, and against the exact sum of the
    # drawn coefficients both forms are off by that much.
    grid = make_grid(n, size)
    stack = random_zonal(grid, 2600 + np.arange(20), 32, 1.0, 0.05)
    fields = [stack] + [ZonalField(grid, row) for row in stack.values[:3]]
    for shift in (0.0, n * (n - 2) / 4.0):
        for u in fields:
            lu = laplacian(u)
            want = inner(u, lu) + shift * inner(u, u)
            sums = np.abs(u.values * (lu.values + shift * u.values)) @ grid.weights
            bound = np.finfo(float).eps * (4 * 8 * _rounding_scale(u, shift) + 4 * sums)
            got = _spectral_form(u, shift)
            assert np.shape(got) == np.shape(want)
            assert np.all(np.abs(got - want) <= bound)


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


@pytest.mark.parametrize("scale", [1e-200, 1e100, 1e200])
@pytest.mark.parametrize("functional", [sobolev_gap, conformal_trace, yamabe_functional])
def test_sphere_functionals_refuse_a_field_past_the_float_range(functional, scale, grid4,
                                                                 sphere4):
    # ||u||_4^2 underflows at 1e-200 and overflows at 1e100 and 1e200, and
    # int u (D + 2) u overflows at 1e200.  Unguarded, the gap read 0.0, -inf
    # and nan.  The trace takes no norm, so it keeps 1e-200 (as -0.0) and
    # 1e100: it is 2-homogeneous
    u = random_zonal(grid4, 55, 10, 1.0, 0.3)
    scaled = ZonalField(grid4, scale * u.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        if functional is conformal_trace and scale < 1e200:
            want = scale**2 * conformal_trace(u, sphere4)
            assert conformal_trace(scaled, sphere4) == pytest.approx(want, rel=1e-14)
        else:
            with pytest.raises(ValueError):
                functional(scaled, sphere4)


def test_zero_guard_holds_per_row(grid4, sphere4):
    stack = random_zonal(grid4, np.arange(3), 16, 1.0, 0.1).values.copy()
    sobolev_gap(ZonalField(grid4, stack), sphere4)
    stack[1] = 0.0
    for functional in (sobolev_gap, mass_functional, conformal_trace, yamabe_functional):
        with pytest.raises(ZeroFieldError):
            functional(ZonalField(grid4, stack), sphere4)


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
