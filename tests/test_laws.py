import math

import numpy as np
import pytest

from conformal_zeta.background import round_sphere_background
from conformal_zeta.errors import GridMismatchError
from conformal_zeta.laws import (mass_pushforward, mass_transport_ode,
                                 normalized_mass_pushforward, p_operator_apply,
                                 transform_background, transformed_laplacian,
                                 transformed_scalar_curvature, yamabe_apply)
from conformal_zeta.params import dim_params
from conformal_zeta.spectra import SpectrumQuery
from conformal_zeta.zeta import homogeneous_mass
from conformal_zeta.zonal import (ZonalField, constant_field, inner, laplacian, lp_norm,
                                  make_grid, random_band_limited, random_zonal)

LAW_FIELDS = dict(l_max=16)


def smooth(grid, seed, amplitude):
    return random_band_limited(grid, seed, amplitude=amplitude, **LAW_FIELDS)


@pytest.fixture(scope="module")
def bg4(grid4):
    return round_sphere_background(4, grid4, variant="calibrated")


def test_identity_conformal_factor(grid4, bg4):
    f = smooth(grid4, 0, 0.5)
    zero = constant_field(grid4, 0.0)
    out = transformed_laplacian(f, zero, bg4)
    assert np.abs(out.values - laplacian(f).values).max() < 1e-12


def test_transformed_laplacian_kills_constants(grid4, bg4):
    phi = smooth(grid4, 1, 0.3)
    out = transformed_laplacian(constant_field(grid4, 5.0), phi, bg4)
    assert np.abs(out.values).max() < 1e-11


def test_yamabe_on_constants(grid4):
    bg = round_sphere_background(4, grid4, variant="paper")
    out = yamabe_apply(constant_field(grid4, 1.0), bg)
    # a_4 * scal(S^4) = (1/6) * 12 = 2, cross-checked by the l=0 eigenvalue
    # (l+1)(l+2) = 2 of the degree stream
    assert np.abs(out.values - 2.0).max() < 1e-13


def test_yamabe_on_degree_one(grid4):
    bg = round_sphere_background(4, grid4, variant="paper")
    f = ZonalField(grid4, grid4.nodes.copy())
    out = yamabe_apply(f, bg)
    assert np.abs(out.values - 6.0 * grid4.nodes).max() < 1e-12


def test_yamabe_linearity(grid4, bg4):
    u = smooth(grid4, 2, 0.7)
    v = smooth(grid4, 3, 0.4)
    combo = yamabe_apply(ZonalField(grid4, 2.0 * u.values - 3.0 * v.values), bg4)
    split = 2.0 * yamabe_apply(u, bg4).values - 3.0 * yamabe_apply(v, bg4).values
    assert np.abs(combo.values - split).max() < 1e-12


@pytest.mark.parametrize("variant", ["paper", "calibrated"])
def test_p_equals_scaled_yamabe_without_mass_data(grid4, variant):
    bg = round_sphere_background(4, grid4, variant=variant)
    u = smooth(grid4, 4, 0.6)
    pu = p_operator_apply(u, bg)
    yu = yamabe_apply(u, bg)
    assert np.abs(pu.values - bg.params.c_n * yu.values).max() < 1e-12


def test_p_on_constants_paper(grid4):
    bg = round_sphere_background(4, grid4, variant="paper")
    out = p_operator_apply(constant_field(grid4, 1.0), bg)
    want = 2.0 * bg.params.c_n  # = 1/(48 pi^2), constants arithmetic
    assert want == pytest.approx(1 / (48 * math.pi**2), rel=1e-14)
    assert np.abs(out.values - want).max() < 1e-16


def test_p_on_zero_field(grid4, bg4):
    out = p_operator_apply(constant_field(grid4, 0.0), bg4)
    assert np.abs(out.values).max() == 0.0


def test_p_self_adjoint(grid4, bg4):
    for seed in range(10):
        u = smooth(grid4, 100 + seed, 0.8)
        v = smooth(grid4, 200 + seed, 0.5)
        asym = abs(inner(u, p_operator_apply(v, bg4)) - inner(v, p_operator_apply(u, bg4)))
        assert asym < 1e-10 * lp_norm(u, 2) * lp_norm(v, 2)


def test_mass_pushforward_identity_factor(grid4, bg4):
    out = mass_pushforward(constant_field(grid4, 1.0), bg4)
    assert np.abs(out.values - bg4.mass_field().values).max() < 1e-17


def test_mass_pushforward_rejects_sign_changing(grid4, bg4):
    with pytest.raises(ValueError):
        mass_pushforward(ZonalField(grid4, grid4.nodes.copy()), bg4)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("variant", ["paper", "calibrated"])
def test_dilation_keeps_normalized_mass_zero(grid4, t, variant):
    from conformal_zeta.functionals import dilation_factor

    bg = round_sphere_background(4, grid4, variant=variant)
    u = dilation_factor(t, grid4)
    pushed = mass_pushforward(u, bg)
    scal_new = transformed_scalar_curvature(u, bg)
    mnor_new = pushed.values + bg.params.b_n * scal_new.values
    assert np.abs(mnor_new).max() < 1e-9


def test_transport_ode_matches_closed_form(grid4, bg4):
    worst = 0.0
    for seed in range(5):
        phi = smooth(grid4, 300 + seed, 0.3)
        u = ZonalField(grid4, np.exp(phi.values))
        closed = mass_pushforward(u, bg4)
        marched = mass_transport_ode(bg4, phi)
        worst = max(worst, np.abs(closed.values - marched.values).max())
    assert worst < 1e-6


def test_normalized_mass_pushforward_trivial_cases(grid4):
    mnor = random_zonal(grid4, 17, 12, 0.4, 0.05)
    zero_phi = constant_field(grid4, 0.0)
    assert np.array_equal(normalized_mass_pushforward(mnor, zero_phi).values, mnor.values)
    phi = smooth(grid4, 18, 0.3)
    zero = constant_field(grid4, 0.0)
    assert np.abs(normalized_mass_pushforward(zero, phi).values).max() == 0.0


def test_normalized_mass_consistency_chain(grid4):
    # pushforward + b_n * (transformed scal) == covariant pushforward of mnor
    mnor = random_zonal(grid4, 19, 12, 0.3, 0.05)
    bg = round_sphere_background(4, grid4, variant="calibrated", mnor=mnor)
    phi = smooth(grid4, 20, 0.3)
    u = ZonalField(grid4, np.exp(phi.values))
    lhs = mass_pushforward(u, bg).values + bg.params.b_n * transformed_scalar_curvature(u, bg).values
    rhs = normalized_mass_pushforward(bg.mnor, phi).values
    assert np.abs(lhs - rhs).max() < 1e-8


@pytest.mark.parametrize("n", [4, 6])
def test_yamabe_covariance(n, grid4, grid6):
    grid = grid4 if n == 4 else grid6
    bg = round_sphere_background(n, grid, variant="calibrated")
    worst = 0.0
    for seed in range(10):
        f = smooth(grid, 400 + seed, 0.5)
        phi = smooth(grid, 500 + seed, 0.3)
        u = ZonalField(grid, np.exp((n - 2) / 2.0 * phi.values))
        bg_h = transform_background(bg, phi)
        lhs = transformed_laplacian(f, phi, bg).values + bg.params.a_n * bg_h.scal.values * f.values
        rhs = np.exp(-(n + 2) / 2.0 * phi.values) * yamabe_apply(
            ZonalField(grid, u.values * f.values), bg).values
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-8


@pytest.mark.parametrize("n", [4, 6])
def test_p_covariance_with_mass_data(n, grid4, grid6):
    grid = grid4 if n == 4 else grid6
    mnor = random_zonal(grid, 23, 12, 0.3, 0.05)
    bg = round_sphere_background(n, grid, variant="calibrated", mnor=mnor)
    worst = 0.0
    for seed in range(10):
        f = smooth(grid, 600 + seed, 0.5)
        phi = smooth(grid, 700 + seed, 0.3)
        u = ZonalField(grid, np.exp((n - 2) / 2.0 * phi.values))
        bg_h = transform_background(bg, phi)
        lhs = (bg.params.c_n * transformed_laplacian(f, phi, bg).values
               - bg_h.mass_field().values * f.values)
        rhs = np.exp(-(n + 2) / 2.0 * phi.values) * p_operator_apply(
            ZonalField(grid, u.values * f.values), bg).values
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-8


@pytest.mark.parametrize("n,variant,expect_zero", [
    (4, "calibrated", True), (6, "calibrated", True),
    (4, "paper", False), (6, "paper", False),
])
def test_calibration_identity(n, variant, expect_zero):
    params = dim_params(n, variant)
    hm = homogeneous_mass(SpectrumQuery(space="sphere", n=n), params)
    if expect_zero:
        assert abs(hm.normalized_mass) < 1e-9
    else:
        assert hm.normalized_mass == pytest.approx(-params.b_n * n * (n - 1), abs=1e-9)


def test_grid_mismatch_rejected(grid4, bg4):
    other = make_grid(4, 64)
    with pytest.raises(GridMismatchError):
        transformed_laplacian(constant_field(other, 1.0), constant_field(grid4, 0.0), bg4)
