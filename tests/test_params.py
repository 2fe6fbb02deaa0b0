import math

import pytest

from conformal_zeta.bubbles import ProfileParams, bubble_moment
from conformal_zeta.params import (MAX_DIMENSION, dim_params,
                                   infinitesimal_transport_coefficient, sphere_volume)
from conformal_zeta.spectra import SpectrumQuery
from conformal_zeta.zeta import parity_finite_part, spectral_zeta_at_one
from conformal_zeta.zonal import make_grid


def test_n4_paper_closed_forms():
    p = dim_params(4, "paper")
    assert p.a_n == pytest.approx(1 / 6, abs=0)
    assert p.c_n == pytest.approx(1 / (96 * math.pi**2), rel=1e-15)
    assert p.b_n == pytest.approx(1 / (576 * math.pi**2), rel=1e-15)
    assert p.p == pytest.approx(4.0, abs=0)
    assert p.m == 1


def test_n6_paper_closed_forms():
    p = dim_params(6, "paper")
    assert p.a_n == pytest.approx(1 / 5, abs=0)
    assert p.c_n == pytest.approx(1 / (576 * math.pi**3), rel=1e-15)
    assert p.p == pytest.approx(3.0, abs=0)
    assert p.m == 2


@pytest.mark.parametrize("n", [4, 6, 8])
def test_calibrated_doubles_couplings(n):
    paper = dim_params(n, "paper")
    cal = dim_params(n, "calibrated")
    assert cal.c_n == pytest.approx(2 * paper.c_n, rel=0, abs=0)
    assert cal.b_n == pytest.approx(2 * paper.b_n, rel=0, abs=0)
    assert cal.a_n == paper.a_n


@pytest.mark.parametrize("n,variant", [(4, "paper"), (4, "calibrated"),
                                       (6, "paper"), (8, "calibrated")])
def test_coupling_product_identity(n, variant):
    p = dim_params(n, variant)
    assert p.b_n == pytest.approx(p.a_n * p.c_n, rel=1e-15)


@pytest.mark.parametrize("bad", [5, 3, 2, 0, -4, 7])
def test_rejects_bad_dimensions(bad):
    with pytest.raises(ValueError):
        dim_params(bad)


@pytest.mark.parametrize("build", [
    dim_params,
    infinitesimal_transport_coefficient,
    lambda n: SpectrumQuery(space="sphere", n=n),
    lambda n: make_grid(n, 16),
    lambda n: ProfileParams(alpha=0.1, epsilon=0.3, n=n),
    lambda n: parity_finite_part(n, "even"),
    lambda n: bubble_moment(0.1, 2.5, 0, n),
], ids=["dim_params", "transport_coefficient", "spectrum_query", "zonal_grid",
        "profile_params", "parity_finite_part", "bubble_moment"])
def test_dimension_rule_is_shared(build, refuse_grid_build):
    for bad in (3, 2, MAX_DIMENSION + 2, 20000):
        with pytest.raises(ValueError, match=f"4..{MAX_DIMENSION}, got n={bad}"):
            build(bad)


@pytest.mark.parametrize("space", ["sphere", "projective"])
def test_largest_dimension_is_supported(space):
    # the bound sits where the zeta head's eigenvalue products still fit a float
    p = dim_params(MAX_DIMENSION)
    assert all(math.isfinite(v) and v > 0 for v in (p.c_n, p.b_n, p.omega_n))
    lv = spectral_zeta_at_one(SpectrumQuery(space=space, n=MAX_DIMENSION))
    assert math.isfinite(lv.finite_part) and math.isfinite(lv.residue)


def test_rejects_unknown_variant():
    with pytest.raises(ValueError):
        dim_params(4, "folklore")


def test_sphere_volumes():
    # omega_4 = 8 pi^2 / 3 and omega_6 = 16 pi^3 / 15 in closed form
    assert sphere_volume(4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-15)
    assert sphere_volume(6) == pytest.approx(16 * math.pi**3 / 15, rel=1e-15)


def test_yamabe_sphere_constant():
    p = dim_params(4)
    assert p.yamabe_sphere == pytest.approx(12 * math.sqrt(8 * math.pi**2 / 3), rel=1e-15)


def test_transport_coefficient_is_half_calibrated():
    for n in (4, 6, 8):
        gamma = infinitesimal_transport_coefficient(n)
        assert gamma == pytest.approx(dim_params(n, "paper").c_n, rel=0, abs=0)
        assert 2 * gamma == pytest.approx(dim_params(n, "calibrated").c_n, rel=1e-15)
