import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformal_zeta import zeta
from conformal_zeta.params import MAX_DIMENSION, dim_params, sphere_volume
from conformal_zeta.spectra import SpectrumQuery
from conformal_zeta.zeta import (MAX_TAIL_ORDER, _tail_coefficient_polys, bernoulli_polynomial,
                                 homogeneous_mass, hurwitz_zeta, parity_finite_part, spectral_zeta,
                                 spectral_zeta_at_one)
from oracles import (continued_sphere_zeta, euler_gamma_limit, hurwitz_direct,
                     hurwitz_finite_part_at_1, rational_finite_part, spectral_series_direct)

# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


def test_basel_value():
    # oracle: the closed form pi^2/6 (cross-checked by direct summation below)
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)


def test_direct_summation_agreement():
    for (s, a) in [(2.5, 1.25), (1.75, 0.7), (3.0, 2.0)]:
        assert hurwitz_zeta(s, a) == pytest.approx(hurwitz_direct(s, a), abs=1e-12)


def test_bernoulli_value_minus_one():
    # zeta_H(-1, a) = -B_2(a)/2; B_2(3/2) = 11/12
    assert hurwitz_zeta(-1.0, 1.5) == pytest.approx(-11.0 / 24.0, abs=1e-15)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_bernoulli_value_zero(a):
    # zeta_H(0, a) = 1/2 - a (= -B_1(a))
    assert hurwitz_zeta(0.0, a) == pytest.approx(0.5 - a, abs=1e-13)


@pytest.mark.parametrize("s", [-9.5, -4.25, -2.0, -0.5, 0.25, 4.0, 9.5])
@pytest.mark.parametrize("a", [0.3, 1.0, 2.75])
def test_against_mpmath_lattice(s, a):
    with mpmath.workdps(30):
        want = float(mpmath.zeta(s, a))
    assert hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-13, abs=1e-13)


@given(s=st.floats(min_value=-4.0, max_value=10.0).filter(lambda v: abs(v - 1) > 1e-3),
       a=st.floats(min_value=0.25, max_value=4.0))
def test_recurrence(s, a):
    lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
    rhs = a ** (-s)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("m", [2, 10, 25, 30, 31, 40])
def test_nonpositive_integers_are_correctly_rounded(m):
    # zeta_H(-m, a) = -B_{m+1}(a)/(m+1), needing Bernoulli numbers past B_31 for m >= 31
    for a in (0.75, 2.5, 51.5):
        with mpmath.workdps(50):
            want = float(mpmath.zeta(-m, a))
        assert abs(hurwitz_zeta(-float(m), a) - want) <= math.ulp(want), a


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 51.5, 1052.5])
def test_nonpositive_integer_overflow_is_refused_only_beyond_the_float_range(a):
    # the cheap bound refuses some of these; every refusal must be an overflow.
    # At a = 1/4, m = 317 fits and m = 319 does not
    for m in (150, 300) + ((317, 319) if a == 0.25 else ()):
        exact = -bernoulli_polynomial(m + 1, Fraction(a)) / (m + 1)
        try:
            want = float(exact)
        except OverflowError:
            with pytest.raises(OverflowError):
                hurwitz_zeta(-float(m), a)
        else:
            assert hurwitz_zeta(-float(m), a) == want


@pytest.mark.parametrize("a", [0.75, 51.5, 1052.5])
def test_large_negative_integer_is_refused_before_the_exact_recurrence(a, monkeypatch):
    # the exact path for m = 1000 takes seconds; the bound refuses at once
    monkeypatch.setattr(zeta, "bernoulli_polynomial", functools.partial(pytest.fail, "exact path"))
    with pytest.raises(OverflowError, match="float64 range"):
        hurwitz_zeta(-1000.0, a)


@pytest.mark.parametrize("a", [0.25, 0.75])
@pytest.mark.parametrize("m", [319, 401, 1001])
def test_quarter_point_overflow_is_refused_before_the_exact_recurrence(m, a, monkeypatch):
    # at a = 1/4 and 3/4 the leading Fourier term of B_{m+1} vanishes for odd m;
    # the exact magnitude 2^-k (1 - 2^(1-k)) |B_k| still decides the overflow
    monkeypatch.setattr(zeta, "bernoulli_polynomial", functools.partial(pytest.fail, "exact path"))
    with pytest.raises(OverflowError, match="float64 range"):
        hurwitz_zeta(-float(m), a)


def test_pole_guard():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0 + 1e-9, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, -1.0)


def test_laurent_at_one_values():
    # the digamma oracle against the Euler-Maclaurin limit for gamma
    gamma = euler_gamma_limit()
    assert hurwitz_finite_part_at_1(1.0) == pytest.approx(gamma, abs=1e-11)
    assert hurwitz_finite_part_at_1(0.5) == pytest.approx(gamma + 2 * math.log(2), abs=1e-11)
    # recurrence psi(a+1) = psi(a) + 1/a at a = 1/2
    assert hurwitz_finite_part_at_1(1.5) == pytest.approx(
        gamma + 2 * math.log(2) - 2.0, abs=1e-11)


def _psi_closed_forms(shifts):
    """psi(a) at 50 digits for a = j/4 + k (j = 1, 2, 3; k < shifts), from the
    Gauss closed forms at 1/4, 1/2, 3/4 and psi(a+1) = psi(a) + 1/a."""
    with mpmath.workdps(50):
        gamma, pi, ln2 = mpmath.euler, mpmath.pi, mpmath.log(2)
        bases = {1: -gamma - pi / 2 - 3 * ln2, 2: -gamma - 2 * ln2, 3: -gamma + pi / 2 - 3 * ln2}
        out = {}
        for j, psi in bases.items():
            a = mpmath.mpf(j) / 4
            for _ in range(shifts):
                out[float(a)] = float(psi)
                psi += 1 / a
                a += 1
    return out


def test_laurent_finite_part_is_correctly_rounded():
    # the oracle against psi from the Gauss closed forms, at the quarter-integer
    # arguments x_0 / step of the spheres and projective spaces with n <= 104
    for a, psi in _psi_closed_forms(60).items():
        assert hurwitz_finite_part_at_1(a) == -psi, a


def test_laurent_rejects_nonpositive():
    with pytest.raises(ValueError):
        hurwitz_finite_part_at_1(0.0)


# ---------------------------------------------------------------------------
# spectral series at the expansion point
# ---------------------------------------------------------------------------

SPHERE_TARGETS = {4: Fraction(-1, 9), 6: Fraction(-1, 45), 8: Fraction(-1, 840)}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sphere_finite_parts_match_rational_oracle(n):
    oracle = rational_finite_part(n)
    assert oracle == SPHERE_TARGETS[n]  # frozen exact values
    lv = spectral_zeta_at_one(SpectrumQuery(space="sphere", n=n))
    assert lv.finite_part == pytest.approx(float(oracle), abs=1e-12)


def test_projective_finite_part_matches_rational_oracle():
    oracle = rational_finite_part(4, parity="even")
    assert oracle == Fraction(1, 36)  # frozen exact value from the oracle
    lv = spectral_zeta_at_one(SpectrumQuery(space="projective", n=4))
    assert lv.finite_part == pytest.approx(float(oracle), abs=1e-12)


def test_finite_part_does_not_evaluate_psi(monkeypatch):
    # psi(a) would enter the closed form multiplied by a_1(1) = 0
    def refuse(*args, **kwargs):
        raise AssertionError("psi was evaluated")

    monkeypatch.setattr(mpmath, "digamma", refuse)
    sphere = spectral_zeta_at_one(SpectrumQuery(space="sphere", n=4))
    projective = spectral_zeta_at_one(SpectrumQuery(space="projective", n=4))
    assert sphere.finite_part == pytest.approx(-1 / 9, abs=1e-12)
    assert projective.finite_part == pytest.approx(1 / 36, abs=1e-12)


# residues of every supported series, measured on x86-64 with glibc's libm before
# the tail coefficients moved from per-factor binomial convolutions to the
# power-sum recurrence, which leaves every one of them bit for bit
RESIDUES = json.loads(Path(__file__).with_name("zeta_residues.json").read_text())


@pytest.mark.parametrize("space", ["sphere", "projective"])
def test_finite_parts_are_correctly_rounded_and_residues_unchanged(space):
    for n in range(4, MAX_DIMENSION + 1, 2):
        lv = spectral_zeta_at_one(SpectrumQuery(space=space, n=n))
        exact = rational_finite_part(n, "even" if space == "projective" else None)
        assert lv.finite_part == float(exact), n
        assert lv.residue == RESIDUES[space][str(n)], n


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("space", ["sphere", "projective"])
def test_residue_vanishes(n, space):
    lv = spectral_zeta_at_one(SpectrumQuery(space=space, n=n))
    assert abs(lv.residue) < 1e-10


@pytest.mark.parametrize("n", [4, 6, 8])
def test_parity_recombination(n):
    full = spectral_zeta_at_one(SpectrumQuery(space="sphere", n=n)).finite_part
    even = parity_finite_part(n, "even")
    odd = parity_finite_part(n, "odd")
    assert abs(even + odd - full) < 1e-10
    # and the rational oracle recombines exactly
    assert rational_finite_part(n, "even") + rational_finite_part(n, "odd") \
        == rational_finite_part(n)


@pytest.mark.parametrize("n,s", [(4, 2.5), (4, 3.0), (6, 2.0), (6, 3.0)])
def test_convergent_region_agreement(n, s):
    engine = spectral_zeta(SpectrumQuery(space="sphere", n=n), s)
    brute = spectral_series_direct(n, s)
    assert engine == pytest.approx(brute, abs=1e-10)


def test_telescoping_closed_forms():
    # (2l+3)/((l+1)^2 (l+2)^2) telescopes: the n=4 series at s=3 sums to 1/6
    assert spectral_zeta(SpectrumQuery(space="sphere", n=4), 3.0) == pytest.approx(
        1.0 / 6.0, abs=1e-14)
    # same telescoping structure for n=6 at s=2: 1/360
    assert spectral_zeta(SpectrumQuery(space="sphere", n=6), 2.0) == pytest.approx(
        1.0 / 360.0, abs=1e-14)


def test_finite_part_agrees_with_symmetric_evaluation():
    for n in (4, 6, 8):
        for space in ("sphere", "projective"):
            q = SpectrumQuery(space=space, n=n)
            lv = spectral_zeta_at_one(q)
            delta = 1e-4
            sym = 0.5 * (spectral_zeta(q, 1 + delta) + spectral_zeta(q, 1 - delta))
            sym2 = 0.5 * (spectral_zeta(q, 1 + delta / 2) + spectral_zeta(q, 1 - delta / 2))
            richardson = (4 * sym2 - sym) / 3.0
            assert lv.finite_part == pytest.approx(richardson, abs=1e-9)


def test_parity_finite_part_rejects_bad_parity():
    with pytest.raises(ValueError):
        parity_finite_part(4, "both")


@pytest.mark.parametrize("n, s, reason", [(82, 0.6, "pole")])
def test_series_where_a_tail_exponent_is_a_large_negative_integer(n, s, reason):
    # the k=0 tail term is a Hurwitz zeta at w = -1 + (n-2)(s-1) = -33.  On S^82,
    # s = 0.6 is a Weyl pole: w_17 = 1 and a_17(-0.4) != 0.  The refusal names it.
    with pytest.raises(ValueError, match=reason):
        spectral_zeta(SpectrumQuery(space="sphere", n=n), s)


def test_series_beyond_the_absolute_tail_tolerance():
    # On S^64 at s = 0.5 the k=0 tail term is a Hurwitz zeta at w = -33, of order
    # x^33 ~ 1e97 at the split point x ~ 1000, so no absolute remainder bound is
    # met; the tail stops once the remainder is below half an ulp of the tail.
    # Head and tail, about 8.6e10 each after the prefactor, cancel to the
    # continued value -4.8e-45, which float64 keeps to a few ulps of the head.
    value = spectral_zeta(SpectrumQuery(space="sphere", n=64), 0.5)
    want = continued_sphere_zeta(64, Fraction(1, 2))
    assert abs(value - want) <= 8 * np.finfo(float).eps * 8.6e10


@pytest.mark.parametrize("n", [4, 6, 104])
@pytest.mark.parametrize("sigma", [-0.3, 0.3, 1e-4])
def test_tail_coefficients_expand_the_eigenvalue_power(n, sigma):
    # sum_k a_k(sigma) x^{-2k} = prod_i (1 - c_i / x^2)^{-sigma}, c_i = (i + 1/2)^2
    x = 200.0
    series = math.fsum(float(np.polynomial.polynomial.polyval(sigma, a)) * x ** (-2 * k)
                       for k, a in enumerate(_tail_coefficient_polys(n, MAX_TAIL_ORDER)))
    with mpmath.workdps(40):
        want = mpmath.fprod((1 - mpmath.mpf((i + 0.5) ** 2) / x**2) ** (-mpmath.mpf(sigma))
                            for i in range((n - 4) // 2 + 1))
        assert abs(series - want) <= 1e-14 * abs(want)


def test_weyl_pole_rejected():
    # the continued n=4 series has a genuine pole at s=2
    with pytest.raises(ValueError):
        spectral_zeta(SpectrumQuery(space="sphere", n=4), 2.0)


# ---------------------------------------------------------------------------
# homogeneous masses
# ---------------------------------------------------------------------------


def test_sphere_mass_n4_paper():
    hm = homogeneous_mass(SpectrumQuery(space="sphere", n=4), dim_params(4, "paper"))
    want = float(rational_finite_part(4)) / sphere_volume(4)
    assert want == pytest.approx(-1 / (24 * math.pi**2), rel=1e-14)
    assert hm.mass == pytest.approx(want, abs=1e-13)


def test_projective_mass_n4():
    hm = homogeneous_mass(SpectrumQuery(space="projective", n=4), dim_params(4, "paper"))
    want = float(rational_finite_part(4, "even")) / (sphere_volume(4) / 2)
    assert want == pytest.approx(1 / (48 * math.pi**2), rel=1e-14)
    assert hm.mass == pytest.approx(want, abs=1e-13)
    # normalized mass stays positive in both conventions
    assert hm.normalized_mass == pytest.approx(1 / (24 * math.pi**2), rel=1e-12)
    cal = homogeneous_mass(SpectrumQuery(space="projective", n=4), dim_params(4, "calibrated"))
    assert cal.normalized_mass == pytest.approx(1 / (16 * math.pi**2), rel=1e-12)
    assert hm.normalized_mass > 0 and cal.normalized_mass > 0


def test_homogeneous_mass_does_not_evaluate_the_series(monkeypatch):
    # the mass needs the finite part only, not the residue measured from the series
    def refuse(*args, **kwargs):
        raise AssertionError("the series was evaluated")

    monkeypatch.setattr(zeta, "spectral_zeta", refuse)
    hm = homogeneous_mass(SpectrumQuery(space="projective", n=4), dim_params(4, "paper"))
    assert hm.normalized_mass == pytest.approx(1 / (24 * math.pi**2), rel=1e-14)


def test_sphere_mass_calibrated_normalization():
    for n in (4, 6):
        hm = homogeneous_mass(SpectrumQuery(space="sphere", n=n), dim_params(n, "calibrated"))
        assert abs(hm.normalized_mass) < 1e-10


def test_higher_dimensions_stay_consistent():
    # the machinery is dimension-generic: n=10 sphere and RP^6 / RP^8 all
    # match the exact-rational oracle and stay regular at the expansion point
    lv = spectral_zeta_at_one(SpectrumQuery(space="sphere", n=10))
    assert lv.finite_part == pytest.approx(float(rational_finite_part(10)), abs=1e-12)
    assert abs(lv.residue) < 1e-10
    for n in (6, 8):
        rp = spectral_zeta_at_one(SpectrumQuery(space="projective", n=n))
        assert rp.finite_part == pytest.approx(
            float(rational_finite_part(n, "even")), abs=1e-12)
        assert abs(rp.residue) < 1e-10
