import math
from fractions import Fraction

import numpy as np
import pytest

from conformal_zeta.background import round_sphere_background
from conformal_zeta.laws import yamabe_apply
from conformal_zeta.spectra import SpectrumQuery, subcritical_eigenvalue
from conformal_zeta.zonal import ZonalField, laplacian, synthesize


def test_projective_skips_odd_degrees():
    assert SpectrumQuery(space="projective", n=4).step == 2
    assert SpectrumQuery(space="sphere", n=4).step == 1


def test_multiplicity_binomial_oracle():
    # the binomial dimension of the degree-l harmonics is 2x eig(l) / (n-1)!,
    # x = l + (n-1)/2: the form in which the zeta module sums Z(s)
    for n in (4, 6, 8, 104):
        for l in range(0, 40):
            binomial = math.comb(n + l, n) - math.comb(n + l - 2, n)
            x = Fraction(2 * l + n - 1, 2)
            assert binomial == 2 * x * subcritical_eigenvalue(n, l) / math.factorial(n - 1)


def test_growth_bracket():
    for n in (4, 6, 8):
        for l in range(1, 1000, 37):
            ratio = subcritical_eigenvalue(n, l) / l ** (n - 2)
            assert 1.0 < ratio < (1.0 + (n - 2) / l) ** (n - 2)


def test_first_eigenvalue_is_positive_factorial():
    # degree 0 starts the spectrum on both spaces
    for n in (4, 6, 8):
        assert subcritical_eigenvalue(n, 0) == math.factorial(n - 2) > 0


def test_n4_eigenvalues_against_discretized_operator(grid4):
    """Oracle: apply the conformal Laplacian to zonal harmonics on the grid."""
    bg = round_sphere_background(4, grid4, variant="paper")
    for l in range(0, 9):
        coeffs = np.zeros(l + 1)
        coeffs[l] = 1.0
        harmonic = synthesize(grid4, coeffs)
        out = yamabe_apply(harmonic, bg)
        want = subcritical_eigenvalue(4, l)
        scale = np.abs(harmonic.values).max()
        assert np.abs(out.values - want * harmonic.values).max() < 1e-9 * max(1.0, want) * scale


def test_n6_eigenvalues_against_factored_operator(grid6):
    """Oracle: (D+6)(D+4) on zonal harmonics matches the degree product."""
    for l in range(0, 9):
        coeffs = np.zeros(l + 1)
        coeffs[l] = 1.0
        harmonic = synthesize(grid6, coeffs)
        step = ZonalField(grid6, laplacian(harmonic).values + 4.0 * harmonic.values)
        out = ZonalField(grid6, laplacian(step).values + 6.0 * step.values)
        want = subcritical_eigenvalue(6, l)
        scale = np.abs(harmonic.values).max()
        assert np.abs(out.values - want * harmonic.values).max() < 1e-9 * max(1.0, want) * scale


def test_rejects_bad_queries():
    with pytest.raises(ValueError):
        SpectrumQuery(space="torus", n=4)
    with pytest.raises(ValueError):
        SpectrumQuery(space="sphere", n=5)
