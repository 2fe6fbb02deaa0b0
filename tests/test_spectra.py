import itertools
import math

import numpy as np
import pytest

from conformal_zeta.background import round_sphere_background
from conformal_zeta.laws import yamabe_apply
from conformal_zeta.spectra import (SpectrumQuery, harmonic_multiplicity,
                                    spectrum_stream, subcritical_eigenvalue)
from conformal_zeta.zonal import ZonalField, laplacian, synthesize


def take(query, count):
    return list(itertools.islice(spectrum_stream(query), count))


def test_sphere_n4_first_terms():
    terms = take(SpectrumQuery(space="sphere", n=4), 3)
    assert (terms[0].eigenvalue, terms[0].multiplicity) == (2.0, 1)
    assert (terms[2].eigenvalue, terms[2].multiplicity) == (12.0, 14)


def test_sphere_n6_degree_one():
    terms = take(SpectrumQuery(space="sphere", n=6), 2)
    assert terms[1].degree == 1
    assert terms[1].eigenvalue == 2 * 3 * 4 * 5
    assert terms[1].multiplicity == 7


def test_projective_skips_odd_degrees():
    terms = take(SpectrumQuery(space="projective", n=4), 2)
    assert [t.degree for t in terms] == [0, 2]
    assert [t.eigenvalue for t in terms] == [2.0, 12.0]


def test_multiplicity_binomial_oracle():
    for n in (4, 6, 8):
        for l in range(0, 12):
            want = math.comb(n + l, n) - math.comb(n + l - 2, n) if l >= 2 else (
                1 if l == 0 else n + 1)
            assert harmonic_multiplicity(n, l) == want


def test_growth_bracket():
    for n in (4, 6, 8):
        for l in range(1, 1000, 37):
            ratio = subcritical_eigenvalue(n, l) / l ** (n - 2)
            assert 1.0 < ratio < (1.0 + (n - 2) / l) ** (n - 2)


def test_first_eigenvalue_is_positive_factorial():
    for n in (4, 6, 8):
        for space in ("sphere", "projective"):
            first = take(SpectrumQuery(space=space, n=n), 1)[0]
            assert first.eigenvalue == math.factorial(n - 2)
            assert first.eigenvalue > 0


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
