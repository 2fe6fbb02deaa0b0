"""Zeta-regularized traces and conformal mass transport on round spheres.

Spectral finite parts of the order-(n-2) conformally covariant operator on
S^n and RP^n, the pointwise conformal transformation laws of its mass, the
scale-invariant mass functional and its maximization to constant-mass
conformal factors, and the concentration estimates that drive the sharp
comparison with the round sphere.
"""

from .background import ConformalBackground, round_sphere_background
from .params import DimensionParams, dim_params, sphere_volume
from .spectra import SpectrumQuery, SpectrumTerm, spectrum_stream
from .zeta import (HomogeneousMass, LaurentValue, homogeneous_mass, hurwitz_zeta,
                   spectral_zeta, spectral_zeta_at_one)
from .zonal import (ZonalField, ZonalGrid, constant_field, field_from_function, grad_sq,
                    integrate, laplacian, lp_norm, make_grid, random_zonal, synthesize)

__all__ = [
    "ConformalBackground", "DimensionParams", "HomogeneousMass", "LaurentValue",
    "SpectrumQuery", "SpectrumTerm", "ZonalField", "ZonalGrid",
    "constant_field", "dim_params", "field_from_function", "grad_sq",
    "homogeneous_mass", "hurwitz_zeta", "integrate",
    "laplacian", "lp_norm", "make_grid", "random_zonal", "round_sphere_background",
    "spectral_zeta", "spectral_zeta_at_one", "spectrum_stream", "sphere_volume",
    "synthesize",
]

__version__ = "0.1.0"
