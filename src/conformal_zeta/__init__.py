"""Zeta-regularized traces and conformal mass transport on round spheres.

Spectral finite parts of the order-(n-2) conformally covariant operator on
S^n and RP^n, the pointwise conformal transformation laws of its mass, the
scale-invariant mass functional and its maximization to constant-mass
conformal factors, and the concentration estimates that drive the sharp
comparison with the round sphere.

The public names load their module on first access (PEP 562), so importing
the package, or a numpy-free module of it such as ``params`` or ``zeta``,
does not load numpy.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "ConformalBackground": "background", "round_sphere_background": "background",
    "DimensionParams": "params", "dim_params": "params", "sphere_volume": "params",
    "SpectrumQuery": "spectra",
    "HomogeneousMass": "zeta", "LaurentValue": "zeta", "homogeneous_mass": "zeta",
    "hurwitz_zeta": "zeta", "spectral_zeta": "zeta", "spectral_zeta_at_one": "zeta",
    "ZonalField": "zonal", "ZonalGrid": "zonal", "constant_field": "zonal",
    "integrate": "zonal", "laplacian": "zonal", "lp_norm": "zonal", "make_grid": "zonal",
    "random_zonal": "zonal", "synthesize": "zonal",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
