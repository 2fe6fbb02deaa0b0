"""Dimensional constants for the order-(n-2) conformally covariant operator on S^n.

Everything downstream (transformation laws, functionals, traces) is driven by
one immutable record of constants per even dimension n >= 4.  Two variants of
the coupling constants are exposed:

* ``paper``      -- the printed closed forms,
  c_n = (n-2) / (6 (4 pi)^{n/2} (n/2)!) and b_n = a_n c_n;
* ``calibrated`` -- the same with c_n and b_n doubled, which is the unique
  rescaling that makes the round sphere's spectrally computed normalized mass
  vanish (see the zeta engine).  The suite reports the ratio between the two
  conventions rather than adjudicating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VARIANTS = ("paper", "calibrated")

# Largest supported dimension.  From n = 106 on, the zeta engine's eigenvalue
# products (l+1)...(l+n-2) at the head cutoff no longer convert to a float.
MAX_DIMENSION = 104

# Defaults shared by the library and the command-line parser, kept here so the
# parser reads them without loading numpy.
DEFAULT_GRID_SIZE = 256  # collocation nodes N
OPTIMIZER_TOL_DEFAULT = 1e-8  # Euler-Lagrange residual at which the optimizer stops
OPTIMIZER_SEED_DEFAULT = 0  # seed of the optimizer's perturbed start
SWEEP_EPSILON_DEFAULT = 0.3  # cap half-width of the glued bubbles
# Integration cap for rate fits: large enough that the subleading constant
# inside the k+2 log branch (about log(cap) - 11/12 at its worst tested case)
# stays small over the fitted decade window.  Sweep caps on the sphere are a
# separate, geometric parameter.
RATE_CAP_DEFAULT = 2.5


def check_dimension(n: int) -> None:
    """Raise ValueError unless n is even and 4 <= n <= MAX_DIMENSION."""
    if n % 2 != 0 or not 4 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be even and in 4..{MAX_DIMENSION}, got n={n}")


def sphere_volume(n: int) -> float:
    """Volume of the unit round n-sphere, 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def infinitesimal_transport_coefficient(n: int) -> float:
    """Coefficient gamma of the infinitesimal mass-transport operator -gamma D.

    Variant-independent: integrating d/dt m_t = -2 phi m_t + (n-2) Q_t phi
    with Q = -gamma D along g_t = e^{2 t phi} g and applying the chain-rule
    identity  D phi - (n-2)/2 |d phi|^2 = (2/(n-2)) (D u)/u,  u = e^{(n-2)
    phi/2}, reproduces the pointwise transport operator c_n D - m exactly when
    c_n = 2 gamma, i.e. with the calibrated constants.  gamma itself is the
    printed closed form.
    """
    check_dimension(n)
    return (n - 2) / (6.0 * (4.0 * math.pi) ** (n / 2) * math.factorial(n // 2))


@dataclass(frozen=True)
class DimensionParams:
    """All dimension-dependent constants in one place.

    n        : even dimension >= 4
    m        : n/2 - 1, half the operator order (order 2m = n-2)
    p        : critical Sobolev exponent 2n/(n-2)
    a_n      : scalar-curvature coupling of the conformal Laplacian
    c_n      : Laplacian coupling of the mass-transport operator
    b_n      : a_n * c_n, the normalized-mass curvature coupling
    omega_n  : volume of the unit round S^n
    yamabe_sphere : n(n-1) omega_n^{2/n}, the sharp constant on the sphere
    sphere_shift  : n(n-2)/4 = a_n n(n-1), a_n scal of the round S^n (a property)
    sphere_mass_offset : b_n n(n-1) = m_nor - m on the round S^n (a property)
    sphere_value  : -b_n Y(S^n), the mass functional on the dilation orbit (a property)
    variant  : "paper" or "calibrated" (c_n, b_n doubled)
    """

    n: int
    m: int
    p: float
    a_n: float
    c_n: float
    b_n: float
    omega_n: float
    yamabe_sphere: float
    variant: str

    @property
    def sphere_shift(self) -> float:
        return self.n * (self.n - 2) / 4.0

    @property
    def sphere_mass_offset(self) -> float:
        return self.b_n * (self.n * (self.n - 1))

    @property
    def sphere_value(self) -> float:
        return -self.b_n * self.yamabe_sphere


def dim_params(n: int, variant: str = "paper") -> DimensionParams:
    """Build the constants record for an even ``n`` in 4..MAX_DIMENSION."""
    check_dimension(n)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    a_n = (n - 2) / (4.0 * (n - 1))
    c_n = infinitesimal_transport_coefficient(n)
    if variant == "calibrated":
        c_n *= 2.0
    b_n = a_n * c_n
    omega_n = sphere_volume(n)
    return DimensionParams(
        n=n,
        m=n // 2 - 1,
        p=2.0 * n / (n - 2),
        a_n=a_n,
        c_n=c_n,
        b_n=b_n,
        omega_n=omega_n,
        yamabe_sphere=n * (n - 1) * omega_n ** (2.0 / n),
        variant=variant,
    )
