"""Pointwise conformal transformation laws on zonal backgrounds.

Conventions, for a conformal change h = e^{2 phi} g (equivalently
h = u^{4/(n-2)} g with u = e^{(n-2) phi / 2}):

* Laplacian:        D_h f = e^{-2 phi} (D_g f - (n-2) <d phi, d f>)
* conformal Laplacian (Yamabe operator):  Y_g f = D_g f + a_n scal_g f,
  covariant of bidegree ((n-2)/2, (n+2)/2)
* mass transport:   P_g f = c_n D_g f - m_g f, same covariance as Y_g,
  and the mass of u^{4/(n-2)} g is  -u^{-(n+2)/(n-2)} P_g u
* normalized mass:  m_nor -> e^{-2 phi} m_nor  (weight -2 covariance)

All operations are pure; fields are never mutated.  Nonlinear composites
(e^{phi} f and friends) are evaluated pointwise on the grid, so callers keep
inputs band-limited to roughly a quarter of the grid size (standard
pseudospectral aliasing discipline).
"""

from __future__ import annotations

import numpy as np

from .background import ConformalBackground
from .errors import GridMismatchError
from .params import infinitesimal_transport_coefficient
from .zonal import ZonalField, gradient_pairing, laplacian

_TRANSPORT_STEPS = 64  # Runge-Kutta steps of the mass-transport march


def _require_same_grid(*fields: ZonalField):
    first = fields[0].grid
    for f in fields[1:]:
        if not f.grid.compatible(first):
            raise GridMismatchError(f"{f.grid} vs {first}")


def transformed_laplacian(f: ZonalField, phi: ZonalField, bg: ConformalBackground) -> ZonalField:
    """Laplacian of the metric e^{2 phi} g applied to f."""
    _require_same_grid(f, phi, bg.scal)
    n = bg.params.n
    cross = gradient_pairing(phi, f)
    vals = np.exp(-2.0 * phi.values) * (laplacian(f).values - (n - 2) * cross.values)
    return ZonalField(f.grid, vals)


def yamabe_apply(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """Y_g u = D u + a_n scal u."""
    _require_same_grid(u, bg.scal)
    return ZonalField(u.grid, laplacian(u).values + bg.params.a_n * bg.scal.values * u.values)


def p_operator_apply(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """P_g u = c_n D u - m_g u, with m_g = m_nor - b_n scal."""
    _require_same_grid(u, bg.mnor)
    mass = bg.mass_field()
    return ZonalField(u.grid, bg.params.c_n * laplacian(u).values - mass.values * u.values)


def transformed_scalar_curvature(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """Scalar curvature of u^{4/(n-2)} g, via a_n scal_h = u^{-(n+2)/(n-2)} Y_g u."""
    n = bg.params.n
    if np.any(u.values <= 0):
        raise ValueError("conformal factor must be positive")
    yu = yamabe_apply(u, bg)
    vals = u.values ** (-(n + 2.0) / (n - 2.0)) * yu.values / bg.params.a_n
    return ZonalField(u.grid, vals)


def mass_pushforward(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """Mass field of the conformally changed metric u^{4/(n-2)} g.

    m_new = -u^{-(n+2)/(n-2)} P_g u; requires u > 0 on the grid.
    """
    if np.any(u.values <= 0):
        raise ValueError("conformal factor must be positive everywhere")
    n = bg.params.n
    pu = p_operator_apply(u, bg)
    return ZonalField(u.grid, -(u.values ** (-(n + 2.0) / (n - 2.0))) * pu.values)


def normalized_mass_pushforward(mnor: ZonalField, phi: ZonalField) -> ZonalField:
    """Weight -2 covariance: e^{-2 phi} m_nor."""
    _require_same_grid(mnor, phi)
    return ZonalField(mnor.grid, np.exp(-2.0 * phi.values) * mnor.values)


def transform_background(bg: ConformalBackground, phi: ZonalField) -> ConformalBackground:
    """Background of the metric e^{2 phi} g.

    The normalized mass transforms covariantly; the scalar curvature is
    recomputed from the conformal factor through the Yamabe law.
    """
    n = bg.params.n
    u = ZonalField(phi.grid, np.exp((n - 2) / 2.0 * phi.values))
    return ConformalBackground(
        params=bg.params,
        grid=bg.grid,
        scal=transformed_scalar_curvature(u, bg),
        mnor=normalized_mass_pushforward(bg.mnor, phi),
    )


def mass_transport_ode(bg: ConformalBackground, phi: ZonalField) -> ZonalField:
    """Integrate the infinitesimal mass-variation law along g_t = e^{2 t phi} g.

    d/dt m_t = -2 phi m_t + (n-2) Q_t phi  with  Q_t = -gamma D_{g_t}, where
    D_{g_t} phi = e^{-2 t phi} (D_g phi - (n-2) t |d phi|^2).  A classic
    4th-order Runge-Kutta march; kept alongside the closed-form pushforward as
    a cross-validation route, not a production path.

    gamma is the variant-independent infinitesimal coefficient, equal to half
    the calibrated pointwise coupling; the march therefore lands on the
    closed-form pushforward exactly when the background carries calibrated
    constants (see ``params.infinitesimal_transport_coefficient``).

    The source term (n-2) Q_t phi does not depend on m, so it is evaluated once
    per distinct t: the stages k2 and k3 share t + h/2, and k4 shares its t + h
    with the next step's k1.
    """
    n = bg.params.n
    c_n = infinitesimal_transport_coefficient(n)
    lap_phi = laplacian(phi).values
    grad2 = gradient_pairing(phi, phi).values
    pvals = phi.values

    def source(t):
        q_phi = -c_n * np.exp(-2.0 * t * pvals) * (lap_phi - (n - 2) * t * grad2)
        return (n - 2) * q_phi

    def rate(m, q):
        return -2.0 * pvals * m + q

    m = bg.mass_field().values.copy()
    h = 1.0 / _TRANSPORT_STEPS
    t = 0.0
    q_start = source(t)
    for _ in range(_TRANSPORT_STEPS):
        q_mid, q_end = source(t + h / 2), source(t + h)
        k1 = rate(m, q_start)
        k2 = rate(m + h / 2 * k1, q_mid)
        k3 = rate(m + h / 2 * k2, q_mid)
        k4 = rate(m + h * k3, q_end)
        m = m + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        q_start = q_end
    return ZonalField(phi.grid, m)
