"""Pointwise conformal transformation laws on zonal backgrounds.

Conventions, for a conformal change h = e^{2 phi} g (equivalently
h = u^{4/(n-2)} g with u = e^{(n-2) phi / 2}):

* Laplacian:        D_h f = e^{-2 phi} (D_g f - (n-2) <d phi, d f>)
* conformal Laplacian (Yamabe operator):  Y_g f = D_g f + a_n scal_g f,
  covariant of bidegree ((n-2)/2, (n+2)/2)
* mass transport:   P_g f = c_n D_g f - m_g f, same covariance as Y_g,
  and the mass of u^{4/(n-2)} g is  -u^{-(n+2)/(n-2)} P_g u
* normalized mass:  m_nor -> e^{-2 phi} m_nor  (weight -2 covariance)

g is the background's round S^n, with scal_g = n(n-1); ``transform_background``
returns the pair (scal_h, m_nor_h) of h = e^{2 phi} g, which is no background.

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
    _require_same_grid(f, phi, bg.mnor)
    n = bg.params.n
    cross = gradient_pairing(phi, f)
    vals = np.exp(-2.0 * phi.values) * (laplacian(f).values - (n - 2) * cross.values)
    return ZonalField(f.grid, vals)


def yamabe_apply(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """Y_g u = D u + a_n n(n-1) u."""
    _require_same_grid(u, bg.mnor)
    return ZonalField(u.grid, laplacian(u).values + bg.params.sphere_shift * u.values)


def p_operator_apply(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """P_g u = c_n D u - m_g u, with m_g = m_nor - b_n n(n-1)."""
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


def pushed_mass(u: np.ndarray, pu: np.ndarray, n: int) -> np.ndarray:
    """m_new = -u^{-(n+2)/(n-2)} P_g u from the samples of u > 0 and P_g u."""
    return -(u ** (-(n + 2.0) / (n - 2.0))) * pu


def mass_pushforward(u: ZonalField, bg: ConformalBackground) -> ZonalField:
    """Mass field of the conformally changed metric u^{4/(n-2)} g; requires
    u > 0 on the grid."""
    if np.any(u.values <= 0):
        raise ValueError("conformal factor must be positive everywhere")
    return ZonalField(u.grid, pushed_mass(u.values, p_operator_apply(u, bg).values, bg.params.n))


def normalized_mass_pushforward(mnor: ZonalField, phi: ZonalField) -> ZonalField:
    """Weight -2 covariance: e^{-2 phi} m_nor."""
    _require_same_grid(mnor, phi)
    return ZonalField(mnor.grid, np.exp(-2.0 * phi.values) * mnor.values)


def transform_background(bg: ConformalBackground, phi: ZonalField) -> tuple[ZonalField, ZonalField]:
    """(scal_h, m_nor_h) of h = e^{2 phi} g, by the Yamabe law and the covariant
    pushforward; the mass field of h is m_nor_h - b_n scal_h."""
    n = bg.params.n
    u = ZonalField(phi.grid, np.exp((n - 2) / 2.0 * phi.values))
    return transformed_scalar_curvature(u, bg), normalized_mass_pushforward(bg.mnor, phi)


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
    with the next step's k1.  The stages, the sources and the stage arguments
    are evaluated into buffers of the shape of phi's values, -2 phi is formed
    once, and each operation is the one the textbook step takes, in its
    order, so the march agrees with it bit for bit.
    """
    n = bg.params.n
    c_n = infinitesimal_transport_coefficient(n)
    lap_phi = laplacian(phi).values
    grad2 = gradient_pairing(phi, phi).values
    pvals = phi.values
    neg2phi = -2.0 * pvals
    shape = pvals.shape
    k1, k2, k3, k4, arg = (np.empty(shape) for _ in range(5))
    q_start, q_mid, q_end = (np.empty(shape) for _ in range(3))

    def source(t, out):
        """(n-2) Q_t phi = (n-2) (-c_n e^{-2 t phi} (D phi - (n-2) t |d phi|^2))."""
        np.multiply(-2.0 * t, pvals, out=out)
        np.exp(out, out=out)
        np.multiply(-c_n, out, out=out)
        np.multiply((n - 2) * t, grad2, out=arg)
        np.subtract(lap_phi, arg, out=arg)
        np.multiply(out, arg, out=out)
        np.multiply(n - 2, out, out=out)

    def rate(m, q, out):
        """-2 phi m + q."""
        np.multiply(neg2phi, m, out=out)
        np.add(out, q, out=out)

    def stage_arg(m, dt, k):
        """m + dt k, in ``arg``."""
        np.multiply(dt, k, out=arg)
        return np.add(m, arg, out=arg)

    m = np.broadcast_to(bg.mass_field().values, shape).copy()
    h = 1.0 / _TRANSPORT_STEPS
    t = 0.0
    source(t, q_start)
    for _ in range(_TRANSPORT_STEPS):
        source(t + h / 2, q_mid)
        source(t + h, q_end)
        rate(m, q_start, k1)
        rate(stage_arg(m, h / 2, k1), q_mid, k2)
        rate(stage_arg(m, h / 2, k2), q_mid, k3)
        rate(stage_arg(m, h, k3), q_end, k4)
        # m + h/6 (((k1 + 2 k2) + 2 k3) + k4)
        np.multiply(2, k2, out=arg)
        np.add(k1, arg, out=arg)
        np.multiply(2, k3, out=k2)
        np.add(arg, k2, out=arg)
        np.add(arg, k4, out=arg)
        np.multiply(h / 6.0, arg, out=arg)
        np.add(m, arg, out=m)
        t += h
        q_start, q_end = q_end, q_start
    return ZonalField(phi.grid, m)
