"""Scale-invariant functionals of a conformal factor on a zonal background.

For u != 0 and p = 2n/(n-2):

* mass functional   M(u) = - (int u P u) / ||u||_p^2
                         = (int m_nor u^2) / ||u||_p^2 - b_n * Y(u)
* Yamabe functional Y(u) = (1/a_n) (int u Y_g u) / ||u||_p^2
* sphere trace      T(u) = -c_n (int u D u + n(n-2)/4 int u^2)
* Sobolev gap       int u D u + n(n-2)/4 int u^2 - n(n-2)/4 omega_n^{2/n} ||u||_p^2

The sphere quadratic forms are diagonal in the orthonormal Gegenbauer basis:
with c = analyze(u),

    int u (D + s) u = sum_l (l(l+n-1) + s) c_l^2,

one analysis, with no spectral multiplier and no synthesis.  On the Gauss
grid this is the grid form u^T W (D + s) u exactly, not an approximation of
it: the discrete transform is orthonormal (B W B^T = I), so
sum_l c_l^2 = u^T W u and sum_l l(l+n-1) c_l^2 = u^T W D u, and the two
evaluations differ only by rounding (and by the coefficients the analysis
filters as quadrature roundoff).  ``sobolev_gap``, ``conformal_trace`` and
``yamabe_functional`` use it; the Yamabe functional adds the pointwise
a_n int scal u^2 on the grid.

M is evaluated through BOTH displayed forms and the two must agree; this is a
live guard on the b_n = a_n c_n coupling and the background's mass bookkeeping,
not an optimization.  So ``mass_functional`` keeps its two operator forms,
each applying its operator (``p_operator_apply``, ``yamabe_apply``) and so
its own Laplacian: the guard checks the operator layer itself, and the
benchmark's tracer (``perfbench/tracing.py``) counts those two Laplacians.
The trace of the conformally changed metric relates to M by
T = M * vol^{(n-2)/n} with vol = ||u||_p^p (conformal volume; the conformal
metric is never re-gridded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ConformalBackground
from .errors import ConsistencyError, GridMismatchError, ZeroFieldError
from .laws import p_operator_apply, yamabe_apply
from .zonal import ZonalField, ZonalGrid, inner, lp_norm

FORM_AGREEMENT_TOL = 1e-10


def _check_nonzero(u: ZonalField):
    """Reject u when it, or any field of a stack, is zero at every node."""
    if not np.all(np.any(u.values, axis=-1)):
        raise ZeroFieldError("functional undefined for the zero field")


def _check_grid(u: ZonalField, bg: ConformalBackground):
    if not u.grid.compatible(bg.grid):
        raise GridMismatchError(f"{u.grid} vs {bg.grid}")


def _norm_sq(u: ZonalField, bg: ConformalBackground):
    """||u||_p^2, refused when it underflows to 0 or overflows: the scale-invariant
    functionals divide by it."""
    p = bg.params.p
    with np.errstate(over="ignore"):
        norm_sq = lp_norm(u, p) ** 2
    if not np.all((norm_sq > 0.0) & np.isfinite(norm_sq)):
        raise ValueError(f"the squared L^{p:g} norm of the field is {norm_sq!r}: "
                         "its values are too small or too large for float64")
    return norm_sq


def _spectral_form(u: ZonalField, shift: float):
    """int u (D + shift) u from the Gegenbauer coefficients of u (module
    docstring), per field of a stack; inf where it leaves the float range, for
    the caller to refuse."""
    grid = u.grid
    c = grid.analyze(u.values)
    with np.errstate(over="ignore"):
        form = (c * c) @ (grid.laplacian_eigenvalues + shift)
    return float(form) if form.ndim == 0 else form


def yamabe_functional(u: ZonalField, bg: ConformalBackground):
    """Y(u); for a stack of fields, an array of their values."""
    _check_nonzero(u)
    _check_grid(u, bg)
    norm_sq = _norm_sq(u, bg)
    a_n = bg.params.a_n
    quad = _spectral_form(u, 0.0) + a_n * inner(ZonalField(u.grid, u.values * u.values), bg.scal)
    return quad / (a_n * norm_sq)


def mass_functional(u: ZonalField, bg: ConformalBackground):
    """M(u), cross-checked through both decomposition forms.

    The P form applies the mass-transport operator, the Y form the conformal
    Laplacian plus the normalized-mass term; a disagreement beyond
    FORM_AGREEMENT_TOL, in any field of a stack, raises ConsistencyError.
    For a stack of fields, an array of their values.
    """
    _check_nonzero(u)
    _check_grid(u, bg)
    norm_sq = _norm_sq(u, bg)
    p_form = -inner(u, p_operator_apply(u, bg)) / norm_sq
    mnor_term = inner(ZonalField(u.grid, u.values * u.values), bg.mnor) / norm_sq
    y_form = mnor_term - bg.params.b_n * (
        inner(u, yamabe_apply(u, bg)) / (bg.params.a_n * norm_sq)
    )
    scale = np.maximum(1.0, np.abs(p_form))
    if np.any(np.abs(p_form - y_form) > FORM_AGREEMENT_TOL * scale):
        raise ConsistencyError(
            f"mass-functional forms disagree: {p_form!r} vs {y_form!r}"
        )
    return p_form


def conformal_trace(u: ZonalField, bg: ConformalBackground) -> float:
    """Regularized trace of the inverse operator for the metric u^{4/(n-2)} g_std.

    Only valid on round-sphere backgrounds (the closed form is
    sphere-specific); backgrounds carrying normalized mass are rejected.
    """
    _check_nonzero(u)
    _check_grid(u, bg)
    if not bg.is_round_sphere():
        raise ValueError("the closed-form trace applies to round-sphere backgrounds only")
    n = bg.params.n
    trace = -bg.params.c_n * _spectral_form(u, n * (n - 2) / 4.0)
    if not np.all(np.isfinite(trace)):
        raise ValueError(f"the trace of the field is {trace!r}: "
                         "its values are too large for float64")
    return trace


def sobolev_gap(u: ZonalField, bg: ConformalBackground):
    """Sharp-Sobolev slack; nonnegative, zero exactly on the dilation orbit.

    For a stack of fields, an array of their gaps.
    """
    _check_nonzero(u)
    _check_grid(u, bg)
    n = bg.params.n
    const = n * (n - 2) / 4.0
    lhs = _spectral_form(u, const)
    return lhs - const * bg.params.omega_n ** (2.0 / n) * lp_norm(u, bg.params.p) ** 2


def dilation_factor(t: float, grid: ZonalGrid) -> ZonalField:
    """Conformal factor of the Moebius dilation of strength t along the poles.

    u_t = (cosh t + sinh t cos theta)^{-(n-2)/2}; the pulled-back metric is
    isometric to the round sphere, so these are exact extremals for every
    functional here.
    """
    n = grid.n
    vals = (np.cosh(t) + np.sinh(t) * grid.nodes) ** (-(n - 2) / 2.0)
    return ZonalField(grid, vals)


@dataclass(frozen=True)
class FunctionalReport:
    mass_functional: float
    yamabe_functional: float
    trace: float
    volume: float
    sobolev_gap: float


def functional_report(u: ZonalField, bg: ConformalBackground) -> FunctionalReport:
    """All functionals of u in one record.

    The trace entry uses the sphere closed form when the background is the
    round sphere (so the M * vol^{2m/n} identity is a genuine cross-check
    there) and the mass-functional route otherwise.
    """
    m_val = mass_functional(u, bg)
    vol = lp_norm(u, bg.params.p) ** bg.params.p
    trace_from_m = m_val * vol ** ((bg.params.n - 2.0) / bg.params.n)
    if bg.is_round_sphere():
        trace = conformal_trace(u, bg)
        scale = max(1.0, abs(trace))
        if abs(trace - trace_from_m) > FORM_AGREEMENT_TOL * scale:
            raise ConsistencyError(
                f"trace routes disagree: closed form {trace!r} vs functional {trace_from_m!r}"
            )
    else:
        trace = trace_from_m
    return FunctionalReport(
        mass_functional=m_val,
        yamabe_functional=yamabe_functional(u, bg),
        trace=trace,
        volume=vol,
        sobolev_gap=sobolev_gap(u, bg),
    )
