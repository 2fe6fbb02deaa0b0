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
``yamabe_functional`` use it: the background is the round S^n, so
a_n scal = a_n n(n-1) = n(n-2)/4 (``DimensionParams.sphere_shift``) is the
same shift for all three.  Each refuses a form that overflows, and the gap
and Y refuse an L^p norm that leaves the float range.

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


def _check_field(u: ZonalField, bg: ConformalBackground):
    """Reject u when it, or any field of a stack, is zero at every node, or
    when it lives on another grid than the background."""
    if not np.all(np.any(u.values, axis=-1)):
        raise ZeroFieldError("functional undefined for the zero field")
    if not u.grid.compatible(bg.grid):
        raise GridMismatchError(f"{u.grid} vs {bg.grid}")


def _lp_norm(u: ZonalField, bg: ConformalBackground):
    """(||u||_p, ||u||_p^2), refused when the square underflows to 0 or
    overflows: the scale-invariant functionals divide by it."""
    p = bg.params.p
    with np.errstate(over="ignore"):
        norm = lp_norm(u, p)
        norm_sq = norm**2
    if not np.all((norm_sq > 0.0) & np.isfinite(norm_sq)):
        raise ValueError(f"the squared L^{p:g} norm of the field is {norm_sq!r}: "
                         "its values are too small or too large for float64")
    return norm, norm_sq


def _spectral_form(u: ZonalField, shift: float):
    """int u (D + shift) u from the Gegenbauer coefficients of u (module
    docstring), per field of a stack; inf where it leaves the float range, for
    the caller to refuse."""
    grid = u.grid
    c = grid.analyze(u.values)
    with np.errstate(over="ignore"):
        form = (c * c) @ (grid.laplacian_eigenvalues + shift)
    return float(form) if form.ndim == 0 else form


def _sphere_form(u: ZonalField, bg: ConformalBackground, what: str):
    """int u (D + n(n-2)/4) u for the functional ``what``, refused when it
    overflows (an underflow to 0 is the form's float64 value)."""
    form = _spectral_form(u, bg.params.sphere_shift)
    if not np.all(np.isfinite(form)):
        raise ValueError(f"{what} of the field needs int u (D + n(n-2)/4) u = {form!r}: "
                         "its values are too large for float64")
    return form


def _yamabe(form, norm_sq, bg: ConformalBackground):
    """Y from the sphere form and ||u||_p^2."""
    return form / (bg.params.a_n * norm_sq)


def _gap(form, norm_sq, bg: ConformalBackground):
    """The Sobolev gap from the sphere form and ||u||_p^2."""
    return form - bg.params.sphere_shift * bg.params.omega_n ** (2.0 / bg.params.n) * norm_sq


def yamabe_functional(u: ZonalField, bg: ConformalBackground):
    """Y(u); for a stack of fields, an array of their values."""
    _check_field(u, bg)
    _, norm_sq = _lp_norm(u, bg)
    return _yamabe(_sphere_form(u, bg, "the Yamabe functional"), norm_sq, bg)


def _require_agreement(what: str, first, second):
    """A one-line ConsistencyError, naming a stack's worst row, unless the two routes
    agree to FORM_AGREEMENT_TOL relative to max(1, |first|) in every field."""
    excess = np.abs(first - second) / np.maximum(1.0, np.abs(first))
    if np.any(excess > FORM_AGREEMENT_TOL):
        row = int(np.argmax(excess))
        at = f" in row {row} of {excess.size}" if np.ndim(excess) else ""
        pair = float(np.ravel(first)[row]), float(np.ravel(second)[row])
        raise ConsistencyError(f"{what}{at}: {pair[0]!r} vs {pair[1]!r}, beyond the "
                               f"relative tolerance {FORM_AGREEMENT_TOL:g}")


def mass_functional(u: ZonalField, bg: ConformalBackground):
    """M(u), cross-checked through both decomposition forms.

    The P form applies the mass-transport operator, the Y form the conformal
    Laplacian plus the normalized-mass term; a disagreement beyond
    FORM_AGREEMENT_TOL, in any field of a stack, raises ConsistencyError.
    For a stack of fields, an array of their values.
    """
    _check_field(u, bg)
    _, norm_sq = _lp_norm(u, bg)
    p_form = -inner(u, p_operator_apply(u, bg)) / norm_sq
    mnor_term = inner(ZonalField(u.grid, u.values * u.values), bg.mnor) / norm_sq
    y_form = mnor_term - bg.params.b_n * (
        inner(u, yamabe_apply(u, bg)) / (bg.params.a_n * norm_sq)
    )
    _require_agreement("mass-functional forms disagree (P form vs Y form)", p_form, y_form)
    return p_form


def conformal_trace(u: ZonalField, bg: ConformalBackground) -> float:
    """Regularized trace of the inverse operator for the metric u^{4/(n-2)} g_std.

    Only valid on round-sphere backgrounds (the closed form is
    sphere-specific); backgrounds carrying normalized mass are rejected.
    """
    _check_field(u, bg)
    if not bg.is_round_sphere():
        raise ValueError("the closed-form trace applies to round-sphere backgrounds only")
    return -bg.params.c_n * _sphere_form(u, bg, "the trace")


def sobolev_gap(u: ZonalField, bg: ConformalBackground):
    """Sharp-Sobolev slack; nonnegative, zero exactly on the dilation orbit.

    For a stack of fields, an array of their gaps.
    """
    _check_field(u, bg)
    _, norm_sq = _lp_norm(u, bg)
    return _gap(_sphere_form(u, bg, "the Sobolev gap"), norm_sq, bg)


def dilation_factor(t, grid: ZonalGrid) -> ZonalField:
    """Conformal factor of the Moebius dilation of strength t along the poles.

    u_t = (cosh t + sinh t cos theta)^{-(n-2)/2}; the pulled-back metric is
    isometric to the round sphere, so these are exact extremals for every
    functional here.  An array t of shape (M, 1) gives a stack of M fields.
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
    """All functionals of u in one record, each the value its own function
    returns, bit for bit.

    The mass functional keeps its two operator forms; the trace, Y and the
    gap share one sphere form, and Y, the gap and the volume one L^p norm: 3
    analyses in all.  The trace entry uses the sphere closed form when the
    background is the round sphere (so the M * vol^{2m/n} identity is a
    genuine cross-check there) and the mass-functional route otherwise.
    """
    m_val = mass_functional(u, bg)
    norm, norm_sq = _lp_norm(u, bg)
    vol = norm**bg.params.p
    form = _sphere_form(u, bg, "the functional report")
    trace_from_m = m_val * vol ** ((bg.params.n - 2.0) / bg.params.n)
    if bg.is_round_sphere():
        trace = -bg.params.c_n * form
        _require_agreement("trace routes disagree (closed form vs functional)", trace, trace_from_m)
    else:
        trace = trace_from_m
    return FunctionalReport(
        mass_functional=m_val,
        yamabe_functional=_yamabe(form, norm_sq, bg),
        trace=trace,
        volume=vol,
        sobolev_gap=_gap(form, norm_sq, bg),
    )
