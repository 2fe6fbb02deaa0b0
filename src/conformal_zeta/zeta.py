"""Hurwitz zeta with Laurent data and finite parts of spectral Dirichlet series.

The series under study is, for the order-(n-2) operator on S^n (or RP^n),

    Z(s) = sum_l mult(l) * eig(l)^{-s}
         = (2/(n-1)!) * sum_x  x * lam(x)^{1-s},

where x = l + (n-1)/2 and lam(x) = prod_{i} (x^2 - (i+1/2)^2) for
i = 0..(n-4)/2; on projective space x steps by 2.  Expanding
lam(x)^{1-s} = x^{(n-2)(1-s)} * sum_k a_k(s) x^{-2k} (a_k polynomial in s-1,
a_k(1)=0 for k>=1) turns every tail term into a shifted Hurwitz zeta, whose
pole at argument 1 is cancelled by the vanishing of a_1 at s=1.  The series is
therefore regular at s=1; its value there is the zeta-regularized trace of the
inverse operator.

Two evaluation routes are exposed and cross-checked by the test suite:

* ``spectral_zeta(query, s)``: exact head (l <= 1000) plus the expanded tail,
  valid away from s=1 and the Weyl poles, and refused where head and tail
  cancel to within its error bound;
* ``spectral_zeta_at_one(query)``: at s=1 the eigenvalue factor drops out of
  every term (lam^0 = 1), so the head/tail split telescopes through the
  Hurwitz recurrence into a two-term closed form, evaluated in exact rational
  arithmetic (``rational_finite_part``) and rounded once; the reported residue is
  extracted numerically from symmetric evaluations at 1 +/- delta so that the
  regularity claim is measured, not assumed.

The module uses no numpy: the ``zeta`` command imports it alone, and its few
milliseconds of exact arithmetic would otherwise wait on numpy's import, which
takes many times longer.  The tail polynomials are float tuples evaluated by
Horner's rule, and the machine constants come from ``sys.float_info``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .params import DimensionParams, sphere_volume
from .spectra import SpectrumQuery, subcritical_eigenvalue

# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

POLE_GUARD = 1e-6
_EPS = sys.float_info.epsilon
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EM_BERNOULLI_TERMS = 14
_MPMATH_DPS = 40


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """B_m as an exact rational (B_1 = -1/2), by the recurrence, computed on demand."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)


def bernoulli_polynomial(k: int, a: Fraction) -> Fraction:
    """B_k(a) as an exact rational for rational a."""
    return sum(math.comb(k, j) * _bernoulli(j) * a ** (k - j) for j in range(k + 1))


def _log_gap(big: float, small: float) -> float:
    """A lower bound on log(X - Y) from log X and log Y: log X - log 2 when
    X >= 2Y, else -inf."""
    return big - math.log(2.0) if big - small >= math.log(2.0) else -math.inf


def _overflows(m: int, a: float) -> bool:
    """True when |zeta_H(-m, a)| = |B_{m+1}(a)| / (m+1) is certainly beyond float64.

    With k = m+1 >= 2 and a = f + j (j = floor(a)), B_k(a) = B_k(f) +
    k sum_{i<j} (f+i)^{k-1}, where the sum lies between (a-1)^{k-1} and
    j (a-1)^{k-1}.  The Fourier series of B_k on [0, 1] bounds the periodic
    part: with c = |cos(2 pi f)| for even k and |sin(2 pi f)| for odd k,
    |B_k(f)| lies within 2 k!/(2 pi)^k (c +- 3 2^-k).  c = sin(2 pi d), with d
    the distance from f to the nearest zero of c, exact where d is small, so c
    keeps its relative accuracy near a zero.  At a zero (f a multiple of 1/4)
    the bound says nothing below, and the exact B_k(f) is used.  All in logs.
    """
    k = m + 1
    j = math.floor(a)
    f = a - j
    scale = math.log(2.0) + math.lgamma(k + 1) - k * math.log(2.0 * math.pi)
    d = min(abs(f - z) for z in ((0.0, 0.5, 1.0) if k % 2 else (0.25, 0.75)))
    if d == 0.0:
        # B_k(f) is known at these f: 0 at f = 0, 1/2 (odd k), and
        # -2^-k (1 - 2^(1-k)) B_k at f = 1/4, 3/4 (even k), with
        # |B_k| = 2 k! zeta(k) / (2 pi)^k and 1 <= zeta(k) < 2
        if k % 2:
            periodic_lo = periodic_hi = -math.inf
        else:
            periodic_lo = scale - k * math.log(2.0) + math.log1p(-(2.0 ** (1 - k)))
            periodic_hi = periodic_lo + math.log(2.0)
    else:
        c = math.sin(2.0 * math.pi * d)
        rest = 3.0 * 2.0**-k + 1e-14 * c  # the other terms, and rounding in c
        periodic_lo = scale + math.log(c - rest) if c > rest else -math.inf
        periodic_hi = scale + math.log(c + rest)
    if a > 1.0:
        shift_lo = math.log(k) + (k - 1) * math.log(a - 1.0)
        shift_hi = shift_lo + math.log(j)
    else:
        shift_lo = shift_hi = -math.inf
    magnitude = max(_log_gap(shift_lo, periodic_hi), _log_gap(periodic_lo, shift_hi))
    return magnitude - math.log(k) > _LOG_FLOAT_MAX + 1e-6


def _hurwitz_euler_maclaurin(s: float, a: float) -> float:
    """Head sum + tail integral + Bernoulli corrections; sound for s >= -1.5."""
    # Keep the truncation point small when s < 0 so the head/tail cancellation
    # cannot eat significant digits; for s >= 0 push it out for convergence.
    target = max(a, 25.0) if s < 0.5 else max(a, 35.0 + 2.0 * abs(s))
    m_terms = max(0, int(math.ceil(target - a)))
    head = math.fsum((k + a) ** (-s) for k in range(m_terms))
    b = m_terms + a
    total = head + b ** (1.0 - s) / (s - 1.0) + 0.5 * b ** (-s)
    poch = s
    power = b ** (-s - 1.0)
    corr = 0.0
    for j in range(1, _EM_BERNOULLI_TERMS + 1):
        corr += float(_bernoulli(2 * j)) / math.factorial(2 * j) * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power *= b ** (-2.0)
    return total + corr


def hurwitz_zeta(s: float, a: float) -> float:
    """Analytically continued Hurwitz zeta, float64 in and out.

    Dispatch: exact Bernoulli polynomials at non-positive integer s, rounded
    once; Euler-Maclaurin for s >= -1.5; arbitrary-precision fallback below that
    (float64 Euler-Maclaurin loses digits to head/tail cancellation there).
    """
    if a <= 0:
        raise ValueError(f"hurwitz_zeta needs a > 0, got a={a}")
    if abs(s - 1.0) < POLE_GUARD:
        raise ValueError(f"s={s} is within {POLE_GUARD} of the pole at s=1")
    if s == int(s) and s <= 0:
        # zeta_H(-m, a) = -B_{m+1}(a)/(m+1), exact for the rational a, rounded
        # once; refused before the O(m^2) exact work where it cannot fit a float
        m = -int(s)
        if m >= 1 and _overflows(m, a):
            raise OverflowError(f"zeta_H({s:g}, {a:g}) exceeds the float64 range")
        j = math.floor(a)
        if m >= 2 and m % 2 == 0 and a - j in (0.0, 0.5) and j <= m:
            # B_{m+1} vanishes at 0 and 1/2 for even m, which leaves the shift
            # sum of B_{m+1}(f + j), no more terms than the polynomial's
            f = Fraction(a - j)
            return float(-sum((f + i) ** m for i in range(j)))
        return float(-bernoulli_polynomial(m + 1, Fraction(a)) / (m + 1))
    if s >= -1.5:
        return _hurwitz_euler_maclaurin(s, a)
    import mpmath  # here, so only this fallback pays for loading it

    with mpmath.workdps(_MPMATH_DPS):
        return float(mpmath.zeta(s, a))


@dataclass(frozen=True)
class LaurentValue:
    """(residue, constant term) of a zeta-type function at its expansion point."""

    residue: float
    finite_part: float
    at: float = 1.0


# ---------------------------------------------------------------------------
# Spectral zeta of the order-(n-2) operator
# ---------------------------------------------------------------------------

HEAD_SIZE = 1000
MAX_TAIL_ORDER = 20
TAIL_TOLERANCE = 1e-13
_RESIDUE_DELTA = 1e-4


def _squared_offsets(n: int) -> list[float]:
    """The c_i = (i+1/2)^2 with eig = prod_i (x^2 - c_i)."""
    return [(i + 0.5) ** 2 for i in range((n - 4) // 2 + 1)]


@lru_cache(maxsize=None)
def _tail_coefficient_polys(n: int, order: int) -> tuple[tuple[float, ...], ...]:
    """Polynomials a_k(sigma) in sigma = s-1 with lam^{1-s} = sum_k a_k x^{-2k}.

    lam^{1-s} = x^{(n-2)(1-s)} prod_i (1 - c_i x^{-2})^{-sigma}, whose logarithm
    is sigma sum_m p_m x^{-2m} / m with the power sums p_m = sum_i c_i^m; the
    derivative of the exponential gives the recurrence
    k a_k = sigma sum_{m=1..k} p_m a_{k-m}, a_0 = 1.  Coefficient tuples are
    float polynomials in sigma, constant term first (exactly 0 for k >= 1).
    Each p_m = sum_i (2i+1)^{2m} / 4^m is summed in integers and rounded once,
    so it is the same on every platform.
    """
    odd = range(1, n - 2, 2)  # 2i+1 for the (n-2)/2 offsets c_i
    power_sums = [math.ldexp(float(sum(j ** (2 * m) for j in odd)), -2 * m)
                  for m in range(order + 1)]
    polys = [(1.0,) + (0.0,) * order]  # a_0 = 1
    for k in range(1, order + 1):
        acc = [sum(power_sums[m] * polys[k - m][j] for m in range(1, k + 1)) for j in range(order)]
        polys.append((0.0, *(c / k for c in acc)))  # times sigma, over k
    return tuple(polys)


def _eval_poly(coeffs: tuple[float, ...], sigma: float) -> float:
    """Horner's rule, highest coefficient first."""
    value = 0.0
    for c in reversed(coeffs):
        value = c + value * sigma
    return value


def _step_sum_value(w: float, x0: float, step: int) -> float:
    """sum over x = x0, x0+step, ... of x^{-w} (analytic continuation)."""
    return step ** (-w) * hurwitz_zeta(w, x0 / step)


@lru_cache(maxsize=16)
def _head_table(n: int, step: int) -> tuple[tuple[float, float], ...]:
    """(x, eigenvalue rounded to float) for the head's degrees l = 0, step, ...,
    HEAD_SIZE: the evaluations at one (n, step) share one table."""
    return tuple((l + (n - 1) / 2.0, float(subcritical_eigenvalue(n, l)))
                 for l in range(0, HEAD_SIZE + 1, step))


def spectral_zeta(query: SpectrumQuery, s: float) -> float:
    """Evaluate the continued spectral series at real s away from its poles.

    Head: exact termwise summation up to degree ``HEAD_SIZE``.  Tail: the
    x^{-2k} expansion, each term a (possibly step-2) Hurwitz zeta, truncated
    once a rigorous bound on the remainder drops below 1e-13, or below half an
    ulp of the running tail sum (error if neither is met within order 20).

    The value carries an error bound, the sum of three parts.  The head's
    rounding: its terms are all positive, so (4 + |s-1| ln eig_max) eps of
    the head, where the rounding of s-1 and of an eigenvalue moves a term by
    at most |s-1| ln(eig) eps of itself.  The tail's rounding: (order + 8) eps
    of sum_k |a_k Z_k|.  And the truncation bound.  Where head and tail cancel
    to within that bound, no digit of head + tail is significant, and
    ValueError names the bound in place of a value.
    """
    n = query.n
    if abs(s - 1.0) < POLE_GUARD:
        raise ValueError("use spectral_zeta_at_one for the expansion point s=1")
    sigma = s - 1.0
    step = query.step
    prefactor = 2.0 / math.factorial(n - 1)

    # exact head over degrees l with x = l + (n-1)/2 on the spectrum's degree lattice
    table = _head_table(n, step)
    head = prefactor * math.fsum([x * lam ** (-sigma) for x, lam in table])

    # tail over x >= x_tail
    l_tail = step * (HEAD_SIZE // step + 1)
    x_tail = l_tail + (n - 1) / 2.0
    polys = _tail_coefficient_polys(n, MAX_TAIL_ORDER)
    tail = tail_abs = 0.0
    for k in range(MAX_TAIL_ORDER + 1):
        w_k = (2 * k - 1) + (n - 2) * sigma
        if abs(w_k - 1.0) < POLE_GUARD:
            raise ValueError(f"s={s} sits on a pole of the continued series (tail order {k})")
        term = _eval_poly(polys[k], sigma) * _step_sum_value(w_k, x_tail, step)
        tail += term
        tail_abs += abs(term)
        # remainder bound: |a_j| summed coefficients, tail sums bounded by the
        # integral test at the next order; super-geometric in x_tail^{-2}
        nxt = k + 1
        if nxt > MAX_TAIL_ORDER:
            raise ValueError("tail expansion did not meet tolerance within order 20")
        w_next = (2 * nxt - 1) + (n - 2) * sigma
        if w_next > 1.5:
            a_bound = sum(abs(c) * abs(sigma) ** j for j, c in enumerate(polys[nxt]))
            zeta_bound = x_tail ** (1.0 - w_next) / (w_next - 1.0) + x_tail ** (-w_next)
            remainder = 2.0 * a_bound * zeta_bound
            # below half an ulp of the running tail, no later term can
            # change it; the tail can be far above 1 where head and tail cancel
            if remainder < max(TAIL_TOLERANCE, 0.25 * _EPS * abs(tail)):
                break
    value = head + prefactor * tail
    bound = ((4.0 + abs(sigma) * math.log(table[-1][1])) * _EPS * abs(head)
             + prefactor * ((MAX_TAIL_ORDER + 8) * _EPS * tail_abs + remainder))
    if not bound < abs(value):
        raise ValueError(f"no significant digit at s={s}: head {head:.3g} and tail cancel to "
                         f"{value:.3g}, within the error bound {bound:.3g}")
    return value


def rational_finite_part(n: int, first_degree: int = 0, step: int = 1) -> Fraction:
    """Exact finite part at s=1 of the series over degrees first_degree + step j.

    At s=1 every term is (2/(n-1)!) x, so the head telescopes through the
    Hurwitz recurrence and only two tail orders survive: the k=0 lattice sum
    continued to w=-1, -step B_2(x_0/step)/2, and the k=1 pole, whose residue
    1/(step (n-2)) in s meets a_1'(1) = sum_i c_i.  The k=1 constant term
    (which holds psi) enters multiplied by a_1(1) = 0, so it is not evaluated.
    """
    x_first = Fraction(2 * first_degree + n - 1, 2)
    head = -step * bernoulli_polynomial(2, x_first / step) / 2
    pole = sum(map(Fraction, _squared_offsets(n))) / (step * (n - 2))
    return Fraction(2, math.factorial(n - 1)) * (head + pole)


def _finite_part(query: SpectrumQuery) -> float:
    """The finite part of the query's series, correctly rounded."""
    return float(rational_finite_part(query.n, step=query.step))


def spectral_zeta_at_one(query: SpectrumQuery) -> LaurentValue:
    """Laurent data at s=1: numerically extracted residue, closed-form finite part.

    The residue comes from Richardson-extrapolated symmetric differences of
    the full head+tail evaluator at s = 1 +/- delta, so the regularity of the
    series is observed rather than imposed.
    """
    def residue_estimate(delta: float) -> float:
        plus = spectral_zeta(query, 1.0 + delta)
        minus = spectral_zeta(query, 1.0 - delta)
        return delta * (plus - minus) / 2.0

    r1 = residue_estimate(_RESIDUE_DELTA)
    r2 = residue_estimate(2.0 * _RESIDUE_DELTA)
    residue = (4.0 * r1 - r2) / 3.0
    return LaurentValue(residue=residue, finite_part=_finite_part(query), at=1.0)


@dataclass(frozen=True)
class HomogeneousMass:
    mass: float
    normalized_mass: float


def homogeneous_mass(query: SpectrumQuery, params: DimensionParams) -> HomogeneousMass:
    """Constant mass of the homogeneous space: finite part / volume.

    Volume is omega_n for the sphere and omega_n / 2 for projective space;
    the normalized mass adds b_n * scal = b_n n(n-1).
    """
    if params.n != query.n:
        raise ValueError(f"params n={params.n} does not match query n={query.n}")
    fp = _finite_part(query)
    vol = sphere_volume(query.n)
    if query.space == "projective":
        vol /= 2.0
    mass = fp / vol
    n = query.n
    return HomogeneousMass(mass=mass, normalized_mass=mass + params.b_n * n * (n - 1))
