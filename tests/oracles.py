"""Independent oracles for the test suite.

Everything here avoids the package's own computational paths: finite
differences for the Laplacian, exact rational Bernoulli arithmetic for
continued lattice sums, Beta-function moments for quadrature (complete, in
exact rational form, and incomplete, as mpmath's hypergeometric series), plain
head-plus-integral summation for convergent Dirichlet series, and mpmath's
digamma for the Laurent constant of the Hurwitz zeta.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np


# -- finite-difference Laplacian on [0, pi] ---------------------------------

def fd_laplacian(fn, theta, n, h):
    """Second-order conservative stencil for -(sin^{n-1})^{-1} d(sin^{n-1} d/dtheta).

    ``fn`` maps arrays of polar angles to values; positive-spectrum sign
    convention (constants map to 0, cos theta to n cos theta).
    """
    theta = np.asarray(theta, dtype=float)
    s_plus = np.sin(theta + h / 2) ** (n - 1)
    s_minus = np.sin(theta - h / 2) ** (n - 1)
    flux = s_plus * (fn(theta + h) - fn(theta)) - s_minus * (fn(theta) - fn(theta - h))
    return -flux / (h * h * np.sin(theta) ** (n - 1))


# -- exact rational continuation oracles -------------------------------------

def bernoulli_b2(a: Fraction) -> Fraction:
    return a * a - a + Fraction(1, 6)


def lattice_sum_at_minus_one(x_first: Fraction, step: int) -> Fraction:
    """Continuation to exponent -1 of sum over x = x_first, x_first+step, ...

    Classical Bernoulli evaluation: sum x^{-w} at w = -1 equals
    -B_2(a)/2 for the unit lattice starting at a, and step-lattices reduce by
    x = step (j + x_first/step).
    """
    return step * (-bernoulli_b2(x_first / step) / 2)


def rational_finite_part(n: int, parity: str | None = None) -> Fraction:
    """Exact finite part of the spectral series at its expansion point.

    fp = (2/(n-1)!) [ S(-1) + (sum_i (i+1/2)^2) / (step (n-2)) ] with S the
    lattice sum above; parity "even"/"odd" restricts the degree lattice.
    """
    x_first = Fraction(n - 1, 2)
    step = 1
    if parity is not None:
        step = 2
        if parity == "odd":
            x_first += 1
    head = lattice_sum_at_minus_one(x_first, step)
    offsets = sum(Fraction(2 * i + 1, 2) ** 2 for i in range((n - 4) // 2 + 1))
    return Fraction(2, math.factorial(n - 1)) * (head + offsets / (step * (n - 2)))


# -- summation oracles --------------------------------------------------------

def euler_gamma_limit(terms: int = 10**6) -> float:
    """gamma = lim (sum_{k<=K} 1/k - ln K), accelerated by two Euler-Maclaurin terms."""
    k = np.arange(1, terms + 1, dtype=float)
    harmonic = math.fsum(1.0 / k)
    return harmonic - math.log(terms) - 1.0 / (2.0 * terms) + 1.0 / (12.0 * terms**2)


def hurwitz_direct(s: float, a: float, terms: int = 10**6) -> float:
    """Brute-force Hurwitz zeta for s > 1.5: head sum + midpoint integral tail."""
    if s <= 1.5:
        raise ValueError("direct summation oracle needs s > 1.5")
    k = np.arange(terms, dtype=float)
    head = math.fsum((k + a) ** (-s))
    edge = terms + a - 0.5
    return head + edge ** (1.0 - s) / (s - 1.0)


def spectral_series_direct(n: int, s: float, terms: int = 10**6,
                           parity: str | None = None) -> float:
    """Brute-force spectral series in the convergent region, with integral tail.

    Terms are mult(l) eig(l)^{-s}; the tail integrates the leading envelope
    (2/(n-1)!) x^{1+(n-2)(1-s)} from the midpoint, which is accurate to
    O(x_tail^{-2}) relative -- far below the 1e-10 comparisons it feeds.
    """
    step = 2 if parity else 1
    l0 = 1 if parity == "odd" else 0
    ells = np.arange(l0, terms, step, dtype=float)
    x = ells + (n - 1) / 2.0
    lam = np.ones_like(x)
    for j in range(1, n - 1):
        lam *= ells + j
    pref = 2.0 / math.factorial(n - 1)
    head = math.fsum(pref * x * lam ** (1.0 - s))
    w = (n - 2) * (s - 1.0) - 1.0
    if w <= 1.0:
        raise ValueError("series does not converge at this s")
    x_tail = x[-1] + step / 2.0
    tail = pref * x_tail ** (1.0 - w) / ((w - 1.0) * step)
    return head + tail


def continued_sphere_zeta(n: int, s: Fraction, split: int = 400, order: int = 60,
                          dps: int = 160) -> float:
    """The continued S^n series at rational s, in mpmath at ``dps`` digits.

    Head: the terms (2/(n-1)!) x lam(x)^{1-s} for l < ``split``, lam(x) =
    prod_i (x^2 - (i+1/2)^2).  Tail: lam^{1-s} = x^{(n-2)(1-s)}
    sum_k a_k x^{-2k} with exact rational a_k (k a_k = (s-1) sum_m p_m a_{k-m},
    p_m the power sums of the (i+1/2)^2), each order an mpmath Hurwitz zeta.
    """
    sigma = Fraction(s) - 1
    offsets = [Fraction(2 * i + 1, 2) ** 2 for i in range((n - 4) // 2 + 1)]
    power_sums = [sum(c**m for c in offsets) for m in range(order + 1)]
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(sigma * sum(power_sums[m] * coeffs[k - m] for m in range(1, k + 1)) / k)

    def mp(q: Fraction):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(dps):
        head = mpmath.fsum(
            mp(x) * mpmath.fprod(mp(x * x - c) for c in offsets) ** (-mp(sigma))
            for x in (Fraction(2 * l + n - 1, 2) for l in range(split)))
        x_split = mp(Fraction(2 * split + n - 1, 2))
        tail = mpmath.fsum(mp(a) * mpmath.zeta(mp(2 * k - 1 + (n - 2) * sigma), x_split)
                           for k, a in enumerate(coeffs))
        return float(2 * (head + tail) / mpmath.factorial(n - 1))


def hurwitz_finite_part_at_1(a: float) -> float:
    """Constant term -psi(a) of zeta_H(s, a) at its pole s=1 (residue 1).

    psi(a) is evaluated at 40 digits, so the float is correctly rounded.
    """
    if a <= 0:
        raise ValueError(f"the digamma oracle needs a > 0, got a={a}")
    with mpmath.workdps(40):
        return -float(mpmath.digamma(a))


# -- flat-space moment oracles -------------------------------------------------

def zonal_moment(n: int, j: int) -> float:
    """int_{-1}^{1} x^j (1-x^2)^{(n-2)/2} dx (zero for odd j, Beta for even)."""
    if j % 2 == 1:
        return 0.0
    return math.gamma((j + 1) / 2) * math.gamma(n / 2) / math.gamma((j + n + 1) / 2)


def radial_moment_to_infinity(m: float, q: float) -> float:
    """int_0^inf t^m (1+t^2)^{-q} dt = B((m+1)/2, q-(m+1)/2)/2, for m > -1, 2q > m+1.

    For integer m and q the Beta value is an exact rational, times pi when
    (m+1)/2 is a half-integer, and the float is rounded once from it; other
    exponents go through math.lgamma.
    """
    a = Fraction(m + 1, 2) if float(m).is_integer() else (m + 1) / 2
    b = q - a
    if not (a > 0 and b > 0):
        raise ValueError(f"the integral diverges for m={m}, q={q}")
    if not (float(m).is_integer() and float(q).is_integer()):
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) / 2
    if a.denominator == 1:  # B(a, b) = (a-1)! (b-1)! / (a+b-1)!
        a, b = int(a), int(b)
        return float(Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                              2 * math.factorial(a + b - 1)))
    # Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!), and a + b is an integer
    ja, jb = int(a - Fraction(1, 2)), int(b - Fraction(1, 2))
    rational = Fraction(math.factorial(2 * ja) * math.factorial(2 * jb),
                        4 ** (ja + jb) * math.factorial(ja) * math.factorial(jb)
                        * math.factorial(ja + jb))
    return float(rational / 2) * math.pi


def radial_moment_reference(m: float, q: float, top: float) -> float:
    """int_0^top t^m (1+t^2)^{-q} dt at 30 digits, without quadrature.

    w = t^2/(1+t^2) turns the integral into B(w_top; (m+1)/2, q-(m+1)/2)/2, an
    incomplete Beta function that mpmath sums as a hypergeometric series.
    Quadrature of t^m itself is unreliable here: for k near -n the t^m
    endpoint singularity spreads the mass over many decades, and for large m
    the mass sits in a narrow peak.
    """
    with mpmath.workdps(30):
        m, q, top = mpmath.mpf(m), mpmath.mpf(q), mpmath.mpf(top)
        a = (m + 1) / 2
        return float(mpmath.betainc(a, q - a, 0, top * top / (1 + top * top)) / 2)
