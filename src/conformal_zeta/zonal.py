"""Grid, quadrature and spectral calculus for rotationally symmetric fields on S^n.

A zonal (rotationally symmetric) function on the unit n-sphere is a function of
the polar angle theta alone.  With x = cos(theta), the sphere measure pushes
forward to omega_{n-1} (1-x^2)^{(n-2)/2} dx on (-1, 1), so Gauss-Jacobi nodes
with alpha = beta = (n-2)/2 integrate it exactly, and the Gegenbauer family
C_l^{(n-1)/2} diagonalizes the Laplace-Beltrami operator with eigenvalues
l(l+n-1).

Internals run in extended precision (longdouble): the basis tables are built
from Newton-refined nodes and the analysis/synthesis matvecs are accumulated
in longdouble.  Without this, applying the l(l+n-1) multiplier amplifies
float64 node noise to ~1e-6 near the poles, which would drown the 1e-8-level
conformal-identity checks this package exists to run.  Field values exposed to
callers are plain float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import GridMismatchError
from .params import check_dimension, sphere_volume

_LD = np.longdouble
_EPS_LD = float(np.finfo(np.longdouble).eps)

# Analysis coefficients with |c_l| below _FILTER_K * eps_ld * ||c||_2 are
# discarded before any spectral multiplier is applied; they are quadrature
# roundoff, and the multiplier l(l+n-1) would otherwise amplify them.
_FILTER_K = 1024.0

DEFAULT_GRID_SIZE = 256
MIN_GRID_SIZE = 16
# The grid holds several (N+1) x N longdouble tables: N=1024 peaks near 0.2 GB
# and N=2048 near 0.6 GB of resident memory, so larger sizes are refused.
MAX_GRID_SIZE = 2048


def _gegenbauer_table(x: np.ndarray, lam, rows: int) -> np.ndarray:
    """C_l^lam(x) for l = 0..rows-1 via the three-term recurrence (longdouble)."""
    out = np.zeros((rows, x.shape[0]), dtype=_LD)
    out[0] = 1.0
    if rows > 1:
        out[1] = 2 * lam * x
    for l in range(2, rows):
        out[l] = (2 * x * (l + lam - 1) * out[l - 1] - (l + 2 * lam - 2) * out[l - 2]) / _LD(l)
    return out


class ZonalGrid:
    """Gauss-Jacobi collocation grid for zonal fields on S^n.

    Attributes
    ----------
    n        : sphere dimension (even, 4..MAX_DIMENSION)
    size     : number of nodes N
    nodes    : x_i = cos(theta_i), strictly increasing in (-1, 1)
    weights  : positive quadrature weights, sum = omega_n
    """

    def __init__(self, n: int, size: int = DEFAULT_GRID_SIZE):
        check_dimension(n)
        if size < MIN_GRID_SIZE:
            raise ValueError(f"grid needs at least {MIN_GRID_SIZE} nodes, got {size}")
        if size > MAX_GRID_SIZE:
            raise ValueError(f"grid allows at most {MAX_GRID_SIZE} nodes, got {size}")
        self.n = n
        self.size = size
        lam = _LD(n - 1) / 2

        x = roots_jacobi(size, (n - 2) / 2.0, (n - 2) / 2.0)[0].astype(_LD)
        # scipy's nodes are float64-accurate; polish them to longdouble accuracy
        # as zeros of C_N^lam.  (d/dx) C_N^lam = 2 lam C_{N-1}^{lam+1}.
        for _ in range(4):
            val = _gegenbauer_table(x, lam, size + 1)[size]
            der = 2 * lam * _gegenbauer_table(x, lam + 1, size)[size - 1]
            x = x - val / der

        # Quadrature weights via the Christoffel function of the orthonormal
        # system.  Norms are needed only up to an l-independent factor, which
        # the sum-rule rescaling to omega_n removes:
        #   ||C_l||^2  propto  (l+1)(l+2)...(l+n-2) / (l + (n-1)/2).
        ells = np.arange(size, dtype=_LD)
        q = np.ones(size, dtype=_LD)
        for j in range(1, n - 1):
            q *= ells + j
        q /= ells + lam
        table = _gegenbauer_table(x, lam, size)
        pre = table / np.sqrt(q)[:, None]
        w = 1.0 / np.square(pre).sum(axis=0)
        w *= _LD(sphere_volume(n)) / w.sum()

        norms = (table * table) @ w
        self._basis = table / np.sqrt(norms)[:, None]          # rows l, cols i
        dtab = _gegenbauer_table(x, lam + 1, size)
        deriv = np.zeros((size, size), dtype=_LD)
        for l in range(1, size):
            deriv[l] = 2 * lam * dtab[l - 1]
        self._dbasis = deriv / np.sqrt(norms)[:, None]
        self._analysis = self._basis * w
        self._eigs = (np.arange(size) * (np.arange(size) + n - 1.0)).astype(_LD)

        self.nodes = np.asarray(x, dtype=float)
        self.weights = np.asarray(w, dtype=float)
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    # -- representation helpers -------------------------------------------------

    @property
    def theta(self) -> np.ndarray:
        """Polar angles arccos(x_i), decreasing along the node order."""
        return np.arccos(self.nodes)

    def compatible(self, other: "ZonalGrid") -> bool:
        return self is other or (self.n == other.n and self.size == other.size)

    def __repr__(self):
        return f"ZonalGrid(n={self.n}, size={self.size})"

    # -- spectral kernel --------------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Orthonormal Gegenbauer coefficients of sampled values (longdouble).

        Coefficients at the quadrature-roundoff level are zeroed (see _FILTER_K).
        """
        coeffs = self._analysis @ np.asarray(values).astype(_LD)
        floor = _FILTER_K * _EPS_LD * float(np.sqrt(float((coeffs * coeffs).sum())))
        return np.where(np.abs(coeffs) <= floor, _LD(0.0), coeffs)

    def synthesize_ld(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(self._basis.T @ np.asarray(coeffs).astype(_LD), dtype=float)

    def apply_multiplier(self, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        c = self.analyze(values)
        return np.asarray(self._basis.T @ (np.asarray(multiplier).astype(_LD) * c), dtype=float)

    def differentiate(self, values: np.ndarray) -> np.ndarray:
        """d/dx of the Gegenbauer interpolant, at the nodes."""
        return np.asarray(self._dbasis.T @ self.analyze(values), dtype=float)

    @property
    def laplacian_eigenvalues(self) -> np.ndarray:
        return np.asarray(self._eigs, dtype=float)


@dataclass(frozen=True)
class ZonalField:
    """Samples of a zonal function at the grid nodes."""

    grid: ZonalGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise GridMismatchError(
                f"field has {vals.shape} values for a grid of size {self.grid.size}"
            )
        object.__setattr__(self, "values", vals)

    # convenience arithmetic; all pointwise on shared grids
    def _match(self, other):
        if isinstance(other, ZonalField):
            if not self.grid.compatible(other.grid):
                raise GridMismatchError(f"{self.grid} vs {other.grid}")
            return other.values
        return other

    def __add__(self, other):
        return ZonalField(self.grid, self.values + self._match(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ZonalField(self.grid, self.values - self._match(other))

    def __rsub__(self, other):
        return ZonalField(self.grid, self._match(other) - self.values)

    def __mul__(self, other):
        return ZonalField(self.grid, self.values * self._match(other))

    __rmul__ = __mul__

    def __neg__(self):
        return ZonalField(self.grid, -self.values)

    def coefficients(self) -> np.ndarray:
        """Orthonormal Gegenbauer coefficients (float64 view)."""
        return np.asarray(self.grid.analyze(self.values), dtype=float)


def make_grid(n: int, size: int = DEFAULT_GRID_SIZE) -> ZonalGrid:
    return ZonalGrid(n, size)


def constant_field(grid: ZonalGrid, value: float) -> ZonalField:
    return ZonalField(grid, np.full(grid.size, float(value)))


def field_from_function(grid: ZonalGrid, fn) -> ZonalField:
    """Sample ``fn(theta)`` at the grid's polar angles."""
    return ZonalField(grid, np.asarray(fn(grid.theta), dtype=float))


def synthesize(grid: ZonalGrid, coeffs) -> ZonalField:
    """Field with the given orthonormal Gegenbauer coefficients (zero-padded)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > grid.size:
        raise ValueError(f"{len(coeffs)} coefficients exceed the grid's {grid.size} modes")
    c = np.zeros(grid.size)
    c[: len(coeffs)] = coeffs
    return ZonalField(grid, grid.synthesize_ld(c))


def integrate(f: ZonalField) -> float:
    """Integral of f over S^n with the round measure."""
    return float(f.values @ f.grid.weights)


def inner(f: ZonalField, g: ZonalField) -> float:
    if not f.grid.compatible(g.grid):
        raise GridMismatchError(f"{f.grid} vs {g.grid}")
    return float((f.values * g.values) @ f.grid.weights)


def lp_norm(f: ZonalField, q: float) -> float:
    """(integral of |f|^q)^{1/q}."""
    if q < 1.0:
        raise ValueError(f"lp_norm needs q >= 1, got q={q}")
    return float((np.abs(f.values) ** q @ f.grid.weights) ** (1.0 / q))


def laplacian(f: ZonalField) -> ZonalField:
    """Laplace-Beltrami operator (positive spectrum convention l(l+n-1))."""
    g = f.grid
    return ZonalField(g, g.apply_multiplier(f.values, g.laplacian_eigenvalues))


def gradient_pairing(f: ZonalField, g: ZonalField) -> ZonalField:
    """<df, dg> for zonal fields: (1-x^2) f'(x) g'(x) with spectral derivatives."""
    if not f.grid.compatible(g.grid):
        raise GridMismatchError(f"{f.grid} vs {g.grid}")
    grid = f.grid
    df = grid.differentiate(f.values)
    dg = grid.differentiate(g.values)
    return ZonalField(grid, (1.0 - grid.nodes**2) * df * dg)


def grad_sq(f: ZonalField) -> ZonalField:
    """Pointwise squared gradient |df|^2."""
    return gradient_pairing(f, f)


def random_zonal(grid: ZonalGrid, seed: int, l_max: int, amplitude: float, floor: float) -> ZonalField:
    """Seeded random band-limited field bounded below by ``floor``.

    Coefficients up to degree ``l_max`` are drawn with a mild (1+l)^-1 decay;
    the synthesized field is shifted so its minimum sits exactly at ``floor``
    (a constant shift only moves the degree-0 coefficient, so the band limit
    survives; clipping would not preserve it).
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    if l_max >= grid.size:
        raise ValueError(f"l_max={l_max} exceeds grid resolution {grid.size - 1}")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(l_max + 1) / (1.0 + np.arange(l_max + 1))
    rough = synthesize(grid, coeffs)
    shifted = floor + amplitude * (rough.values - rough.values.min())
    return ZonalField(grid, shifted)


def random_band_limited(grid: ZonalGrid, seed: int, l_max: int, amplitude: float) -> ZonalField:
    """Seeded smooth random field, sup-normalized to ``amplitude``.

    Gaussian coefficient decay exp(-(l/5)^2) keeps products and
    exponentials of these fields resolvable on the grid; used by the
    conformal-identity checks.
    """
    rng = np.random.default_rng(seed)
    ells = np.arange(l_max + 1)
    coeffs = rng.standard_normal(l_max + 1) * np.exp(-((ells / 5.0) ** 2))
    rough = synthesize(grid, coeffs)
    top = np.abs(rough.values).max()
    if top == 0.0:
        return constant_field(grid, 0.0)
    return ZonalField(grid, amplitude * rough.values / top)
