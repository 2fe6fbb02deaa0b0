"""Grid, quadrature and spectral calculus for rotationally symmetric fields on S^n.

A zonal (rotationally symmetric) function on the unit n-sphere is a function of
the polar angle theta alone.  With x = cos(theta), the sphere measure pushes
forward to omega_{n-1} (1-x^2)^{(n-2)/2} dx on (-1, 1), so Gauss-Jacobi nodes
with alpha = beta = (n-2)/2 integrate it exactly, and the Gegenbauer family
C_l^{(n-1)/2} diagonalizes the Laplace-Beltrami operator with eigenvalues
l(l+n-1).

The transforms need more than float64 accuracy: applying the l(l+n-1)
multiplier amplifies float64 roundoff in the analysis product to ~1e-7, which
would drown the 1e-8-level conformal-identity checks this package exists to
run.  So the basis tables are built in extended precision (longdouble), and
each transform gets that accuracy from one float64 BLAS product by error-free
splitting (Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).

The nodes start from the Golub-Welsch eigenvalue problem (Golub and Welsch,
Math. Comp. 23, 1969) in float64 and are then polished to longdouble accuracy
by a Newton step on C_N^lam:

* the symmetric Jacobi matrix of the weight (1-x^2)^a has a zero diagonal,
  so reordering its rows and columns even-then-odd turns it into
  [[0, B], [B^T, 0]]; its eigenvalues, the nodes, are +-sigma for the
  singular values sigma of the ceil(N/2) x floor(N/2) bidiagonal block B,
  plus 0 when N is odd.  The node set is exactly symmetric about 0;
* one longdouble Newton step takes the float64 start to longdouble accuracy.
  Its single recurrence pass ends with C_{N-1} and C_N, and
  (1-x^2) C_N' = (N+2 lam-1) C_{N-1} - N x C_N gives the derivative.

The analysis and synthesis tables are built with the grid; the derivative
table, which only ``differentiate`` reads, is built on its first use.

Each transform is split as follows:

* at build time each table T is scaled by powers of two, per column, and each
  row of the scaled table is split as T = T_0 + T_1: T_0 holds integers of at
  most _TABLE_BITS bits on a grid set by the row's largest entry, T_1 the
  float64 remainder, below 2^-_TABLE_BITS of that entry;
* each input vector v, scaled to max |v| < 1, is split as v = d + w the same
  way: d holds integers of at most _VECTOR_BITS bits on the grid
  2^-_VECTOR_BITS, w the remainder;
* one GEMM of [T_0 | T_1] with [[d, w], [0, v]] gives T_0 d, which is exact in
  float64 because _TABLE_BITS + _VECTOR_BITS + log2(N) <= 52, and
  T_0 w + T_1 v, which is at most 2^-20 of |T| |v|, so its float64 roundoff
  stays below the longdouble roundoff of the whole product;
* ``analyze`` adds the two columns in longdouble, in O(N); a synthesis
  product (``synthesize_ld``, and the last step of ``apply_multiplier`` and
  ``differentiate``) adds them in float64, since it returns float64 values.

A stack of B fields on one grid, values of shape (B, N), goes through the same
code as one field: every row gets its own exponent e, its own split and its own
filter floor, and the B rows become the columns of one GEMM,
[d_0..d_{B-1} | w_0..w_{B-1}].  A single field is the B = 1 case, with the same
GEMM and arithmetic as a lone vector.  The leading products are exact either
way, but BLAS may sum the remainder column in another order inside a wider
GEMM, so a stacked result agrees with the per-field one within float64
rounding, not bit for bit.

Field values exposed to callers are plain float64.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
# The grid holds up to three N x N tables (the derivative table from its first
# use on), each as two float64 halves: 48 N^2 bytes, 50 MB at N=1024 and
# 200 MB at N=2048; building them peaks near 64 N^2 bytes.  Larger sizes are
# refused, and the bit budget below is sized for this bound.
MAX_GRID_SIZE = 2048

# Widths of the error-free leading parts: N <= MAX_GRID_SIZE products of a
# _TABLE_BITS-bit and a _VECTOR_BITS-bit integer sum exactly in float64, since
# _TABLE_BITS + _VECTOR_BITS + ceil(log2(MAX_GRID_SIZE)) <= 52.
_TABLE_BITS = 21
_VECTOR_BITS = 20
# rows of a longdouble table split per block, so temporaries stay small
_SPLIT_BLOCK = 64


def _gegenbauer_rows(x: np.ndarray, lam, rows: int):
    """Yield C_l^lam(x) for l = 0..rows-1 via the three-term recurrence (longdouble).

    The recurrence runs in three buffers, so a yielded row is overwritten two
    steps later; copy it to keep it.
    """
    prev = np.ones(x.shape[0], dtype=_LD)
    yield prev
    if rows < 2:
        return
    cur = 2 * lam * x
    yield cur
    two_x, nxt = 2 * x, np.empty_like(cur)
    for l in range(2, rows):
        np.multiply(two_x, l + lam - 1, out=nxt)
        nxt *= cur
        nxt -= (l + 2 * lam - 2) * prev
        nxt /= _LD(l)
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _gegenbauer_table(x: np.ndarray, lam, rows: int) -> np.ndarray:
    """C_l^lam(x) for l = 0..rows-1 as a (rows, len(x)) longdouble table."""
    out = np.empty((rows, x.shape[0]), dtype=_LD)
    for l, row in enumerate(_gegenbauer_rows(x, lam, rows)):
        out[l] = row
    return out


def _newton_step(x: np.ndarray, lam, size: int) -> np.ndarray:
    """One Newton step toward the zeros of C_size^lam, from one recurrence pass.

    The pass ends with C_{N-1} and C_N, and
    (1-x^2) C_N' = (N+2 lam-1) C_{N-1} - N x C_N gives the derivative.
    """
    below, top = deque(_gegenbauer_rows(x, lam, size + 1), maxlen=2)
    return x - top * (1 - x * x) / ((size + 2 * lam - 1) * below - size * x * top)


def _jacobi_nodes(size: int, a: float) -> np.ndarray:
    """Gauss-Jacobi nodes for the weight (1-x^2)^a, ascending, float64-accurate.

    Golub-Welsch with the even-odd reduction (module docstring): the monic
    recurrence p_{k+1} = x p_k - beta_k p_{k-1} has
    beta_k = k (k+2a) / ((2k+2a+1)(2k+2a-1)), and the Jacobi matrix couples
    rows k-1 and k by sqrt(beta_k).  Row i of B holds the couplings of the
    Jacobi row 2i to the rows 2i+1 (column i) and 2i-1 (column i-1).
    """
    k = np.arange(1, size, dtype=float)
    off = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
    rows, cols = (size + 1) // 2, size // 2
    block = np.zeros((rows, cols))
    block[np.arange(cols), np.arange(cols)] = off[0::2]
    block[np.arange(1, rows), np.arange(rows - 1)] = off[1::2]
    sigma = np.linalg.svd(block, compute_uv=False)  # descending
    return np.concatenate([-sigma, np.zeros(size % 2), sigma[::-1]])


def _gauss_nodes(n: int, size: int) -> np.ndarray:
    """The grid's Gauss-Jacobi nodes in longdouble, ascending: the float64
    Golub-Welsch start, polished by one Newton step."""
    start = _jacobi_nodes(size, (n - 2) / 2.0).astype(_LD)
    return _newton_step(start, _LD(n - 1) / 2, size)


def _split_table(size: int, rows_of) -> tuple[np.ndarray, np.ndarray]:
    """Split a size x size longdouble table, whose rows a:b are ``rows_of(a, b)``.

    Returns ``(halves, col_scale)``: ``halves`` is [T_0 | T_1], and
    table ~= (T_0 + T_1) * col_scale.  ``col_scale`` holds the powers of two
    that bring each column's largest entry to [1/2, 1).  Row r of T_0 is the
    scaled row rounded to the grid 2^(E_r - _TABLE_BITS), max |row| <= 2^E_r;
    T_1 is the rest, good to 2^(E_r - 74).  The rows go through their exact
    float64 pairs hi + lo, so that the split runs in float64, in place.
    """
    halves = np.empty((size, 2 * size))
    hi, lo = halves[:, :size], halves[:, size:]
    blocks = [slice(a, min(a + _SPLIT_BLOCK, size)) for a in range(0, size, _SPLIT_BLOCK)]
    for blk in blocks:
        rows = rows_of(blk.start, blk.stop)
        hi[blk] = rows
        lo[blk] = rows - hi[blk]
    _, col_exp = np.frexp(np.maximum(hi.max(axis=0), -hi.min(axis=0)))
    col_scale = np.ldexp(1.0, col_exp)
    for blk in blocks:
        h, l = hi[blk] / col_scale, lo[blk] / col_scale
        _, exp = np.frexp(np.maximum(h.max(axis=1), -h.min(axis=1)))
        unit = np.ldexp(1.0, exp - _TABLE_BITS)[:, None]
        hi[blk] = np.rint(h / unit) * unit
        # h - hi is exact (both lie on h's grid); l lies below h's last bit
        lo[blk] = (h - hi[blk]) + l
    return halves, col_scale


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
        x = _gauss_nodes(n, size)

        # Quadrature weights via the Christoffel function of the orthonormal
        # system.  Norms are needed only up to an l-independent factor, which
        # the sum-rule rescaling to omega_n removes:
        #   ||C_l||^2  propto  (l+1)(l+2)...(l+n-2) / (l + (n-1)/2).
        ells = np.arange(size, dtype=_LD)
        q = np.ones(size, dtype=_LD)
        for j in range(1, n - 1):
            q *= ells + j
        q /= ells + lam
        basis = _gegenbauer_table(x, lam, size)
        pre = basis / np.sqrt(q)[:, None]
        w = 1.0 / np.square(pre).sum(axis=0)
        del pre
        w *= _LD(sphere_volume(n)) / w.sum()

        # Orthonormal basis (rows l, cols i), then its analysis table
        # basis * w and synthesis table basis^T, split; the derivative table
        # waits for its first use (``_derivative``).
        norms = np.sqrt((basis * basis) @ w)
        basis /= norms[:, None]
        self._analysis = _split_table(size, lambda a, b: basis[a:b] * w)
        self._synthesis = _split_table(size, lambda a, b: basis[:, a:b].T)
        del basis
        self._x, self._norms = x, norms
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

    @cached_property
    def _derivative(self) -> tuple[np.ndarray, np.ndarray]:
        """The derivative table dbasis^T, split, built on the first ``differentiate``;
        dbasis_l = 2 lam C_{l-1}^{lam+1} / ||C_l||."""
        size, lam = self.size, _LD(self.n - 1) / 2
        dtab = _gegenbauer_table(self._x, lam + 1, size - 1)

        def dbasis_rows(a, b):
            rows = np.zeros((b - a, size), dtype=_LD)
            rows[:, 1:] = (2 * lam * dtab[:, a:b] / self._norms[1:, None]).T
            return rows

        return _split_table(size, dbasis_rows)

    def _product(self, table: tuple[np.ndarray, np.ndarray], vec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``table @ vec`` as 2^e (lead + rest): ``lead`` = T_0 d exactly, ``rest`` the
        float64 product of the parts at most 2^-20 of |T| |vec| (module docstring).

        ``vec`` is one vector (N,) or a stack (B, N), float64 or longdouble;
        each row enters as its exact float64 pair, scaled by the table's column
        powers of two and then by its own 2^-e.  ``lead`` and ``rest`` have
        the shape of ``vec``; ``e`` broadcasts against them.
        A stack is one GEMM whose columns are [d_0..d_{B-1} | w_0..w_{B-1}].
        """
        halves, col_scale = table
        vec = np.asarray(vec)
        n = self.size
        b = vec.size // n
        hi = vec.astype(float)
        # the low half of the pair; zero, and skipped, for float64 input
        lo = (vec - hi).astype(float) if vec.dtype != hi.dtype else None
        hi *= col_scale
        # a scalar exponent for one vector, a (B, 1) column for a stack
        e = np.frexp(np.abs(hi).max(axis=-1, keepdims=vec.ndim > 1))[1]
        hi = np.ldexp(hi, -e)
        parts = np.zeros((2 * n, 2 * b))
        # views of the blocks shaped like vec: row j of each is column j of parts
        d = parts[:n, :b].T.reshape(vec.shape)
        w = parts[:n, b:].T.reshape(vec.shape)
        # d: hi on the grid 2^-_VECTOR_BITS (exact); w: the rest
        np.divide(np.rint(hi * 2.0**_VECTOR_BITS), 2.0**_VECTOR_BITS, out=d)
        np.subtract(hi, d, out=w)
        if lo is not None:
            lo *= col_scale
            w += np.ldexp(lo, -e)
        parts[n:, b:].T.reshape(vec.shape)[...] = hi
        out = np.ascontiguousarray((halves @ parts).T)
        return out[:b].reshape(vec.shape), out[b:].reshape(vec.shape), e

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Orthonormal Gegenbauer coefficients of sampled values (longdouble).

        ``values`` is one field (N,) or a stack (B, N).  Coefficients at the
        quadrature-roundoff level of their own row are zeroed (see _FILTER_K).
        """
        lead, rest, e = self._product(self._analysis, values)
        coeffs = lead.astype(_LD)
        coeffs += rest
        coeffs *= np.ldexp(_LD(1), e)
        # the filter is scale-free, so it runs on the float64 sum before scaling;
        # each row's norm is its own dot product s @ s, as for a single field
        # (a stack of 1 x N by N x 1 products; an einsum would sum in another
        # order and move filter decisions)
        scaled = lead + rest
        norms = np.sqrt(scaled[..., None, :] @ scaled[..., None]).reshape(np.shape(e))
        coeffs[np.abs(scaled) <= _FILTER_K * _EPS_LD * norms] = 0.0
        return coeffs

    def _synthesize(self, table, coeffs) -> np.ndarray:
        lead, rest, e = self._product(table, coeffs)
        return np.ldexp(lead + rest, e)

    def synthesize_ld(self, coeffs: np.ndarray) -> np.ndarray:
        return self._synthesize(self._synthesis, coeffs)

    def apply_multiplier(self, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        c = self.analyze(values)
        return self._synthesize(self._synthesis, np.asarray(multiplier).astype(_LD) * c)

    def differentiate(self, values: np.ndarray) -> np.ndarray:
        """d/dx of the Gegenbauer interpolant, at the nodes."""
        return self._synthesize(self._derivative, self.analyze(values))

    @property
    def laplacian_eigenvalues(self) -> np.ndarray:
        return np.asarray(self._eigs, dtype=float)


@dataclass(frozen=True)
class ZonalField:
    """Samples of a zonal function at the grid nodes.

    ``values`` is one field (N,) or a stack of B fields (B, N) on the same
    grid; pointwise arithmetic broadcasts a single field against a stack.
    """

    grid: ZonalGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.grid.size or vals.size == 0:
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
    """Field with the given orthonormal Gegenbauer coefficients (zero-padded).

    ``coeffs`` is one coefficient vector or a (B, L) stack of them.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] > grid.size:
        raise ValueError(f"{coeffs.shape[-1]} coefficients exceed the grid's {grid.size} modes")
    c = np.zeros(coeffs.shape[:-1] + (grid.size,))
    c[..., : coeffs.shape[-1]] = coeffs
    return ZonalField(grid, grid.synthesize_ld(c))


def _per_field(sums: np.ndarray):
    """A float for one field, an array of B values for a stack."""
    return float(sums) if sums.ndim == 0 else sums


def integrate(f: ZonalField):
    """Integral of f over S^n with the round measure (per field of a stack)."""
    return _per_field(f.values @ f.grid.weights)


def inner(f: ZonalField, g: ZonalField):
    """L^2 inner product (per field of a stack); inf where it leaves the float
    range, for the caller to refuse."""
    if not f.grid.compatible(g.grid):
        raise GridMismatchError(f"{f.grid} vs {g.grid}")
    with np.errstate(over="ignore"):
        return _per_field((f.values * g.values) @ f.grid.weights)


def lp_norm(f: ZonalField, q: float):
    """(integral of |f|^q)^{1/q}, per field of a stack."""
    if q < 1.0:
        raise ValueError(f"lp_norm needs q >= 1, got q={q}")
    return _per_field((np.abs(f.values) ** q @ f.grid.weights) ** (1.0 / q))


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


def _normals(seed, count: int) -> np.ndarray:
    """``count`` standard normals from ``default_rng(seed)``; for an array of
    seeds, one such row per seed, each from its own generator."""
    rows = [np.random.default_rng(s).standard_normal(count) for s in np.ravel(seed).tolist()]
    return np.reshape(rows, np.shape(seed) + (count,))


def random_zonal(grid: ZonalGrid, seed, l_max: int, amplitude: float, floor: float) -> ZonalField:
    """Seeded random band-limited field bounded below by ``floor``.

    Coefficients up to degree ``l_max`` are drawn with a mild (1+l)^-1 decay;
    the synthesized field is shifted so its minimum sits exactly at ``floor``
    (a constant shift only moves the degree-0 coefficient, so the band limit
    survives; clipping would not preserve it).  An array of seeds gives the
    stack of the per-seed fields, synthesized together.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    if l_max >= grid.size:
        raise ValueError(f"l_max={l_max} exceeds grid resolution {grid.size - 1}")
    coeffs = _normals(seed, l_max + 1) / (1.0 + np.arange(l_max + 1))
    rough = synthesize(grid, coeffs).values
    shifted = floor + amplitude * (rough - rough.min(axis=-1, keepdims=True))
    return ZonalField(grid, shifted)


def random_band_limited(grid: ZonalGrid, seed, l_max: int, amplitude: float) -> ZonalField:
    """Seeded smooth random field, sup-normalized to ``amplitude``.

    Gaussian coefficient decay exp(-(l/5)^2) keeps products and
    exponentials of these fields resolvable on the grid; used by the
    conformal-identity checks.  An array of seeds gives the stack of the
    per-seed fields; a field that synthesizes to zero stays zero.
    """
    ells = np.arange(l_max + 1)
    coeffs = _normals(seed, l_max + 1) * np.exp(-((ells / 5.0) ** 2))
    rough = synthesize(grid, coeffs).values
    top = np.abs(rough).max(axis=-1, keepdims=True)
    top[top == 0.0] = np.inf  # a zero field stays zero
    return ZonalField(grid, amplitude * rough / top)
