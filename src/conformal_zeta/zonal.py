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

The grid is mirror-symmetric: the nodes come in pairs +-y_j, the weights of a
pair are equal, and C_l(-x) = (-1)^l C_l(x).  So every table is two
K x K blocks, K = ceil(N/2), one for the even and one for the odd degrees, on
the nonnegative nodes y_j alone (the equatorial fold of fast spherical
harmonic transforms; Schaeffer, G^3 14, 2013).  With v_P and v_M a field's
values at y_j and at -y_j:

* analysis: the even degrees see v_P + v_M, the odd ones v_P - v_M.  The
  centre node of an odd N is its own mirror, so its column carries half its
  weight;
* synthesis: with E and O the sums over the even and the odd degrees at y_j,
  the field is E + O at y_j and E - O at -y_j.  The derivative table turns
  the parities round (the derivative of an even function is odd): O + E at
  y_j, O - E at -y_j.

The recurrence, the weights, the norms and the splits all run on the K
nonnegative nodes; ``nodes`` and ``weights`` are mirrored copies.  The analysis
and synthesis tables are built with the grid; the derivative table, which
only ``differentiate`` reads, is built on its first use.

Each transform is split as follows:

* at build time each table T is scaled by powers of two, per input (a node
  pair or a degree), and split per output as T = T_0 + T_1: T_0 holds
  integers of at most _TABLE_BITS bits on a grid set by the output's largest
  entry, T_1 the float64 remainder, below 2^-_TABLE_BITS of that entry.  A
  node pair has one scale (as an input) or one grid (as an output) in both
  blocks;
* each input vector v, scaled to max |v| < 1, is split as v = d + w the same
  way: d holds integers of at most _VECTOR_BITS bits on the grid
  2^-_VECTOR_BITS, w the remainder.  The analysis then folds d, w and v over
  the node pairs; d_P +- d_M stays exact, an integer of _VECTOR_BITS + 1 bits
  on the same grid;
* one batched GEMM of each block's [T_0 | T_1] with [[d, w], [0, v]] gives
  T_0 d, which is exact in float64 because
  _TABLE_BITS + _VECTOR_BITS + 1 + log2(N/2) <= 52, and T_0 w + T_1 v, which
  is at most 2^-20 of |T| |v|, so its float64 roundoff stays below the
  longdouble roundoff of the whole product.  A synthesis adds the two
  blocks' leads at each node pair, which is exact too: both lie on the
  pair's grid, at most 2^51 units each;
* ``analyze`` adds the two columns in longdouble, in O(N); a synthesis
  product (``synthesize_ld``, and the last step of ``apply_multiplier`` and
  ``differentiate``) adds them in float64, since it returns float64 values.

A stack of B fields on one grid, values of shape (B, N), goes through the same
code as one field: every row gets its own exponent e, its own split and its own
filter floor, and the B rows become the rows of the GEMM of each block,
[d_0..d_{B-1} ; w_0..w_{B-1}].  A single field is the B = 1 case, with the same
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
from typing import NamedTuple

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
# The grid holds up to three tables (the derivative table from its first use
# on), each as two parity blocks of two K x K float64 halves, K = ceil(N/2):
# 24 N^2 bytes, 25 MB at N=1024 and 100 MB at N=2048.  Building the grid peaks
# near 32 N^2 bytes, the derivative table near 48 N^2.  Larger sizes are
# refused, and the bit budget below is sized for this bound.
MAX_GRID_SIZE = 2048

# Widths of the error-free leading parts: the N/2 <= MAX_GRID_SIZE/2 products of
# a _TABLE_BITS-bit integer and a folded (_VECTOR_BITS + 1)-bit one sum
# exactly in float64, since
# _TABLE_BITS + _VECTOR_BITS + 1 + ceil(log2(MAX_GRID_SIZE / 2)) <= 52.
_TABLE_BITS = 21
_VECTOR_BITS = 20


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
    """The grid's ceil(N/2) nonnegative Gauss-Jacobi nodes in longdouble,
    ascending: the float64 Golub-Welsch start, polished by one Newton step."""
    start = _jacobi_nodes(size, (n - 2) / 2.0)[size // 2:].astype(_LD)
    return _newton_step(start, _LD(n - 1) / 2, size)


def _mirror(half: np.ndarray, size: int, sign: int = 1) -> np.ndarray:
    """A node-order array of length ``size`` from its values on the nonnegative
    nodes: ``sign`` times the values at the mirrored nodes, then the values."""
    return np.concatenate([sign * half[::-1][: size - half.shape[0]], half])


def _parity_blocks(rows: np.ndarray) -> np.ndarray:
    """The rows of degrees 0..N-1 of a (N, K) table as two (K, K) blocks, the
    even degrees then the odd ones; an odd N pads the odd block with a zero row."""
    half = rows.shape[1]
    blocks = np.zeros((2, half, half), dtype=rows.dtype)
    blocks[0] = rows[0::2]
    blocks[1, : rows.shape[0] // 2] = rows[1::2]
    return blocks


class _Table(NamedTuple):
    """A spectral table in parity blocks, split for the kernel (``_split_table``)."""

    halves: np.ndarray  # (2, 2K, K): block p is [T_0 ; T_1], input-major
    col_scale: np.ndarray  # (N,) the inputs' powers of two, in input order
    nodes_in: bool  # inputs are nodes (analysis), else degrees (synthesis)
    odd: bool = False  # even degrees give odd functions (the derivative)


def _split_table(blocks: np.ndarray, size: int, nodes_in: bool, odd: bool = False) -> _Table:
    """Split a longdouble table given as parity blocks, input-major: entry
    [p, i, o] of ``blocks`` carries input i to output o in block p.

    Each input is scaled by the power of two that brings its largest entry to
    [1/2, 1).  Output o of T_0 is the scaled entries rounded to the grid
    2^(E_o - _TABLE_BITS), where max |entry| <= 2^E_o; T_1 is the rest, good
    to 2^(E_o - 74).  A node pair has one scale (as an input) or one grid (as
    an output) across both blocks, which keeps the fold exact; each degree has
    its own.  The entries go through their exact float64 pairs hi + lo, so the
    split runs in float64.
    """
    hi = blocks.astype(float)
    lo = (blocks - hi).astype(float)
    in_axes, out_axes = ((0, 2), 1) if nodes_in else (2, (0, 1))
    _, exp = np.frexp(np.maximum(hi.max(axis=in_axes, keepdims=True),
                                 -hi.min(axis=in_axes, keepdims=True)))
    scale = np.ldexp(1.0, exp)
    hi /= scale
    lo /= scale
    _, exp = np.frexp(np.maximum(hi.max(axis=out_axes, keepdims=True),
                                 -hi.min(axis=out_axes, keepdims=True)))
    unit = np.ldexp(1.0, exp - _TABLE_BITS)
    half = blocks.shape[-1]
    halves = np.empty((2, 2 * half, half))
    t0, t1 = halves[:, :half], halves[:, half:]
    np.rint(np.divide(hi, unit, out=t0), out=t0)
    t0 *= unit
    # hi - t0 is exact (both lie on hi's grid); lo lies below hi's last bit
    np.subtract(hi, t0, out=t1)
    t1 += lo
    # the inputs' scales in node order (mirrored) or degree order (interleaved)
    scale = _mirror(scale.ravel(), size) if nodes_in else scale[..., 0].T.ravel()[:size]
    return _Table(halves, scale, nodes_in, odd)


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
        # everything is built on the ceil(N/2) nonnegative nodes y; the nodes
        # and weights at the mirrored nodes are copies (module docstring)
        y = _gauss_nodes(n, size)

        # Quadrature weights via the Christoffel function of the orthonormal
        # system.  Norms are needed only up to an l-independent factor, which
        # the sum-rule rescaling to omega_n removes:
        #   ||C_l||^2  propto  (l+1)(l+2)...(l+n-2) / (l + (n-1)/2).
        ells = np.arange(size, dtype=_LD)
        q = np.ones(size, dtype=_LD)
        for j in range(1, n - 1):
            q *= ells + j
        q /= ells + lam
        basis = _gegenbauer_table(y, lam, size)
        work = basis / np.sqrt(q)[:, None]
        w = 1.0 / np.square(work, out=work).sum(axis=0)
        w *= _LD(sphere_volume(n)) / _mirror(w, size).sum()
        # the weight of each node pair's column: the centre node of an odd
        # grid is its own mirror, so its column counts it once, at half weight
        pair_w = w.copy()
        if size % 2:
            pair_w[0] /= 2

        # Orthonormal basis (rows l, cols y_j), then its synthesis table
        # basis^T and analysis table basis * w as parity blocks, split; the
        # derivative table waits for its first use (``_derivative``).
        norms = np.sqrt(2 * (np.multiply(basis, basis, out=work) @ pair_w))
        del work
        basis /= norms[:, None]
        blocks = _parity_blocks(basis)
        del basis
        self._synthesis = _split_table(blocks, size, nodes_in=False)
        blocks *= pair_w
        self._analysis = _split_table(blocks.transpose(0, 2, 1), size, nodes_in=True)
        del blocks
        self._y, self._norms = y, norms
        self._eigs = (np.arange(size) * (np.arange(size) + n - 1.0)).astype(_LD)

        self.nodes = _mirror(y, size, -1).astype(float)
        self.weights = _mirror(w, size).astype(float)
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
    def _derivative(self) -> _Table:
        """The derivative table dbasis^T, split, built on the first ``differentiate``;
        dbasis_l = 2 lam C_{l-1}^{lam+1} / ||C_l||, odd for even l."""
        size, lam = self.size, _LD(self.n - 1) / 2
        rows = np.zeros((size, self._y.shape[0]), dtype=_LD)
        rows[1:] = 2 * lam * _gegenbauer_table(self._y, lam + 1, size - 1) / self._norms[1:, None]
        return _split_table(_parity_blocks(rows), size, nodes_in=False, odd=True)

    def _product(self, table: _Table, vec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``table @ vec`` as 2^e (lead + rest): ``lead`` = T_0 d exactly, ``rest`` the
        float64 product of the parts, at most 2^-20 of |T| |vec| (module docstring).

        ``vec`` is one vector (N,) or a stack (B, N), float64 or longdouble;
        each row enters as its exact float64 pair, scaled by the table's input
        powers of two and then by its own 2^-e.  ``lead`` and ``rest`` have
        the shape of ``vec``; ``e`` broadcasts against them.  Both parity
        blocks go through one batched GEMM, whose rows in block p are the
        fields' [d_p | 0] and then their [w_p | hi_p].
        """
        halves, col_scale, nodes_in, odd = table
        vec = np.asarray(vec)
        n, k = self.size, halves.shape[-1]
        rows = vec.reshape(-1, n)
        b = rows.shape[0]
        hi = rows.astype(float)
        # the low half of the pair; zero, and skipped, for float64 input
        lo = (rows - hi).astype(float) if rows.dtype != hi.dtype else None
        hi *= col_scale
        e = np.frexp(np.abs(hi).max(axis=-1, keepdims=True))[1]
        # per field, the rows [d | 0] and [w | hi] over the inputs, padded to
        # 2K so that the degrees pair up
        x = np.zeros((2, b, 2, 2 * k))
        d, w, h = x[0, :, 0, :n], x[1, :, 0, :n], x[1, :, 1, :n]
        np.ldexp(hi, -e, out=h)
        # d: h on the grid 2^-_VECTOR_BITS (exact); w: the rest
        np.divide(np.rint(h * 2.0**_VECTOR_BITS), 2.0**_VECTOR_BITS, out=d)
        np.subtract(h, d, out=w)
        if lo is not None:
            lo *= col_scale
            w += np.ldexp(lo, -e)
        if nodes_in:
            # node y_j and its mirror share a scale, so d_P +- d_M is exact
            pos, neg = x[..., n - k:n], x[..., k - 1::-1]
            parts = np.empty((2,) + pos.shape)
            np.add(pos, neg, out=parts[0])
            np.subtract(pos, neg, out=parts[1])
        else:
            parts = np.moveaxis(x.reshape(2, b, 2, k, 2), -1, 0)
        out = (parts.reshape(2, 2 * b, 2 * k) @ halves).reshape(2, 2, b, k)
        if nodes_in:
            # block p holds the degrees of parity p: interleave them
            res = out.transpose(1, 2, 3, 0).reshape(2, b, 2 * k)[..., :n]
        else:
            # the blocks give the even and the odd part of the output (the
            # other way round for the derivative): their sum at y_j, their
            # difference at -y_j.  Both leads lie on the node's grid, so
            # these sums are exact
            even_fn, odd_fn = out[::-1] if odd else out
            res = np.empty((2, b, n))
            np.subtract(even_fn, odd_fn, out=res[..., k - 1::-1])
            np.add(even_fn, odd_fn, out=res[..., n - k:])
        lead, rest = res.reshape((2,) + vec.shape)
        return lead, rest, e.reshape(vec.shape[:-1] + (1,))

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
