import copy
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.special import roots_jacobi

from conformal_zeta import zonal
from conformal_zeta.errors import GridMismatchError
from conformal_zeta.gauss import jacobi_polish, jacobi_start
from conformal_zeta.params import sphere_volume
from conformal_zeta.zonal import (_FILTER_FLOOR, ZonalField, _gauss_nodes, _gegenbauer_table,
                                  _mirror, constant_field, gradient_pairing, integrate, inner,
                                  laplacian, lp_norm, make_grid, random_band_limited,
                                  random_zonal, synthesize)
from oracles import fd_laplacian, gauss_nodes, kernel_reference_tables, zonal_moment


def test_grid_invariants(grid4):
    assert np.all(np.diff(grid4.nodes) > 0)
    assert np.all(grid4.weights > 0)
    assert grid4.weights.sum() == pytest.approx(sphere_volume(4), rel=1e-12)


@pytest.mark.parametrize("n", [4, 6, 104])
@pytest.mark.parametrize("size", [16, 17, 256, 1024])
def test_jacobi_nodes_match_scipy(n, size):
    # the grid's start: the half-size problem (a, -+1/2) at N // 2 nodes
    a, b = (n - 2) / 2.0, 0.5 if size % 2 else -0.5
    want = roots_jacobi(size // 2, a, b)[0]
    got = jacobi_start(size // 2, a, b)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("beta", [-0.99, 0.0, 3.0, 103.0, 203.0])
def test_jacobi_start_matches_scipy_for_the_radial_rules(beta):
    want = roots_jacobi(40, 0.0, beta)[0]
    assert np.abs(jacobi_start(40, 0.0, beta) - want).max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("size", [16, 17, 256])
def test_grid_nodes_are_antisymmetric(size):
    x = make_grid(4, size).nodes
    assert np.array_equal(x, -x[::-1])


@pytest.mark.parametrize("n", [4, 6, 104])
@pytest.mark.parametrize("size", [16, 97, 256, 2048])
def test_one_newton_step_reaches_longdouble_accuracy(n, size, monkeypatch):
    # P_N is summed from terms of order 1, so a node is good to an absolute,
    # not a relative, longdouble unit; a further step must stay within one
    monkeypatch.setattr(zonal, "_gegenbauer_table", functools.partial(pytest.fail, "table built"))
    x = _gauss_nodes(n, size)
    a = np.longdouble(n - 2) / 2
    again = jacobi_polish(x, a, a, size)[0]
    assert x.dtype == np.longdouble
    assert np.abs(again - x).max() <= np.finfo(np.longdouble).eps


@pytest.mark.parametrize("n,size", [(n, size) for n in (4, 6, 104) for size in (16, 17, 97, 256)]
                         + [(104, 1024)])
def test_grid_nodes_match_the_oracle_route(n, size):
    # scipy's roots polished by four Gegenbauer Newton steps (oracles.py)
    got = _mirror(_gauss_nodes(n, size), size, -1)
    assert np.abs(got - gauss_nodes(n, size)).max() <= np.finfo(np.longdouble).eps


def test_grid_build_makes_one_table_and_differentiate_adds_none(monkeypatch, fresh_grid_memo):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _gegenbauer_table(*args)

    monkeypatch.setattr(zonal, "_gegenbauer_table", counted)
    grid = make_grid(4, 64)
    assert len(calls) == 1
    before = dict(vars(grid))
    f = ZonalField(grid, np.cos(grid.theta))
    grid.analyze(f.values)
    laplacian(f)
    first = grid.differentiate(f.values)
    grid.differentiate(np.vstack([f.values, f.values**2]))
    assert len(calls) == 1
    assert vars(grid).keys() == before.keys()
    assert all(vars(grid)[key] is value for key, value in before.items())
    assert np.array_equal(grid.differentiate(f.values), first)


def test_make_grid_is_memoized_per_n_and_size():
    grid = make_grid(4)
    assert make_grid(4, 256) is grid and make_grid(4, size=256) is grid
    assert make_grid(6) is not grid and make_grid(4, 64) is not grid
    fresh = zonal.ZonalGrid(4, 256)
    assert fresh is not grid and make_grid(4) is grid
    assert np.array_equal(fresh.nodes, grid.nodes) and np.array_equal(fresh.weights, grid.weights)


def test_memo_evicts_the_least_recently_used_grid(fresh_grid_memo):
    sizes = [16 + k for k in range(zonal._GRID_MEMO_SIZE + 1)]
    grids = [make_grid(4, size) for size in sizes[:-1]]
    assert make_grid(4, sizes[0]) is grids[0]  # now the most recently used
    make_grid(4, sizes[-1])  # one more than the memo holds evicts sizes[1]
    assert zonal._memo_grid.cache_info().currsize == zonal._GRID_MEMO_SIZE
    assert make_grid(4, sizes[0]) is grids[0]
    assert all(make_grid(4, size) is grid for size, grid in zip(sizes[2:], grids[2:]))
    assert make_grid(4, sizes[1]) is not grids[1]


def test_memo_keeps_no_large_grid(fresh_grid_memo):
    size = zonal._GRID_MEMO_MAX_NODES
    assert make_grid(4, size) is make_grid(4, size)
    assert make_grid(4, size + 1) is not make_grid(4, size + 1)
    assert zonal._memo_grid.cache_info().currsize == 1


def test_grid_arrays_are_read_only():
    grid = make_grid(4, 64)
    tables = (grid._analysis, grid._synthesis)
    arrays = [grid.nodes, grid.weights, grid._norms, grid._deriv_scale,
              grid.laplacian_eigenvalues]
    arrays += [t.blocks for t in tables]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_rejects_small_grid():
    with pytest.raises(ValueError):
        make_grid(4, 8)


def test_rejects_odd_dimension():
    with pytest.raises(ValueError):
        make_grid(5, 64)


def test_integrate_constant_n4():
    grid = make_grid(4, 64)
    # closed form omega_4 = 2 pi^{5/2} / Gamma(5/2) = 8 pi^2 / 3
    assert integrate(constant_field(grid, 1.0)) == pytest.approx(8 * math.pi**2 / 3, rel=1e-12)


def test_integrate_odd_function_vanishes():
    grid = make_grid(4, 64)
    f = ZonalField(grid, grid.nodes.copy())  # cos(theta)
    assert abs(integrate(f)) < 1e-13


def test_integrate_converged_in_resolution():
    vals = []
    for size in (64, 128):
        grid = make_grid(6, size)
        vals.append(integrate(ZonalField(grid, np.exp(np.cos(grid.theta)))))
    assert abs(vals[0] - vals[1]) < 1e-12


def test_quadrature_exact_to_degree_2n_minus_1():
    grid = make_grid(4, 64)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(2 * 64 - 1)  # degree 2N-2 polynomial in x
    poly = np.polynomial.polynomial.polyval(grid.nodes, coeffs)
    got = float(poly @ grid.weights)
    surface = sphere_volume(3)
    want = surface * math.fsum(c * zonal_moment(4, j) for j, c in enumerate(coeffs))
    assert got == pytest.approx(want, rel=1e-12)


def test_second_moment_beta_oracle():
    grid = make_grid(4, 64)
    f = ZonalField(grid, grid.nodes**2)
    # 2 pi^2 * int x^2 (1-x^2) dx = omega_4 / 5
    assert integrate(f) == pytest.approx(sphere_volume(4) / 5, rel=1e-13)


def test_lp_norm_constant(grid4):
    p = 4.0
    assert lp_norm(constant_field(grid4, 1.0), p) == pytest.approx(
        sphere_volume(4) ** (1 / p), rel=1e-14)


@given(c=st.floats(min_value=-100, max_value=100, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
       q=st.floats(min_value=1.0, max_value=6.0))
def test_lp_norm_homogeneous(c, q):
    grid = make_grid(4, 16)
    f = ZonalField(grid, 1.0 + 0.5 * grid.nodes)
    assert lp_norm(ZonalField(grid, c * f.values), q) == pytest.approx(
        abs(c) * lp_norm(f, q), rel=1e-12)


@pytest.mark.parametrize("q", [3.0, 4.0])
def test_lp_norm_of_a_field_is_its_row_of_a_stack(q):
    # the 1/q root of a field and of a stack row go through the same ufunc
    # (numpy's scalar ** differs from it in the last bit for about 5% of these
    # values on an AVX-512 x86-64 host).  Each row is zero but at one node, so
    # the sum under the root is exact in any order
    grid = make_grid(4, 16)
    rng = np.random.default_rng(17)
    values = np.zeros((20000, grid.size))
    values[np.arange(20000), rng.integers(grid.size, size=20000)] = rng.uniform(0.05, 2.0, 20000)
    single = [lp_norm(ZonalField(grid, v), q) for v in values]
    assert np.array_equal(single, lp_norm(ZonalField(grid, values), q))
    for v in values[:20]:
        assert lp_norm(ZonalField(grid, v[None] + 1.0), q)[0] == lp_norm(ZonalField(grid, v + 1.0), q)


def test_lp_norm_rejects_q_below_one(grid4):
    with pytest.raises(ValueError):
        lp_norm(constant_field(grid4, 1.0), 0.5)


def test_laplacian_kills_constants(grid4):
    out = laplacian(constant_field(grid4, 3.7))
    assert np.abs(out.values).max() < 1e-13


def test_laplacian_degree_one_eigenvalue(grid4):
    f = ZonalField(grid4, grid4.nodes.copy())
    out = laplacian(f)
    assert np.abs(out.values - 4.0 * grid4.nodes).max() < 1e-12


def test_laplacian_degree_two_eigenvalue_n6(grid6):
    f = synthesize(grid6, [0.0, 0.0, 1.0])
    out = laplacian(f)
    assert np.abs(out.values - 14.0 * f.values).max() < 1e-12


def test_laplacian_matches_finite_differences(grid4):
    fn = lambda th: np.exp(np.cos(th)) * np.cos(th)
    field = ZonalField(grid4, fn(grid4.theta))
    spectral = laplacian(field)
    # compare at the grid's own interior nodes so no interpolation error enters
    keep = np.abs(grid4.nodes) < 0.95
    theta = np.arccos(grid4.nodes[keep])
    errs = []
    for h in (2e-3, 1e-3):
        fd = fd_laplacian(fn, theta, 4, h)
        errs.append(np.abs(fd - spectral.values[keep]).max())
    order = math.log2(errs[0] / errs[1])
    assert errs[1] < 1e-4
    assert order > 1.9


def test_grad_sq_constant_is_zero(grid4):
    f = constant_field(grid4, 2.0)
    assert np.abs(gradient_pairing(f, f).values).max() < 1e-14


def test_grad_sq_cos_theta(grid4):
    f = ZonalField(grid4, grid4.nodes.copy())
    want = 1.0 - grid4.nodes**2  # symbolic: |d cos|^2 = sin^2
    assert np.abs(gradient_pairing(f, f).values - want).max() < 1e-12


def test_gradient_pairing_of_a_field_with_itself_differentiates_once(grid4, monkeypatch):
    f = synthesize(grid4, np.random.default_rng(3).standard_normal((2, 30)))
    twice = gradient_pairing(f, ZonalField(grid4, f.values))
    calls = []
    differentiate = zonal.ZonalGrid.differentiate

    def counted(self, values):
        calls.append(values)
        return differentiate(self, values)

    monkeypatch.setattr(zonal.ZonalGrid, "differentiate", counted)
    once = gradient_pairing(f, f)
    assert len(calls) == 1
    assert np.array_equal(once.values, twice.values)


@pytest.mark.parametrize("shape", [(30,), (3, 30)])
def test_laplacian_is_one_analyze_and_two_kernel_products(grid4_small, kernel_products,
                                                          monkeypatch, shape):
    # the benchmark's tracer (perfbench/tracing.py) sees the analysis product
    # of a multiplier as a nested ``analyze`` call, so no transform may bypass it
    f = synthesize(grid4_small, np.random.default_rng(4).standard_normal(shape))
    calls = []
    analyze = zonal.ZonalGrid.analyze

    def counted(self, values):
        calls.append(np.shape(values))
        return analyze(self, values)

    monkeypatch.setattr(zonal.ZonalGrid, "analyze", counted)
    kernel_products.clear()
    laplacian(f)
    assert calls == [f.values.shape]
    assert kernel_products == [f.values.shape] * 2


def test_integration_by_parts(grid4):
    rng = np.random.default_rng(5)
    f = synthesize(grid4, rng.standard_normal(40) / (1 + np.arange(40.0)))
    lhs = integrate(gradient_pairing(f, f))
    rhs = inner(f, laplacian(f))
    assert abs(lhs - rhs) < 1e-10


def test_parseval(grid4):
    rng = np.random.default_rng(7)
    f = synthesize(grid4, rng.standard_normal(50))
    assert inner(f, f) == pytest.approx(float((f.coefficients() ** 2).sum()), abs=1e-10)


def test_roundtrip_band_limited(grid4):
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(64)
    f = synthesize(grid4, coeffs)
    back = f.coefficients()[:64]
    assert np.abs(back - coeffs).max() < 1e-12


def test_random_zonal_deterministic(grid4):
    a = random_zonal(grid4, 42, 16, 0.5, 1e-3)
    b = random_zonal(grid4, 42, 16, 0.5, 1e-3)
    assert np.array_equal(a.values, b.values)


def test_random_zonal_respects_floor(grid4):
    f = random_zonal(grid4, 1, 16, 2.0, 0.25)
    assert f.values.min() >= 0.25 - 1e-15


def test_random_zonal_band_limited(grid4):
    f = random_zonal(grid4, 3, 12, 1.0, 0.1)
    assert np.abs(f.coefficients()[13:]).max() < 1e-12


def test_monotone_on_nonnegative(grid4):
    f = random_zonal(grid4, 8, 10, 1.0, 0.2)
    assert integrate(f) > 0


# -- the float64 kernel against a longdouble reference ------------------------

LD = np.longdouble
EPS64 = float(np.finfo(float).eps)


def _filtered(coeffs):
    floor = _FILTER_FLOOR * float(np.sqrt(float((coeffs * coeffs).sum())))
    return np.where(np.abs(coeffs) <= floor, LD(0), coeffs)


@pytest.mark.skipif(np.finfo(LD).nmant != 63, reason="long double has no 64-bit significand")
def test_filter_floor_is_1024_eps_of_the_80_bit_long_double():
    # a platform-free constant, equal to 1024 eps of the x86 long double
    assert _FILTER_FLOOR == 1024 * np.finfo(np.longdouble).eps


def _within(got, want, scale, k=8.0):
    """|got - want| <= k eps64 max(scale), plus float64 rounding of a float64
    result: the kernel multiplies in float64."""
    err = np.abs(np.asarray(got, dtype=LD) - np.asarray(want, dtype=LD))
    rounding = np.spacing(np.abs(np.asarray(want, dtype=float))) if got.dtype == float else 0.0
    return bool(np.all(err <= k * EPS64 * np.max(scale) + rounding))


def _check_kernel_against_reference(n, size):
    grid = make_grid(n, size)
    analysis, synthesis, derivative = kernel_reference_tables(n, size)
    eigs = grid.laplacian_eigenvalues
    # two smooth fields, and white noise: every degree is nonzero, so the
    # derivative's suffix sums run over all of them
    white = np.random.default_rng(0).standard_normal(size)
    for v in (np.exp(np.cos(grid.theta)), 1.0 / (1.05 - np.cos(grid.theta)), white):
        vl = v.astype(LD)
        coeffs = _filtered(analysis @ vl)
        # the scale of each product: |table| |vector|, the bound of its roundoff
        c_scale = np.abs(analysis) @ np.abs(vl)
        assert _within(grid.analyze(v), coeffs, c_scale)
        if v is not white:
            # the reference's own synthesis of white coefficients is at its
            # limit past about degree 96 (22 eps_ld of its scale at n = 104,
            # N = 256), so only the smooth fields check it
            assert _within(grid.synthesize_ld(coeffs), synthesis @ coeffs,
                           np.abs(synthesis) @ np.abs(coeffs))
        mult = eigs.astype(LD)
        assert _within(grid.apply_multiplier(v, eigs), synthesis @ (mult * coeffs),
                       np.abs(synthesis) @ (mult * (np.abs(coeffs) + c_scale)))
        assert _within(grid.differentiate(v), derivative @ coeffs,
                       np.abs(derivative) @ (np.abs(coeffs) + c_scale))


@pytest.mark.parametrize("n", [4, 104])
def test_kernel_matches_longdouble_reference(n):
    # the odd grid has a centre node, its own mirror in the fold
    for size in (256, 97):
        _check_kernel_against_reference(n, size)


@pytest.mark.parametrize("size", [97, 256])
def test_tables_take_8_n_squared_bytes(size):
    grid = make_grid(4, size)
    grid.differentiate(grid.nodes)
    # every table the grid holds, including any a transform may have added:
    # two tables of two K x K float64 blocks, K = ceil(N/2)
    tables = [t for t in vars(grid).values() if isinstance(t, zonal._Table)]
    used = sum(t.blocks.nbytes for t in tables)
    assert used <= 8 * size**2 + 16 * size + 8


def test_grid_build_peaks_at_16_n_squared_bytes():
    # two (N, K) longdouble arrays are alive at once, 16 N^2 bytes: the basis
    # and its scaled copy for the weights, then the basis and both tables;
    # the rest is O(N) vectors
    size = 1024
    tracemalloc.start()
    try:
        zonal.ZonalGrid(4, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * size**2 + 256 * size


@pytest.mark.parametrize("n", [4, 104])
def test_zero_vector_round_trips(n):
    grid = make_grid(n, 64)
    zero = np.zeros(grid.size)
    assert not np.any(grid.analyze(zero))
    assert not np.any(grid.synthesize_ld(zero))
    assert not np.any(grid.apply_multiplier(zero, grid.laplacian_eigenvalues))
    assert not np.any(grid.differentiate(zero))


@pytest.mark.parametrize("n", [4, 104])
def test_single_coefficient_round_trips(n):
    grid = make_grid(n, 64)
    for i in (0, grid.size // 2, grid.size - 1):
        mode = np.zeros(grid.size)
        mode[i] = 3.0
        back = grid.analyze(grid.synthesize_ld(mode))
        assert np.abs(back - mode).max() < 1e-15


def test_single_value_round_trips(grid4_small):
    # the synthesis of the analysis is the identity on the grid; the bound is
    # the multiplier's product scale of ``_within``, at the multiplier 1
    grid = grid4_small
    analysis, synthesis, _ = kernel_reference_tables(4, grid.size)
    for i in (0, grid.size // 2, grid.size - 1):
        spike = np.zeros(grid.size)
        spike[i] = 3.0
        c = grid.analyze(spike)
        c_scale = np.abs(analysis) @ np.abs(spike.astype(LD))
        assert _within(grid.synthesize_ld(c), spike, np.abs(synthesis) @ (np.abs(c) + c_scale))


# -- stacks of fields: one GEMM per transform ----------------------------------

_SMOOTH = (lambda th: np.exp(np.cos(th)), lambda th: 1.0 / (1.05 - np.cos(th)))


@functools.lru_cache(maxsize=None)
def _grid_and_tables(n, size=256):
    return make_grid(n, size), kernel_reference_tables(n, size)


def _stack(grid, count):
    """The reference test's two smooth fields, then seeded random ones."""
    smooth = [fn(grid.theta) for fn in _SMOOTH]
    return np.vstack(smooth + [random_zonal(grid, np.arange(count), 48, 1.0, 0.05).values])[:count]


def _transforms(grid):
    eigs = grid.laplacian_eigenvalues
    return {
        "analyze": grid.analyze,
        "synthesize": grid.synthesize_ld,
        "multiplier": lambda v: grid.apply_multiplier(v, eigs),
        "differentiate": grid.differentiate,
    }


@pytest.mark.parametrize("count", [None, 1, 3])
def test_transforms_return_float64(grid4_small, count):
    # coefficients and values alike, for a lone field and a stack
    grid = grid4_small
    values = _stack(grid, count or 1)[0 if count is None else slice(None)]
    for name, transform in _transforms(grid).items():
        out = transform(values)
        assert out.dtype == np.float64 and out.shape == values.shape, name
    coeffs = ZonalField(grid, values).coefficients()
    assert coeffs.dtype == np.float64
    assert np.array_equal(coeffs, grid.analyze(values))


def test_values_past_the_float_range_are_refused_by_name():
    # |c_0| = sqrt(omega_4) 1.5e308 of a constant field, the Laplacian's
    # l(l+3) c_l of a white 1e307 field, and a synthesis of 1e308 per mode
    # leave the float range: each raises OverflowError, with no numpy
    # RuntimeWarning and no inf returned
    grid = make_grid(4, 32)
    transforms = _transforms(grid)
    const = np.full(grid.size, 1.5e308)
    white = 1e307 * np.random.default_rng(0).standard_normal(grid.size)
    refused = [("analyze", const), ("multiplier", const), ("differentiate", const),
               ("multiplier", white), ("differentiate", white),
               ("synthesize", np.full(grid.size, 1e308))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(grid.analyze(np.full(grid.size, 1e300))))
        assert np.all(np.isfinite(grid.analyze(white)))
        for name, values in refused:
            with pytest.raises(OverflowError, match="exceeds the float maximum"):
                transforms[name](values)


@pytest.mark.parametrize("n", [4, 104])
@pytest.mark.parametrize("count", [1, 3, 100])
def test_stacked_transforms_match_row_by_row(n, count):
    for size in (256, 97):  # the odd grid has a centre node
        _check_stack_row_by_row(n, size, count)


def _check_stack_row_by_row(n, size, count):
    grid, (analysis, synthesis, derivative) = _grid_and_tables(n, size)
    values = _stack(grid, count)
    coeffs = grid.analyze(values)
    mult = grid.laplacian_eigenvalues.astype(LD)
    stacked = {name: fn(coeffs if name == "synthesize" else values)
               for name, fn in _transforms(grid).items()}
    for r in range(count):
        v, c = values[r].astype(LD), coeffs[r]
        c_scale = np.abs(analysis) @ np.abs(v)
        scales = {
            "analyze": c_scale,
            "synthesize": np.abs(synthesis) @ np.abs(c),
            "multiplier": np.abs(synthesis) @ (mult * (np.abs(c) + c_scale)),
            "differentiate": np.abs(derivative) @ (np.abs(c) + c_scale),
        }
        for name, fn in _transforms(grid).items():
            row = fn(c if name == "synthesize" else values[r])
            assert _within(stacked[name][r], row, scales[name]), (size, name, r)
        # each row is filtered against its own floor, as it would be alone: a
        # decision may differ only where the coefficient the other side kept
        # lies within the kernel's rounding of that floor
        alone = grid.analyze(values[r])
        flipped = (c == 0) != (alone == 0)
        kept = np.maximum(np.abs(c), np.abs(alone))[flipped]
        floor = _FILTER_FLOOR * np.sqrt(np.sum(alone * alone))
        assert _within(kept, np.full_like(kept, floor), c_scale), (size, r)


@pytest.mark.parametrize("n", [4, 104])
def test_single_row_stack_is_bit_identical(n):
    grid, _ = _grid_and_tables(n)
    for v in (fn(grid.theta) for fn in _SMOOTH):
        c = grid.analyze(v)
        for name, fn in _transforms(grid).items():
            arg = c if name == "synthesize" else v
            assert np.array_equal(fn(arg[None])[0], fn(arg)), name


@pytest.mark.parametrize("shape", [(3, 95), (3, 97), (2, 3, 96), (0, 96), ()])
def test_field_rejects_bad_stack_shapes(grid4_small, shape):
    with pytest.raises(GridMismatchError):
        ZonalField(grid4_small, np.ones(shape))


def test_stack_broadcasts_against_a_field(grid4_small):
    grid = grid4_small
    stack = random_zonal(grid, np.arange(3), 16, 1.0, 0.1)
    one = constant_field(grid, 2.0)
    assert np.array_equal((stack * one).values, 2.0 * stack.values)
    assert integrate(stack).shape == inner(stack, one).shape == lp_norm(stack, 4.0).shape == (3,)
    for r in range(3):
        row = ZonalField(grid, stack.values[r])
        assert integrate(stack)[r] == pytest.approx(integrate(row), rel=1e-14)
        assert inner(stack, one)[r] == pytest.approx(inner(row, one), rel=1e-14)
        assert lp_norm(stack, 4.0)[r] == pytest.approx(lp_norm(row, 4.0), rel=1e-14)


def _floored_recipe(grid, normals):
    rough = synthesize(grid, normals / (1.0 + np.arange(17))).values
    return 1e-3 + 0.5 * (rough - rough.min(axis=-1, keepdims=True))


def _band_limited_recipe(grid, normals):
    rough = synthesize(grid, normals * np.exp(-((np.arange(17) / 5.0) ** 2))).values
    return 0.3 * rough / np.abs(rough).max(axis=-1, keepdims=True)


_SEEDED_FIELDS = [lambda g, s: random_zonal(g, s, 16, 0.5, 1e-3),
                  lambda g, s: random_band_limited(g, s, 16, 0.3)]
_SEEDED_RECIPES = [_floored_recipe, _band_limited_recipe]


@pytest.mark.parametrize("make", _SEEDED_FIELDS)
def test_seed_array_matches_per_seed_fields(grid4, make):
    # one generator draws a seed array's rows: the stack is its recipe, written
    # out, on the rows of default_rng(list(seeds)), bit for bit; and a one-seed
    # array is the int seed's field, since a one-element entropy list seeds
    # the same stream as the seed alone; seeds on either side of 2^32, where
    # the draw stops passing the seeds as a uint32 array, included
    recipe = _SEEDED_RECIPES[_SEEDED_FIELDS.index(make)]
    seeds = np.array([5, 17, 4000])
    stack = make(grid4, seeds).values
    normals = np.random.default_rng(list(seeds)).standard_normal((3, 17))
    assert np.array_equal(stack, recipe(grid4, normals))
    for seed in (5, 40243, 2**32 - 1, 2**32, 2**40 + 3):
        assert np.array_equal(make(grid4, np.array([seed])).values[0], make(grid4, seed).values)


@pytest.mark.parametrize("seed", [np.arange(1000), np.array([5, 2**32 - 1]),
                                  np.array([5, 2**32]), np.array([2**64 - 1], dtype=np.uint64),
                                  np.array([3, 2**70], dtype=object)])
def test_normals_are_the_seed_lists_stream(seed):
    # seed arrays that lie in [0, 2^32) go to the generator as a uint32 array,
    # any other as the list; both must draw the list's numbers bit for bit
    want = np.random.default_rng(np.ravel(seed).tolist()).standard_normal(np.shape(seed) + (5,))
    assert np.array_equal(zonal._normals(seed, 5), want)


def test_int_seed_fields_keep_their_arithmetic(grid4):
    # the per-field recipes, written out: an int seed must reproduce them bit for bit
    coeffs = np.random.default_rng(42).standard_normal(17) / (1.0 + np.arange(17))
    rough = synthesize(grid4, coeffs).values
    assert np.array_equal(random_zonal(grid4, 42, 16, 0.5, 1e-3).values,
                          1e-3 + 0.5 * (rough - rough.min()))
    coeffs = np.random.default_rng(42).standard_normal(17) * np.exp(-((np.arange(17) / 5.0) ** 2))
    rough = synthesize(grid4, coeffs).values
    assert np.array_equal(random_band_limited(grid4, 42, 16, 0.3).values,
                          0.3 * rough / np.abs(rough).max())


def test_band_limited_zeroes_only_zero_rows(grid4_small, monkeypatch):
    draw = zonal._normals

    def with_zero_row(seed, count):
        out = draw(seed, count)
        out[1] = 0.0
        return out

    monkeypatch.setattr(zonal, "_normals", with_zero_row)
    stack = random_band_limited(grid4_small, np.arange(3), 16, 0.3).values
    assert not np.any(stack[1])
    assert np.all(np.isfinite(stack))
    for r in (0, 2):
        assert np.abs(stack[r]).max() == pytest.approx(0.3, rel=1e-15)


# -- band-limited synthesis: the kernel reads only the degrees it needs --------

@functools.lru_cache(maxsize=None)
def _fresh_grid(size):
    return zonal.ZonalGrid(4, size)


def _poisoned_grid(size, band):
    """A copy of a fresh n = 4 grid whose synthesis table is NaN from degree
    ``band`` on: the even block's rows from ceil(band/2), the odd block's
    from floor(band/2)."""
    grid = copy.copy(_fresh_grid(size))
    table = grid._synthesis
    blocks = table.blocks.copy()
    blocks[0, (band + 1) // 2:] = np.nan
    blocks[1, band // 2:] = np.nan
    grid._synthesis = table._replace(blocks=blocks)
    return grid


def _band_limited(rng, shape, size):
    """Coefficients of degrees 0..L-1 for ``shape`` = (..., L), and the same
    zero-padded to the ``size`` degrees of the grid."""
    coeffs = rng.standard_normal(shape)
    padded = np.zeros(shape[:-1] + (size,))
    padded[..., : shape[-1]] = coeffs
    return coeffs, padded


@pytest.mark.parametrize("size", [160, 161])
@pytest.mark.parametrize("band", [0, 1, 16, 17, 49, 60, 85, 120, 159])
def test_band_limited_synthesis_reads_only_its_degree_pairs(size, band):
    # L coefficients, or N whose last N - L are zero, read the table rows of
    # the degrees below L alone, at any L
    grid = _poisoned_grid(size, max(band, 1))
    rng = np.random.default_rng(band)
    for shape in ((band,), (3, band)):
        coeffs, padded = _band_limited(rng, shape, size)
        for values in (synthesize(grid, coeffs).values, grid.synthesize_ld(padded)):
            assert values.shape == shape[:-1] + (size,)
            assert np.all(np.isfinite(values))
    assert not np.any(synthesize(grid, np.zeros(0)).values)


@pytest.mark.parametrize("size, band", [(size, band) for size in (256, 97)
                                        for band in (1, 16, 17, 49, 85, size)])
def test_band_limited_synthesis_round_trips(size, band):
    grid = make_grid(4, size)
    rng = np.random.default_rng(size + band)
    for shape in ((band,), (3, band)):
        coeffs, padded = _band_limited(rng, shape, size)
        got = synthesize(grid, coeffs).values
        assert np.array_equal(got, grid.synthesize_ld(padded))
        assert np.abs(grid.analyze(got) - padded).max() < 1e-12


def test_synthesis_refuses_more_coefficients_than_degrees(grid4_small):
    with pytest.raises(ValueError, match="exceed"):
        synthesize(grid4_small, np.ones(grid4_small.size + 1))
