import dataclasses
import math

import numpy as np
import pytest

import conformal_zeta.optimize as optimize
from conformal_zeta.acceptance import SUITE_SEED
from conformal_zeta.background import round_sphere_background
from conformal_zeta.functionals import dilation_factor, mass_functional
from conformal_zeta.laws import mass_pushforward, p_operator_apply
from conformal_zeta.optimize import (certify, fit_dilation_orbit, maximize_mass_functional,
                                     maximize_stack, seeded_start)
from conformal_zeta.zonal import ZonalField, constant_field, random_zonal


@pytest.fixture(scope="module")
def sphere4(grid4):
    return round_sphere_background(4, grid4, variant="paper")


@pytest.fixture(scope="module")
def bump4(grid4):
    mnor = ZonalField(grid4, 0.02 * np.exp(-grid4.theta**2 / 0.1))
    return round_sphere_background(4, grid4, variant="paper", mnor=mnor)


def sphere_value(bg):
    return -bg.params.b_n * bg.params.yamabe_sphere


def test_constant_start_needs_no_iterations(grid4, sphere4):
    res = maximize_mass_functional(sphere4, start=constant_field(grid4, 1.0))
    assert res.converged
    assert res.iterations <= 1
    assert res.residual < 1e-10
    assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-12)


def test_perturbed_start_recovers_orbit(grid4, sphere4):
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert res.converged
    assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-6)
    t_hat, gap = fit_dilation_orbit(res.u_star, sphere4)
    assert gap < 1e-4


@pytest.mark.parametrize("t0", [-2.0, 0.3, 1.7])
def test_orbit_fit_recovers_a_dilation(grid4, sphere4, t0):
    t_hat, gap = fit_dilation_orbit(dilation_factor(t0, grid4), sphere4)
    assert abs(t_hat - t0) <= 1e-8
    assert gap <= 1e-12


def test_seed_independence(grid4, sphere4):
    values = [maximize_mass_functional(sphere4, seeded_start(grid4, s)).value
              for s in range(3)]
    target = sphere_value(sphere4)
    for v in values:
        assert v == pytest.approx(target, rel=1e-6)


def test_positive_mass_data_raises_value(grid4, bump4):
    res = maximize_mass_functional(bump4, seeded_start(grid4, 1))
    assert res.converged
    assert res.value > sphere_value(bump4) + 1e-4
    assert res.mass_reldev < 1e-6
    # consistency: mass mean equals -Lambda at unit p-norm
    assert res.mass_mean == pytest.approx(-res.lam, rel=1e-8)


def test_history_monotone_within_stages(grid4, sphere4):
    start = ZonalField(grid4, 1.0 + 0.25 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert len(res.history) > 1  # the start and at least one accepted step
    assert np.all(np.diff(np.asarray(res.history)) >= 0)
    assert res.value >= res.history[0] - 1e-15


def test_non_convergence_is_reported(grid4, sphere4):
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start, tol=1e-30)  # below working precision
    assert not res.converged
    assert math.isfinite(res.residual)
    assert res.stop_reason == "polish_stalled"


@pytest.mark.parametrize("cap, reason", [("_MAX_ITERS", "max_iters"),
                                         ("_MAX_POLISH", "max_polish")])
def test_stop_reason_names_the_cap(grid4, sphere4, monkeypatch, cap, reason):
    monkeypatch.setattr(optimize, cap, 1)
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start, tol=1e-30)
    assert not res.converged
    assert res.stop_reason == reason


def test_rejects_nonpositive_start(grid4, sphere4):
    with pytest.raises(ValueError):
        maximize_mass_functional(sphere4, start=ZonalField(grid4, grid4.nodes.copy()))


def test_el_residual_on_constants(grid4, sphere4):
    lam, residual, _, _ = certify(constant_field(grid4, 1.0), sphere4)
    assert lam == pytest.approx(2.0 * sphere4.params.c_n, rel=1e-12)
    assert lam == pytest.approx(1 / (48 * math.pi**2), rel=1e-12)
    assert residual < 1e-12


def test_el_residual_on_dilations(grid4, sphere4):
    for t in (0.5, 1.0, 2.0):
        _, residual, _, _ = certify(dilation_factor(t, grid4), sphere4)
        assert residual < 1e-8


def test_el_residual_generic_field_is_reported(grid4, sphere4):
    u = random_zonal(grid4, 55, 10, 1.0, 0.3)
    lam, residual, _, _ = certify(u, sphere4)
    assert math.isfinite(lam)
    assert residual > 0  # generic non-solution; magnitude reported, not bounded


def test_el_residual_rejects_nonpositive(grid4, sphere4):
    with pytest.raises(ValueError):
        certify(ZonalField(grid4, grid4.nodes.copy()), sphere4)


def test_constant_mass_check_on_constants(grid4, sphere4):
    _, _, mean, reldev = certify(constant_field(grid4, 1.0), sphere4)
    b_n = sphere4.params.b_n
    assert mean == pytest.approx(-b_n * 12.0, rel=1e-12)
    assert reldev < 1e-12


def test_constant_mass_check_generic_field(grid4, sphere4):
    u = random_zonal(grid4, 56, 10, 1.0, 0.3)
    _, _, mean, reldev = certify(u, sphere4)
    assert math.isfinite(mean)
    assert reldev > 1e-3  # generic fields are far from constant mass


def test_optimum_solves_critical_equation(grid4, bump4):
    res = maximize_mass_functional(bump4, seeded_start(grid4, 2))
    lam, residual, _, _ = certify(res.u_star, bump4)
    assert residual < 1e-8
    assert lam == pytest.approx(res.lam, rel=1e-10)
    # the achieved value beats the start and matches the functional recomputed
    assert res.value == pytest.approx(mass_functional(res.u_star, bump4), rel=1e-12)


def _scalars(res):
    """Every field of a result but the optimum itself, which is an array."""
    return dataclasses.replace(res, u_star=None)


def test_the_default_start_is_the_default_seeds(grid4, bump4):
    default = maximize_mass_functional(bump4)
    seeded = maximize_mass_functional(bump4, start=seeded_start(grid4, 0))
    assert _scalars(default) == _scalars(seeded)
    assert np.array_equal(default.u_star.values, seeded.u_star.values)


def test_one_row_stack_is_the_single_run(grid4, bump4):
    start = optimize.seeded_start(grid4, 5)
    single = maximize_mass_functional(bump4, start=start)
    (row,) = maximize_stack(bump4, ZonalField(grid4, start.values[None]))
    assert _scalars(row) == _scalars(single)
    assert np.array_equal(row.u_star.values, single.u_star.values)
    assert single.iterations == single.ascent_steps + single.polish_steps
    assert single.ascent_steps > 0 and single.backtracks > 0


def test_stack_rows_keep_their_own_stage(grid4, sphere4, monkeypatch):
    # the constant start is exact; the mild start ascends to its plateau, where
    # its last line search stalls, and meets the tolerance at its one polish
    # step; the steep one runs into the ascent cap, and its one polish step
    # leaves it above the tolerance
    monkeypatch.setattr(optimize, "_MAX_ITERS", 10)
    monkeypatch.setattr(optimize, "_MAX_POLISH", 1)
    x = grid4.nodes
    starts = np.stack([np.ones(grid4.size), 1.0 + 1e-6 * x * x, 1.0 + 0.3 * x])
    const, mild, steep = maximize_stack(sphere4, ZonalField(grid4, starts))
    assert const.stop_reason == "tolerance_met" and const.iterations == 0
    assert mild.stop_reason == "tolerance_met"
    assert 1 <= mild.ascent_steps < 10 and mild.polish_steps == 1
    assert steep.stop_reason == "max_polish"
    assert (steep.ascent_steps, steep.polish_steps) == (10, 1)
    assert const.converged and mild.converged and not steep.converged
    # every line search found an increase but the mild start's stalled one
    assert [len(res.history) - 1 for res in (const, mild, steep)] == [0, mild.ascent_steps - 1, 10]
    for res in (const, mild, steep):
        assert res.iterations == res.ascent_steps + res.polish_steps
        assert np.all(np.diff(res.history) >= 0)
        assert res.converged == (res.residual <= 1e-8)


def test_stack_rows_meet_their_tolerance(grid4, sphere4):
    # each row against the lone run from its start: a seed array draws other
    # starts than its seeds one at a time, so the stack stacks the int seeds'
    starts = np.stack([optimize.seeded_start(grid4, seed).values for seed in range(4)])
    results = maximize_stack(sphere4, ZonalField(grid4, starts))
    for res, seed in zip(results, range(4)):
        assert res.converged and res.stop_reason == "tolerance_met"
        assert res.residual < 1e-8
        assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-6)
        single = maximize_mass_functional(sphere4, seeded_start(grid4, seed))
        assert res.value == pytest.approx(single.value, rel=1e-12)


def test_stack_rejects_a_nonpositive_row(grid4, sphere4):
    starts = np.stack([np.ones(grid4.size), grid4.nodes])
    with pytest.raises(ValueError):
        maximize_stack(sphere4, ZonalField(grid4, starts))


def test_orbit_fit_on_a_stack(grid4, sphere4):
    t0 = np.array([-2.0, 0.3, 1.7])
    t_hat, gap = fit_dilation_orbit(dilation_factor(t0[:, None], grid4), sphere4)
    assert t_hat.shape == gap.shape == (3,)
    assert np.all(np.abs(t_hat - t0) <= 1e-8)
    assert np.all(gap <= 1e-12)


def test_certificates_on_a_stack_match_row_by_row(grid4, bump4):
    stack = random_zonal(grid4, np.arange(60, 63), 10, 1.0, 0.3)
    rows = [ZonalField(grid4, v) for v in stack.values]
    stacked = certify(stack, bump4)
    singles = [certify(u, bump4) for u in rows]
    for got, want in zip(stacked, zip(*singles)):
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(mass_functional(stack, bump4),
                               [mass_functional(u, bump4) for u in rows], rtol=1e-12)


def test_certificates_refuse_a_stack_with_one_bad_row(grid4, bump4):
    stack = random_zonal(grid4, np.arange(60, 63), 10, 1.0, 0.3).values.copy()
    stack[1, 7] = 0.0
    for check in (certify, fit_dilation_orbit):
        with pytest.raises(ValueError):
            check(ZonalField(grid4, stack), bump4)
    stack[1] = 0.0
    with pytest.raises(ValueError):
        mass_functional(ZonalField(grid4, stack), bump4)


def test_certificate_applies_p_once(grid4, bump4, kernel_products):
    # the residual and the mass statistics share one P u: one Laplacian, an
    # analysis and a synthesis of the whole stack
    stack = random_zonal(grid4, np.arange(60, 63), 10, 1.0, 0.3)
    kernel_products.clear()
    certify(stack, bump4)
    assert kernel_products == [stack.values.shape] * 2


def test_certificate_agrees_with_the_mass_law(grid4, bump4):
    # the mass statistics are those of laws.mass_pushforward's field, bit for bit
    u = random_zonal(grid4, 56, 10, 1.0, 0.3)
    mass = mass_pushforward(u, bump4).values
    wnew = u.values ** bump4.params.p * grid4.weights
    _, _, mean, _ = certify(u, bump4)
    assert mean == optimize._row_dot(mass, wnew) / wnew.sum()


def test_rejected_first_trials_back_off(grid4, sphere4, monkeypatch):
    # a first step far too long: the opening line search backtracks before
    # any row has accepted a step
    monkeypatch.setattr(optimize, "_STEP0", 1e6)
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert res.converged and res.backtracks >= 10
    assert res.value == pytest.approx(sphere_value(sphere4), rel=1e-6)


def test_sphere_seeds_stop_at_working_precision(grid4, sphere4):
    # the suite's 10 seeds: halving until a trial rounded to the iterate takes
    # 740 rejected trials, stopping once the next trial's predicted gain is
    # below eps |M| 78 (708 and 79 with each seed drawn by its own generator)
    results = maximize_stack(sphere4, optimize.seeded_start(grid4, SUITE_SEED + np.arange(10)))
    assert all(res.stop_reason == "tolerance_met" for res in results)
    assert sum(res.backtracks for res in results) <= 100


def test_bump_run_hands_over_to_the_polish_sooner(grid4, bump4):
    # the suite's bump run: 52 rejected trials before the working-precision
    # stop, 21 with it
    res = maximize_mass_functional(bump4, seeded_start(grid4, SUITE_SEED))
    assert res.stop_reason == "tolerance_met" and res.polish_steps >= 1
    assert res.backtracks <= 30


def test_bump_run_applies_p_only_where_it_must(grid4, bump4, kernel_products):
    # the suite's bump run: 201 kernel products with P applied to every
    # trial; 89 with P applied at the start, in the polish and to clipped
    # rows, and a line-search trial's image taken from P's linearity; 87
    # with one P for the whole certificate (93 under OpenBLAS's Haswell GEMM)
    res = maximize_mass_functional(bump4, seeded_start(grid4, SUITE_SEED))
    assert res.stop_reason == "tolerance_met"
    assert len(kernel_products) <= 98


def test_bump_seeds_stop_after_a_polish_step(grid4, bump4):
    # a row whose ascent crosses the tolerance ascends on to its plateau, so
    # every row ends in a polish step; stopped inside the ascent, 8 of these
    # rows read a mass deviation of up to 1.7e-7 (7 rows and 2.1e-7 with each
    # seed drawn by its own generator)
    results = maximize_stack(bump4, optimize.seeded_start(grid4, SUITE_SEED + np.arange(20)))
    for res in results:
        assert res.stop_reason == "tolerance_met" and res.polish_steps >= 1
        assert res.mass_reldev <= 1e-8


def test_stall_rule_reads_the_predicted_gain(grid4, sphere4, monkeypatch):
    # with eps far above the gain of any step, the first rejected trial stalls
    # its line search and hands the row to the polish
    monkeypatch.setattr(optimize, "_EPS", 1e3)
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(sphere4, start=start)
    assert res.backtracks == 1


def test_capped_ascent_hands_its_residual_to_the_polish(grid4, bump4, monkeypatch):
    # after the last ascent step the cap allows, a polish step is taken only
    # if it lowers the residual of the point that step accepted
    monkeypatch.setattr(optimize, "_MAX_ITERS", 2)
    start = optimize.seeded_start(grid4, SUITE_SEED)
    monkeypatch.setattr(optimize, "_MAX_POLISH", 0)
    capped = maximize_mass_functional(bump4, start, tol=1e-30)
    monkeypatch.setattr(optimize, "_MAX_POLISH", 1)
    res = maximize_mass_functional(bump4, start, tol=1e-30)
    assert capped.ascent_steps == res.ascent_steps == 2
    assert res.polish_steps == 0 or res.residual < capped.residual


def test_line_search_images_come_from_linearity(grid4, bump4):
    # a trial u + s d along d = A^{-1} r has the image (P u + s P d) / nu, with
    # P d = r - m_nor d: for an unclipped ascent row it agrees with P taken
    # afresh within one ulp of c_n lambda_max ||u||, the most P can make of a
    # rounding of u's samples (the fresh side is the noisier one); a polish
    # row and a clipped row take P afresh, bit for bit, in one application
    c_n, eps, w = bump4.params.c_n, np.finfo(float).eps, grid4.weights
    eigen = grid4.laplacian_eigenvalues
    u, pu, _, r, _ = optimize._project(optimize.seeded_start(grid4, SUITE_SEED + np.arange(3)).values,
                                       bump4)
    assert np.array_equal(pu, p_operator_apply(ZonalField(grid4, u), bump4).values)
    d = grid4.apply_multiplier(r, 1.0 / (c_n * (eigen + 2.0)))  # A^{-1} r, n(n-2)/4 = 2
    steps = np.array([[0.5], [0.5], [40.0]])  # the last row dips below the floor
    trial, image = u + steps * d, pu + steps * (r - bump4.mnor.values * d)
    assert not np.any(trial[:2] < optimize._POSITIVITY_FLOOR)
    assert np.any(trial[2] < optimize._POSITIVITY_FLOOR)
    got, got_pu, *_ = optimize._project(trial, bump4, image, np.array([True, False, True]))
    fresh = p_operator_apply(ZonalField(grid4, got), bump4).values
    gap = np.sqrt((got_pu[0] - fresh[0]) ** 2 @ w)
    assert 0 < gap <= eps * c_n * eigen[-1] * np.sqrt(got[0] ** 2 @ w)
    assert np.array_equal(got_pu[1:], p_operator_apply(ZonalField(grid4, got[1:]), bump4).values)


@pytest.mark.parametrize("tol", [1e-14, 1e-13])
def test_a_tolerance_stop_is_certified(grid4, bump4, tol):
    # polish trials take P afresh, so the residual a run stops on is the one
    # the certificate recomputes; with images carried through the polish too,
    # the carried residual fell below these tolerances while the certified
    # one stayed 78 and 7 times above them: tolerance_met, converged false
    start = ZonalField(grid4, 1.0 + 0.3 * grid4.nodes)
    res = maximize_mass_functional(bump4, start, tol=tol)
    assert res.converged == (res.stop_reason == "tolerance_met")
