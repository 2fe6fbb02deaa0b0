"""Acceptance gate: every registered check runs at its registered tolerance.

No registered target disagrees with the package's exact-rational oracle, so
``KNOWN_DISPUTED_CHECKS`` is empty and every check must pass.  The two
real-projective-space targets were corrected to the oracle values (+1/36 and
1/(24 pi^2)); see the README for the former values and where they came from.
"""

from fractions import Fraction

import pytest

from conformal_zeta import laws
from conformal_zeta.acceptance import CHECK_NAMES, KNOWN_DISPUTED_CHECKS, run_suite
from conformal_zeta.zeta import rational_finite_part
from conformal_zeta.zonal import DEFAULT_GRID_SIZE


@pytest.fixture(scope="session")
def suite_report():
    return run_suite()


def _fmt(check):
    return (f"{check.name}: value={check.value!r} expected={check.expected!r} "
            f"tol={check.tolerance!r} [{check.provenance}]"
            + (f" ({check.note})" if check.note else ""))


def test_registry_is_complete(suite_report):
    assert tuple(c.name for c in suite_report.checks) == tuple(sorted(CHECK_NAMES))


def test_overall_flag_is_conjunction(suite_report):
    assert suite_report.overall_pass == all(c.passed for c in suite_report.checks)


def test_every_check_carries_provenance(suite_report):
    assert all(c.provenance in {"paper", "derived", "trivial"} for c in suite_report.checks)


@pytest.mark.parametrize("name", sorted(CHECK_NAMES))
def test_criterion(name, suite_report):
    check = next(c for c in suite_report.checks if c.name == name)
    print(("PASS  " if check.passed else "FAIL  ") + _fmt(check))
    assert check.passed, _fmt(check)


def test_disputed_targets_are_exactly_the_known_ones(suite_report):
    failing = tuple(c.name for c in suite_report.checks if not c.passed)
    assert failing == tuple(sorted(KNOWN_DISPUTED_CHECKS))


def test_disputed_projective_target_diagnosis():
    # The former registered +1/18 is what the rational oracle returns for the
    # lattice of degrees l = 0, 4, 8, ... (step-2 halving applied twice), while
    # the even-degree lattice of the actual projective stream gives +1/36.
    assert rational_finite_part(4, step=2) == Fraction(1, 36)
    assert rational_finite_part(4, step=4) == Fraction(1, 18)


def test_covariance_subset_with_jobs_argument(suite_report):
    # the benchmark's identity-residual probe; ``jobs`` is accepted and ignored
    report = run_suite(names=["covariance_*"], jobs=1)
    assert [c.name for c in report.checks] == [
        "covariance_normalized_mass", "covariance_p_operator", "covariance_yamabe"]
    full = {c.name: c for c in suite_report.checks}
    assert all(c == full[c.name] for c in report.checks)
    assert report.environment["grid_N"] == DEFAULT_GRID_SIZE


@pytest.mark.parametrize("names", [["nope"], ["zeta_*", "rate_n4_k1"], []])
def test_unmatched_check_names_are_rejected(names):
    with pytest.raises(ValueError) as err:
        run_suite(names=names)
    for pat in names:
        if pat != "zeta_*":
            assert repr(pat) in str(err.value)
    assert "zeta_*" not in str(err.value)


def test_benchmark_warmup_patterns_match():
    report = run_suite(names=["zeta_*", "rate_*"])
    names = [c.name for c in report.checks]
    assert names == sorted(n for n in CHECK_NAMES if n.startswith(("zeta_", "rate_")))
    assert len(names) == 8


def _refuse(*args, **kwargs):
    raise AssertionError("a producer outside the filter ran")


def test_transport_filter_skips_covariance_loop(monkeypatch, suite_report):
    monkeypatch.setattr(laws, "transform_background", _refuse)
    report = run_suite(names=["mass_transport_ode"])
    full = {c.name: c for c in suite_report.checks}
    assert report.checks == (full["mass_transport_ode"],)


def test_covariance_filter_skips_transport_march(monkeypatch, suite_report):
    monkeypatch.setattr(laws, "mass_transport_ode", _refuse)
    report = run_suite(names=["covariance_*"])
    full = {c.name: c for c in suite_report.checks}
    assert report.checks == tuple(full[c.name] for c in report.checks)
    assert len(report.checks) == 3


def test_seeded_loops_run_as_stacks(kernel_products):
    # 2 x 1000 Sobolev fields, 100 covariance pairs and 20 transport seeds
    # take 8,896 kernel products one field at a time; as stacks, under 300
    report = run_suite(names=["sobolev_*", "covariance_*", "mass_transport_ode"])
    assert len(report.checks) == 7 and report.overall_pass
    assert len(kernel_products) <= 300


def test_sobolev_checks_analyze_each_stack_once(kernel_products):
    # each Sobolev stack is synthesized once and analyzed once (88 products);
    # through a Laplacian and two grid inner products it took 136
    report = run_suite(names=["sobolev_*"])
    assert len(report.checks) == 3 and report.overall_pass
    assert len(kernel_products) <= 90


def test_optimizer_seeds_run_as_one_stack(kernel_products):
    # the 10 sphere seeds take 1,118 kernel products one field at a time; as
    # one lockstep stack with a stacked certificate, under 250
    report = run_suite(names=["optimizer_*"])
    assert len(report.checks) == 3 and report.overall_pass
    assert len(kernel_products) <= 250
