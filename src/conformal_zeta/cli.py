"""Command-line interface.

Subcommands: constants, zeta, trace, functional, optimize, sweep, rates,
suite.  Structured output is JSON on stdout (17-significant-digit floats via
shortest repr), serialized in full before anything is written; sweeps write
CSV.  Exit codes: 0 success, 1 check failure, 2 usage error (including a
non-finite float flag, a grid size outside 16..2048 nodes, an odd dimension
or one outside 4..104, and an input that overflows a float), 3
numerical-consistency error or non-finite optimizer state.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import bubbles, fieldio, functionals, optimize, zeta
from .background import round_sphere_background
from .errors import ConsistencyError, SchemaError, ZeroFieldError
from .params import MAX_DIMENSION, VARIANTS, dim_params
from .spectra import SpectrumQuery
from .zonal import DEFAULT_GRID_SIZE, make_grid

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _write_file(path, text):
    """Write ``text`` to ``path`` via a temporary file in the same directory and a
    rename, so a failed write never leaves ``path`` half-written or changed."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(doc, path=None, indent=None):
    """Write ``doc`` as JSON to ``path`` or stdout, serializing it in full first."""
    text = json.dumps(doc, allow_nan=False, indent=indent) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    _write_file(path, text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="conformal-zeta", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, mass_field=False):
        p.add_argument("--n", type=int, required=True,
                       help=f"even sphere dimension in 4..{MAX_DIMENSION}")
        p.add_argument("--variant", choices=VARIANTS, default="paper")
        p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_SIZE, help="collocation size N")
        if mass_field:
            p.add_argument("--mass-field", default=None,
                           help="field file with normalized-mass data on the round sphere")

    p = sub.add_parser("constants", help="print the dimensional constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="paper")

    p = sub.add_parser("zeta", help="Laurent data of the spectral series at s=1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=("sphere", "projective"), required=True)

    p = sub.add_parser("trace", help="sphere trace of a conformal factor from a field file")
    add_common(p)
    p.add_argument("--profile", required=True, help="field file for the conformal factor")

    p = sub.add_parser("functional", help="functional report for a conformal factor")
    add_common(p, mass_field=True)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("optimize", help="maximize the mass functional")
    add_common(p, mass_field=True)
    p.add_argument("--tol", type=float, default=optimize.OptimizerConfig.tol_residual)
    p.add_argument("--seed", type=int, default=optimize.OptimizerConfig.seed)
    p.add_argument("--out", default=None, help="write the result JSON here instead of stdout")

    p = sub.add_parser("sweep", help="mass functional along the glued-bubble family")
    add_common(p, mass_field=True)
    p.add_argument("--alphas", required=True, metavar="A:B:M",
                   help="M log-spaced concentration scales from A to B")
    p.add_argument("--epsilon", type=float, default=bubbles.SWEEP_EPSILON_DEFAULT)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("rates", help="fit the second-moment decay branch")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--cap", type=float, default=bubbles.RATE_CAP_DEFAULT)

    p = sub.add_parser("suite", help="run the acceptance checks")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.add_argument("--checks", nargs="*", default=None,
                   help="restrict to these check names (trailing * for prefixes)")
    p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_SIZE)
    return top


def _parse_alphas(raw: str) -> np.ndarray:
    try:
        lo, hi, count = raw.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if not (0 < lo < hi < math.inf) or count < 2:
            raise ValueError
    except ValueError:
        raise SchemaError("expected A:B:M with finite 0 < A < B and integer M >= 2", "--alphas")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _background(args):
    grid = make_grid(args.n, args.grid_n)
    mnor = None
    if getattr(args, "mass_field", None):  # trace takes no mass field
        mnor = fieldio.read_field(args.mass_field, grid)
    return round_sphere_background(args.n, grid, variant=args.variant, mnor=mnor)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag in ("k", "cap", "epsilon", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise SchemaError("expected a finite number", f"--{flag}")

    if args.command == "constants":
        params = dim_params(args.n, args.variant)
        _emit({
            "n": params.n, "m": params.m, "p": params.p, "a_n": params.a_n,
            "c_n": params.c_n, "b_n": params.b_n, "omega_n": params.omega_n,
            "yamabe_sphere": params.yamabe_sphere, "variant": params.variant,
        })
        return EXIT_OK

    if args.command == "zeta":
        lv = zeta.spectral_zeta_at_one(SpectrumQuery(space=args.space, n=args.n))
        _emit({"residue": lv.residue, "finite_part": lv.finite_part, "at": lv.at})
        return EXIT_OK

    if args.command == "trace":
        bg = _background(args)
        u = fieldio.read_field(args.profile, bg.grid)
        _emit({"trace": functionals.conformal_trace(u, bg)})
        return EXIT_OK

    if args.command == "functional":
        bg = _background(args)
        u = fieldio.read_field(args.profile, bg.grid)
        rep = functionals.functional_report(u, bg)
        _emit({
            "mass_functional": rep.mass_functional,
            "yamabe_functional": rep.yamabe_functional,
            "trace": rep.trace, "volume": rep.volume, "sobolev_gap": rep.sobolev_gap,
        })
        return EXIT_OK

    if args.command == "optimize":
        bg = _background(args)
        opt_cfg = optimize.OptimizerConfig(tol_residual=args.tol, seed=args.seed)
        res = optimize.maximize_mass_functional(bg, opt_cfg)
        _emit(fieldio.result_document(res), args.out)
        return EXIT_OK if res.converged else EXIT_CHECK_FAILURE

    if args.command == "sweep":
        bg = _background(args)
        try:
            rows = bubbles.concentration_sweep(_parse_alphas(args.alphas), args.epsilon, bg)
        except ZeroFieldError as exc:
            raise SchemaError(f"{exc}; use a larger grid", "--grid-n") from exc
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["alpha", "M_psi", "sphere_value", "margin", "mu"])
        for r in rows:
            writer.writerow([repr(v) for v in (r.alpha, r.m_psi, r.sphere_value, r.margin, r.mu)])
        _write_file(args.out, text.getvalue())
        return EXIT_OK

    if args.command == "rates":
        alphas = np.logspace(-3, -1, 25)
        try:
            vals = [bubbles.bubble_moment(a, args.cap, args.k, args.n) for a in alphas]
        except OverflowError as exc:
            top = args.cap / float(alphas[0])
            raise SchemaError(
                f"the moment integrand t^(n+k-1) overflows at t = cap/alpha = {top:g} for "
                f"n={args.n}, k={args.k:g}: (n + k - 1) ln({top:g}) must stay below "
                f"{math.log(sys.float_info.max):.1f}", "--n/--k") from exc
        fit = bubbles.fit_decay_rate(alphas, vals, args.n, args.k)
        _emit({
            "n": args.n, "k": fit.k, "exponent_fit": fit.exponent_fit,
            "log_factor_detected": fit.log_factor_detected, "r2": fit.r2,
            "predicted": fit.predicted,
        })
        return EXIT_OK

    if args.command == "suite":
        from . import acceptance  # here, so the other commands skip its import

        report = acceptance.run_suite(names=args.checks, grid_size=args.grid_n)
        doc = report.to_json_dict()
        if args.out:
            _emit(doc, args.out, indent=2)
        _emit(doc)
        return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILURE

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"numerical consistency error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: input outside the float range ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
