#!/usr/bin/env python3
"""Run the full acceptance suite and print a human-readable table.

    python scripts/run_suite.py [--out report.json] [--grid-n 256]

The Sobolev and optimizer producers run in a forked worker beside the
others where two CPUs are usable (``acceptance.run_suite``); where the fork
or the worker fails, they run in this process instead.  Each row shows
the check's value and its margin, the distance to its gate (``Check.margin``;
negative for a failing check); then each producer's wall time and the
process that ran it.  The JSON report goes to
``acceptance_report.json`` next to this script (ignored by git) unless --out
is given; exits 0 only when every registered check passes.
"""

import argparse
import json
import sys
from pathlib import Path

from conformal_zeta.acceptance import run_suite
from conformal_zeta.fieldio import write_text
from conformal_zeta.params import DEFAULT_GRID_SIZE


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(Path(__file__).with_name("acceptance_report.json")))
    ap.add_argument("--grid-n", type=int, default=DEFAULT_GRID_SIZE)
    args = ap.parse_args()

    report = run_suite(grid_size=args.grid_n)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  value={c.value:+.9e}  margin={c.margin:+.2e}  "
              f"[{c.provenance}]")
    print(f"\noverall: {'PASS' if report.overall_pass else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)})")
    producers = report.environment.get("producers", {})
    if producers:
        print("\nproducer wall times:")
    for name, run in producers.items():
        print(f"  {name:<10}  {1e3 * run['seconds']:8.1f} ms  ({run['process']})")

    # serialize in full first, so a non-finite value leaves no truncated file
    text = json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"
    write_text(args.out, text)
    print(f"report written to {args.out}")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
