#!/usr/bin/env python3
"""Tier-1 and every acceptance check under each of OpenBLAS's x86 GEMM kernels.

    python scripts/kernel_matrix.py

numpy's bundled OpenBLAS carries a GEMM kernel per CPU family and picks one
when it loads; OPENBLAS_CORETYPE in a process's environment selects another.
Each kernel sums a GEMM in its own order, so check values move in their last
digits from one kernel to the next.  For each kernel of KERNELS this script
starts child processes with OPENBLAS_CORETYPE set (unset for ``default``):
one runs the Tier-1 tests, one runs ``run_suite()`` at N = 256 and reports
the kernel's own name as OpenBLAS gives it ("unknown" where numpy's OpenBLAS
does not export it).  It prints the Tier-1 summary and each check's value and
margin (``Check.margin``, the distance to its gate) per kernel, with the
tests that failed, and exits 1 if any run or any check fails.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("default", "Haswell", "Sandybridge", "Prescott")
GRID_SIZE = 256

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SUITE = ["-c", "import kernel_matrix; kernel_matrix.suite_child()"]


def corename() -> str:
    """The GEMM kernel numpy's OpenBLAS runs on, by its own name."""
    import ctypes

    from conformal_zeta.acceptance import bundled_openblas

    try:
        get = bundled_openblas().scipy_openblas_get_corename64_
    except AttributeError:  # no bundled library, or one that does not export it
        return "unknown"
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def suite_document(report, kernel: str) -> dict:
    """A suite run as the child prints it: the kernel's name, and per check
    its value, margin and pass flag."""
    return {"kernel": kernel,
            "checks": {c.name: [c.value, c.margin, c.passed] for c in report.checks}}


def suite_child() -> None:
    from conformal_zeta.acceptance import run_suite

    print(json.dumps(suite_document(run_suite(grid_size=GRID_SIZE), corename())))


def run_child(kernel: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``python argv`` from the repository root, with ``kernel`` selected."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    paths = [str(ROOT / "src"), str(ROOT / "scripts"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def main() -> int:
    ok, suites = True, {}
    for kernel in KERNELS:
        tier1 = run_child(kernel, TIER1)
        suite = run_child(kernel, SUITE)
        ok &= tier1.returncode == 0 and suite.returncode == 0
        print(f"{kernel}: Tier-1 {'passed' if tier1.returncode == 0 else 'FAILED'}: "
              f"{last_line(tier1.stdout)}")
        for line in tier1.stdout.splitlines():
            if line.startswith(("FAILED ", "ERROR ")):
                print(f"    {line}")
        if suite.returncode:
            print(f"{kernel}: run_suite FAILED: {last_line(suite.stderr)}")
            continue
        suites[kernel] = json.loads(last_line(suite.stdout))
    names = sorted({name for doc in suites.values() for name in doc["checks"]})
    width = max((len(name) for name in names), default=5)
    labels = [f"{kernel} ({doc['kernel']})" for kernel, doc in suites.items()]
    print(f"\n{'check':<{width}}" + "".join(f"  {label:<32}" for label in labels))
    for name in names:
        cells = []
        for doc in suites.values():
            value, room, passed = doc["checks"].get(name, [math.nan, math.nan, False])
            ok &= passed
            cells.append(f"  {value:+.10e} {room:+.2e} {'ok' if passed else 'FAIL':<4}")
        print(f"{name:<{width}}" + "".join(cells))
    print(f"\noverall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
