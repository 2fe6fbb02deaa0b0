"""Run one CLI invocation with the layer spans installed.

    python perfbench/trace_cli.py SUMMARY.json <cli arguments...>

Times the package import, installs the wrappers from ``tracing``, calls
``conformal_zeta.cli.main(argv)`` and writes the span summary plus the import
time to SUMMARY.json.  stdout and the exit code are the CLI's own, so they can
be compared with an untraced ``python -m conformal_zeta`` run of the same
arguments.  The caller puts the checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
import time

import tracing

if __name__ == "__main__":
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from conformal_zeta import cli
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(argv)
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    sys.exit(code)
