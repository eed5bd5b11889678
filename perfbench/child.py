"""One round of a workload: import the CLI, run its commands, report.

Usage: python3 child.py TRACE SPEC_JSON, with the checkout's ``src`` on
PYTHONPATH.  TRACE is 0 or 1.  SPEC_JSON names the commands and how many
times to repeat the list.  The last line of standard output is a JSON
object with the import timestamp, each invocation's wall time and report
text, the peak resident memory and, when traced, the per-layer figures.
"""

import sys
import time

TRACE = sys.argv[1] == "1"
started = time.monotonic()
if TRACE:
    # The split of cli.import_s: numerical dependencies, then the package.
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401

    deps_imported = time.monotonic()
import logassign.cli  # noqa: E402

imported = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed kernel that uses no logassign code.

    It mixes what the layers do: quadrature over a Python integrand, row
    operations on a vector of 1000 floats, and plain bytecode.  Timed next
    to every pass, it measures how fast the machine is running just then.
    """
    start = time.perf_counter()
    for _ in range(20):
        for rho in (0.5, 3.0, 40.0, 900.0):
            quad(lambda t: t ** -0.5 * math.exp(-t), 0.0, rho, epsabs=0.0, epsrel=1e-11,
                 limit=200)
    row = np.linspace(0.0, 1.0, 1000)
    best = np.zeros(1000)
    for _ in range(1200):
        reduced = row - best
        better = reduced < 0.5
        best[better] = reduced[better]
        int(np.argmin(reduced))
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_command(args, tracer):
    """Run one CLI invocation in-process; returns (error or None, wall_s, text)."""
    out = io.StringIO()
    kwargs = {"args": args, "prog_name": "logassign", "standalone_mode": False}
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            if tracer is None:
                logassign.cli.main.main(**kwargs)
            else:
                tracer.call("cli.main", logassign.cli.main.main, (), kwargs)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit code {exc.code}"
        except Exception as exc:  # a failed command is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return error, wall, out.getvalue()


def main():
    spec = json.loads(sys.argv[2])
    source = os.path.realpath(spec["src"])
    loaded = os.path.realpath(logassign.cli.__file__)
    if not loaded.startswith(source + os.sep):
        raise SystemExit(f"logassign was imported from {loaded}, not from {source}")
    tracer = None
    if TRACE:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    commands = []
    kernel_s = [calibrate()]
    for _ in range(spec["repeats"]):
        for args in spec["commands"]:
            error, wall, text = run_command(args, tracer)
            commands.append({"error": error, "wall_s": wall, "text": text})
        kernel_s.append(calibrate())
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"imported": imported, "commands": commands, "kernel_s": kernel_s,
              "peak_rss_mb": kib / 1024.0}
    if TRACE:
        result["import"] = {
            "cli.import_s": imported - started,
            "cli.import.scipy_s": deps_imported - started,
            "cli.import.logassign_s": imported - deps_imported,
        }
        result["layers"] = layertrace.layer_metrics(tracer)
        result["spans_self_s"] = sum(layertrace.self_times(tracer.spans))
        with open(spec["spans_path"], "w") as handle:
            for record in layertrace.dump(tracer):
                handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
