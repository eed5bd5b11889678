"""Benchmark of the logassign CLI: three workloads, timed and traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim-large --seed 0 --seconds 20 --trace 0

The run repeats rounds until ``--seconds`` have passed.  A round is one
fresh interpreter (``child.py``) that imports ``logassign.cli`` from the
checkout's ``src`` and runs the workload's commands in-process a few times
over, as a user invoking ``logassign`` would.  Every report is checked: the
command must succeed, its bytes must repeat across invocations, every row
must be finite, and where ``digests.json`` records the SHA-256 for this
workload and seed the bytes must match it.

With ``--trace 0`` the last line of output carries the end-to-end metrics,
medians over the run; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics of the traced rounds and the
tracing overhead.  ``perfbench/NOTES.md`` defines every metric.  A results
file with provenance is written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# Fewest rounds in a run, untraced and traced (a traced run also makes as
# many untraced rounds, to measure the tracing overhead).
MIN_ROUNDS = 5
MIN_TRACED_ROUNDS = 3
# No new round starts after this many seconds, and no round may take longer
# than the timeout, so even a much slower program ends within 180 s.
ROUND_CUTOFF_S = 90.0
ROUND_TIMEOUT_S = 40.0
# Nominal seconds of child.calibrate(); pass times are scaled by this over
# the kernel's measured time, so items_per_s reads at a fixed machine speed.
REFERENCE_KERNEL_S = 0.040
# BLAS and OpenMP pools inside the child stay single-threaded, so the
# two pool workers of --jobs 2 do not oversubscribe a 2-core machine.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SIM_LARGE_REPLICATES = 2
QUENCHED_REPLICATES = 10
PREDICT_STEP = 200
PREDICT_MODELS = ("uniform", "pareto:1.5")

# Per-layer metrics in these units are exact; they must repeat across rounds.
EXACT_UNITS = ("count", "bytes", "bytes-computed")


# (argv, sizes the report must list, items it counts toward items_per_s)
Command = tuple[list[str], list[int], int]


def sim_large(seed: int, nproc: int) -> list[Command]:
    sizes = [300, 600, 1000]
    argv = ["simulate", "exp", "--sizes", "300,600,1000", "--mode", "annealed",
            "--jobs", "1", "--replicates", str(SIM_LARGE_REPLICATES), "--seed", str(seed)]
    return [(argv, sizes, SIM_LARGE_REPLICATES * len(sizes))]


def sim_small_quenched(seed: int, nproc: int) -> list[Command]:
    sizes = list(range(10, 201, 10))
    argv = ["simulate", "pareto:3", "--sizes", "10..200:10", "--mode", "quenched",
            "--jobs", str(min(2, nproc)), "--replicates", str(QUENCHED_REPLICATES),
            "--seed", str(seed)]
    return [(argv, sizes, QUENCHED_REPLICATES * len(sizes))]


def predict_grid(seed: int, nproc: int) -> list[Command]:
    # The seed shifts the grid; n >= 16 keeps every asymptotic column
    # finite, and the grid always ends at 10**4.
    sizes = list(range(16 + seed % PREDICT_STEP, 10_000, PREDICT_STEP)) + [10_000]
    grid = ",".join(map(str, sizes))
    return [(["predict", model, grid], sizes, len(sizes)) for model in PREDICT_MODELS]


@dataclass(frozen=True)
class Workload:
    item: str  # what items_per_s counts
    # Times a round runs the command list; each pass is one throughput sample.
    repeats: int
    commands: Callable[[int, int], list[Command]]  # (seed, nproc) -> commands


WORKLOADS = {
    "sim-large": Workload("instances", 3, sim_large),
    "sim-small-quenched": Workload("instances", 2, sim_small_quenched),
    "predict-grid": Workload("quantiles", 4, predict_grid),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def run_round(commands, repeats: int, trace: bool, spans_path: Path) -> dict:
    """Spawn one child; returns its result, or an ``error`` entry."""
    spec = {"src": str(SRC), "commands": [argv for argv, _, _ in commands],
            "repeats": repeats, "spans_path": str(spans_path)}
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "1" if trace else "0", json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"round exceeded {ROUND_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {stderr.strip()[-400:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported"] - launched
    return result


def report_problem(text: str, sizes: list[int]) -> str | None:
    """Why a report is malformed, or None: parseable, finite, right sizes."""
    rows = list(csv.DictReader(io.StringIO(text)))
    try:
        if [int(row["n"]) for row in rows] != sizes:
            return "report sizes differ from the requested ones"
        for row in rows:
            for key, value in row.items():
                if key not in ("model", "mode") and not math.isfinite(float(value)):
                    return f"non-finite {key} at n = {row['n']}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"report does not parse: {exc!r}"
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


class Checker:
    """Counts command invocations and the ones that failed, with reasons."""

    def __init__(self, commands, repeats: int, expected: list[str] | None):
        self.commands = commands
        self.repeats = repeats
        self.expected = expected
        self.first: list[str | None] = [None] * len(commands)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: dict) -> bool:
        """Check one round; True when every invocation in it was good."""
        invocations = len(self.commands) * self.repeats
        self.attempted += invocations
        if "error" in result:
            self.failed += invocations
            self.problems.append(result["error"])
            return False
        good = True
        for k, command in enumerate(result["commands"]):
            argv, sizes, _ = self.commands[k % len(self.commands)]
            problem = command["error"]
            if problem is None:
                problem = report_problem(command["text"], sizes)
            if problem is None:
                problem = self._bytes_problem(k % len(self.commands), digest(command["text"]))
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{' '.join(argv[:2])}: {problem}")
                good = False
        return good

    def _bytes_problem(self, index: int, found: str) -> str | None:
        if self.first[index] is None:
            self.first[index] = found
        if found != self.first[index]:
            return "report bytes differ between invocations"
        if self.expected and found != self.expected[index]:
            return "report digest differs from the recorded one"
        return None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": nproc,
        "nproc_note": f"nproc is {nproc}, so scaling beyond --jobs {nproc} is not measured",
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def passes(result: dict, width: int) -> list[tuple[float, float]]:
    """(wall time, wall time at reference speed) of each pass in one round.

    The calibration kernel runs before the first pass and after each one;
    the mean of the two readings around a pass gives the machine's speed
    during it.
    """
    walls = [c["wall_s"] for c in result["commands"]]
    kernel = result["kernel_s"]
    out = []
    for k in range(len(walls) // width):
        wall = sum(walls[k * width:(k + 1) * width])
        speed = REFERENCE_KERNEL_S / (0.5 * (kernel[k] + kernel[k + 1]))
        out.append((wall, wall * speed))
    return out


def end_to_end(rounds, commands) -> tuple[dict[str, float], float]:
    """Medians over a run, and the raw (unscaled) median throughput.

    Setup time and memory are medians over rounds; throughput is the median
    over passes of items per second at reference machine speed.
    """
    items = sum(n for _, _, n in commands)
    good = [r for r in rounds if "error" not in r]
    timed = [p for r in good for p in passes(r, len(commands))]
    metrics = {
        "setup_s": median_or_zero([r["setup_s"] for r in good]),
        "items_per_s": median_or_zero([items / scaled for _, scaled in timed]),
        "peak_rss_mb": median_or_zero([r["peak_rss_mb"] for r in good]),
    }
    return metrics, median_or_zero([items / wall for wall, _ in timed])


def per_layer(pairs, width: int, units: dict[str, str], problems: list[str]) -> dict[str, float]:
    """Medians over the traced rounds, plus the tracing overhead.

    ``pairs`` holds (untraced, traced) round results, both successful, of
    ``width`` commands per pass.  The overhead compares the two rounds of a
    pair at reference machine speed.
    """
    traced = [t for _, t in pairs]
    out = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        if units.get(name) in EXACT_UNITS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        out[name] = statistics.median(values)
    for name in traced[0]["import"]:
        out[name] = statistics.median([t["import"][name] for t in traced])
    overheads = []
    for plain, t in pairs:
        plain_scaled = sum(scaled for _, scaled in passes(plain, width))
        overhead = sum(scaled for _, scaled in passes(t, width)) - plain_scaled
        overheads.append((overhead, overhead / plain_scaled))
        traced_wall = sum(c["wall_s"] for c in t["commands"])
        # Layer self times must account for the traced wall time: what no
        # span covers may not exceed the tracing overhead of this pair.
        unaccounted = traced_wall - t["spans_self_s"]
        if not -1e-6 <= unaccounted <= max(overhead, 0.0) + 1e-3 * len(t["commands"]):
            problems.append(f"layer self times leave {unaccounted:.6f} s of "
                            f"{traced_wall:.6f} s unaccounted")
        if [c["text"] for c in plain["commands"]] != [c["text"] for c in t["commands"]]:
            problems.append("traced report bytes differ from untraced ones")
    out["trace.overhead_s"] = statistics.median(o for o, _ in overheads)
    out["trace.overhead_frac"] = statistics.median(f for _, f in overheads)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = os.cpu_count() or 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (SRC / "logassign" / "cli.py").is_file():
        print(f"error: no logassign sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed, nproc)
    checker = Checker(commands, workload.repeats, recorded_digests(args.workload, args.seed))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}.spans.jsonl"

    # Warm-up: the first import in a fresh checkout also compiles bytecode.
    subprocess.run([sys.executable, "-c", "import logassign.cli"], env=child_env(), cwd=ROOT,
                   capture_output=True, timeout=ROUND_TIMEOUT_S)
    rounds, pairs = [], []
    started = time.monotonic()
    while True:
        plain = run_round(commands, workload.repeats, False, spans_path)
        rounds.append(plain)
        plain_ok = checker.check(plain)
        if args.trace:
            traced = run_round(commands, workload.repeats, True, spans_path)
            if checker.check(traced) and plain_ok:
                pairs.append((plain, traced))
        elapsed = time.monotonic() - started
        enough = len(rounds) >= (MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS)
        if elapsed >= ROUND_CUTOFF_S or (elapsed >= args.seconds and enough):
            break

    problems = checker.problems
    if args.trace:
        metrics = per_layer(pairs, len(commands), units, problems) if pairs else {}
        raw_items_per_s = None
    else:
        metrics, raw_items_per_s = end_to_end(rounds, commands)
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                        "measured and listed in BENCHMARK.json")
        metrics = {name: value for name, value in metrics.items() if name in units}
    correct = checker.failed == 0 and not problems
    prov = provenance(nproc)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds of {workload.repeats} x {len(commands)} command(s), "
          f"{'digest recorded' if checker.expected else 'no digest recorded for this seed'}")
    print(f"provenance: {prov['nproc_note']}; cpu {prov['cpu_model']}; python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, click {prov['click']}; "
          f"commit {prov['git_commit'] or 'unknown'}, src sha256 {prov['source_sha256'][:16]}")
    failed_frac = checker.failed / checker.attempted
    if not args.trace:
        print(f"  {workload.item}_per_s {metrics['items_per_s']:.6g} 1/s at reference speed "
              f"(items_per_s); {raw_items_per_s:.6g} 1/s as timed")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  failed_frac {failed_frac:.6g} ratio  ({checker.failed}/{checker.attempted})")
    for problem in problems:
        print(f"  problem: {problem}")

    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commands": [argv for argv, _, _ in commands],
        "metrics": metrics, "items_per_s_as_timed": raw_items_per_s,
        "failed_frac": failed_frac, "problems": problems,
        "rounds": [{k: v for k, v in r.items() if k != "commands"} | {
            "wall_s": [c["wall_s"] for c in r.get("commands", [])]} for r in rounds],
        "provenance": prov,
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
