"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads sim-large,predict-grid --seeds 1-10 \
        --trace 0 [--baseline perfbench/baseline]

For every workload and metric it prints the median of the per-seed values
and the quartile spread, (Q3 - Q1) / median, with Python's
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``.  With ``--baseline DIR`` it also writes one JSON file per
workload and trace mode with the medians, spreads, per-seed values and the
provenance of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def write_baseline(directory: Path, workload, trace, seeds, run_seconds, results, values,
                   provenance) -> None:
    """One file per workload and trace mode: medians, spreads, per-seed values."""
    directory.mkdir(parents=True, exist_ok=True)
    units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
    name = f"{workload}.json" if trace == 0 else f"{workload}.trace.json"
    (directory / name).write_text(json.dumps({
        "workload": workload, "trace": trace, "seeds": seeds, "run_seconds": run_seconds,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "median": {k: statistics.median(v) for k, v in values.items()},
        "spread": {k: spread(v) for k, v in values.items()},
        "unit": units,
        "per_seed": values,
        "provenance": provenance,
    }, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(done.stdout, file=sys.stderr)
            results.append(result)
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {line}", flush=True)
        names = list(results[0]["metrics"])
        values = {name: [r["metrics"][name]["value"] for r in results] for name in names}
        for name in names:
            share = spread(values[name])
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, share / bound)
            note = f" bound {bound} (spread/bound {share / bound:.2f})" if bound else ""
            print(f"  {workload} {name}: median {statistics.median(values[name]):.6g} "
                  f"spread {share:.4f}{note}", flush=True)
        if args.baseline:
            stem = f"{workload}-seed{seeds[-1]}-trace{args.trace}.json"
            provenance = json.loads((HERE / "out" / stem).read_text())["provenance"]
            write_baseline(args.baseline, workload, args.trace, seeds, spec["run_seconds"],
                           results, values, provenance)
    print(f"largest spread/bound over non-setup metrics: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
