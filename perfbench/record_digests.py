"""Record the SHA-256 of every workload's reports for a range of seeds.

Usage (from the root of a checkout): python3 perfbench/record_digests.py 0-31

Run it only when report bytes change on purpose, and say so where the
change is described.  Each report must pass the same checks as in a
benchmark run before its digest is written to ``perfbench/digests.json``.
"""

from __future__ import annotations

import json
import os
import sys

import run
from spread import parse_seeds


def main() -> int:
    seeds = parse_seeds(sys.argv[1] if len(sys.argv) > 1 else "0")
    nproc = os.cpu_count() or 1
    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        for seed in seeds:
            commands = workload.commands(seed, nproc)
            result = run.run_round(commands, 1, False, run.OUT / "record.spans.jsonl")
            checker = run.Checker(commands, 1, None)
            if not checker.check(result):
                print(f"{name} seed {seed}: {checker.problems}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = [
                run.digest(c["text"]) for c in result["commands"]]
            print(f"{name} seed {seed}: recorded", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
