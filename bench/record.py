"""Record the reference digests that ``run.py`` checks outputs against.

    python3 bench/record.py --seeds 1-10

Run from the root of a checkout.  Runs every item of every workload once
(generated workloads for each listed seed) and rewrites
``bench/references.json``.  An item that breaks the CLI contract or fails
the benchmark's own checks is recorded as a ``known_failure``, with the
reason; ``run.py`` keeps such items out of the timings and reports them.
Record again only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def record(workload: str, seed: int) -> dict:
    cli, items = run._setup_once(workload, seed, Path("src", "octic", "data"))
    table = {}
    for item in items:
        results = run.run_item(cli.main, item)
        entry = {"digest": run.digest(item, results),
                 "exit": [r[0] for r in results]}
        problem = (workloads.contract_failure(item, results)
                   or workloads.output_problem(workload, item, results))
        if problem:
            entry.update(known_failure=True, problem=problem.strip())
        table[item.key] = entry
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    if not Path("src", "octic", "cli.py").is_file():
        print("record: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    refs = {"bundled": record("bundled", 0)}
    for workload in ("octic-families", "fiber-sweep"):
        refs[workload] = {str(s): record(workload, s) for s in range(lo, hi + 1)}
        print(f"recorded {workload} seeds {lo}-{hi}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
