"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload bundled --seeds 1-10 --seconds 30

Run from the root of a checkout.  Runs ``run.py`` once per seed, one run
at a time, and prints for every metric its median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread, the distance
between the quartiles as a share of the median.  ``--out`` also writes
every run's last line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
        runs.append({"seed": seed, **last})
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:40s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
