"""Self-test of the benchmark: a seed regenerates the same inputs, and two
runs of the same items print byte-identical outputs.

    python3 bench/selftest.py

Run from the root of a checkout; exits 0 and prints ``selftest ok``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import families
import run
import tracer

SEED = 7
DATA = Path("src", "octic", "data")


def fail(msg: str) -> int:
    print(f"selftest: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    if not Path("src", "octic", "cli.py").is_file():
        return fail("run from the root of a checkout")
    sys.path.insert(0, "src")

    spec = json.loads(Path(run.HERE.parent, "BENCHMARK.json").read_text())
    layers = json.loads(Path(run.HERE, "layers.json").read_text())["layers"]
    per_layer = set(tracer.metrics(tracer.Tracer(), 1.0, 0, 0, 0)) | set(run.TRACE_METRICS)
    if {m["name"] for m in spec["per_layer"]} != per_layer or set(layers) != per_layer:
        return fail("per-layer metrics differ between BENCHMARK.json, layers.json and the tracer")
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END):
        return fail("end-to-end metrics differ between BENCHMARK.json and run.py")

    first = families.families(SEED, 6)
    if first != families.families(SEED, 6):
        return fail("the same seed gave different families")
    if first == families.families(SEED + 1, 6):
        return fail("two seeds gave the same families")
    for rows in first:
        degenerate, fatal = families.scan(rows)
        if Fraction(0) not in degenerate or Fraction(0) in fatal:
            return fail(f"{families.equation(rows)} is not degenerate at w = 0")

    for name, take in (("octic-families", 1), ("fiber-sweep", 6), ("bundled", 20)):
        cli, items = run._setup_once(name, SEED, DATA)
        _, again = run._setup_once(name, SEED, DATA)
        if [(i.key, i.commands) for i in items] != [(i.key, i.commands) for i in again]:
            return fail(f"{name}: the same seed gave different items")
        for item in items[:take]:
            digests = {run.digest(item, run.run_item(cli.main, item))
                       for _ in range(2)}
            if len(digests) != 1:
                return fail(f"{name} {item.key}: two runs printed different bytes")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
