"""Benchmark runner for ``octic``: one workload, one seed, one process.

    python3 bench/run.py --workload octic-families --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: it imports ``octic`` from ``./src``
and keeps everything it writes under ``./.bench_build/octic-bench``.  It
is a single-thread closed loop: it calls ``octic.cli.main`` in this
process on the workload's items (``workloads.py``) one after another
until ``--seconds`` have passed, and times each item.  Times are scaled
to a reference machine speed by ``SpeedProbe``, because the host's speed
drifts by as much as the changes the benchmark has to see; the unscaled
figures are in the report line.

Every output is checked: against the committed digest in
``references.json`` where one exists for the item, against its own first
run (the same item must print the same bytes), and against the
benchmark's own exact checks (``workloads.py``; on fiber-sweep also a
sympy oracle on a sample of fibers).  Items whose committed reference is
a crash (``known_failure``) are the program's known defects: they run
once after the timed loop, are named in the report and counted in
``failed_ratio``, and stay out of the timings.

With ``--trace 1`` the timed loop is followed by a traced pass over a
fixed set of items (``tracer.py``); the last line then carries the
per-layer metrics, and the spans go to a gzipped file.

Output: a ``report`` JSON line (failures, tail percentile and sample
count, unscaled figures, the results file with every item, equation and
scenario), then as the last line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import workloads  # noqa: E402
from tracer import ITEM, Tracer, metrics as layer_metrics  # noqa: E402

SETUP_REPEATS = 3
# The traced pass runs a fixed set of items, so that counts repeat exactly:
# one cycle of the loop's items, or its first few where items are slow.
TRACE_ITEMS = {"octic-families": 4}
ORACLE_SAMPLE = 8
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_s_p50": "s",
              "item_s_tail": "s", "peak_rss_mib": "MiB"}
TRACE_METRICS = {"trace.items_per_s_traced": "1/s",
                 "trace.items_per_s_untraced": "1/s",
                 "trace.overhead_ratio": "ratio"}
REFERENCES = HERE / "references.json"
# Relative to the checkout, so that paths the CLI prints are the same in
# every checkout.
WORK = Path(".bench_build", "octic-bench")
INPUTS = WORK / "inputs"


# ---------------------------------------------------------------------------
# running items


def run_item(main, item) -> list:
    """Run the item's commands; returns [(exit, stdout, stderr)].  The exit
    is the exception's type name when ``main`` raised."""
    results = []
    for argv in item.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback: counted as a failure
                code = type(exc).__name__
                err.write("".join(traceback.format_exception_only(exc)))
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def digest(item, results) -> str:
    """Exit codes and stdout of every command, plus any DOT files written."""
    h = hashlib.sha256()
    for code, out, _ in results:
        h.update(f"{code}\n{out}\0".encode("utf-8"))
    if item.dot_dir and Path(item.dot_dir).is_dir():
        for f in sorted(Path(item.dot_dir).iterdir()):
            h.update(f.name.encode("utf-8") + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def reference_table(workload: str, seed: int) -> dict:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if workload == "bundled":
        return refs.get("bundled", {})
    return refs.get(workload, {}).get(str(seed), {})


class Outcomes:
    """Per distinct item: digest of its first run and what went wrong."""

    def __init__(self, workload: str, refs: dict):
        self.workload = workload
        self.refs = refs
        self.first: dict = {}
        self.stdout: dict = {}      # first run's stdout of each command
        self.problems: dict = {}
        self.check_failed: dict = {}  # --check exited 1: not a failure, shown

    def record(self, item, results) -> None:
        d = digest(item, results)
        problem = workloads.contract_failure(item, results)
        if item.key not in self.first:
            self.first[item.key] = {"digest": d,
                                    "exit": [r[0] for r in results]}
            self.stdout[item.key] = [r[1] for r in results]
            for argv, (code, _, err) in zip(item.commands, results):
                if code == 1 and "--check" in argv:
                    self.check_failed[item.key] = err.strip().splitlines()[0][:120]
            problem = problem or workloads.output_problem(
                self.workload, item, results)
            ref = self.refs.get(item.key)
            if problem is None and ref and ref["digest"] != d:
                problem = f"digest {d} differs from the reference {ref['digest']}"
        elif self.first[item.key]["digest"] != d:
            problem = problem or f"output changed between runs ({d})"
        if problem and item.key not in self.problems:
            self.problems[item.key] = problem


def _kernel() -> int:
    """About a millisecond of interpreter work that ``octic`` never changes."""
    d = {}
    for i in range(600):
        d[(i % 61, str(i))] = [i, (i, i + 1)]
    s = 0
    for _, value in sorted(d.items()):
        s += value[0] * value[0] % 7
    for i in range(8000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Scales times to a reference speed of the machine.

    The host's CPU speed drifts by up to a third over seconds to minutes,
    as much as any change under test.  While active, the probe interrupts
    the process every ``PERIOD`` seconds (SIGALRM, in this thread) and
    times one run of a fixed pure-Python kernel: allocation, dicts,
    sorting and integer loops, with garbage collection off so that the
    program's heap does not slow it.  ``scale`` multiplies a time by
    ``K_REF`` over the median kernel time during that interval: the time
    the work would take on a machine where the kernel takes ``K_REF``
    seconds.  ``spent`` is the time the probe itself took, which callers
    subtract from what they measure.
    """

    PERIOD = 0.2
    K_REF = 0.0013

    def __init__(self):
        self.at = array("d")
        self.samples = array("d")
        self.spent = 0.0
        self._saved = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between ``start`` and ``end``, scaled by
        the kernel times sampled then, or by the three nearest samples."""
        lo = bisect.bisect_left(self.at, start - self.PERIOD)
        hi = bisect.bisect_right(self.at, end + self.PERIOD)
        while hi - lo < 3 and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at)
                           or start - self.at[lo - 1] < self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return seconds * self.K_REF / statistics.median(self.samples[lo:hi])


def timed(probe: SpeedProbe, fn, *args) -> tuple:
    """(scaled seconds, raw seconds, result) of ``fn(*args)``, less the
    probe's own time."""
    spent0, t0 = probe.spent, perf_counter()
    result = fn(*args)
    t1 = perf_counter()
    raw = t1 - t0 - (probe.spent - spent0)
    return probe.scale(raw, t0, t1), raw, result


def timed_loop(cli, items, seconds: float, outcomes: Outcomes,
               probe: SpeedProbe) -> tuple:
    """Closed loop over ``items`` for ``seconds``; returns the item keys,
    raw times and scaled times."""
    keys, raw, scaled = [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        item = items[i % len(items)]
        t, t_raw, results = timed(probe, run_item, cli.main, item)
        scaled.append(t)
        raw.append(t_raw)
        keys.append(item.key)
        outcomes.record(item, results)
        i += 1
        if perf_counter() >= deadline:
            break
    return keys, raw, scaled


def tail(times: list) -> tuple:
    """(value, percentile) at the highest percentile that still has ten
    samples beyond it, but never below the median: with 20 samples or
    fewer, a single order statistic would be too noisy, so it is the
    median."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def fresh_import():
    for name in [m for m in sys.modules if m == "octic" or m.startswith("octic.")]:
        del sys.modules[name]
    return importlib.import_module("octic.cli")


def _setup_once(workload: str, seed: int, data_dir: Path) -> tuple:
    shutil.rmtree(INPUTS, ignore_errors=True)
    return fresh_import(), workloads.build(workload, seed, INPUTS, data_dir)


def setup(workload: str, seed: int, data_dir: Path, probe: SpeedProbe) -> tuple:
    """Import ``octic`` and build the inputs, several times; returns the
    median scaled and raw times, and the last (module, items)."""
    runs = [timed(probe, _setup_once, workload, seed, data_dir)
            for _ in range(SETUP_REPEATS)]
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs), runs[-1][2])


# ---------------------------------------------------------------------------
# checks outside the timed loop


def oracle_check(items, seed: int, outcomes: Outcomes) -> int:
    """Compare the incidence key of a sample of fibers with sympy's."""
    import oracle  # sympy is imported only here, after the timings

    seen = [it for it in items if it.key in outcomes.first]
    sample = random.Random(seed).sample(seen, min(ORACLE_SAMPLE, len(seen)))
    for item in sample:
        rows = families.fiber(item.info["rows"], Fraction(item.info["at"]))
        want = oracle.profile_key(rows)
        got = workloads.profile_key(json.loads(outcomes.stdout[item.key][0]))
        if got != want:
            outcomes.problems.setdefault(
                item.key, f"incidence key differs from the sympy oracle: {got} != {want}")
    return len(sample)


def traced_pass(cli, items, outcomes: Outcomes, probe: SpeedProbe,
                run_dir: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    item_nid = tracer.name_id(ITEM)
    scaled, output_bytes, refused = {}, 0, 0
    start = perf_counter()
    try:
        for index, item in enumerate(items):
            tracer.item_index = index
            span = tracer.open(item_nid)
            scaled[item.key], _, results = timed(probe, run_item, cli.main, item)
            tracer.close(span)
            outcomes.record(item, results)
            output_bytes += sum(len(out.encode("utf-8")) for _, out, _ in results)
            refused += any(code == 3 for code, _, _ in results)
    finally:
        tracer.uninstall()
    speed = probe.scale(1.0, start, perf_counter())
    spans = run_dir / "spans.jsonl.gz"
    tracer.write(spans)
    return {"tracer": tracer, "speed": speed, "scaled": scaled,
            "output_bytes": output_bytes,
            "refused": refused, "spans_file": spans.as_posix(),
            "spans": len(tracer.start)}


def overhead(keys: list, scaled: list, traced: dict) -> dict:
    """Tracing overhead: the traced items against their first untraced run."""
    untraced = {}
    for k, t in zip(keys, scaled):
        untraced.setdefault(k, t)
    both = [k for k in traced if k in untraced]
    t_traced = sum(traced[k] for k in both)
    t_plain = sum(untraced[k] for k in both)
    values = (len(both) / t_traced, len(both) / t_plain, t_traced / t_plain)
    return {name: (v, unit) for (name, unit), v in zip(TRACE_METRICS.items(), values)}


def timings(setup_s: float, times: list, rss: float) -> dict:
    tail_s, _ = tail(times)
    values = (setup_s, len(times) / sum(times), statistics.median(times),
              tail_s, rss)
    return {name: {"value": v, "unit": unit}
            for (name, unit), v in zip(END_TO_END.items(), values)}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "octic" / "cli.py").is_file():
        print("bench: no octic sources under ./src; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("OCTIC_DATA", None)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    with SpeedProbe() as probe:
        return measure(args, src, run_dir, probe)


def measure(args, src: Path, run_dir: Path, probe: SpeedProbe) -> int:
    setup_s, setup_raw, (cli, items) = setup(
        args.workload, args.seed, src / "octic" / "data", probe)
    refs = reference_table(args.workload, args.seed)
    known = {k for k, r in refs.items() if r.get("known_failure")}
    loop_items = [it for it in items if it.key not in known]
    outcomes = Outcomes(args.workload, refs)

    t0 = perf_counter()
    keys, raw, scaled = timed_loop(cli, loop_items, args.seconds, outcomes, probe)
    elapsed = perf_counter() - t0
    rss = peak_rss_mib()

    probes = {}
    for item in items:
        if item.key in known:
            results = run_item(cli.main, item)
            probes[item.key] = (workloads.contract_failure(item, results)
                                or workloads.output_problem(args.workload, item, results))
    oracle_checked = 0
    if args.workload == "fiber-sweep":
        oracle_checked = oracle_check(loop_items, args.seed, outcomes)

    traced = None
    if args.trace:
        traced = traced_pass(cli, loop_items[:TRACE_ITEMS.get(args.workload)],
                             outcomes, probe, run_dir)

    bad = set(outcomes.problems)
    failed = sum(1 for k in keys if k in bad)
    distinct = len(outcomes.first) + len(probes)
    failed_items = {k: outcomes.problems[k] for k in sorted(bad)}
    failed_items.update({k: p for k, p in sorted(probes.items()) if p})

    end_to_end = timings(setup_s, scaled, rss)
    if traced is None:
        result_metrics = end_to_end
    else:
        per_layer = layer_metrics(traced["tracer"], traced["speed"],
                                  traced["output_bytes"], traced["refused"],
                                  len(traced["scaled"]))
        per_layer.update(overhead(keys, scaled, traced["scaled"]))
        result_metrics = {k: {"value": v, "unit": u}
                          for k, (v, u) in per_layer.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "distinct_items": distinct,
        "failed_ratio": len(failed_items) / distinct,
        "failed_items": failed_items,
        "check_failed": dict(sorted(outcomes.check_failed.items())),
        "tail_percentile": tail(scaled)[1], "samples": len(scaled),
        "elapsed_s": elapsed,
        "speed_probe_s": statistics.median(probe.samples),
        "unscaled": {k: m["value"] for k, m in
                     timings(setup_raw, raw, rss).items()},
        "oracle_checked": oracle_checked,
        "references": len(refs),
    }
    if args.trace:
        report["end_to_end"] = {k: m["value"] for k, m in end_to_end.items()}
        report.update(traced_items=len(traced["scaled"]), spans=traced["spans"],
                      spans_file=traced["spans_file"])
    results_file = run_dir / "results.json"
    report["results_file"] = results_file.as_posix()
    by_key = {it.key: it for it in items}
    results_file.write_text(json.dumps({
        "report": report,
        "metrics": result_metrics,
        "items": [{"key": k, "commands": by_key[k].commands,
                   "info": by_key[k].info, **first,
                   "problem": outcomes.problems.get(k)}
                  for k, first in outcomes.first.items()],
        "probes": probes,
        "loop": [[k, t, u] for k, t, u in zip(keys, raw, scaled)],
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not bad, "attempted": len(keys),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
