"""Spans around the public functions of ``octic``, recorded from outside.

``Tracer.install`` rebinds every public function of every ``octic``
module, under each name a caller looks it up by (``exact.rref`` and
``incidence.rref`` alike), to a wrapper that records a span: name,
parent span, item, start and end.  In ``cli`` only ``main`` and the
names it imports are wrapped, so ``cli.main``'s self time is argument
parsing, canonical JSON and output.  Spans stay in memory, in flat
arrays, until ``write`` at the end of the run.  A few wrappers also count
outcomes where the work happens; ``metrics`` turns spans and counts into
the per-layer metrics.  The run's speed probe (``run.SpeedProbe``) takes
about a millisecond every 0.2 s inside whichever span is open.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

PACKAGE = "octic"
MODULES = ("exact", "forms", "incidence", "classify", "resolve", "diagram",
           "semistable", "specseq", "cli")
ITEM = "bench.item"
GENERIC, SPECIAL = "incidence.profile.generic", "incidence.profile.special"


def _over_qw(arrangement) -> bool:
    """Whether ``incidence.profile`` works over Q(w), by the rule it uses."""
    return any(c.degree > 0 for f in arrangement.forms for c in f.coeffs)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.item_index = -1
        self.counts: Counter = Counter()
        self._saved: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_index)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, label: str):
        tracer = self
        hook = getattr(self, "_after_" + label.replace(".", "_"), None)
        if label == "incidence.profile":
            generic, special = self.name_id(GENERIC), self.name_id(SPECIAL)
            pick = lambda args: generic if _over_qw(args[0]) else special  # noqa: E731
        else:
            nid = self.name_id(label)
            pick = lambda args: nid  # noqa: E731

        def wrapper(*args, **kwargs):
            idx = tracer.open(pick(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.close(idx)
                if hook:
                    hook(args, None, err)
                raise
            tracer.close(idx)
            if hook:
                hook(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith(PACKAGE + "."):
                    continue
                if short == "cli" and home == module.__name__ and attr != "main":
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(
                        value, f"{home[len(PACKAGE) + 1:]}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- counters recorded where the work happens -------------------------

    def _after_exact_rref(self, args, result, err):
        self.counts["exact.rref.calls_qw" if args[0].field == "Q(w)"
                    else "exact.rref.calls_q"] += 1

    def _after_exact_poly_gcd(self, args, result, err):
        if result is not None and result.degree >= 1:
            self.counts["exact.poly_gcd.nontrivial"] += 1

    def _after_incidence_degenerate_values(self, args, result, err):
        if result is not None:
            self.counts["incidence.degenerate_values.found"] += len(result.values)

    def _after_classify_classify_local(self, args, result, err):
        if type(err).__name__ == "Unclassifiable":
            self.counts["classify.unclassifiable"] += 1

    def _after_resolve_trace_central_fiber(self, args, result, err):
        self.counts["resolve.trace.attempted"] += 1
        self.counts["resolve.steps"] += len(args[2].steps)
        if err is None:
            self.counts["resolve.trace.completed"] += 1

    def _after_diagram_render_dot(self, args, result, err):
        if result is not None:
            self.counts["diagram.render_dot.bytes"] += len(result.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the time its child spans cover."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def per_name(self) -> dict:
        """name -> [calls, self seconds]."""
        out = {name: [0, 0.0] for name in self.names}
        for nid, own in zip(self.span_name, self.self_times()):
            entry = out[self.names[nid]]
            entry[0] += 1
            entry[1] += own / 1e9
        return out

    def special_under_scan(self) -> int:
        """Special profiles computed inside ``degenerate_values``."""
        special = self._ids.get(SPECIAL)
        scan = self._ids.get("incidence.degenerate_values")
        count = 0
        for i, nid in enumerate(self.span_name):
            if nid != special:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != scan:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: a name table, then one
        ``[span, parent, item, name, start_ns, end_ns]`` per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                out.write(json.dumps([i, self.parent[i], self.item[i],
                                      self.span_name[i], self.start[i],
                                      self.end[i]]) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def metrics(t: Tracer, scale: float, cli_output_bytes: int, refused: int,
            attempted: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, from one traced pass.
    Self times are multiplied by ``scale``, the run's speed correction."""
    agg = t.per_name()
    calls = lambda n: agg.get(n, [0, 0.0])[0]  # noqa: E731
    self_s = lambda n: agg.get(n, [0, 0.0])[1] * scale  # noqa: E731
    c = t.counts
    out = {
        "exact.rref.calls_q": (c["exact.rref.calls_q"], "count"),
        "exact.rref.calls_qw": (c["exact.rref.calls_qw"], "count"),
        "exact.rref.self_s": (self_s("exact.rref"), "s"),
        "exact.poly_gcd.calls": (calls("exact.poly_gcd"), "count"),
        "exact.poly_gcd.self_s": (self_s("exact.poly_gcd"), "s"),
        "exact.poly_gcd.nontrivial_ratio": (
            _ratio(c["exact.poly_gcd.nontrivial"], calls("exact.poly_gcd")), "ratio"),
        "exact.poly_det.calls": (calls("exact.poly_det"), "count"),
        "exact.rational_roots.calls": (calls("exact.rational_roots"), "count"),
        "forms.parse_equation.self_s": (self_s("forms.parse_equation"), "s"),
        "forms.specialize.calls": (calls("forms.specialize"), "count"),
        "incidence.profile.generic.calls": (calls(GENERIC), "count"),
        "incidence.profile.generic.self_s": (self_s(GENERIC), "s"),
        "incidence.profile.special.calls": (calls(SPECIAL), "count"),
        "incidence.profile.special.self_s": (self_s(SPECIAL), "s"),
        "incidence.primitive_vector.calls": (calls("incidence.primitive_vector"), "count"),
        "incidence.primitive_vector.self_s": (self_s("incidence.primitive_vector"), "s"),
        "incidence.degenerate_values.self_s": (self_s("incidence.degenerate_values"), "s"),
        "incidence.degenerate_values.hit_ratio": (
            _ratio(c["incidence.degenerate_values.found"], t.special_under_scan()),
            "ratio"),
        "incidence.profile_diff.self_s": (self_s("incidence.profile_diff"), "s"),
        "classify.classify_local.calls": (calls("classify.classify_local"), "count"),
        "classify.classify_local.self_s": (self_s("classify.classify_local"), "s"),
        "classify.unclassifiable": (c["classify.unclassifiable"], "count"),
        "resolve.schedule.self_s": (self_s("resolve.schedule"), "s"),
        "resolve.trace_central_fiber.self_s": (self_s("resolve.trace_central_fiber"), "s"),
        "resolve.steps": (c["resolve.steps"], "count"),
        "resolve.trace.completed_ratio": (
            _ratio(c["resolve.trace.completed"], c["resolve.trace.attempted"]), "ratio"),
        "diagram.apply_blowup.calls": (calls("diagram.apply_blowup"), "count"),
        "diagram.apply_blowup.self_s": (self_s("diagram.apply_blowup"), "s"),
        "diagram.render_dot.calls": (calls("diagram.render_dot"), "count"),
        "diagram.render_dot.self_s": (self_s("diagram.render_dot"), "s"),
        "diagram.render_dot.bytes": (c["diagram.render_dot.bytes"], "bytes"),
        "semistable.build_components.self_s": (self_s("semistable.build_components"), "s"),
        "specseq.assemble_e1.self_s": (self_s("specseq.assemble_e1"), "s"),
        "specseq.build_d1.self_s": (self_s("specseq.build_d1"), "s"),
        "specseq.compute_e2.self_s": (self_s("specseq.compute_e2"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (cli_output_bytes, "bytes"),
        "cli.refused_ratio": (_ratio(refused, attempted), "ratio"),
    }
    return out
