"""Command line driver for the whole pipeline.

Subcommands move from raw equations to the limit report: ``incidence`` and
``sigma`` analyze a parameterized arrangement, ``classify`` names the local
degeneration at a parameter value, ``resolve``/``reduce``/``render`` run the
blow-up trace of a bundled scenario, and ``ss`` builds the semistable model
and its weight spectral sequence.

Scenario files live in the package's ``data`` directory (override with the
``OCTIC_DATA`` environment variable) and may carry an ``expected`` block;
``--check`` compares the computed result against it and exits with code 1 on
any mismatch.  All JSON output is canonical: sorted keys, two-space indent,
exact rationals printed as ``p/q`` strings.  ``canonical_json`` writes the
bytes ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)``
writes, in one direct pass of its own: the standard library's encoder runs
in pure Python whenever it indents, and cost an ``incidence --at`` call
more than any one stage of its mathematics.  It refuses, with a TypeError,
any type but the dicts with str keys, lists, tuples, strs, ints, bools and
None that payloads hold.

Each call pays only for the output it prints.  ``parse_args`` reads an
``argv`` in the plain form (the subcommand first, options spelled out in
full, one positional) directly from ``COMMANDS``, and builds no argparse
parser for it.  The parser of all seven subcommands is built only for any
other ``argv`` (``-h``, nothing, a typo, an abbreviation, an argument left
over), so help, usage errors and readings stay argparse's own.  Each
``cmd_*`` returns its scenario data, its payload and a renderer of its
text, which ``main`` calls only to print the text: ``--json`` builds none.

Exit codes: 0 success, 1 failed ``--check``, 2 malformed input (equations,
parameters, data files), 3 the mathematics refused (out-of-taxonomy
degeneration, aborted trace, unsupported configuration, inconsistent rank
data), 4 unknown scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import classify, diagram, incidence, resolve, semistable, specseq
from .exact import fraction_str, parse_fraction, poly_str
from .forms import parse_equation

OK = 0
CHECK_FAILED = 1
BAD_INPUT = 2
DOMAIN = 3
NO_SCENARIO = 4


class ScenarioNotFound(Exception):
    pass


class NoEquation(ValueError):
    def __init__(self, token: str):
        super().__init__(f"scenario {token} carries no equation")


_DOMAIN_ERRORS = (incidence.CoincidentPlanes, classify.Unclassifiable,
                  resolve.NotOctic, resolve.TraceAborted, diagram.RuleConflict,
                  diagram.CenterNotInDiagram,
                  semistable.UnsupportedConfiguration,
                  specseq.MissingBlock, specseq.InconsistentRanks,
                  specseq.UnknownLabel)


# ---------------------------------------------------------------------------
# scenario plumbing


_DATA = Path(__file__).resolve().parent / "data"


def data_root() -> Path:
    override = os.environ.get("OCTIC_DATA")
    return Path(override) if override else _DATA


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def find_scenario(token: str):
    """Resolve a scenario name or file path to (data, directory)."""
    if token.endswith(".json") or os.sep in token:
        paths = [Path(token)]
    else:
        root = data_root()
        paths = [root / sub / f"{token}.json"
                 for sub in ("families", "examples", ".")]
    # os.path.isfile: Path.is_file raises on a name too long to look up
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ScenarioNotFound(token)
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {path.name} holds no JSON object")
    # refused before anything is printed or written: --check compares the
    # expected block, and the trace commands print the name
    _expect(data.get("expected") or {}, dict, "the expected block")
    _expect(data.get("name", ""), str, "the scenario's name")
    return data, path.parent


def scenario_or_equation(token: str):
    """(data, equation): a token names a scenario when such a file exists,
    and the scenario's equation is used; else the token is the equation."""
    try:
        data, _ = find_scenario(token)
    except ScenarioNotFound:
        return None, token
    equation = _expect(data.get("equation", ""), str, "the equation")
    if not equation:
        raise NoEquation(token)
    return data, equation


def _scenario_w0(data) -> Fraction:
    return parse_fraction(_expect(data.get("w0", "0"), str, "w0"))


# Readers of a scenario's fields and of the stored blocks it refers to:
# each refuses a field of the wrong JSON type with a one-line ValueError.
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind``, else a ValueError naming ``what``;
    a JSON true or false is no integer, though Python's bool is an int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _expect_list(value, kind: type, what: str) -> tuple:
    """The list ``value`` of ``kind`` entries as a tuple."""
    return tuple(_expect(x, kind, f"an entry of {what}")
                 for x in _expect(value, list, what))


def residual_from_json(data) -> classify.ResidualSingularities:
    """Read a stored residual, in the form ``ResidualSingularities.to_json``
    writes (its ``adjacency`` is derived, and not read)."""
    _expect(data, dict, "the residual")
    curves = tuple(
        classify.DoubleCurve(_expect(c.get("pinch"), int, "a pinch count"),
                             _expect(c.get("over"), str, "a curve's location"))
        for c in _expect_list(data.get("curves", []), dict, "the curves"))
    triples = tuple(_expect_list(t, int, "a triple point")
                    for t in _expect_list(data.get("triple_points", []), list,
                                          "the triple points"))
    if any(not 0 <= i < len(curves) for t in triples for i in t):
        raise ValueError("a triple point names a curve the residual lacks")
    nodes = _expect(data.get("nodes", 0), int, "the node count")
    if nodes < 0:
        raise ValueError(f"the node count must not be negative, got {nodes}")
    marker = data.get("node_surface")
    return classify.ResidualSingularities(
        double_curves=curves,
        nodes=nodes,
        node_surface_marker=(marker if marker is None else
                             _expect(marker, str, "the node surface")),
        triple_meeting_points=triples)


def cycle_model_from_json(data) -> specseq.CycleModel:
    """Read a stored cycle model; a stored ``rank`` must be the matrix's."""
    _expect(data, dict, "the cycle model")
    generators = _expect(data.get("generators"), dict,
                         "the cycle model's generators")
    cm = specseq.CycleModel(
        generators={k: _expect_list(v, str, f"the generators of {k}")
                    for k, v in generators.items()},
        row_labels=_expect_list(data.get("row_labels"), str,
                                "the cycle model's row labels"),
        col_labels=_expect_list(data.get("col_labels"), str,
                                "the cycle model's column labels"),
        matrix=tuple(tuple(parse_fraction(str(x)) for x in row)
                     for row in _expect_list(data.get("matrix"), list,
                                             "the cycle model's matrix")))
    if "rank" in data and _expect(data["rank"], int,
                                  "the cycle model's rank") != cm.rank:
        raise specseq.InconsistentRanks(
            f"the cycle model states rank {data['rank']}, but its matrix has "
            f"rank {cm.rank}")
    return cm


def annotations_from_json(data) -> tuple:
    """Read stored rank annotations: a list of {p, q, rank, why}."""
    return tuple(specseq.RankAnnotation(
        *(_expect(a.get(key), int, f"an annotation's {key}")
          for key in ("p", "q", "rank")),
        _expect(a.get("why", ""), str, "an annotation's why"))
        for a in _expect_list(data, dict, "the rank annotations"))


def _referenced(data, base: Path, key: str):
    """A sub-object stored inline or in a JSON file next to the scenario."""
    value = data.get(key)
    if value is None or isinstance(value, (dict, list)):
        return value
    path = base / str(value)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{key} file {value!r} is missing")
    return _load_json(path)


# ---------------------------------------------------------------------------
# output plumbing


_json_str = json.encoder.encode_basestring
_int_repr = int.__repr__


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline, written directly; a type JSON payloads never hold is a
    TypeError."""
    return _json_value(obj, "\n") + "\n"


def _json_value(value, indent: str) -> str:
    """``value`` as JSON, where ``indent`` is a newline and the indentation
    of the line ``value`` begins on; leaves inside a container are written
    in its loop, because most values are leaves."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return _int_repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        # encode_basestring refuses a key that is not a str
        for key in sorted(value):
            item = value[key]
            leaf = type(item)
            items.append(_json_str(key) + ": " + (
                _json_str(item) if leaf is str else
                _int_repr(item) if leaf is int else _json_value(item, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json_str(item) if type(item) is str else
                 _int_repr(item) if type(item) is int else
                 _json_value(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, in an existing directory, through a
    temporary file, so that no reader sees a part of it."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _canon(value):
    return json.dumps(value, sort_keys=True)


def run_check(args, data, payload: dict) -> int:
    """Compare the computed payload against the scenario's expected block."""
    if not args.check:
        return OK
    expected = (data or {}).get("expected") or {}
    compared, problems = [], []
    for key in sorted(expected):
        if key not in payload:
            continue
        compared.append(key)
        if _canon(payload[key]) != _canon(expected[key]):
            problems.append(
                f"check {key}: expected {_canon(expected[key])}, "
                f"got {_canon(payload[key])}")
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        return CHECK_FAILED
    print("check ok: " + (", ".join(compared) if compared else "nothing to compare"),
          file=sys.stderr)
    return OK


def _dot_paths(args, name: str, trace) -> list:
    """Write one DOT file per trace step into ``--dot-dir``, return the
    relative file names; each starts with ``name``, which must be a plain
    file name, so no file lands outside the directory.  A directory that
    cannot be made or written (a plain file in its place or its path, say)
    is malformed input, refused in one line that names it."""
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise ValueError(f"DOT files cannot be named after {name!r}")
    outdir = Path(args.dot_dir)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for i, d in enumerate(trace):
            fname = f"{name}-step-{i:02d}.dot"
            write_atomic(outdir / fname,
                         diagram.render_dot(d, name="step_%d" % i))
            written.append(fname)
    except OSError as err:
        raise ValueError(f"cannot write DOT files to {args.dot_dir}: "
                         f"{err.strerror}") from None
    return written


# ---------------------------------------------------------------------------
# shared computation steps


def _profile_payload(equation: str, at: Optional[Fraction]):
    a = parse_equation(equation)
    prof = incidence.profile(a, at)
    payload = {
        "equation": equation,
        "at": None if at is None else fraction_str(at),
        "planes": len(a.rows),
        "profile": prof.to_json(),
    }
    if len(a.rows) == 8:
        payload["octic"] = not incidence.octic_violations(prof)
    return prof, payload


def _classify_value(generic, value) -> list:
    """Classification tags for one degenerate parameter value."""
    out = []
    for change in value.changes:
        try:
            out.append(classify.classify_local(change, generic))
        except classify.Unclassifiable as err:
            out.append(f"unclassifiable({change.kind}: {err.args[-1]})")
    return sorted(set(out))


def _trace_scenario(data):
    """The schedule, trace and residual of a scenario.  Every field they
    read is checked for its JSON type first."""
    equation = _expect(data.get("equation", ""), str, "the equation")
    if not equation:
        raise resolve.TraceAborted(
            "start", "scenario carries no equation to trace", ())
    order = _expect_list(data.get("blowup_order", []), str,
                         "the blow-up order")
    directives = directives_from_json(data.get("directives", {}))
    w0 = _scenario_w0(data)
    a = parse_equation(equation)
    generic = incidence.profile(a)
    sched = resolve.schedule(generic, order)
    trace, residual = resolve.trace_central_fiber(a, w0, sched, directives)
    return sched, trace, residual


def limit_report(data, base: Path):
    """The limit report of a scenario, the way ``ss`` builds it: the
    semistable model's components, its E1 page, the E2 report and the
    cycle model (or None).  The model is built from the stored residual,
    else from the traced one, and the scenario's ``y_betti``."""
    y_betti = data.get("y_betti")
    if not y_betti:
        raise semistable.UnsupportedConfiguration(
            "scenario has no y_betti; the semistable model needs the "
            "resolved threefold's Betti numbers")
    _expect_list(y_betti, int, "y_betti")
    if data.get("residual") is not None:
        residual = residual_from_json(_referenced(data, base, "residual"))
    else:
        _, _, residual = _trace_scenario(data)
    complex_ = semistable.build_components(residual, tuple(y_betti))
    e1 = specseq.assemble_e1(complex_)
    cm_data = _referenced(data, base, "cycle_model")
    cm = cycle_model_from_json(cm_data) if cm_data else None
    annotations = annotations_from_json(
        _referenced(data, base, "annotations") or [])
    d1 = specseq.build_d1(e1, cm=cm, annotations=annotations)
    return complex_, e1, specseq.compute_e2(e1, d1), cm


def directives_from_json(data) -> dict:
    """A scenario's transcribed steps by center name (``resolve`` reads
    them): lists of surface-label lists under ``targets`` and ``pinches``,
    a label list under ``sections``, and strings under ``rewrite``,
    ``over``, ``parent`` and ``fiber_with``."""
    for spec in _expect(data, dict, "the directives").values():
        _expect(spec, dict, "a directive")
        for key in ("targets", "pinches"):
            for labels in _expect_list(spec.get(key, []), list,
                                       f"a directive's {key}"):
                _expect_list(labels, str, f"a directive's {key}")
        _expect_list(spec.get("sections", []), str, "a directive's sections")
        for key in ("rewrite", "over", "parent", "fiber_with"):
            if key in spec:
                _expect(spec[key], str, f"a directive's {key}")
    return data


# ---------------------------------------------------------------------------
# commands: each returns its scenario data (or None), its payload and a
# renderer of its text


def cmd_incidence(args):
    data, equation = scenario_or_equation(args.equation)
    if args.at is not None:
        at = parse_fraction(args.at)
    else:
        at = None if data is None else _scenario_w0(data)
    prof, payload = _profile_payload(equation, at)

    def text():
        lines = [f"{payload['planes']} planes"
                 + ("" if at is None else f" at w = {payload['at']}")]
        # any two of the 3 to 8 distinct planes meet in a listed line
        lines.append("lines:")
        for l in prof.lines:
            lines.append(f"  planes {{{','.join(map(str, l.planes))}}}"
                         f"  q={l.q}")
        if prof.points:
            lines.append("points:")
            for pt in prof.points:
                lines.append(f"  planes {{{','.join(map(str, pt.planes))}}}"
                             f"  p={pt.p} j={pt.j}")
        if "octic" in payload:
            lines.append("octic: " + ("yes" if payload["octic"] else "no"))
        return "\n".join(lines)
    return data, payload, text


def cmd_sigma(args):
    data, equation = scenario_or_equation(args.equation)
    scan = incidence.degenerate_values(parse_equation(equation))
    values = {fraction_str(v.w0): _classify_value(scan.generic, v)
              for v in scan.values}
    payload = {
        "equation": equation,
        "sigma": list(values),
        "classification": values,
        "fatal": [{"w": fraction_str(f.w0), "reason": f.reason}
                  for f in scan.fatal],
    }
    if scan.unresolved:
        payload["unresolved"] = list(map(poly_str, scan.unresolved))

    def text():
        lines = [f"w = {w}: " + ", ".join(tags) for w, tags in values.items()]
        if not lines:
            lines.append("no degenerate parameter values")
        for f in scan.fatal:
            lines.append(f"w = {fraction_str(f.w0)}: fatal ({f.reason})")
        if scan.unresolved:
            lines.append("unresolved factors: "
                         + ", ".join(payload["unresolved"]))
        return "\n".join(lines)
    return data, payload, text


def cmd_classify(args):
    data, equation = scenario_or_equation(args.equation)
    if args.at is not None:
        at = parse_fraction(args.at)
    else:
        at = _scenario_w0(data or {})
    a = parse_equation(equation)
    generic = incidence.profile(a)
    special = generic.fiber(at)
    changes = incidence.profile_diff(generic, special)
    tags = [classify.classify_local(change, generic) for change in changes]
    payload = {
        "equation": equation,
        "at": fraction_str(at),
        "changes": [c.to_json() for c in changes],
        "types": sorted(set(tags)),
    }
    if len(set(tags)) == 1:
        payload["type"] = tags[0]
        payload["residual"] = classify.residual_outcome(tags[0]).to_json()

    def text():
        lines = [f"w = {payload['at']}"]
        if not changes:
            lines.append("no new incidences; the fiber is as generic")
        for c, t in zip(changes, tags):
            lines.append(f"  {c.kind} on planes "
                         f"{{{','.join(map(str, c.involved_planes))}}}: {t}")
        if "residual" in payload:
            r = payload["residual"]
            lines.append(f"residual: {len(r['curves'])} double curve(s), "
                         f"{r['nodes']} node(s)")
        return "\n".join(lines)
    return data, payload, text


def cmd_resolve(args):
    data, _ = find_scenario(args.scenario)
    sched, trace, residual = _trace_scenario(data)
    payload = {
        "scenario": data.get("name", args.scenario),
        "equation": data["equation"],
        "w0": fraction_str(_scenario_w0(data)),
        "steps": sched.names(),
        "residual": residual.to_json(),
        "pinches": list(residual.pinch_multiset()),
    }
    if args.dot_dir:
        payload["dot_files"] = _dot_paths(args, payload["scenario"], trace)

    def text():
        lines = [
            f"{payload['scenario']}: {len(payload['steps'])} blow-up steps at "
            f"w = {payload['w0']}",
            f"surfaces in the final diagram: {len(trace[-1].surfaces)}",
            f"double curves: {len(payload['residual']['curves'])}"
            f"  pinch points: {payload['pinches']}",
            f"nodes: {payload['residual']['nodes']}",
        ]
        if payload["residual"].get("triple_points"):
            lines.append(
                f"triple meetings: {payload['residual']['triple_points']}")
        if "dot_files" in payload:
            lines.append(f"wrote {len(payload['dot_files'])} DOT files to "
                         f"{args.dot_dir}")
        return "\n".join(lines)
    return data, payload, text


def cmd_reduce(args):
    data, _ = find_scenario(args.scenario)
    sched, trace, residual = _trace_scenario(data)
    payload = {
        "scenario": data.get("name", args.scenario),
        "steps": [{"center": center.to_json(), "events": d.events}
                  for center, d in zip(sched.steps, trace[1:])],
        "residual": residual.to_json(),
        "pinches": list(residual.pinch_multiset()),
    }

    def text():
        lines = []
        for i, (center, d) in enumerate(zip(sched.steps, trace[1:])):
            lines.append(f"step {i + 1}: {center.name} ({center.kind})")
            for j in d.events:
                detail = ", ".join(f"{k}={j[k]}" for k in sorted(j)
                                   if k != "event")
                lines.append(f"  {j['event']}: {detail}")
        lines.append(f"residual pinch multiset: {payload['pinches']}, "
                     f"nodes: {residual.nodes}")
        return "\n".join(lines)
    return data, payload, text


def cmd_ss(args):
    data, base = find_scenario(args.scenario)
    complex_, e1, report, _ = limit_report(data, base)
    payload = report.to_json()
    n, dbl, tri = complex_.counts()
    payload["scenario"] = data.get("name", args.scenario)
    payload["counts"] = [n, dbl, tri]
    payload["e1_dims"] = [
        {"q": q, "dims": [e1.dim_pq(p, q) for p in e1.columns]}
        for q in range(6, -1, -1)]

    def text():
        lines = [
            f"{payload['scenario']}: {n} components, {dbl} double strata, "
            f"{tri} triple strata",
            "",
            "E1 page:",
            specseq.render_e1(e1),
            "",
            "E2 page:",
            specseq.render_e2(report),
            "",
            "betti: " + " ".join(str(b) for b in report.betti),
            "weights on the middle cohomology (2, 3, 4): "
            + " ".join(str(x) for x in report.h3_weights),
            "pure: " + ("yes" if report.pure else "no"),
        ]
        annotated = [(pq, r) for pq, r in sorted(report.ranks.items())
                     if r[1] == "annotation"]
        if annotated:
            lines.append("annotated ranks:")
            for (p, q), (rank, _, why) in annotated:
                lines.append(f"  ({p}, {q}) rank {rank}: {why}")
        for w in report.warnings:
            lines.append("warning: " + w)
        return "\n".join(lines)
    return data, payload, text


def cmd_render(args):
    data, _ = find_scenario(args.scenario)
    _, trace, _ = _trace_scenario(data)
    name = data.get("name", args.scenario)
    files = _dot_paths(args, name, trace)
    payload = {"scenario": name, "dot_files": files, "dot_dir": args.dot_dir}
    return data, payload, lambda: "\n".join(
        [f"wrote {len(files)} DOT files to {args.dot_dir}"]
        + [f"  {f}" for f in files])


# ---------------------------------------------------------------------------
# wiring


_EQUATION = ("equation", None, "equation text or scenario name")
_SCENARIO = ("scenario", None, "scenario name or JSON file")
# name: (function, help, arguments as (name, default, help)); every
# subcommand also takes --json and --check
COMMANDS = {
    "incidence": (cmd_incidence, "incidence profile of an arrangement",
                  [_EQUATION, ("--at", None, "parameter value for the fiber")]),
    "sigma": (cmd_sigma, "degenerate parameter values with classifications",
              [_EQUATION]),
    "classify": (cmd_classify, "classify the degeneration at one parameter value",
                 [_EQUATION, ("--at", None, "parameter value (default 0)")]),
    "resolve": (cmd_resolve, "run the blow-up trace and report the residual",
                [_SCENARIO, ("--dot-dir", None,
                             "also write one DOT file per trace step here")]),
    "reduce": (cmd_reduce, "step-by-step blow-up trace", [_SCENARIO]),
    "ss": (cmd_ss, "semistable model and weight spectral sequence", [_SCENARIO]),
    "render": (cmd_render, "write DOT artifacts for a scenario's trace",
               [_SCENARIO, ("--dot-dir", ".",
                            "directory for the DOT files (default: .)")]),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with all seven sub-parsers."""
    parser = argparse.ArgumentParser(
        prog="octic",
        description="incidence analysis and semistable reduction for "
                    "one-parameter families of octic plane arrangements")
    sub = parser.add_subparsers(dest="command", required=True,
                                prog=parser.prog)
    for name, (_, text, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        command.add_argument("--json", action="store_true",
                             help="emit canonical JSON instead of text")
        command.add_argument("--check", action="store_true",
                             help="compare against the scenario's expected "
                                  "block")
        for arg, default, arg_help in arguments:
            command.add_argument(arg, default=default, help=arg_help)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """``argv`` parsed as the parser of all seven subcommands parses it.

    ``argv`` in the plain form is read directly, and no parser is built:
    the subcommand first, then in any order ``--json``, ``--check``, each
    option of that subcommand spelled out in full as ``--opt VALUE`` (a
    VALUE not starting with '-') or ``--opt=VALUE``, and exactly one other
    token, not starting with '-', which is the positional.  Any other
    ``argv`` (help, nothing, a typo, an abbreviation, ``--``, a value or a
    positional starting with '-', an argument missing or left over) is
    parsed by ``build_parser``, for its help, its usage error or its
    reading.  The namespace's ``command`` names the subcommand."""
    if argv and argv[0] in COMMANDS:
        values = {"command": argv[0], "json": False, "check": False}
        options = {}  # option -> its attribute, "--dot-dir" -> "dot_dir"
        for arg, default, _ in COMMANDS[argv[0]][2]:
            if arg.startswith("-"):
                options[arg] = arg[2:].replace("-", "_")
                values[options[arg]] = default
            else:
                positional = arg
        tokens, rest = iter(argv[1:]), []
        for token in tokens:
            if token == "--json" or token == "--check":
                values[token[2:]] = True
            elif not token.startswith("-"):
                rest.append(token)
            else:
                option, eq, value = token.partition("=")
                if not eq:
                    value = next(tokens, "-")  # "-": there is no value
                    if value.startswith("-"):
                        break
                if option not in options:
                    break
                values[options[option]] = value
        else:
            if len(rest) == 1:
                values[positional] = rest[0]
                return argparse.Namespace(**values)
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1/2" for an option, not being a plain negative
    # number, so "--at -1/2" is passed on as "--at=-1/2"
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--at" and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = ["--at=" + argv[i]]
    args = parse_args(argv)
    try:
        data, payload, text = COMMANDS[args.command][0](args)
        text = canonical_json(payload) if args.json else text()
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return run_check(args, data, payload)
    except ScenarioNotFound as err:
        print(f"unknown scenario: {err.args[0]}", file=sys.stderr)
        return NO_SCENARIO
    except _DOMAIN_ERRORS as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return DOMAIN
    except (FileNotFoundError, NoEquation) as err:
        print(str(err), file=sys.stderr)
        return BAD_INPUT
    except (ValueError, KeyError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
