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
exact rationals printed as ``p/q`` strings.

``main`` builds only the sub-parser of the subcommand it runs, and all seven
only when the first argument names none (``-h``, nothing, a typo): building
seven cost more than any one stage of a typical call's mathematics.  Usage
and error messages still name all seven, because they list the choices of
the ``COMMANDS`` table, not the sub-parsers built.

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
from .exact import fraction_str, parse_fraction
from .forms import (DuplicateFactor, FormVanishes, NonLinearFactor,
                    ParseError, parse_equation)

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


_PARSE_ERRORS = (ParseError, NonLinearFactor, DuplicateFactor, FormVanishes,
                 json.JSONDecodeError)
_DOMAIN_ERRORS = (incidence.CoincidentPlanes, incidence.WrongPlaneCount,
                  classify.Unclassifiable, resolve.NotOctic,
                  resolve.TraceAborted, diagram.RuleConflict,
                  diagram.CenterNotInDiagram,
                  semistable.UnsupportedConfiguration,
                  specseq.MissingBlock, specseq.InconsistentRanks,
                  specseq.UnknownLabel)


# ---------------------------------------------------------------------------
# scenario plumbing


def data_root() -> Path:
    override = os.environ.get("OCTIC_DATA")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


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
    return data, path.parent


def scenario_or_equation(token: str):
    """(data, equation): a token names a scenario when such a file exists,
    and the scenario's equation is used; else the token is the equation."""
    try:
        data, _ = find_scenario(token)
    except ScenarioNotFound:
        return None, token
    if not data.get("equation"):
        raise NoEquation(token)
    return data, data["equation"]


def _scenario_w0(data) -> Fraction:
    return parse_fraction(str(data.get("w0", "0")))


def residual_from_json(data) -> classify.ResidualSingularities:
    return classify.ResidualSingularities(
        double_curves=tuple(
            classify.DoubleCurve(int(c["pinch"]), c["over"])
            for c in data.get("curves", ())),
        nodes=int(data.get("nodes", 0)),
        node_surface_marker=data.get("node_surface"),
        triple_meeting_points=tuple(
            tuple(int(i) for i in t) for t in data.get("triple_points", ())),
    )


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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
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
    """Write one DOT file per trace step, return the relative file names."""
    outdir = Path(args.dot_dir)
    written = []
    for i, d in enumerate(trace):
        fname = f"{name}-step-{i:02d}.dot"
        write_atomic(outdir / fname, diagram.render_dot(d, name="step_%d" % i))
        written.append(fname)
    return written


# ---------------------------------------------------------------------------
# shared computation steps


def _profile_payload(equation: str, at: Optional[Fraction]):
    a = parse_equation(equation)
    prof = incidence.profile(a, at)
    payload = {
        "equation": equation,
        "at": None if at is None else fraction_str(at),
        "planes": len(a.forms),
        "profile": prof.to_json(),
    }
    if len(a.forms) == 8:
        payload["octic"] = incidence.is_octic(prof).valid
    return prof, payload


def _classify_value(generic, value) -> list:
    """Classification tags for one degenerate parameter value."""
    out = []
    for change in value.changes:
        try:
            t = classify.classify_local(change, generic)
            out.append(t.tag)
        except classify.Unclassifiable as err:
            out.append(f"unclassifiable({change.kind}: {err.args[-1]})")
    return sorted(set(out))


def _trace_scenario(data):
    equation = data.get("equation")
    if not equation:
        raise resolve.TraceAborted(
            "start", "scenario carries no equation to trace", ())
    a = parse_equation(equation)
    generic = incidence.profile(a)
    sched = resolve.schedule(generic, tuple(data.get("blowup_order") or ()))
    trace, residual = resolve.trace_central_fiber(
        a, _scenario_w0(data), sched, data.get("directives"))
    return sched, trace, residual


# ---------------------------------------------------------------------------
# commands


def cmd_incidence(args) -> int:
    data, equation = scenario_or_equation(args.equation)
    if args.at is not None:
        at = parse_fraction(args.at)
    else:
        at = None if data is None else _scenario_w0(data)
    prof, payload = _profile_payload(equation, at)
    lines = [f"{payload['planes']} planes"
             + ("" if at is None else f" at w = {fraction_str(at)}")]
    if prof.lines:
        lines.append("lines:")
        for l in prof.lines:
            lines.append(f"  planes {{{','.join(str(i) for i in l.planes)}}}"
                         f"  q={l.q}")
    if prof.points:
        lines.append("points:")
        for pt in prof.points:
            lines.append(f"  planes {{{','.join(str(i) for i in pt.planes)}}}"
                         f"  p={pt.p} j={pt.j}")
    if not prof.lines and not prof.points:
        lines.append("no multiple lines or points beyond general position")
    if "octic" in payload:
        lines.append("octic: " + ("yes" if payload["octic"] else "no"))
    emit(args, payload, "\n".join(lines))
    return run_check(args, data, payload)


def cmd_sigma(args) -> int:
    data, equation = scenario_or_equation(args.equation)
    scan = incidence.degenerate_values(parse_equation(equation))
    ordered = sorted(scan.values, key=lambda v: v.w0)
    values = {}
    for v in ordered:
        values[fraction_str(v.w0)] = _classify_value(scan.generic, v)
    payload = {
        "equation": equation,
        "sigma": [fraction_str(v.w0) for v in ordered],
        "classification": values,
        "fatal": [{"w": fraction_str(f.w0), "reason": f.reason}
                  for f in sorted(scan.fatal, key=lambda f: f.w0)],
    }
    if scan.unresolved:
        payload["unresolved"] = [str(p) for p in scan.unresolved]
    lines = []
    if not ordered:
        lines.append("no degenerate parameter values")
    for v in ordered:
        lines.append(f"w = {fraction_str(v.w0)}: "
                     + ", ".join(values[fraction_str(v.w0)]))
    for f in scan.fatal:
        lines.append(f"w = {fraction_str(f.w0)}: fatal ({f.reason})")
    if scan.unresolved:
        lines.append("unresolved factors: "
                     + ", ".join(str(p) for p in scan.unresolved))
    emit(args, payload, "\n".join(lines))
    return run_check(args, data, payload)


def cmd_classify(args) -> int:
    data, equation = scenario_or_equation(args.equation)
    if args.at is not None:
        at = parse_fraction(args.at)
    else:
        at = _scenario_w0(data or {})
    a = parse_equation(equation)
    generic = incidence.profile(a)
    special = generic.fiber(at)
    changes = incidence.profile_diff(generic, special)
    tags = []
    for change in changes:
        tags.append(classify.classify_local(change, generic).tag)
    payload = {
        "equation": equation,
        "at": fraction_str(at),
        "changes": [c.to_json() for c in changes],
        "types": sorted(set(tags)),
    }
    if len(set(tags)) == 1:
        payload["type"] = tags[0]
        payload["residual"] = classify.residual_outcome(tags[0]).to_json()
    lines = [f"w = {fraction_str(at)}"]
    if not changes:
        lines.append("no new incidences; the fiber is as generic")
    for c, t in zip(changes, tags):
        lines.append(f"  {c.kind} on planes "
                     f"{{{','.join(str(i) for i in c.involved_planes)}}}: {t}")
    if "residual" in payload:
        r = payload["residual"]
        lines.append(f"residual: {len(r['curves'])} double curve(s), "
                     f"{r['nodes']} node(s)")
    emit(args, payload, "\n".join(lines))
    return run_check(args, data, payload)


def cmd_resolve(args) -> int:
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
    final = trace[-1]
    lines = [
        f"{payload['scenario']}: {len(sched.names())} blow-up steps at "
        f"w = {payload['w0']}",
        f"surfaces in the final diagram: {len(final.surfaces)}",
        f"double curves: {len(payload['residual']['curves'])}"
        f"  pinch points: {payload['pinches']}",
        f"nodes: {payload['residual']['nodes']}",
    ]
    if payload["residual"].get("triple_points"):
        lines.append(f"triple meetings: {payload['residual']['triple_points']}")
    if "dot_files" in payload:
        lines.append(f"wrote {len(payload['dot_files'])} DOT files to "
                     f"{args.dot_dir}")
    emit(args, payload, "\n".join(lines))
    return run_check(args, data, payload)


def cmd_reduce(args) -> int:
    data, _ = find_scenario(args.scenario)
    sched, trace, residual = _trace_scenario(data)
    steps = []
    lines = []
    for i, center in enumerate(sched.steps):
        before, after = trace[i], trace[i + 1]
        fresh = after.events[len(before.events):]
        steps.append({"center": center.to_json(),
                      "events": [e.to_json() for e in fresh]})
        lines.append(f"step {i + 1}: {center.name} ({center.kind})")
        for e in fresh:
            j = e.to_json()
            kind = j.pop("event", "?")
            detail = ", ".join(f"{k}={j[k]}" for k in sorted(j))
            lines.append(f"  {kind}: {detail}" if detail else f"  {kind}")
    payload = {
        "scenario": data.get("name", args.scenario),
        "steps": steps,
        "residual": residual.to_json(),
        "pinches": list(residual.pinch_multiset()),
    }
    lines.append(f"residual pinch multiset: {payload['pinches']}, "
                 f"nodes: {residual.nodes}")
    emit(args, payload, "\n".join(lines))
    return run_check(args, data, payload)


def cmd_ss(args) -> int:
    data, base = find_scenario(args.scenario)
    y_betti = data.get("y_betti")
    if not y_betti:
        raise semistable.UnsupportedConfiguration(
            "scenario has no y_betti; the semistable model needs the "
            "resolved threefold's Betti numbers")
    if data.get("residual") is not None:
        residual = residual_from_json(_referenced(data, base, "residual"))
    else:
        _, _, residual = _trace_scenario(data)
    complex_ = semistable.build_components(residual, tuple(y_betti))
    e1 = specseq.assemble_e1(complex_)
    cm_data = _referenced(data, base, "cycle_model")
    cm = specseq.CycleModel.from_json(cm_data) if cm_data else None
    annotations = _referenced(data, base, "annotations") or ()
    d1 = specseq.build_d1(complex_, cm=cm, annotations=annotations)
    report = specseq.compute_e2(e1, d1)

    payload = report.to_json()
    n, dbl, tri = complex_.counts()
    payload["scenario"] = data.get("name", args.scenario)
    payload["counts"] = [n, dbl, tri]
    payload["e1_dims"] = [
        {"q": q, "dims": [e1.dim_pq(p, q) for p in e1.columns]}
        for q in range(6, -1, -1)]

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
    emit(args, payload, "\n".join(lines))
    return run_check(args, data, payload)


def cmd_render(args) -> int:
    data, _ = find_scenario(args.scenario)
    _, trace, _ = _trace_scenario(data)
    name = data.get("name", args.scenario)
    files = _dot_paths(args, name, trace)
    payload = {"scenario": name, "dot_files": files, "dot_dir": args.dot_dir}
    emit(args, payload,
         "\n".join([f"wrote {len(files)} DOT files to {args.dot_dir}"]
                   + [f"  {f}" for f in files]))
    return run_check(args, data, payload)


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


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with ``command``'s sub-parser alone when ``command`` names
    one, and with all seven otherwise."""
    parser = argparse.ArgumentParser(
        prog="octic",
        description="incidence analysis and semistable reduction for "
                    "one-parameter families of octic plane arrangements")
    sub = parser.add_subparsers(dest="command", required=True,
                                prog=parser.prog)
    # usage and error messages list these choices, not the sub-parsers built
    sub.choices = COMMANDS
    for name in [command] if command in COMMANDS else COMMANDS:
        func, text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of text")
        p.add_argument("--check", action="store_true",
                       help="compare against the scenario's expected block")
        for arg, default, arg_help in arguments:
            p.add_argument(arg, default=default, help=arg_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1/2" for an option, not being a plain negative
    # number, so "--at -1/2" is passed on as "--at=-1/2"
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--at" and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = ["--at=" + argv[i]]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ScenarioNotFound as err:
        print(f"unknown scenario: {err.args[0]}", file=sys.stderr)
        return NO_SCENARIO
    except _DOMAIN_ERRORS as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return DOMAIN
    except _PARSE_ERRORS as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return BAD_INPUT
    except (FileNotFoundError, NoEquation) as err:
        print(str(err), file=sys.stderr)
        return BAD_INPUT
    except (ValueError, KeyError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
