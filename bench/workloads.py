"""The three workloads: their items, and the checks on each item's output.

An item is one unit of closed-loop work: one or more ``octic`` command
lines run one after another through ``octic.cli.main`` in this process.

* ``octic-families``: one seeded 8-plane family, degenerate at w = 0, run
  through ``sigma EQ --json`` and then ``resolve SCEN --json`` at w0 = 0.
  The paper's workload: generic profile over Q(w), the minor scan of
  ``degenerate_values``, special profiles, ``classify`` and the trace.
* ``fiber-sweep``: ``incidence EQ --at W --json`` on generated 8-plane
  families for a grid of rational W, w = 0 included.  Runs over Q only,
  so it shows whether a change to the Q(w) path costs the Q path.
* ``bundled``: every subcommand on every bundled scenario, text output
  with ``--check`` where the scenario has an ``expected`` block plus the
  ``--json`` output, and the exit-code contract on bad inputs.  Small
  arrangements, so CLI overhead, rewrite rules, DOT rendering and the
  spectral sequence weigh more.  It is also the byte-identity gate on the
  bundled scenarios.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import families

WORKLOADS = ("octic-families", "fiber-sweep", "bundled")
SUBCOMMANDS = ("incidence", "sigma", "classify", "resolve", "reduce", "ss",
               "render")
# Generated families per run.  octic-families reaches about 7 of its 12
# today, so a faster program still meets fresh families before the list
# repeats; fiber-sweep cycles about twice through its fibers, and many
# families keep its tail from resting on one or two of them.
FAMILY_COUNT = {"octic-families": 12, "fiber-sweep": 32}
SWEEP_GRID = ("0", "1", "-1", "2", "1/2", "-2/3")
# Bad inputs and the exit code the CLI contract gives them.
CONTRACT = (
    ("contract/unparseable", ["sigma", "xy#z", "--json"], 2),
    ("contract/unknown-scenario", ["resolve", "no-such-scenario", "--json"], 4),
    ("contract/coincident-at",
     ["incidence", "xyz(x+y+wz)(x+wy+z)", "--at", "1", "--json"], 3),
    ("contract/zero-denominator", ["sigma", "xyz(x+y+z+1/0)", "--json"], 2),
)


@dataclass
class Item:
    key: str
    commands: list          # argv lists, run in order
    info: dict              # what the checks need; recorded in the results
    dot_dir: str = ""       # DOT files written here belong to the output


def frac(value) -> str:
    """Canonical "p/q" text, as ``octic`` prints rationals."""
    x = Fraction(value)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def build(name: str, seed: int, inputs: Path, data_dir: Path) -> list:
    """The workload's items in loop order; the same seed gives the same list.
    Scenario files and DOT output go under ``inputs``."""
    if name == "bundled":
        return _bundled(seed, inputs / "dot", data_dir)
    fams = families.families(seed, FAMILY_COUNT[name])
    if name == "octic-families":
        return _octic_families(seed, fams, inputs / "scenarios")
    return _fiber_sweep(fams)


def _octic_families(seed: int, fams: list, scen_dir: Path) -> list:
    scen_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for i, rows in enumerate(fams):
        key = f"f{i:02d}"
        scenario = {"equation": families.equation(rows),
                    "name": f"seed{seed}-{key}", "w0": "0"}
        path = scen_dir / f"{key}.json"
        path.write_text(json.dumps(scenario, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        items.append(Item(key, [["sigma", scenario["equation"], "--json"],
                                ["resolve", path.as_posix(), "--json"]],
                          {"rows": rows, "scenario": scenario}))
    return items


def _fiber_sweep(fams: list) -> list:
    items = []
    for i, rows in enumerate(fams):
        eq = families.equation(rows)
        for w in SWEEP_GRID:
            if families.fiber_is_arrangement(rows, Fraction(w)):
                items.append(Item(f"f{i:02d}@{w}",
                                  [["incidence", eq, f"--at={w}", "--json"]],
                                  {"rows": rows, "equation": eq, "at": w}))
    return items


def _bundled(seed: int, dot_root: Path, data_dir: Path) -> list:
    items = []
    for sub_dir in ("families", "examples"):
        for path in sorted((data_dir / sub_dir).glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(data, dict) or "name" not in data:
                continue  # a side file: annotations or a cycle model
            scen = path.stem
            check = ["--check"] if data.get("expected") else []
            for sub in SUBCOMMANDS:
                extra, dot_dir = [], ""
                if sub == "render":
                    dot_dir = (dot_root / scen).as_posix()
                    extra = ["--dot-dir", dot_dir]
                items.append(Item(f"{sub}/{scen}",
                                  [[sub, scen] + check + extra,
                                   [sub, scen, "--json"] + extra],
                                  {"check": bool(check)}, dot_dir))
    for key, argv, code in CONTRACT:
        items.append(Item(key, [argv], {"exit": code}))
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# checks


def _canonical(out: str):
    """The payload of canonical JSON output, or None when not canonical."""
    try:
        payload = json.loads(out)
    except ValueError:
        return None
    if out != json.dumps(payload, sort_keys=True, indent=2,
                         ensure_ascii=False) + "\n":
        return None
    return payload


def contract_failure(item: Item, results: list):
    """Why the run broke the CLI contract, or None: a traceback, exit 1
    without --check, or an exit code outside 0-4."""
    for argv, (code, _out, err) in zip(item.commands, results):
        if isinstance(code, str):
            return f"{' '.join(argv[:2])}: raised {err.strip()}"
        if code == 1 and "--check" not in argv:
            return f"{' '.join(argv[:2])}: exit 1 without --check"
        if code not in (0, 1, 2, 3, 4):
            return f"{' '.join(argv[:2])}: exit {code}"
    return None


def output_problem(workload: str, item: Item, results: list):
    """Why the outputs are wrong by the benchmark's own exact checks, or None."""
    if workload == "octic-families":
        return _check_family(item, results)
    if workload == "fiber-sweep":
        return _check_fiber(item, results)
    return _check_bundled(item, results)


def _check_family(item: Item, results: list):
    (s_code, s_out, _), (r_code, r_out, _) = results
    if s_code != 0:
        return f"sigma exit {s_code}"
    sigma = _canonical(s_out)
    if sigma is None:
        return "sigma output is not canonical JSON"
    degenerate, fatal = families.scan(item.info["rows"])
    want = [frac(w) for w in sorted(degenerate)]
    if sigma["sigma"] != want:
        return f"sigma {sigma['sigma']} but the exact scan gives {want}"
    got_fatal = [f["w"] for f in sigma["fatal"]]
    if got_fatal != [frac(w) for w in sorted(fatal)]:
        return f"fatal values {got_fatal} differ from the exact scan"
    if r_code not in (0, 3):
        return f"resolve exit {r_code}"
    if r_code == 0:
        trace = _canonical(r_out)
        if trace is None or trace["w0"] != "0" \
                or trace["scenario"] != item.info["scenario"]["name"]:
            return "resolve output is not the canonical report at w0 = 0"
    return None


def _check_fiber(item: Item, results: list):
    ((code, out, _),) = results
    if code != 0:
        return f"exit {code}"
    payload = _canonical(out)
    if payload is None:
        return "output is not canonical JSON"
    if payload["at"] != frac(item.info["at"]) or payload["planes"] != 8:
        return "output describes another fiber"
    return None


def _check_bundled(item: Item, results: list):
    if "exit" in item.info:
        code = results[0][0]
        if code != item.info["exit"]:
            return f"exit {code}, the contract says {item.info['exit']}"
        return None
    (t_code, _, t_err), (j_code, j_out, _) = results
    if item.info["check"] and t_code == 0 and "check ok" not in t_err:
        return "--check passed without saying so"
    if j_code == 0 and _canonical(j_out) is None:
        return "--json output is not canonical JSON"
    return None


def profile_key(payload: dict) -> tuple:
    """Plane sets of lines and points with their multiplicities, the
    combinatorial key of an ``incidence --json`` report."""
    prof = payload["profile"]
    return ({tuple(l["planes"]): l["q"] for l in prof["lines"]},
            {tuple(p["planes"]): (p["p"], p["j"]) for p in prof["points"]})
