"""Command line driver: golden scenarios, exit codes, determinism."""

import argparse
import enum
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from octic import cli, incidence, specseq
from octic.forms import MAX_W_DEGREE

DATA = Path(cli.__file__).resolve().parent / "data"
FAMILIES = sorted(p.stem for p in (DATA / "families").glob("*.json"))
EXAMPLES = ["two-nodes", "four-pinches", "seven-lines"]
SUBCOMMANDS = ["incidence", "sigma", "classify", "resolve", "reduce", "ss",
               "render"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _outcome(argv):
    """(exit code, stdout, stderr) of ``main``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def test_bundled_scenario_inventory():
    assert len(FAMILIES) == 11
    for name in EXAMPLES:
        assert (DATA / "examples" / f"{name}.json").is_file()


@pytest.mark.parametrize("name", FAMILIES)
def test_sigma_check_passes(capsys, name):
    code, _, err = run(capsys, "sigma", name, "--check")
    assert code == 0, err
    assert "check ok" in err


@pytest.mark.parametrize("name", FAMILIES)
def test_classify_check_passes(capsys, name):
    code, _, err = run(capsys, "classify", name, "--check")
    assert code == 0, err


@pytest.mark.parametrize("name", FAMILIES)
def test_resolve_check_passes(capsys, name):
    code, _, err = run(capsys, "resolve", name, "--check")
    assert code == 0, err
    assert "check ok" in err


@pytest.mark.parametrize("name", EXAMPLES)
def test_ss_check_passes(capsys, name):
    code, _, err = run(capsys, "ss", name, "--check")
    assert code == 0, err
    assert "check ok" in err


@pytest.mark.parametrize("name", ["NewL3", "TwoP41toP51", "P40toP52"])
def test_reduce_runs(capsys, name):
    code, out, _ = run(capsys, "reduce", name)
    assert code == 0
    assert "step 1:" in out
    assert "residual pinch multiset" in out


# ---------------------------------------------------------------------------
# output forms


def _dumps(value) -> str:
    """The canonical JSON of ``value`` as the standard library writes it."""
    return json.dumps(value, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_json_output_is_canonical(capsys, tmp_path, command):
    """Every ``--json`` run that succeeds, on a bundled scenario or on a
    fiber of a seeded family, prints the bytes ``json.dumps`` prints for
    its payload, sorted and indented."""
    runs = [[command, name] for name in FAMILIES + EXAMPLES]
    if command == "incidence":
        runs += [[command, equation, f"--at={w}"]
                 for equation in oracles.SEED1[:2] for w in ("0", "-1/2", "3")]
    flags = ["--json"] + (["--dot-dir", str(tmp_path)]
                          if command == "render" else [])
    succeeded = 0
    for argv in runs:
        code, out, err = run(capsys, *argv, *flags)
        if code == 0:
            assert out == _dumps(json.loads(out)), argv
            succeeded += 1
        else:
            assert out == "", (argv, err)
    # ss runs on the three examples alone, which carry a y_betti
    assert succeeded >= len(EXAMPLES)


def test_sigma_json_names_the_degenerate_values(capsys):
    code, out, _ = run(capsys, "sigma", "NewL3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == ["0"]
    assert payload["classification"] == {"0": ["NewL3"]}


# a seeded 8-plane family of the benchmark whose scan leaves six quadratic
# factors without a rational root, with Fraction coefficients and negative
# terms; the expected output is that of the release before the factors
# became plain tuples
UNRESOLVED = ("xyzt(x+y+z+t)(x-y+2z-2t)(2wx-y-2wy+z+2wz-2t-wt)"
              "(-2wx+y-wy-z+2wz-t+wt)")
UNRESOLVED_FACTORS = [
    "-3/4 + 1/2*w + w^2", "-1/2 + w^2", "-1/4 + 2/3*w + w^2",
    "1/11 + -19/33*w + w^2", "1/4 + -7/6*w + w^2", "1/3 + -2/3*w + w^2"]
_P40 = ["NewP40"]
_ON_NEW_LINE = ("unclassifiable(PointOnNewLine: degeneration outside the "
                "local taxonomy: PointOnNewLine({}) (point (5, 1) from "
                "nowhere))")
UNRESOLVED_VALUES = {
    "-2": _P40, "-6/5": _P40, "-1": _P40, "-2/3": _P40, "-1/2": ["NewP41"],
    "-1/3": _P40, "-1/4": _P40, "-1/6": _P40, "-1/16": _P40,
    "0": ["NewP40", "NewP41", _ON_NEW_LINE.format("2, 3, 4, 7, 8")],
    "1/9": _P40, "1/7": _P40, "1/6": _P40, "1/4": _P40, "4/15": _P40,
    "1/3": _P40, "1/2": _P40, "2/3": _P40, "8/9": _P40,
    "1": ["NewP40", "NewP41", _ON_NEW_LINE.format("1, 3, 5, 7, 8")],
    "5/3": _P40}


def test_sigma_prints_the_unresolved_factors(capsys):
    assert run(capsys, "sigma", UNRESOLVED) == (0, "".join(
        f"w = {w}: {', '.join(tags)}\n"
        for w, tags in UNRESOLVED_VALUES.items())
        + "unresolved factors: " + ", ".join(UNRESOLVED_FACTORS) + "\n", "")
    code, out, _ = run(capsys, "sigma", UNRESOLVED, "--json")
    assert code == 0
    assert json.loads(out) == {
        "equation": UNRESOLVED, "sigma": list(UNRESOLVED_VALUES),
        "classification": UNRESOLVED_VALUES, "fatal": [],
        "unresolved": UNRESOLVED_FACTORS}


# text with what JSON escapes or passes through: quotes, backslashes,
# control characters, non-ASCII and lone surrogates
json_text = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", " ", "é😀", "\ud800", "\udfff x"])
json_trees = st.recursive(
    st.none() | st.booleans() | json_text
    | st.integers(-2 ** 130, 2 ** 130),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=30)


@st.composite
def deep_json_trees(draw):
    """A tree under up to eight more lists and one-key objects, so that
    some are nested at least six deep."""
    tree = draw(json_trees)
    for key in draw(st.lists(st.none() | json_text, max_size=8)):
        tree = [tree] if key is None else {key: tree}
    return tree


@settings(max_examples=400, deadline=None)
@given(deep_json_trees())
@example([[[[[[[{}]]]]]], ()])
@example({"\ud800": [2 ** 64, -2 ** 100, ""], "": {"a": (None, True)}})
def test_canonical_json_writes_the_bytes_json_dumps_writes(value):
    assert cli.canonical_json(value) == _dumps(value)


class _Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [1.5, {1}, {1: "one"}, _Small.ONE],
                         ids=["float", "set", "int-key", "IntEnum"])
def test_canonical_json_refuses_what_payloads_never_hold(value):
    for tree in (value, [value], {"a": value}, {"a": [0, {"b": value}]}):
        with pytest.raises(TypeError):
            cli.canonical_json(tree)


def test_ss_json_deterministic(capsys):
    code, first, _ = run(capsys, "ss", "seven-lines", "--json")
    assert code == 0
    code, second, _ = run(capsys, "ss", "seven-lines", "--json")
    assert code == 0
    assert first == second


def test_render_writes_identical_dot_files(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, _, _ = run(capsys, "render", "NewP40", "--dot-dir", str(d))
        assert code == 0
    files_a = sorted(p.name for p in a.glob("*.dot"))
    files_b = sorted(p.name for p in b.glob("*.dot"))
    assert files_a == files_b
    assert len(files_a) == 7  # initial diagram plus six steps
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_resolve_dot_dir(capsys, tmp_path):
    code, _, _ = run(capsys, "resolve", "NewL3", "--json",
                     "--dot-dir", str(tmp_path))
    assert code == 0
    assert len(list(tmp_path.glob("*.dot"))) == 4


@pytest.mark.parametrize("command,name", [
    ("incidence", "NewL3"), ("sigma", "NewL3"), ("classify", "NewL3"),
    ("reduce", "NewL3"), ("ss", "two-nodes")])
def test_dot_dir_only_where_dot_files_are_written(capsys, tmp_path,
                                                  command, name):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, name, "--dot-dir", str(tmp_path / "D")])
    assert exc.value.code == 2
    assert "--dot-dir" in capsys.readouterr().err
    assert not (tmp_path / "D").exists()


def test_stored_cycle_model_rank_is_checked(capsys, tmp_path):
    for f in (DATA / "examples").glob("seven-lines*.json"):
        (tmp_path / f.name).write_text(f.read_text(encoding="utf-8"),
                                       encoding="utf-8")
    scenario = str(tmp_path / "seven-lines.json")
    assert run(capsys, "ss", scenario, "--check")[0] == 0
    model = tmp_path / "seven-lines-cycle-model.json"
    data = json.loads(model.read_text(encoding="utf-8"))
    assert data["rank"] == 11
    data["rank"] = 10
    model.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "ss", scenario)
    assert code == 3
    assert out == ""
    assert err == ("InconsistentRanks: the cycle model states rank 10, "
                   "but its matrix has rank 11\n")


def test_incidence_on_raw_equation(capsys):
    code, out, _ = run(capsys, "incidence", "xyz(x+y+z+w)", "--at", "0")
    assert code == 0
    assert "p=4" in out


@pytest.mark.parametrize("equation, verdict", [
    ("xyzt(x+y+z+t)(x-y+2z-2t)(2x+y-z+3t)(3x+y-2z+5t)", "yes"),
    ("xy(x+y)(x+2y)zt(x+z)(y+z)", "no")])  # four planes through x = y = 0
def test_incidence_text_says_whether_eight_planes_are_octic(capsys, equation,
                                                           verdict):
    code, out, _ = run(capsys, "incidence", equation)
    assert code == 0
    assert out.splitlines()[-1] == "octic: " + verdict


def test_incidence_scenario_name_uses_its_fiber(capsys):
    code, out, _ = run(capsys, "incidence", "NewP40", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["at"] == "0"
    assert payload["equation"] == "xyz(x+y+z+w)"


@pytest.mark.parametrize("command", ["incidence", "classify"])
@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_negative_fraction_value_as_sigma_prints_it(capsys, command, fmt):
    equation = "xyz(x+y+z)(x+y+2w+1)"
    code, out, _ = run(capsys, "sigma", equation, "--json")
    assert code == 0
    (value,) = json.loads(out)["sigma"]
    assert value == "-1/2"
    spaced = run(capsys, command, equation, "--at", value, *fmt)
    joined = run(capsys, command, equation, f"--at={value}", *fmt)
    assert spaced == joined
    assert spaced[0] == 0
    assert "-1/2" in spaced[1]


def test_optimized_interpreter_parses_parenthesized_factors():
    # ``python -O`` strips assert statements; parsing must not depend on them
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = [subprocess.run([sys.executable, *flags, "-m", "octic.cli",
                            "sigma", "xy(x+y+w)"],
                           capture_output=True, text=True, env=env)
            for flags in ((), ("-O",))]
    assert runs[0].returncode == 0, runs[0].stderr
    assert (runs[1].returncode, runs[1].stdout) == \
        (runs[0].returncode, runs[0].stdout), runs[1].stderr


def test_ss_text_includes_pages_and_ranks(capsys):
    code, out, _ = run(capsys, "ss", "two-nodes")
    assert code == 0
    assert "E1 page:" in out
    assert "C^70⊕C^3" in out
    assert "betti: 1 0 69 4 69 0 1" in out
    assert "pure: no" in out
    assert "annotated ranks:" in out


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_parse_errors(capsys):
    assert run(capsys, "incidence", "x*x*y*z")[0] == 2
    assert run(capsys, "sigma", "xy(")[0] == 2
    assert run(capsys, "incidence", "xy(x+y+w)", "--at", "nope")[0] == 2
    code, _, err = run(capsys, "sigma", "xyz(x+y+z+1/0)")
    assert code == 2
    assert err == "ParseError: zero denominator (at position 10)\n"
    for command in ("incidence", "classify"):
        code, _, err = run(capsys, command, "xyzt", "--at", "1/0")
        assert code == 2
        assert err == "ValueError: zero denominator in '1/0'\n"


@pytest.mark.parametrize("equation,message", [
    ("xyz²", "unexpected character '²' (at position 3)"),
    ("xyz(x+y+z+t)٣", "unexpected character '٣' (at position 12)"),
    ("xyz(x+1 2y+z)",
     "two numbers separated only by whitespace (at position 8)"),
])
def test_a_number_is_digits_0_to_9_without_spaces(capsys, equation, message):
    """A digit other than 0-9, and a number after a number with only
    whitespace between them, end in exit 2 with one line."""
    assert run(capsys, "sigma", equation) == (
        2, "", f"ParseError: {message}\n")


def test_u_squared_stays_a_left_hand_side(capsys):
    assert run(capsys, "sigma", "u² = xy(x+y+w)") == (
        run(capsys, "sigma", "xy(x+y+w)"))


def test_exit_3_on_domain_errors(capsys, tmp_path):
    # coincident planes at the chosen fiber
    assert run(capsys, "incidence", "xyz(x+y+wz)(x+wy+z)", "--at", "1")[0] == 3
    # a trace that needs directives but has none
    bare = {"name": "bare", "equation": "xy(x+y)z(x+z+w)", "w0": "0",
            "blowup_order": json.loads(
                (DATA / "families" / "TwoP41toP52.json").read_text()
            )["blowup_order"]}
    p = tmp_path / "bare.json"
    p.write_text(json.dumps(bare))
    assert run(capsys, "resolve", str(p))[0] == 3
    # semistable model without Betti input
    assert run(capsys, "ss", "NewL3")[0] == 3


@pytest.mark.parametrize("command", ["incidence", "sigma", "classify"])
def test_scenario_without_equation_is_exit_2(capsys, command):
    code, out, err = run(capsys, command, "seven-lines")
    assert (code, out) == (2, "")
    assert err == "scenario seven-lines carries no equation\n"


@pytest.mark.parametrize("command", ["resolve", "reduce", "render"])
def test_trace_without_equation_is_exit_3(capsys, command):
    code, _, err = run(capsys, command, "seven-lines")
    assert code == 3
    assert err == ("TraceAborted: trace aborted at start: "
                   "scenario carries no equation to trace\n")


def test_seven_lines_row_reduces_its_cycle_model_once(capsys, monkeypatch):
    """The stored-rank check's rank of the cycle model is handed on to the
    annotated arrow's lower bound, whose block is the model's transpose:
    at most seven ``exact.rank`` calls, where reducing both took eight."""
    from octic import exact

    calls = []
    rank = exact.rank

    def counted(rows):
        calls.append((len(rows), len(rows[0])))
        return rank(rows)

    monkeypatch.setattr(exact, "rank", counted)
    assert run(capsys, "ss", "seven-lines")[0] == 0
    assert len(calls) <= 7
    # the 12 x 18 model matrix, not also its transpose
    assert calls.count((12, 18)) + calls.count((18, 12)) == 1


# Errors of a trace come in this order: coincident planes in the generic
# fiber, the schedule (here NotOctic), a form vanishing at w0, coincident
# planes at w0.  A form vanishing at w0 also makes its pairs coincide there,
# and the non-octic scenarios are also coincident at w0 or have a form
# vanishing there; the first error in that order is reported.  Forms and
# planes are numbered from 1.
ERROR_ORDER = [
    ("xyz(x+y+z+t)(wx+wy+wt)", 2,
     "FormVanishes: form 5 vanishes identically at w = 0\n"),
    ("xyz(x+y+z+t)(x+wy)", 3, "CoincidentPlanes: planes 1 and 5 coincide\n"),
    ("xy(x+y)(x-y)z(z+wt)", 3,
     "NotOctic: arrangement is not octic: (('line', (1, 2, 3, 4)),)\n"),
    ("xy(x+y)(x-y)z(wz+wt)", 3,
     "NotOctic: arrangement is not octic: (('line', (1, 2, 3, 4)),)\n"),
]


@pytest.mark.parametrize("command", ["resolve", "reduce", "render"])
@pytest.mark.parametrize("equation,code,message", ERROR_ORDER)
def test_trace_errors_keep_their_order(capsys, tmp_path, command, equation,
                                       code, message):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"name": "s", "equation": equation, "w0": "0"}))
    extra = ["--dot-dir", str(tmp_path / "dot")] if command == "render" else []
    assert run(capsys, command, str(p), *extra) == (code, "", message)


@pytest.mark.parametrize("equation,code,message", [
    ERROR_ORDER[0], ERROR_ORDER[1],
    ("xy(x+y)(x-y)z(z+wt)", 3, "CoincidentPlanes: planes 5 and 6 coincide\n"),
    ("xy(x+y)(x-y)z(wz+wt)", 2,
     "FormVanishes: form 6 vanishes identically at w = 0\n"),
])
def test_classify_errors_keep_their_order(capsys, equation, code, message):
    assert run(capsys, "classify", equation, "--at", "0") == (code, "",
                                                                 message)


def test_incidence_at_names_a_vanishing_form_first(capsys):
    """The form vanishes at 0 and makes planes 1 and 5 coincide there; the
    form is named."""
    assert run(capsys, "incidence", ERROR_ORDER[0][0], "--at", "0") == (
        2, "", ERROR_ORDER[0][2])


@pytest.mark.parametrize("argv", [["resolve", "P40toP52"],
                                  ["classify", "P40toP52", "--at", "0"],
                                  ["classify", "xyz(x+y+wz)(x+2y+z)",
                                   "--at", "1/2"]])
def test_one_minor_table_per_command(capsys, monkeypatch, argv):
    """The central fiber is read off the generic profile's minor table."""
    tables = []
    table_of = incidence._minor_table

    def counted(rows):
        tables.append(rows)
        return table_of(rows)

    monkeypatch.setattr(incidence, "_minor_table", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(tables) == 1


def test_sigma_evaluates_minors_only_where_read(capsys, monkeypatch):
    """A special profile evaluates the table minors it reads at its
    parameter: sigma reads them only where a generic point's planes
    collapse onto a special line, to compare that point's coordinates with
    the special point's."""
    calls = []
    evaluate = incidence._zw_at

    def counted(polys, w0):
        calls.append(polys)
        return evaluate(polys, w0)

    monkeypatch.setattr(incidence, "_zw_at", counted)
    for name in ("NewP40", "P50toP52", "TwoP41toP51"):
        assert run(capsys, "sigma", name)[0] == 0
    assert calls == []
    # the generic point {1,2,3,4} lands on the special line x = y = 0
    assert run(capsys, "sigma", "xy(x+y+wz+wt)(x-y+wz+wt)z")[0] == 0
    assert calls


def _fuzz_ok(text: str) -> bool:
    """Whether ``text`` holds no run of three digits outside exponents: a
    coefficient near 10^18 makes a long divisor search, while a factor's
    exponent is only counted and a power of w is bounded by the parser."""
    text = re.sub(r"\^\d+", "^", text.replace(" ", ""))
    return not re.search(r"\d{3}", text)


# equation text over the parser's alphabet
fuzz_text = st.text("xyztwu0123456789()+-*/^= ", max_size=24).filter(_fuzz_ok)
# powers of w up to the degree bound, and past it
fuzz_w_power = st.sampled_from(["", "", "", "", "w", "w^2", "w^3",
                                f"w^{MAX_W_DEGREE - 1}", f"w^{MAX_W_DEGREE}"])
# a power of w in front of a factor, drawn as a factor's exponent is
fuzz_w_prefix = st.sampled_from(["", "", "", "", "w", "w^2", "w^10", "w^99",
                                 f"w^{MAX_W_DEGREE // 2}",
                                 f"w^{MAX_W_DEGREE}", "w^1000000000"])
# zeros in front of a coefficient, which make a token longer than a file
# name may be without making the coefficient large
fuzz_zeros = st.sampled_from(["", "", "", "", "", "", "", "0" * 300])


@st.composite
def fuzz_products(draw) -> str:
    """A product of bare variables and random linear factors: zero
    coefficients, zero-padded ones, powers of w, ``^`` exponents and a
    ``u^2 =`` prefix."""
    out = draw(st.sampled_from(["", "", "u^2 = ", "u2="]))
    bare = draw(st.integers(0, 4))
    out += "".join(draw(st.permutations("xyzt"))[:bare])
    for _ in range(draw(st.integers(max(0, 3 - bare), 8 - bare))):
        terms = draw(st.lists(st.tuples(
            st.sampled_from(["+", "+", "-"]), fuzz_zeros,
            st.from_regex(r"([0-9](/[0-9])?)?", fullmatch=True),
            fuzz_w_power, st.sampled_from(["x", "y", "z", "t", ""])),
            min_size=1, max_size=5))
        out += draw(fuzz_w_prefix) + "(" + "".join(map("".join, terms)) + ")"
        out += draw(st.sampled_from(["", "", "", "", "^2", "^3", "^10",
                                     "^99", "^1000000000"]))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["sigma", "incidence", "classify", "resolve", "reduce",
                        "ss"]),
       st.one_of(fuzz_text, fuzz_products()),
       st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3"]))
@example("sigma", "xyz(x+w^" + "9" * 300 + "y)", "0")
@example("resolve", "xyz(x+" + "0" * 300 + "1w)", "0")
def test_exit_codes_hold_under_fuzzing(command, equation, w0):
    """Every command ends every input in a documented exit code with a
    message, never in a traceback: ``sigma``, ``incidence --at`` and
    ``classify --at`` read the token as an equation, ``resolve``, ``reduce``
    and ``ss`` as a scenario name or file, and tokens run longer than a
    file name may be."""
    at = ["--at", w0] if command in ("incidence", "classify") else []
    # argparse exits 2 on an equation like "-x"
    code, _, err = _outcome([command, equation] + at)
    assert code in (0, 2, 3, 4), (command, equation, err)
    assert "Traceback" not in err


# The three files of the seven-lines example, by the suffix of their names,
# and mistyped versions of them: (file, mutation, the one line on stderr)
SEVEN_LINES = {suffix: json.loads(
    (DATA / "examples" / f"seven-lines{suffix}.json").read_text("utf-8"))
    for suffix in ("", "-annotations", "-cycle-model")}
SS_MUTANTS = {
    "entry-1/0": ("-cycle-model", lambda d: {
        **d, "matrix": [["1/0"] + d["matrix"][0][1:]] + d["matrix"][1:]},
        "ValueError: zero denominator in '1/0'"),
    "ragged-matrix": ("-cycle-model", lambda d: {
        **d, "matrix": [d["matrix"][0][:-1]] + d["matrix"][1:]},
        "ValueError: matrix width does not match its column labels"),
    "rank-list": ("-cycle-model", lambda d: {**d, "rank": [1]},
                  "ValueError: the cycle model's rank must be an integer"),
    "generators-list": ("-cycle-model", lambda d: {**d, "generators": [1]},
                        "ValueError: the cycle model's generators must be "
                        "an object"),
    "annotations-object": ("-annotations", lambda d: d[0],
                           "ValueError: the rank annotations must be a list"),
    "annotations-numbers": ("-annotations", lambda d: [1, 2],
                            "ValueError: an entry of the rank annotations "
                            "must be an object"),
    "annotation-rank-text": ("-annotations",
                             lambda d: [{**d[0], "rank": "6"}] + d[1:],
                             "ValueError: an annotation's rank must be an "
                             "integer"),
    "residual-list": ("", lambda d: {**d, "residual": [1]},
                      "ValueError: the residual must be an object"),
    "y_betti-number": ("", lambda d: {**d, "y_betti": 5},
                       "ValueError: y_betti must be a list"),
    "triple-point-index": ("", lambda d: {**d, "residual": {
        **d["residual"], "triple_points": [[0, 1, 7]]}},
        "ValueError: a triple point names a curve the residual lacks"),
    "nodes-negative": ("", lambda d: {**d, "residual": {
        **d["residual"], "nodes": -1}},
        "ValueError: the node count must not be negative, got -1"),
    # JSON true and false are Python bools, and a bool is an int
    "nodes-true": ("", lambda d: {**d, "residual": {
        **d["residual"], "nodes": True}},
        "ValueError: the node count must be an integer"),
    "annotation-rank-false": ("-annotations",
                              lambda d: [{**d[0], "rank": False}] + d[1:],
                              "ValueError: an annotation's rank must be an "
                              "integer"),
    "rank-true": ("-cycle-model", lambda d: {**d, "rank": True},
                  "ValueError: the cycle model's rank must be an integer"),
}


def _ss_outcome(directory: Path, files: dict):
    for suffix, data in files.items():
        (directory / f"seven-lines{suffix}.json").write_text(
            json.dumps(data), encoding="utf-8")
    return _outcome(["ss", str(directory / "seven-lines.json")])


@pytest.mark.parametrize("mutant", SS_MUTANTS)
def test_ss_refuses_a_mistyped_input_with_exit_2(tmp_path, mutant):
    suffix, mutate, message = SS_MUTANTS[mutant]
    files = dict(SEVEN_LINES)
    files[suffix] = mutate(files[suffix])
    assert _ss_outcome(tmp_path, files) == (2, "", message + "\n")


# JSON values a field of a scenario may be replaced by; DELETE drops it
DELETE = object()
fuzz_json = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.just(DELETE),
    st.sampled_from(["", "1/0", "x", "-1", "triple_line", "Y&Q1"]),
    st.lists(st.integers(-1, 9), max_size=3),
    st.just({}), st.just({"p": 0}))


@st.composite
def ss_mutants(draw) -> dict:
    """The seven-lines files with one field at any depth, or one whole
    file, replaced by a value of another JSON type or dropped."""
    files = json.loads(json.dumps(SEVEN_LINES))
    node, key = files, draw(st.sampled_from(sorted(files)))
    while draw(st.integers(0, 3)) and isinstance(node[key], (dict, list)) \
            and node[key]:
        node, key = node[key], draw(st.sampled_from(
            sorted(node[key]) if isinstance(node[key], dict)
            else range(len(node[key]))))
    value = draw(fuzz_json)
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return files


@settings(max_examples=150, deadline=None)
@given(ss_mutants())
def test_ss_exit_codes_hold_under_mutated_scenario_files(files):
    """``ss`` ends a scenario, annotations file or cycle model with any
    one field mistyped or missing in a documented exit code and one line
    on stderr, never in a traceback."""
    with tempfile.TemporaryDirectory() as directory:
        code, _, err = _ss_outcome(Path(directory), files)
    assert code in (0, 2, 3, 4), err
    assert code == 0 or err.count("\n") == 1, err


# bundled scenarios that ``resolve`` and ``reduce`` trace, and mistyped
# versions of them: (scenario, mutation, the one line on stderr, flags);
# "{dir}" in a flag or message is the directory the scenario file is in,
# and a row with --dot-dir runs under ``resolve`` and ``render``
TRACED = {name: json.loads((DATA / "families" / f"{name}.json").read_text(
    "utf-8")) for name in ("NewL3", "TwoP41toP51")}
TRACE_MUTANTS = {
    "equation-number": ("NewL3", lambda d: {"name": "s", "equation": 5,
                                             "w0": "0"},
                        "ValueError: the equation must be a string"),
    "order-number": ("NewL3", lambda d: {**d, "blowup_order": 1.5},
                     "ValueError: the blow-up order must be a list"),
    "order-entry-list": ("TwoP41toP51", lambda d: {
        **d, "blowup_order": [["L123"]] + d["blowup_order"][1:]},
        "ValueError: an entry of the blow-up order must be a string"),
    "w0-number": ("NewL3", lambda d: {**d, "w0": 0},
                  "ValueError: w0 must be a string"),
    "directives-list": ("TwoP41toP51", lambda d: {**d, "directives": [1]},
                        "ValueError: the directives must be an object"),
    "directive-text": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L45": "plain"}},
        "ValueError: a directive must be an object"),
    "targets-labels": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L34": {
            "rewrite": "plain", "targets": ["P3"]}}},
        "ValueError: an entry of a directive's targets must be a list"),
    "pinches-null": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L45": {
            **d["directives"]["L45"], "pinches": None}}},
        "ValueError: a directive's pinches must be a list"),
    "split-without-parent": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L4A": {
            k: v for k, v in d["directives"]["L4A"].items()
            if k != "parent"}}},
        "TraceAborted: trace aborted at L4A: split rewrite with no surface "
        "to split"),
    # a split that lacks both its tag and its parent is refused for the tag
    "split-without-tag": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L4A": {
            k: v for k, v in d["directives"]["L4A"].items()
            if k not in ("over", "parent")}}},
        "TraceAborted: trace aborted at L4A: transcribed split at L4A needs "
        "a singular-locus tag"),
    "unknown-rewrite": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L4A": {
            **d["directives"]["L4A"], "rewrite": "merge"}}},
        "TraceAborted: trace aborted at L4A: transcribed step L4A has "
        "unknown rewrite 'merge'"),
    "plain-with-parent": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L34": {
            **d["directives"]["L34"], "parent": "P9"}}},
        "ValueError: directive L34 carries 'parent', which a plain rewrite "
        "does not read"),
    "unscheduled-directive": ("TwoP41toP51", lambda d: {
        **d, "directives": {**d["directives"], "L99": {"rewrite": "bogus"}}},
        "ValueError: directive L99 names no center of the schedule"),
    "expected-list": ("NewL3", lambda d: {**d, "expected": [[1]]},
                      "ValueError: the expected block must be an object",
                      "--check"),
    "name-number": ("NewL3", lambda d: {**d, "name": 5},
                    "ValueError: the scenario's name must be a string"),
    "name-escapes": ("NewL3", lambda d: {**d, "name": "../escaped"},
                     "ValueError: DOT files cannot be named after "
                     "'../escaped'", "--dot-dir", "{dir}/out/sub"),
    "nameless-path": ("NewL3", lambda d: {
        k: v for k, v in d.items() if k != "name"},
        "ValueError: DOT files cannot be named after '{dir}/scenario.json'",
        "--dot-dir", "{dir}/out/sub"),
}
TRACE_RUNS = [(mutant, command) for mutant, row in TRACE_MUTANTS.items()
              for command in ("resolve",
                              "render" if "--dot-dir" in row else "reduce")]


def _trace_outcome(command: str, directory: Path, data: dict, *flags):
    path = directory / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return _outcome([command, str(path), *flags])


def _written(directory: Path) -> list:
    """Every file under ``directory``, as a path relative to it."""
    return sorted(p.relative_to(directory).as_posix()
                  for p in directory.rglob("*") if p.is_file())


@pytest.mark.parametrize("mutant,command", TRACE_RUNS,
                         ids=["-".join(run) for run in TRACE_RUNS])
def test_trace_refuses_a_mistyped_scenario_with_one_line(tmp_path, command,
                                                         mutant):
    name, mutate, message, *flags = TRACE_MUTANTS[mutant]
    flags = [flag.format(dir=tmp_path) for flag in flags]
    code = 3 if message.startswith("TraceAborted") else 2
    assert _trace_outcome(command, tmp_path, mutate(TRACED[name]),
                          *flags) == (
        code, "", message.format(dir=tmp_path) + "\n")
    assert _written(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize("command", ["resolve", "render"])
def test_dot_files_are_written_inside_the_dot_dir_or_not_at_all(
        tmp_path, monkeypatch, command):
    """A nameless scenario given by a relative token that leaves the working
    directory names no DOT file; a plain name writes them all under
    --dot-dir."""
    data = dict(TRACED["NewL3"])
    del data["name"]
    (tmp_path / "nameless.json").write_text(json.dumps(data), "utf-8")
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert _outcome([command, "../nameless.json", "--dot-dir", "out/sub"]) \
        == (2, "", "ValueError: DOT files cannot be named after "
                   "'../nameless.json'\n")
    assert _written(tmp_path) == ["nameless.json"]
    code, _, _ = _outcome([command, "NewL3", "--dot-dir", "out/sub"])
    assert code == 0
    assert _written(tmp_path) == [
        f"cwd/out/sub/NewL3-step-0{i}.dot" for i in range(4)] + [
        "nameless.json"]


# ``reduce --json`` and ``render`` on each family of ``oracles.SEED1`` at
# w0 = 0: the exit code, the digest of reduce's stdout or the one line on
# stderr, and the number and digest of the DOT files.  Pinned here because
# no benchmark workload prints a generated family's events or DOT, so a
# change to a rewrite would otherwise show only on the bundled scenarios
_ABORT = "TraceAborted: trace aborted at {0}: pinch attribution on a node " \
         "pair {0}"
SEED1_TRACES = [
    (0, "674e0743def00912", 29, "9bf3c0b1ba00de16"),
    (3, _ABORT.format("L58"), 0, None),
    (0, "e49430492bc8e432", 29, "bc0c8668ea767f64"),
    (0, "61f9f3fc3adab2fd", 31, "2ac8af092e93a7bd"),
    (0, "efff5e6349aafde3", 29, "782f9ddb210bb165"),
    (0, "b66cbded04173bdb", 29, "97953c7efe918025"),
    (3, _ABORT.format("L68"), 0, None),
    (0, "07a6acfc49f1daa3", 31, "59383a087a4c3d51"),
    (0, "45d4e077a46a71d5", 29, "6ac1142682abad53"),
    (0, "c899ba9f3682a4a0", 30, "6f7bb7a0a8936443"),
    (0, "d156bf2727cdcb44", 29, "a6f6969450e6382b"),
    (3, _ABORT.format("L58"), 0, None),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("k", range(len(oracles.SEED1)))
def test_seeded_traces_print_the_recorded_events_and_dot(tmp_path, k):
    code, printed, count, dot = SEED1_TRACES[k]
    name = "seed1-%02d" % (k + 1)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "equation": oracles.SEED1[k],
                                "w0": "0"}), encoding="utf-8")
    out_dir = tmp_path / "dot"
    reduced = _outcome(["reduce", str(path), "--json"])
    rendered = _outcome(["render", str(path), "--dot-dir", str(out_dir)])
    if code:
        assert reduced == rendered == (code, "", printed + "\n")
        assert not out_dir.exists()
        return
    assert reduced[0] == 0 and _digest(reduced[1]) == printed
    files = _written(out_dir)
    assert rendered == (0, "".join(
        [f"wrote {count} DOT files to {out_dir}\n"]
        + [f"  {f}\n" for f in files]), "")
    assert len(files) == count
    assert _digest("".join(f + "\n" + (out_dir / f).read_text("utf-8")
                           for f in files)) == dot


@pytest.mark.parametrize("command", ["resolve", "render"])
@pytest.mark.parametrize("target,reason", [
    ("F", "File exists"), ("F/sub", "Not a directory")])
def test_a_dot_dir_that_cannot_be_made_is_exit_2(tmp_path, monkeypatch,
                                                 command, target, reason):
    """A plain file where --dot-dir or one of its parents should be a
    directory: one line naming the directory, exit 2, nothing written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("plain\n", encoding="utf-8")
    assert _outcome([command, "NewL3", "--dot-dir", target]) == (
        2, "", f"ValueError: cannot write DOT files to {target}: {reason}\n")
    assert _written(tmp_path) == ["F"]
    assert (tmp_path / "F").read_text(encoding="utf-8") == "plain\n"


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_dot_files_take_the_umask_mode_and_leave_no_temporary_file(
        tmp_path, umask_022):
    """Each DOT file gets 0o666 less the umask, and only the DOT files are
    left; a symlink at a temporary name is unlinked, never followed."""
    out, target = tmp_path / "D", tmp_path / "target"
    out.mkdir()
    target.write_text("kept\n", encoding="utf-8")
    stale = out / f"NewL3-step-01.dot.{os.getpid()}.tmp"
    stale.symlink_to(target)
    assert _outcome(["render", "NewL3", "--dot-dir", str(out)])[0] == 0
    files = _written(out)
    assert files == [f"NewL3-step-0{i}.dot" for i in range(4)]
    assert all((out / f).stat().st_mode & 0o777 == 0o644 for f in files)
    assert not os.path.lexists(stale)
    assert target.read_text(encoding="utf-8") == "kept\n"


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    """A replace that fails (a directory at the target) removes the
    temporary file and leaves what was there."""
    (tmp_path / "f.dot").mkdir()
    with pytest.raises(OSError):
        cli.write_atomic(str(tmp_path / "f.dot"), "graph g {}\n")
    assert os.listdir(tmp_path) == ["f.dot"]
    assert (tmp_path / "f.dot").is_dir()


@st.composite
def trace_mutants(draw) -> dict:
    """A traced scenario with one field at any depth replaced by a value of
    another JSON type or dropped."""
    data = json.loads(json.dumps(TRACED[draw(st.sampled_from(sorted(
        TRACED)))]))
    node, key = data, draw(st.sampled_from(sorted(data)))
    while draw(st.integers(0, 3)) and isinstance(node[key], (dict, list)) \
            and node[key]:
        node, key = node[key], draw(st.sampled_from(
            sorted(node[key]) if isinstance(node[key], dict)
            else range(len(node[key]))))
    value = draw(fuzz_json)
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return data


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["resolve", "reduce", "render"]), trace_mutants(),
       st.booleans(), st.booleans())
def test_trace_exit_codes_hold_under_mutated_scenario_files(command, data,
                                                            check, dot):
    """``resolve``, ``reduce`` and ``render`` end a scenario with any one
    field mistyped or missing in a documented exit code and one line on
    stderr, never in a traceback, with or without --check; exit 1 only
    under --check, with one line per mismatched key.  DOT files land
    inside --dot-dir (always given to ``render``), and nothing else is
    written."""
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        flags = ["--check"] if check else []
        if command == "render" or command == "resolve" and dot:
            flags += ["--dot-dir", str(directory / "out" / "sub")]
        code, _, err = _trace_outcome(command, directory, data, *flags)
        stray = [f for f in _written(directory)
                 if f != "scenario.json" and not f.startswith("out/sub/")]
    assert code in ((0, 1, 2, 3, 4) if check else (0, 2, 3, 4)), err
    if code == 1:
        assert all(line.startswith("check ") for line in err.splitlines())
    elif code != 0:
        assert err.count("\n") == 1, err
    assert stray == []


def test_a_huge_factor_power_is_exit_2_at_once(capsys):
    code, out, err = run(capsys, "sigma", "xyz^1000000000")
    assert (code, out, err) == (
        2, "", "ValueError: expected 3..8 forms, got 1000000002\n")


@pytest.mark.parametrize("value,message", [
    *((value, f"the exponent of {value!r} exceeds 4300, the most digits an "
              "integer prints")
      for value in ("1e100000000", "1e10000", "1e-100000000")),
    # values of more than 4300 digits, refused before any profile is
    # computed
    ("123e4299", "the value of '123e4299' has more than 4300 digits, the "
                 "most an integer prints"),
    ("9" * 5000, f"the value of '{'9' * 20}...' has more than 4300 digits, "
                 "the most an integer prints"),
], ids=["1e100000000", "1e10000", "1e-100000000", "123e4299", "9x5000"])
def test_a_huge_decimal_exponent_is_exit_2_at_once(capsys, tmp_path, value,
                                                   message):
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "NewL3", f"--at={value}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"ValueError: {message}\n"
    # a scenario's w0 is read by the same rule
    data = json.loads((DATA / "families" / "NewL3.json").read_text())
    data["w0"] = value
    p = tmp_path / "huge-w0.json"
    p.write_text(json.dumps(data))
    assert run(capsys, "resolve", str(p)) == (2, "", err)
    # and so is an entry of a stored cycle model
    for f in (DATA / "examples").glob("seven-lines*.json"):
        (tmp_path / f.name).write_text(f.read_text(encoding="utf-8"),
                                       encoding="utf-8")
    model = tmp_path / "seven-lines-cycle-model.json"
    data = json.loads(model.read_text(encoding="utf-8"))
    data["matrix"][0][0] = value
    model.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "ss", str(tmp_path / "seven-lines.json")) == (
        2, "", err)


def test_decimal_and_negative_values_still_parse(capsys):
    half = run(capsys, "classify", "NewL3", "--at=3/2")
    assert half[0] == 0 and half[1].startswith("w = 3/2\n")
    assert run(capsys, "classify", "NewL3", "--at=1.5") == half
    negative = run(capsys, "classify", "NewL3", "--at", "-1/2")
    assert negative[0] == 0 and negative[1].startswith("w = -1/2\n")


def test_a_huge_power_of_w_is_exit_2_at_once(capsys):
    code, out, err = run(capsys, "sigma", "xy(z+w^1000000000t)")
    assert (code, out, err) == (
        2, "", "ParseError: degree in w above 1000 (at position 6)\n")


# Every token is first looked up as a scenario file; one longer than a file
# name may be is no such file, not an error.
def test_a_token_too_long_for_a_file_name_is_parsed(capsys):
    refused = (2, "", "ParseError: degree in w above 1000 (at position 7)\n")
    assert run(capsys, "sigma", "xyz(x+w^" + "9" * 300 + "y)") == refused
    assert run(capsys, "sigma", "xyz(x+w^" + "9" * 240 + "y)") == refused


def test_a_long_valid_equation_runs(capsys):
    padded = run(capsys, "incidence", "xyz(x+y+z+" + "0" * 300 + "1w)", "--at",
                 "1")
    assert padded[0] == 0
    assert padded == run(capsys, "incidence", "xyz(x+y+z+w)", "--at", "1")


def test_a_scenario_name_too_long_for_a_file_is_exit_4(capsys):
    assert run(capsys, "resolve", "a" * 300) == (
        4, "", f"unknown scenario: {'a' * 300}\n")


def test_exit_4_on_unknown_scenario(capsys):
    code, _, err = run(capsys, "resolve", "no-such-scenario")
    assert code == 4
    assert "unknown scenario" in err


def test_exit_1_on_check_mismatch(capsys, tmp_path):
    data = json.loads((DATA / "families" / "NewL3.json").read_text())
    data["expected"]["pinches"] = [7]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    code, _, err = run(capsys, "resolve", str(p), "--check")
    assert code == 1
    assert "pinches" in err


def test_malformed_scenario_file_is_exit_2(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert run(capsys, "resolve", str(p))[0] == 2
    p.write_text("[1, 2]")
    for command in ("incidence", "sigma", "resolve"):
        code, _, err = run(capsys, command, str(p))
        assert code == 2
        assert err == ("ValueError: scenario file junk.json holds no JSON "
                       "object\n")
    p.write_text('{"equation": "xyz(x+y+z+w)", "w0": "1/0"}')
    for command in ("incidence", "classify", "resolve"):
        code, _, err = run(capsys, command, str(p))
        assert code == 2
        assert err == "ValueError: zero denominator in '1/0'\n"


# ---------------------------------------------------------------------------
# scenario lookup


def test_octic_data_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OCTIC_DATA", str(tmp_path))
    assert run(capsys, "resolve", "NewL3")[0] == 4
    sub = tmp_path / "families"
    sub.mkdir()
    sub.joinpath("NewL3.json").write_text(
        (DATA / "families" / "NewL3.json").read_text())
    assert run(capsys, "resolve", "NewL3", "--check")[0] == 0


def test_direct_path_lookup(capsys):
    path = DATA / "examples" / "seven-lines.json"
    code, out, _ = run(capsys, "ss", str(path), "--json")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 37, 4, 37, 0, 1]


def test_expected_blocks_exist_in_all_bundled_scenarios():
    for sub in ("families", "examples"):
        for p in sorted((DATA / sub).glob("*.json")):
            if p.stem.endswith(("-annotations", "-cycle-model")):
                continue
            data = json.loads(p.read_text())
            assert data.get("expected"), p.name
            assert data.get("name") == p.stem


@pytest.mark.parametrize("name", EXAMPLES)
def test_stored_residual_reads_back_unchanged(name):
    # the adjacency stored next to the triple points is derived on reading
    data, base = cli.find_scenario(name)
    stored = cli._referenced(data, base, "residual")
    assert cli.residual_from_json(stored).to_json() == stored


# ---------------------------------------------------------------------------
# argument parsing


# help, usage errors, the one rewritten option value, and arguments that
# are not in the plain form ``parse_args`` reads itself
USAGE = ([["-h"]] + [[command, "-h"] for command in SUBCOMMANDS]
         + [[], ["--json"], ["sigm", "x"], ["incidence"],
            ["sigma", "xyzt", "--foo"],
            ["incidence", "xyz(x+y+z+wt)", "--at", "-1/2"],
            ["resolve", "--foo", "NewL3"], ["sigma", "--js", "xyzt"],
            ["sigma", "--", "xyzt"], ["incidence", "xyzt", "--at"],
            ["sigma", "NewL3", "--json", "--json"]])


@pytest.mark.parametrize("argv", USAGE, ids=lambda argv: " ".join(argv) or "-")
def test_usage_is_that_of_all_seven_sub_parsers(monkeypatch, argv):
    """What ``main`` runs, and its help, usage and errors, are those of the
    parser with all seven, built directly."""
    one = _outcome(argv)
    monkeypatch.setattr(cli, "parse_args",
                        lambda argv: cli.build_parser().parse_args(argv))
    assert one == _outcome(argv)


@pytest.fixture
def parsers(monkeypatch):
    """The ``prog`` of every ArgumentParser made from here on."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


def _parsed(parse, argv):
    """The namespace ``parse`` makes of ``argv``, or argparse's exit: its
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parse(list(argv))
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()


# the subcommands and a typo; positionals, one of them starting with '-';
# options spelled out, abbreviated, unknown and given a value they refuse
ARGV_TOKENS = (SUBCOMMANDS + ["sigm", "NewL3", "xyzt", "", "-1/2", "a b", "-",
                              "--", "--json", "--check", "--at", "--at=1",
                              "--at=-1/2", "--at=", "--dot-dir",
                              "--dot-dir=d", "--js", "--a", "--dot", "-h",
                              "--help", "--foo", "--json=1"])


# a subcommand, one positional and options in any order: plain form when
# the options are the subcommand's own
plain_argv = st.tuples(
    st.sampled_from(SUBCOMMANDS),
    st.sampled_from(["NewL3", "xyzt", "", "a b", "sigma"]),
    st.lists(st.sampled_from(["--json", "--check", "--at", "--at=1",
                              "--at=-1/2", "--at=", "--dot-dir",
                              "--dot-dir=d", "1/2", "d"]), max_size=4),
).flatmap(lambda drawn: st.permutations([drawn[1], *drawn[2]]).map(
    lambda rest: [drawn[0], *rest]))
argv_lists = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
    st.tuples(st.sampled_from(SUBCOMMANDS),
              st.lists(st.sampled_from(ARGV_TOKENS), max_size=5)).map(
        lambda drawn: [drawn[0], *drawn[1]]),
    plain_argv)


@settings(max_examples=600, deadline=None)
@given(argv_lists)
@example(["incidence", "xyzt", "--at", "1/2", "--json"])
@example(["render", "--dot-dir", "d", "NewL3", "--check"])
@example(["resolve", "--dot-dir=", "NewL3", "--json", "--json"])
def test_parse_args_reads_argv_as_the_parser_of_all_seven(argv):
    """``parse_args`` gives the namespace the parser of all seven gives, or
    the same exit with the same help or usage error."""
    assert (_parsed(cli.parse_args, argv)
            == _parsed(lambda a: cli.build_parser().parse_args(a), argv))


def test_plain_calls_build_no_parser(capsys, parsers):
    assert run(capsys, "sigma", "NewL3")[0] == 0
    assert run(capsys, "incidence", "xyz(x+y+z+wt)", "--at", "-1/2",
                "--json")[0] == 0
    assert parsers == []


def test_help_builds_all_seven_sub_parsers(capsys, parsers):
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    assert parsers == ["octic"] + [f"octic {c}" for c in SUBCOMMANDS]


def test_an_argument_left_over_is_parsed_by_all_seven(capsys, parsers):
    with pytest.raises(SystemExit):
        cli.main(["sigma", "NewL3", "--foo"])
    assert parsers == ["octic"] + [f"octic {c}" for c in SUBCOMMANDS]


def _refuse(*args, **kwargs):
    raise AssertionError("text built under --json")


@pytest.mark.parametrize("argv", [["ss", "two-nodes", "--json"],
                                  ["incidence", "NewL3", "--json"]])
def test_json_builds_no_text(capsys, monkeypatch, argv):
    printed = run(capsys, *argv)
    assert printed[0] == 0
    monkeypatch.setattr(specseq, "render_e1", _refuse)
    monkeypatch.setattr(specseq, "render_e2", _refuse)
    func, text, arguments = cli.COMMANDS[argv[0]]

    def without_text(args):
        data, payload, _ = func(args)
        return data, payload, _refuse

    monkeypatch.setitem(cli.COMMANDS, argv[0], (without_text, text, arguments))
    assert run(capsys, *argv) == printed
