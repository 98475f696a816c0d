"""The benchmark's tracer (``bench/tracer.py``) installed over the package:
the fields its hooks read must exist, so that a change that drops one fails
here, on every Python the tests run on, and not only in a traced benchmark
pass."""

import importlib.util
from pathlib import Path

from octic import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# with an equation without w, whose profile the tracer files as special,
# and a sigma with unresolved factors, so that the tracer reads the degrees
# of constant and of moving rows
COMMANDS = [["sigma", "NewP41"], ["incidence", "NewP41", "--at", "1"],
            ["classify", "NewP41"], ["resolve", "NewP41"],
            ["ss", "seven-lines"], ["incidence", "xyzt(x+y+z+t)(x-y+2z-2t)"],
            ["sigma", "xyzt(x+y+z+t)(x-y+2z-2t)(2wx-y-2wy+z+2wz-2t-wt)"
                      "(-2wx+y-wy-z+2wz-t+wt)"]]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_run_under_the_benchmark_tracer(capsys):
    main = cli.main
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in COMMANDS]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(COMMANDS), capsys.readouterr().err
    assert cli.main is main
    spans = tracer.per_name()
    for name in ("cli.main", "incidence.profile.generic",
                 "incidence.profile.special", "incidence.degenerate_values",
                 "classify.classify_local", "resolve.trace_central_fiber",
                 "specseq.build_d1", "exact.rank"):
        assert spans[name][0] > 0, name
    assert tracer.counts["resolve.steps"] > 0
    assert tracer.counts["resolve.trace.completed"] == 1
