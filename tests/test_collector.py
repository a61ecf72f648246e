"""A command line run leaves no reference cycles, and main hands the cyclic
collector back as it found it.

cli.main runs each command with the collector off, so cyclic garbage would
live until the caller's next collection: grounding's compiler, its tables
and the path cache, the solver's and the leaf check's instances, each
--normalize stage.  Under gc.DEBUG_SAVEALL a collection keeps everything
it finds unreachable in gc.garbage, which the first two tests read after
each run.  The library functions leave the collector alone.
"""

import contextlib
import gc
import io
import random
import types
from pathlib import Path

import pytest

from pgshapes import asp, cli, semantics
from pgshapes.cli import main
from pgshapes.jsonio import export_graph_json, import_graph_json
from pgshapes.parser import parse_shapes
from pgshapes.printer import render_shapes
from pgshapes.solver import find_faithful_assignment

from office import office_graph
from randgen import gen_instance

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
OFFICE = str(EXAMPLES / "office.json")
# Conforms; fails on Tim; fails on the worksFor edges.
CONFORMING = str(EXAMPLES / "office-shapes.progs")
FAILING = str(EXAMPLES / "person-check.progs")
EDGE_SHAPES = str(EXAMPLES / "works-for-meta.progs")
SEEDS = range(20)


def ours(o) -> bool:
    """A pgshapes function, or an instance of a pgshapes class."""
    if isinstance(o, types.FunctionType):
        return (o.__module__ or "").startswith("pgshapes")
    return type(o).__module__.startswith("pgshapes")


@contextlib.contextmanager
def saving_garbage():
    """Within, each collection keeps what it finds unreachable in gc.garbage."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def run_collecting(argv) -> tuple[int, list[str]]:
    """main(argv)'s exit code, and the pgshapes objects a collection right
    after it finds unreachable: those only the cyclic collector frees."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    gc.collect()
    found = sorted({getattr(o, "__qualname__", type(o).__qualname__)
                    for o in gc.garbage if ours(o)})
    gc.garbage.clear()
    return code, found


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def command_lines(graph: str, shapes: str) -> list[list[str]]:
    """Every command, and each validate form, on one (graph, shapes) pair."""
    return [
        ["validate", graph, shapes],
        ["validate", "--all", graph, shapes],
        ["validate", "--explain", graph, shapes],
        ["validate", "--json", graph, shapes],
        ["validate", "--normalize", graph, shapes],
        ["check", shapes],
        ["export-asp", graph, shapes],
        ["convert", graph],
        ["convert", shapes],
    ]


@pytest.fixture
def loop_progs(tmp_path):
    return write(tmp_path / "loop.progs", "NODE loop [] { loop };\n")


def test_no_run_leaves_package_garbage(tmp_path, loop_progs):
    runs = [argv for shapes in (CONFORMING, FAILING, EDGE_SHAPES)
            for argv in command_lines(OFFICE, shapes)]
    for seed in SEEDS:
        g, shapes = gen_instance(random.Random(seed))
        graph = tmp_path / f"graph{seed}.json"
        graph.write_bytes(export_graph_json(g))
        progs = write(tmp_path / f"shapes{seed}.progs", render_shapes(shapes))
        runs += command_lines(str(graph), progs)
    unknown = write(tmp_path / "unknown.progs", "NODE s [] { nope };\n")
    runs += [
        ["validate", OFFICE, unknown],
        ["validate", "--oracle", "--max-atoms", "1", OFFICE, CONFORMING],
        ["validate", "--budget", "1", OFFICE, loop_progs],
        ["validate", "--all", "--budget", "1", OFFICE, loop_progs],
    ]
    codes = set()
    with saving_garbage():
        for argv in runs:
            code, found = run_collecting(argv)
            assert found == [], (argv, code)
            codes.add(code)
    assert codes == {0, 1, 2, 3}


def test_a_crash_inside_grounding_leaves_no_package_garbage(monkeypatch):
    # The exception unwinds through the compiler's frames mid-build.
    def crash(*args):
        raise RuntimeError("lost its way")

    monkeypatch.setattr(semantics, "_labelled", crash)
    with saving_garbage():
        for shapes in (CONFORMING, FAILING):
            assert run_collecting(["validate", OFFICE, shapes]) == (4, [])


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state before main runs; it is on again after."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        gc.enable()


@pytest.mark.parametrize("argv, code", [
    (["validate", OFFICE, CONFORMING], 0),
    (["validate", "--json", OFFICE, FAILING], 1),
    (["check", "missing.progs"], 2),
    (["export-asp", OFFICE, CONFORMING], 0),
    (["convert", OFFICE], 0),
])
def test_main_restores_the_collector(collector, capsys, argv, code):
    assert main(argv) == code
    assert gc.isenabled() is collector


def test_main_restores_the_collector_when_the_budget_runs_out(collector, capsys, loop_progs):
    assert main(["validate", "--budget", "1", OFFICE, loop_progs]) == 3
    assert gc.isenabled() is collector


def test_main_restores_the_collector_after_an_internal_error(collector, capsys, monkeypatch):
    seen = []

    def crash(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("lost its way")

    monkeypatch.setattr(cli, "find_faithful_assignment", crash)
    assert main(["validate", OFFICE, CONFORMING]) == 4
    assert seen == [False]  # the command ran with the collector off
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["validate", "--all", "--normalize", OFFICE, CONFORMING],
    ["validate", "--budget", "ten", OFFICE, CONFORMING],
])
def test_main_restores_the_collector_when_argparse_exits(collector, capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert gc.isenabled() is collector


def test_the_library_leaves_the_collector_alone(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    g = import_graph_json(Path(OFFICE).read_bytes())
    shapes = parse_shapes(Path(CONFORMING).read_text(encoding="utf-8"))
    assert find_faithful_assignment(g, shapes).conforms
    assert asp.export_asp(office_graph(), shapes)
    assert calls == []
    # The sentinel does see the command line's switch.
    assert main(["validate", OFFICE, CONFORMING]) == 0
    assert calls == ["disable"]
