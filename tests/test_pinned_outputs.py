"""What the solver API and `pgshapes validate` return on seeded random
instances, pinned as sha256 digests.

The engines may be rewritten freely as long as every verdict, witness,
enumerated assignment (in the order it comes), violated target, fixed
point, counter and line of CLI output stays what it was.  A change that
means to alter any of them recomputes the digest below and says why.
`elapsed` is left out: it is wall time.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import random

import pytest

from pgshapes.cli import main
from pgshapes.errors import BudgetExceeded
from pgshapes.jsonio import export_graph_json
from pgshapes.printer import render_shapes
from pgshapes.semantics import GroundInstance
from pgshapes.solver import (
    SolverConfig,
    brute_force_conformance,
    enumerate_faithful_assignments,
    find_faithful_assignment,
)

from randgen import gen_instance

API_SEEDS = range(200)
CLI_SEEDS = range(40)
ORDERS = ("default", "dependency")
API_DIGEST = "d86a8996580b96b42fc1dd177f4a67c82dc6d7600b2302956b1ef08c44294291"
CLI_DIGEST = "bd425f4cc8646eda28755e76714dab2994fcb9a7b417f7c314f10caa47adbaf5"
FLAG_SETS = (
    (),
    ("--all",),
    ("--all", "--budget", "2"),
    ("--all", "--budget", "5"),
    ("--all", "--json"),
    ("--json",),
    ("--explain",),
    ("--budget", "3"),
    ("--oracle",),
    ("--oracle", "--json"),
    ("--normalize",),
)


def instance(seed: int):
    return gen_instance(random.Random(f"pinned:{seed}"))


def assignment_text(sigma) -> str:
    return " ".join(f"{atom}={v.word}" for atom, v in sigma.items())


def stats_text(stats) -> str:
    counters = dataclasses.asdict(stats)
    del counters["elapsed"]
    return repr(counters)


def report_text(report) -> str:
    witness = assignment_text(report.witness) if report.witness else "-"
    violated = " ".join(map(str, report.violated_targets))
    return (f"{report.conforms} | {witness} | {violated} | "
            f"{assignment_text(report.fixed_point)} | {stats_text(report.stats)}")


def outcome(call) -> str:
    try:
        result = call()
    except BudgetExceeded as exc:
        return f"budget {exc} {stats_text(exc.stats)}"
    if isinstance(result, list):
        return " / ".join(map(assignment_text, result)) or "none"
    return report_text(result)


def api_lines(g, shapes):
    for order in ORDERS:
        for budget in (None, 1, 3, 8):
            config = SolverConfig(atom_order=order, max_branches=budget)
            yield outcome(lambda: find_faithful_assignment(g, shapes, config))
            yield outcome(lambda: enumerate_faithful_assignments(g, shapes, 30, config))
    yield outcome(lambda: brute_force_conformance(g, shapes))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def test_solver_api_outputs_are_pinned():
    lines = []
    for seed in API_SEEDS:
        lines.append(f"seed {seed}")
        lines.extend(api_lines(*instance(seed)))
    assert digest(lines) == API_DIGEST


def cli_run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    if "--json" in argv and stdout:
        report = json.loads(stdout)
        report.get("stats", {}).pop("elapsed", None)
        stdout = json.dumps(report, indent=2)
    return f"{code}\n{stdout}\n{err.getvalue()}"


def test_validate_outputs_are_pinned(tmp_path):
    lines = []
    for seed in CLI_SEEDS:
        g, shapes = instance(seed)
        graph, progs = tmp_path / f"{seed}.json", tmp_path / f"{seed}.progs"
        graph.write_bytes(export_graph_json(g))
        progs.write_text(render_shapes(shapes), encoding="utf-8")
        for flags in FLAG_SETS:
            lines.append(f"seed {seed} {' '.join(flags)}")
            lines.append(cli_run(["validate", str(graph), str(progs), *flags]))
    assert digest(lines) == CLI_DIGEST


@pytest.mark.parametrize("order", ORDERS)
def test_assignments_list_atoms_in_grounding_order(order):
    config = SolverConfig(atom_order=order)
    for seed in API_SEEDS:
        g, shapes = instance(seed)
        atoms = list(GroundInstance(g, shapes).atoms)
        found = enumerate_faithful_assignments(g, shapes, 50, config)
        witnesses = [
            report.witness
            for report in (find_faithful_assignment(g, shapes, config),
                           brute_force_conformance(g, shapes, config))
            if report.witness is not None
        ]
        for sigma in found + witnesses:
            assert list(sigma) == atoms
