"""The traced run: replay each instance through public pgshapes calls.

Each call into the package gets a span (name, start, end, parent, instance)
kept in memory and written out when the run ends.  Only names exported in
`pgshapes.__all__` are timed, plus `pgshapes.solver.atom_dependencies` while
it exists, so that internal refactors do not break the benchmark.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from workloads import BUDGET, CONVERT, EXPORT_ASP, NORMALIZE


@dataclass
class Span:
    name: str
    instance: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str):
        parent = self._open[-1] if self._open else -1
        rec = Span(name, instance, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec.attrs
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.seconds - c
        return out

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


class Replay:
    """Runs each call type as the CLI would, one public call per span."""

    def __init__(self, pg, tracer: Tracer):
        self.pg = pg
        self.t = tracer
        self.deps = getattr(pg.solver, "atom_dependencies", None)
        self.paths_of = getattr(pg.shapes, "constraint_paths", None)

    def run(self, inst, call: str):
        """Returns (verdict or None when undecided, error text or None)."""
        with self.t.span(f"cli.{call}", inst.name):
            raw = open(inst.graph_path, "rb").read()
            with self.t.span("jsonio.import", inst.name):
                g = self.pg.import_graph_json(raw)
            if call == CONVERT:
                with self.t.span("jsonio.export", inst.name) as a:
                    a["bytes"] = len(self.pg.export_graph_json(g))
                return None, None
            text = open(inst.shapes_path, encoding="utf-8").read()
            with self.t.span("parser.parse", inst.name) as a:
                shapes = self.pg.parse_shapes(text)
                a["shapes"], a["cycles"] = len(shapes), shapes.cycle_count
            if call == EXPORT_ASP:
                with self.t.span("asp.export", inst.name) as a:
                    a["bytes"] = len(self.pg.export_asp(g, shapes).encode("utf-8"))
                return None, None
            if call == NORMALIZE:
                with self.t.span("transforms.normalize", inst.name) as a:
                    g, shapes, _root, traces = self.pg.normalize_instance(g, shapes)
                    a["fresh_edges"] = sum(len(t.fresh_edges) for t in traces)
                    a["fresh_shapes"] = sum(len(t.fresh_shapes) for t in traces)
                return self._decide(inst, g, shapes, "dependency")
            self._instance_build(inst, g, shapes)
            return self._decide(inst, g, shapes, "default")

    def _instance_build(self, inst, g, shapes) -> None:
        pg = self.pg
        with self.t.span("semantics.targets", inst.name) as a:
            atoms = sorted(pg.atoms(g, shapes), key=pg.Atom.sort_key)
            targets = 0
            for sh in shapes:
                evaluate = pg.eval_target_nodes if sh.kind == pg.NODE else pg.eval_target_edges
                targets += len(evaluate(g, sh.target))
            a["atoms"], a["targets"] = len(atoms), targets
        if self.paths_of is not None:
            with self.t.span("semantics.paths", inst.name) as a:
                cache: dict = {}
                evals = pairs = 0
                for sh in shapes:
                    for p in self.paths_of(sh.constraint):
                        for n in g.nodes:
                            pairs += len(pg.eval_path(g, n, p, cache))
                            evals += 1
                a["evals"], a["pairs"] = evals, pairs
        if self.deps is not None:
            with self.t.span("solver.deps", inst.name) as a:
                a["edges"] = sum(len(self.deps(g, shapes, atom)) for atom in atoms)
        with self.t.span("semantics.lfp", inst.name) as a:
            lfp = pg.least_fixed_point(g, shapes)
            a["atoms"] = len(lfp)
            a["decided"] = sum(1 for v in lfp.values() if v is not pg.TruthValue.UNKNOWN)

    def _decide(self, inst, g, shapes, order: str):
        pg = self.pg
        config = pg.SolverConfig(atom_order=order, max_branches=BUDGET)
        with self.t.span("solver.find", inst.name) as a:
            try:
                report = pg.find_faithful_assignment(g, shapes, config)
                stats, error = report.stats, None
            except pg.BudgetExceeded as exc:
                report, stats, error = None, exc.stats, "budget"
                a["budget_exhausted"] = 1
            except RecursionError:
                report, stats, error = None, None, "RecursionError"
                a["recursion_errors"] = 1
            if stats is not None:
                a.update(
                    search_s=stats.elapsed, atoms=stats.atoms, pinned=stats.pinned,
                    branches=stats.branches, propagations=stats.propagations,
                    leaf_checks=stats.leaf_checks,
                )
            a["witnesses"] = int(bool(report and report.conforms))
        if report is None:
            return None, error
        if report.conforms:
            with self.t.span("semantics.leaf", inst.name):
                ok = pg.is_strictly_faithful(g, shapes, report.witness).ok
            if not ok:
                return True, "witness not strictly faithful"
        return report.conforms, None


def per_layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: totals over one traced replay of every instance.
    A call that was not made (say, once atom_dependencies is gone) reads 0."""
    find_s = t.total("solver.find")
    search_s = t.count("solver.find", "search_s")
    lfp_atoms = t.count("semantics.lfp", "atoms")
    find_atoms = t.count("solver.find", "atoms")
    leaf_checks = t.count("solver.find", "leaf_checks")
    m = {
        "jsonio.import_s": (t.total("jsonio.import"), "s"),
        "jsonio.export_s": (t.total("jsonio.export"), "s"),
        "jsonio.export_bytes": (t.count("jsonio.export", "bytes"), "B"),
        "asp.export_s": (t.total("asp.export"), "s"),
        "asp.export_bytes": (t.count("asp.export", "bytes"), "B"),
        "parser.parse_s": (t.total("parser.parse"), "s"),
        "parser.shapes": (t.count("parser.parse", "shapes"), "count"),
        "parser.cycles": (t.count("parser.parse", "cycles"), "count"),
        "semantics.targets_s": (t.total("semantics.targets"), "s"),
        "semantics.atoms": (t.count("semantics.targets", "atoms"), "count"),
        "semantics.targets": (t.count("semantics.targets", "targets"), "count"),
        "semantics.paths_s": (t.total("semantics.paths"), "s"),
        "semantics.path_evals": (t.count("semantics.paths", "evals"), "count"),
        "semantics.path_pairs": (t.count("semantics.paths", "pairs"), "count"),
        "solver.deps_s": (t.total("solver.deps"), "s"),
        "solver.dep_edges": (t.count("solver.deps", "edges"), "count"),
        "semantics.lfp_s": (t.total("semantics.lfp"), "s"),
        "semantics.lfp_decided_share": (
            t.count("semantics.lfp", "decided") / lfp_atoms if lfp_atoms else 0.0, "1"),
        "solver.find_s": (find_s, "s"),
        "solver.search_s": (search_s, "s"),
        "solver.build_s": (find_s - search_s, "s"),
        "solver.branches": (t.count("solver.find", "branches"), "count"),
        "solver.propagations": (t.count("solver.find", "propagations"), "count"),
        "solver.leaf_checks": (leaf_checks, "count"),
        "solver.pinned_share": (
            t.count("solver.find", "pinned") / find_atoms if find_atoms else 0.0, "1"),
        "solver.leaf_hit_share": (
            t.count("solver.find", "witnesses") / leaf_checks if leaf_checks else 0.0, "1"),
        "solver.budget_exhausted": (t.count("solver.find", "budget_exhausted"), "count"),
        "solver.recursion_errors": (t.count("solver.find", "recursion_errors"), "count"),
        "semantics.leaf_s": (t.total("semantics.leaf"), "s"),
        "transforms.normalize_s": (t.total("transforms.normalize"), "s"),
        "transforms.fresh_edges": (t.count("transforms.normalize", "fresh_edges"), "count"),
        "transforms.fresh_shapes": (t.count("transforms.normalize", "fresh_shapes"), "count"),
    }
    return m
