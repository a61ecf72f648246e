"""Correctness checks on captured `pgshapes` output.

Verdicts are compared with the independent answer the generator computed.
Witnesses are re-checked with `is_strictly_faithful`; converted documents
and fact exports are compared with the generator's own graph.
"""

from __future__ import annotations

import json
import re

_ATOM_LINE = re.compile(r"^(\w+)\((\S+)\) = (yes|no|maybe)$")


def verdict_of(code, output: str) -> bool | None:
    """True or False for a decided validate call, None for anything else."""
    first = output.split("\n", 1)[0]
    if code == 0 and first == "SATISFIABLE":
        return True
    if code == 1 and first == "UNSATISFIABLE":
        return False
    return None


def witness_error(pg, inst, output: str, normalized: bool) -> str | None:
    """Re-check a printed witness; None when it is strictly faithful."""
    g = pg.import_graph_json(open(inst.graph_path, "rb").read())
    shapes = pg.parse_shapes(inst.shapes)
    if normalized:
        g, shapes, _root, _traces = pg.normalize_instance(g, shapes)
    words = {"no": pg.TruthValue.FALSE, "maybe": pg.TruthValue.UNKNOWN, "yes": pg.TruthValue.TRUE}
    values = {}
    for line in output.splitlines()[1:]:
        m = _ATOM_LINE.match(line)
        if not m or m.group(1) not in shapes:
            return f"unreadable witness line {line!r}"
        shape, element, word = m.groups()
        values[pg.Atom(shape, element, shapes.get(shape).kind)] = words[word]
    try:
        verdict = pg.is_strictly_faithful(g, shapes, values)
    except pg.PgShapesError as exc:
        return f"witness rejected: {exc}"
    return None if verdict.ok else f"witness not faithful: {verdict.detail}"


def _comparable(doc: dict) -> dict:
    def element(obj):
        # A property holds a set of values, so repeats in the input collapse.
        props = {
            k: sorted({(v["type"], str(v["value"])) for v in vals})
            for k, vals in obj.get("properties", {}).items()
        }
        return (obj["id"], tuple(obj.get("labels", [])), obj.get("start"), obj.get("end"), props)

    return {
        "nodes": [element(o) for o in doc["nodes"]],
        "relationships": [element(o) for o in doc["relationships"]],
    }


def convert_error(inst, output: str) -> str | None:
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"convert output is not JSON: {exc}"
    if _comparable(doc) != _comparable(inst.document):
        return "convert output differs from the generated graph"
    return None


def export_asp_error(inst, output: str) -> str | None:
    g = inst.graph
    lines = output.splitlines()
    edges = {line for line in lines if line.startswith("edge(")}
    want = {f"edge({s}, {e}, {d})." for e, s, d, _ in g.edges}
    if edges != want:
        return "edge facts differ from the generated graph"
    labels = sum(1 for line in lines if line.startswith("label("))
    if labels != sum(len(v) for v in g.labels.values()):
        return "label fact count differs from the generated graph"
    props = sum(1 for line in lines if line.startswith("property("))
    want_props = sum(
        len({(t, v) for t, v in vals})
        for keys in g.props.values()
        for vals in keys.values()
    )
    if props != want_props:
        return "property fact count differs from the generated graph"
    return None
