"""Immutable property graph: directed multigraph with identified edges,
label sets, and finitely multi-valued typed properties.

Node ids and edge ids share one namespace-disjointness rule: the two id sets
may not overlap.  Ids are opaque text tokens; integer tokens are accepted on
input and normalized to their decimal text.

The label indexes (each label's elements, each edge label's adjacency) are
built on first use, so calls that only import and export never pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DanglingEdge, IdClash, KindMismatch, UnknownElement
from .values import Value, coerce_value

NODE = "node"
EDGE = "edge"

OUTGOING = "outgoing"
INCOMING = "incoming"


@dataclass(frozen=True)
class Label:
    """A label name tagged with the namespace it belongs to."""

    name: str
    kind: str  # NODE or EDGE

    def __post_init__(self):
        if self.kind not in (NODE, EDGE):
            raise ValueError(f"bad label kind: {self.kind!r}")


def _ident(raw: object) -> str:
    if isinstance(raw, str):
        if not raw:
            raise ValueError("empty element id")
        return raw
    if isinstance(raw, bool):
        raise TypeError("bool is not an element id")
    if isinstance(raw, int):
        return str(raw)
    raise TypeError(f"not an element id: {raw!r}")


def _index_labels(labels: Mapping[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """Each label to the elements carrying it."""
    index: dict[str, list[str]] = {}
    for x, names in labels.items():
        for name in names:
            index.setdefault(name, []).append(x)
    return {name: frozenset(xs) for name, xs in index.items()}


class PropertyGraph:
    """Validated immutable graph.  Construct through build_graph()."""

    __slots__ = (
        "_nodes", "_edges", "_endpoints", "_labels", "_props", "_keys", "_out", "_in",
        "_by_label", "_label_adj",
    )

    def __init__(self, nodes, edges, endpoints, labels, props, keys, out, in_):
        self._nodes = nodes
        self._edges = edges
        self._endpoints = endpoints
        self._labels = labels
        self._props = props
        self._keys = keys
        self._out = out
        self._in = in_
        self._by_label = None
        self._label_adj: dict = {}

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[str, ...]:
        return self._edges

    def has_node(self, x: str) -> bool:
        return x in self._out

    def has_edge(self, x: str) -> bool:
        return x in self._endpoints

    def __contains__(self, x: str) -> bool:
        return self.has_node(x) or self.has_edge(x)

    def kind_of(self, x: str) -> str:
        if self.has_node(x):
            return NODE
        if self.has_edge(x):
            return EDGE
        raise UnknownElement(f"no such element: {x!r}")

    def endpoints(self, e: str) -> tuple[str, str]:
        """(source, destination) of edge e."""
        try:
            return self._endpoints[e]
        except KeyError:
            raise UnknownElement(f"no such edge: {e!r}") from None

    def labels_of(self, x: str) -> frozenset[str]:
        if x not in self:
            raise UnknownElement(f"no such element: {x!r}")
        return self._labels.get(x, frozenset())

    def property_values(self, x: str, key: str) -> frozenset[Value]:
        """The value set of (x, key); empty when the key is absent."""
        if x not in self:
            raise UnknownElement(f"no such element: {x!r}")
        return self._props.get((x, key), frozenset())

    def property_keys(self, x: str) -> tuple[str, ...]:
        """The keys x has values under, sorted (indexed once at build)."""
        if x not in self:
            raise UnknownElement(f"no such element: {x!r}")
        return self._keys.get(x, ())

    def adjacent_edges(self, n: str, direction: str) -> tuple[tuple[str, str], ...]:
        """(edge, other endpoint) pairs at node n, in the given direction.

        A self-loop shows up in both directions.
        """
        if direction == OUTGOING:
            table = self._out
        elif direction == INCOMING:
            table = self._in
        else:
            raise ValueError(f"bad direction: {direction!r}")
        try:
            return table[n]
        except KeyError:
            raise UnknownElement(f"no such node: {n!r}") from None

    @property
    def by_label(self) -> Mapping[str, frozenset[str]]:
        """Each label to the nodes and edges carrying it."""
        if self._by_label is None:
            self._by_label = _index_labels(self._labels)
        return MappingProxyType(self._by_label)

    def label_adjacency(self, label: str, direction: str) -> Mapping[str, tuple]:
        """Per node, the adjacent_edges pairs whose edge carries `label`;
        nodes without one are absent.  Each label is indexed on first use."""
        if direction not in (OUTGOING, INCOMING):
            raise ValueError(f"bad direction: {direction!r}")
        if label not in self._label_adj:
            tables: dict[str, dict] = {OUTGOING: {}, INCOMING: {}}
            # Edge ids are unique, so id order is adjacent_edges' pair order.
            for e in sorted(x for x in self.by_label.get(label, ()) if x in self._endpoints):
                src, dst = self._endpoints[e]
                tables[OUTGOING].setdefault(src, []).append((e, dst))
                tables[INCOMING].setdefault(dst, []).append((e, src))
            self._label_adj[label] = {
                d: {n: tuple(pairs) for n, pairs in t.items()} for d, t in tables.items()
            }
        return self._label_adj[label][direction]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._edges == other._edges
            and self._endpoints == other._endpoints
            and self._labels == other._labels
            and self._props == other._props
        )

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"
        )


def build_graph(
    nodes: Iterable[object],
    edges: Iterable[object] = (),
    endpoints: Mapping[object, tuple[object, object]] | None = None,
    labelings: Mapping[object, Iterable[object]] | None = None,
    properties: Mapping[tuple[object, str], Iterable[object]] | None = None,
    base: PropertyGraph | None = None,
) -> PropertyGraph:
    """Validate and build a graph.

    labelings maps an element to Label objects (or bare names, which take the
    element's own kind).  properties maps (element, key) to a non-empty
    collection of values; plain int/str/date are coerced.  With a base graph
    the result is base plus the given elements, which alone may get labels
    and properties: base's tables are copied, and only the new rows are
    validated, with the errors one build of all the rows would raise.

    Each row is normalized once here (ids to text, label kinds checked,
    values coerced), so those errors come first; _assemble then checks the
    id invariants and builds the tables, as it does for import_graph_json.
    """
    node_ids = [_ident(n) for n in nodes]
    edge_ids = [_ident(e) for e in edges]
    kinds = {**dict.fromkeys(edge_ids, EDGE), **dict.fromkeys(node_ids, NODE)}
    ends = {_ident(e): (_ident(p[0]), _ident(p[1])) for e, p in (endpoints or {}).items()}
    label_map = {}
    for x, raw_labels in (labelings or {}).items():
        xid = _ident(x)
        kind = kinds.get(xid)
        if kind is None:
            raise UnknownElement(f"labels given for unknown element {xid!r}")
        names = set()
        for lab in raw_labels:
            if isinstance(lab, Label):
                if lab.kind != kind:
                    raise KindMismatch(
                        f"{lab.kind} label {lab.name!r} on {kind} {xid!r}"
                    )
                names.add(lab.name)
            elif isinstance(lab, str):
                names.add(lab)
            else:
                raise TypeError(f"not a label: {lab!r}")
        if names:
            label_map[xid] = frozenset(names)

    prop_map: dict[tuple[str, str], frozenset[Value]] = {}
    for (x, key), raw_values in (properties or {}).items():
        xid = _ident(x)
        if xid not in kinds:
            raise UnknownElement(f"property on unknown element {xid!r}")
        if not isinstance(key, str) or not key:
            raise TypeError(f"not a property key: {key!r}")
        vals = frozenset(coerce_value(v) for v in raw_values)
        if not vals:
            raise ValueError(f"empty value set for ({xid!r}, {key!r})")
        prop_map[(xid, key)] = vals
    keys: dict[str, list[str]] = {}
    for xid, key in prop_map:
        keys.setdefault(xid, []).append(key)
    keys = {x: tuple(sorted(ks)) for x, ks in keys.items()}
    return _assemble(node_ids, edge_ids, ends, label_map, prop_map, keys, base)


def _assemble(nodes, edges, endpoints, labels, props, keys, base=None) -> PropertyGraph:
    """base plus normalized rows: text ids, (source, destination) per edge
    in input order, frozensets of labels and of values, sorted key tuples.
    Checks the id invariants, in this order: duplicate node ids, duplicate
    edge ids, ids used as both, endpoints in input order, edges without
    endpoints.  Base's built label indexes carry over, for the labels no
    new row carries."""
    base = base or PropertyGraph((), (), {}, {}, {}, {}, {}, {})
    node_set, edge_set = set(nodes), set(edges)
    if len(node_set) != len(nodes) or not node_set.isdisjoint(base._out):
        raise IdClash("duplicate node id")
    if len(edge_set) != len(edges) or not edge_set.isdisjoint(base._endpoints):
        raise IdClash("duplicate edge id")
    clash = node_set & (edge_set | base._endpoints.keys()) | edge_set & base._out.keys()
    if clash:
        raise IdClash(f"ids used as both node and edge: {sorted(clash)}")

    tables = {OUTGOING: {**base._out, **dict.fromkeys(nodes, ())},
              INCOMING: {**base._in, **dict.fromkeys(nodes, ())}}
    added: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for e, (src, dst) in endpoints.items():
        if e not in edge_set:
            raise DanglingEdge(f"endpoints given for unknown edge {e!r}")
        if src not in tables[OUTGOING] or dst not in tables[OUTGOING]:
            raise DanglingEdge(f"edge {e!r} endpoint not a node: ({src}, {dst})")
        added.setdefault((OUTGOING, src), []).append((e, dst))
        added.setdefault((INCOMING, dst), []).append((e, src))
    if len(endpoints) != len(edge_set):
        raise DanglingEdge(f"edges without endpoints: {sorted(edge_set - endpoints.keys())}")
    for (direction, n), pairs in added.items():
        tables[direction][n] = tuple(sorted((*tables[direction][n], *pairs)))

    g = PropertyGraph(
        tuple(sorted((*base._nodes, *nodes))), tuple(sorted((*base._edges, *edges))),
        {**base._endpoints, **endpoints}, {**base._labels, **labels},
        {**base._props, **props}, {**base._keys, **keys}, tables[OUTGOING], tables[INCOMING],
    )
    if base._by_label is not None:
        fresh = _index_labels(labels)
        g._by_label = {**base._by_label, **{
            name: xs | base._by_label.get(name, xs) for name, xs in fresh.items()}}
        g._label_adj = {name: t for name, t in base._label_adj.items() if name not in fresh}
    return g
