"""Immutable property graph: directed multigraph with identified edges,
label sets, and finitely multi-valued typed properties, stored once per
element as one map from key to value set, in key order.

Node ids and edge ids share one namespace-disjointness rule: the two id sets
may not overlap.  Ids are opaque text tokens; integer tokens are accepted on
input and normalized to their decimal text.

Every index is built on first read, so calls that only import and export
never pay for one: each label's elements, and the adjacency tables of
adjacent_edges (over every edge) and label_adjacency (over one label's),
one direction at a time.  Path elimination hands its fresh labels' indexes
in ready-made: it lists every fresh edge grouped by label and source
anyway, so the graph it returns builds no table for them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import DanglingEdge, IdClash, KindMismatch, UnknownElement
from .values import Value, coerce_value

NODE = "node"
EDGE = "edge"

OUTGOING = "outgoing"
INCOMING = "incoming"

_NO_VALUES, _NO_PROPS = frozenset(), MappingProxyType({})


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
    index: dict[str, list[str]] = defaultdict(list)
    for x, names in labels.items():
        for name in names:
            index[name].append(x)
    return {name: frozenset(xs) for name, xs in index.items()}


def _label_table(g: PropertyGraph, label: str | None, direction: str) -> dict[str, tuple]:
    """label_adjacency's table for one label and direction, built from the
    label's edges; with label None, adjacent_edges' table, from every edge."""
    near, far = (0, 1) if direction == OUTGOING else (1, 0)
    table: dict[str, list] = {}
    # Edge ids are unique, so id order is adjacent_edges' pair order.
    edges = g.edges if label is None else sorted(
        x for x in g.by_label.get(label, ()) if x in g._endpoints)
    for e in edges:
        ends = g._endpoints[e]
        table.setdefault(ends[near], []).append((e, ends[far]))
    return {n: tuple(pairs) for n, pairs in table.items()}


class PropertyGraph:
    """Validated immutable graph.  Construct through build_graph()."""

    __slots__ = (
        "_nodes", "_edges", "_endpoints", "_labels", "_props", "_node_set",
        "_by_label", "_label_adj",
    )

    def __init__(self, nodes, edges, endpoints, labels, props, node_set):
        self._nodes = nodes
        self._edges = edges
        self._endpoints = endpoints
        self._labels = labels
        self._props = props  # element -> {key: values}, keys sorted
        self._node_set = node_set
        self._by_label = None
        self._label_adj: dict = {}  # label (None: every edge) -> direction -> table

    @property
    def nodes(self) -> tuple[str, ...]:
        """The node ids, sorted: atoms are built in canonical order from them."""
        return self._nodes

    @property
    def edges(self) -> tuple[str, ...]:
        """The edge ids, sorted: atoms are built in canonical order from them."""
        return self._edges

    def has_node(self, x: str) -> bool:
        return x in self._node_set

    def has_edge(self, x: str) -> bool:
        return x in self._endpoints

    def __contains__(self, x: str) -> bool:
        return x in self._node_set or x in self._endpoints

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
        props = self._props.get(x, _NO_PROPS)
        if props is _NO_PROPS and x not in self:
            raise UnknownElement(f"no such element: {x!r}")
        return props.get(key, _NO_VALUES)

    def property_keys(self, x: str) -> tuple[str, ...]:
        """The keys x has values under, sorted: its property map's order."""
        props = self._props.get(x, _NO_PROPS)
        if props is _NO_PROPS and x not in self:
            raise UnknownElement(f"no such element: {x!r}")
        return tuple(props)

    def _rows(self, xs: Iterable[str]) -> Iterator[tuple[str, frozenset[str], Iterable]]:
        """(x, labels, its property map's (key, values) items) for each id in
        xs, read with no membership check: the exports' walk, which renders
        each distinct label set, key and value set once per call."""
        labels, props, none = self._labels, self._props, frozenset()
        for x in xs:
            yield x, labels.get(x, none), props.get(x, _NO_PROPS).items()

    def adjacent_edges(self, n: str, direction: str) -> tuple[tuple[str, str], ...]:
        """(edge, other endpoint) pairs at node n, in the given direction,
        in edge id order.

        A self-loop shows up in both directions.  Each direction's table
        is built over every edge on its first read, like a label's.
        """
        pairs = self._table(None, direction).get(n)
        if pairs is None and n not in self._node_set:
            raise UnknownElement(f"no such node: {n!r}")
        return pairs or ()

    @property
    def by_label(self) -> Mapping[str, frozenset[str]]:
        """Each label to the nodes and edges carrying it."""
        if self._by_label is None:
            self._by_label = _index_labels(self._labels)
        return MappingProxyType(self._by_label)

    def label_adjacency(self, label: str, direction: str) -> Mapping[str, tuple]:
        """Per node, the adjacent_edges pairs whose edge carries `label`;
        nodes without one are absent.

        Each (label, direction) table is built on its first use, as
        adjacent_edges' are, so a label read only outgoing never builds its
        incoming side.  Path elimination's fresh labels come with their
        outgoing tables already built.
        """
        return self._table(label, direction)

    def _table(self, label: str | None, direction: str) -> Mapping[str, tuple]:
        """The cached _label_table for (label, direction), built on first use."""
        try:
            return self._label_adj[label][direction]
        except KeyError:
            if direction not in (OUTGOING, INCOMING):
                raise ValueError(f"bad direction: {direction!r}") from None
        table = _label_table(self, label, direction)
        self._label_adj.setdefault(label, {})[direction] = table
        return table

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


class _Memo(dict):
    """A missing key's value is made by render(key) on its first lookup."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        value = self[key] = self.render(key)
        return value


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
    and properties: base's rows are copied, and only the new rows are
    validated, with the errors one build of all the rows would raise.

    Each row is normalized once here (ids to text, label kinds checked,
    values coerced), so those errors come first; _assemble then checks the
    id invariants and merges the rows, as it does for import_graph_json.
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

    prop_map: dict[str, dict[str, frozenset[Value]]] = {}
    for (x, key), raw_values in (properties or {}).items():
        xid = _ident(x)
        if xid not in kinds:
            raise UnknownElement(f"property on unknown element {xid!r}")
        if not isinstance(key, str) or not key:
            raise TypeError(f"not a property key: {key!r}")
        vals = frozenset(coerce_value(v) for v in raw_values)
        if not vals:
            raise ValueError(f"empty value set for ({xid!r}, {key!r})")
        prop_map.setdefault(xid, {})[key] = vals
    return _assemble(node_ids, edge_ids, ends, label_map, prop_map, base)


def _assemble(nodes, edges, endpoints, labels, props, base=None,
              label_index=None, label_tables=None) -> PropertyGraph:
    """base plus normalized rows: text ids, (source, destination) per edge
    in input order, frozensets of labels, and per element with properties
    one map from key to frozenset of values, which it stores in key order.
    Checks the id invariants, in this order: duplicate node ids, duplicate
    edge ids, ids used as both, endpoints in input order, edges without
    endpoints.  It builds no index: base's built label indexes carry over,
    for the labels no new row carries, and the new graph builds the rest
    on first read, adjacent_edges' tables included.

    A caller that already holds the new edges grouped may hand them in:
    label_index, each label a new row carries to those rows' ids; and
    label_tables, label_adjacency tables of labels that no base element
    carries.  The index and tables take effect where base's label index is
    built, as it is once anything has read labels from base."""
    base = base or PropertyGraph((), (), {}, {}, {}, frozenset())
    node_set, edge_set = set(nodes), set(edges)
    if len(node_set) != len(nodes) or not node_set.isdisjoint(base._node_set):
        raise IdClash("duplicate node id")
    if len(edge_set) != len(edges) or not edge_set.isdisjoint(base._endpoints):
        raise IdClash("duplicate edge id")
    clash = node_set & (edge_set | base._endpoints.keys()) | edge_set & base._node_set
    if clash:
        raise IdClash(f"ids used as both node and edge: {sorted(clash)}")

    props = {x: dict(sorted(row.items())) for x, row in props.items()}
    node_set |= base._node_set
    # Checked as whole sets; the scan in input order only names the failure.
    end_nodes = set(chain.from_iterable(endpoints.values()))
    if endpoints.keys() != edge_set or not node_set >= end_nodes:
        for e, (src, dst) in endpoints.items():
            if e not in edge_set:
                raise DanglingEdge(f"endpoints given for unknown edge {e!r}")
            if src not in node_set or dst not in node_set:
                raise DanglingEdge(f"edge {e!r} endpoint not a node: ({src}, {dst})")
        raise DanglingEdge(f"edges without endpoints: {sorted(edge_set - endpoints.keys())}")

    g = PropertyGraph(
        tuple(sorted((*base._nodes, *nodes))), tuple(sorted((*base._edges, *edges))),
        {**base._endpoints, **endpoints}, {**base._labels, **labels},
        {**base._props, **props}, node_set,
    )
    old_index = base._by_label
    if old_index is not None:
        fresh = _index_labels(labels) if label_index is None else label_index
        g._by_label = {**old_index, **{
            name: old_index[name] | xs if name in old_index else xs
            for name, xs in fresh.items()}}
        # A carried label has the same edges in both graphs, so the two
        # share its direction tables, whichever graph builds one.  The
        # all-edge tables (key None) are base's edges only: never carried.
        g._label_adj = {name: t for name, t in base._label_adj.items()
                        if name is not None and name not in fresh}
        g._label_adj.update(label_tables or {})
    return g
