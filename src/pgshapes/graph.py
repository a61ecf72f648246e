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
anyway, and holds each source's reach set, so the graph it returns builds
no table for them.

A graph built on a base shares the base's rows instead of copying them.
An imported graph holds one layer of rows.  A graph built on a base holds
two, with disjoint ids, so each read looks in at most two tables: built on
a one-layer base, the base's layer and the new rows; built on a two-layer
base, the largest of the three layers, and the other two merged into one,
as union by size does.  A layer is never written after it is made, so
every graph that shares it reads as it did.  This is the copy-on-write of
persistent data structures (Driscoll, Sarnak, Sleator and Tarjan, JCSS
1989) kept one level deep: a build costs its new rows plus every layer but
the largest, and the sorted node and edge tuples are merged on first read.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

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
        "_by_label", "_label_adj", "_label_targets",
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
        self._label_targets: dict = {}  # label -> _targets' table

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

    def _holds_any(self, xs) -> bool:
        """Whether any id in the collection xs is an element: one probe per
        id of xs, never a pass over the graph's ids."""
        return any(not layer.node_set.isdisjoint(xs)
                   or not layer.endpoints.keys().isdisjoint(xs) for layer in _layers(self))

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

    def _targets(self, label: str) -> Mapping[str, tuple[frozenset[str], tuple[str, ...]]]:
        """Per node, the nodes its outgoing `label` edges reach, as a set and
        in node order; nodes without such an edge are absent.

        The one-label path's answer, built on first use from the label's
        outgoing table.  Path elimination hands its fresh labels' answers
        in: they are the reach sets it materialized.
        """
        table = self._label_targets.get(label)
        if table is None:
            table = self._label_targets[label] = {
                x: (frozenset(ms), ms)
                for x, pairs in self.label_adjacency(label, OUTGOING).items()
                for ms in [tuple(sorted({m for _, m in pairs}))]
            }
        return table

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self._endpoints == other._endpoints
            and self._labels == other._labels
            and self._props == other._props
        )

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(nodes={len(self.nodes)}, edges={len(self.edges)})"
        )


class _Layer(NamedTuple):
    """Rows with their ids: a one-layer graph's, or one of a layered
    graph's two.  Ids are listed as added: a one-layer graph's sorted, new
    and merged rows in input order."""

    nodes: tuple
    edges: tuple
    node_set: set
    endpoints: dict
    labels: dict
    props: dict

    def size(self) -> int:
        return len(self.node_set) + len(self.endpoints)


_ABSENT = object()


class _Both(Mapping):
    """Two tables with disjoint keys read as one (the larger first)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first, self.second = first, second

    def __getitem__(self, x):
        value = self.first.get(x, _ABSENT)
        return self.second[x] if value is _ABSENT else value

    def get(self, x, default=None):
        value = self.first.get(x, _ABSENT)
        return self.second.get(x, default) if value is _ABSENT else value

    def __contains__(self, x) -> bool:
        return x in self.first or x in self.second

    def __iter__(self):
        return chain(self.first, self.second)

    def __len__(self) -> int:
        return len(self.first) + len(self.second)

    def items(self):
        return chain(self.first.items(), self.second.items())


class _Layered(PropertyGraph):
    """A graph read from two layers: its tables are _Both views over them,
    and its sorted node and edge tuples are merged on first read."""

    __slots__ = ("_layers",)

    def __init__(self, first: _Layer, second: _Layer):
        super().__init__(
            None, None, _Both(first.endpoints, second.endpoints),
            _Both(first.labels, second.labels), _Both(first.props, second.props),
            _Both(first.node_set, second.node_set),
        )
        self._layers = (first, second)

    @property
    def nodes(self) -> tuple[str, ...]:
        if self._nodes is None:
            first, second = self._layers
            self._nodes = tuple(sorted((*first.nodes, *second.nodes)))
        return self._nodes

    @property
    def edges(self) -> tuple[str, ...]:
        if self._edges is None:
            first, second = self._layers
            self._edges = tuple(sorted((*first.edges, *second.edges)))
        return self._edges


def _layers(g: PropertyGraph) -> tuple[_Layer, ...]:
    """g's layers: a layered graph's two, or a view of a one-layer graph's
    tables."""
    if isinstance(g, _Layered):
        return g._layers
    return (_Layer(g._nodes, g._edges, g._node_set, g._endpoints, g._labels, g._props),)


def _merged(a: _Layer, b: _Layer) -> _Layer:
    """One new layer holding both layers' rows; neither is written."""
    return _Layer((*a.nodes, *b.nodes), (*a.edges, *b.edges), a.node_set | b.node_set,
                  {**a.endpoints, **b.endpoints}, {**a.labels, **b.labels},
                  {**a.props, **b.props})


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
    and properties: base's rows are shared, not copied (module docstring),
    and only the new rows are validated, with the errors one build of all
    the rows would raise.

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
              label_index=None, label_tables=None, label_targets=None) -> PropertyGraph:
    """base plus normalized rows: text ids, (source, destination) per edge
    in input order, frozensets of labels, and per element with properties
    one map from key to frozenset of values, which it stores in key order.
    Checks the id invariants, in this order: duplicate node ids, duplicate
    edge ids, ids used as both, endpoints in input order, edges without
    endpoints.  Only the new rows are checked: each check walks the new
    ids or end nodes, or base's table where it is the smaller, and probes
    the other side.

    Without a base the rows become a one-layer graph, and the dicts handed
    in are its tables.  With one, the rows become a new layer beside base's
    layer, or, on a two-layer base, the largest of the three layers stays
    shared and the other two are merged into one (module docstring).  It
    builds no index: base's built label indexes carry over, for the labels
    no new row carries, and the new graph builds the rest on first read,
    adjacent_edges' tables included.

    A caller that already holds the new edges grouped may hand them in:
    label_index, each label a new row carries to those rows' ids; and
    label_tables and label_targets, label_adjacency tables and _targets
    tables of labels that no base element carries.  These take effect where
    base's label index is built, as it is once anything has read labels
    from base."""
    layers = () if base is None else _layers(base)
    node_set, edge_set = set(nodes), set(edges)
    if len(node_set) != len(nodes) or not all(
            layer.node_set.isdisjoint(node_set) for layer in layers):
        raise IdClash("duplicate node id")
    if len(edge_set) != len(edges) or not all(
            layer.endpoints.keys().isdisjoint(edge_set) for layer in layers):
        raise IdClash("duplicate edge id")
    clash = node_set & edge_set
    for layer in layers:
        clash |= layer.endpoints.keys() & node_set | layer.node_set & edge_set
    if clash:
        raise IdClash(f"ids used as both node and edge: {sorted(clash)}")

    # Checked as whole sets; the scan in input order only names the failure.
    unknown = set(chain.from_iterable(endpoints.values())) - node_set
    for layer in layers:
        unknown = unknown - layer.node_set
    if endpoints.keys() != edge_set or unknown:
        for e, (src, dst) in endpoints.items():
            if e not in edge_set:
                raise DanglingEdge(f"endpoints given for unknown edge {e!r}")
            if src in unknown or dst in unknown:
                raise DanglingEdge(f"edge {e!r} endpoint not a node: ({src}, {dst})")
        raise DanglingEdge(f"edges without endpoints: {sorted(edge_set - endpoints.keys())}")

    props = {x: dict(sorted(row.items())) for x, row in props.items()}
    if base is None:
        return PropertyGraph(tuple(sorted(nodes)), tuple(sorted(edges)),
                             endpoints, labels, props, node_set)
    new = _Layer(tuple(nodes), tuple(edges), node_set, endpoints, labels, props)
    if len(layers) == 1:
        layers = (*layers, new)
    else:
        keep, *rest = sorted((*layers, new), key=_Layer.size, reverse=True)
        layers = (keep, _merged(*rest))
    g = _Layered(*sorted(layers, key=_Layer.size, reverse=True))

    old_index = base._by_label
    if old_index is not None:
        fresh = _index_labels(labels) if label_index is None else label_index
        g._by_label = {**old_index, **{
            name: old_index[name] | xs if name in old_index else xs
            for name, xs in fresh.items()}}
        # A carried label has the same edges in both graphs, so the two
        # share its tables, whichever graph builds one.  The all-edge
        # tables (key None) are base's edges only: never carried.
        g._label_adj = {name: t for name, t in base._label_adj.items()
                        if name is not None and name not in fresh}
        g._label_adj.update(label_tables or {})
        g._label_targets = {name: t for name, t in base._label_targets.items()
                            if name not in fresh}
        g._label_targets.update(label_targets or {})
    return g
