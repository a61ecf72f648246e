"""Seeded instance generators for the four benchmark workloads.

Each generator returns instances carrying a graph document, a shape file and
the verdict computed independently in `oracle.py` from the generator's own
structures.  The same seed always gives the same instances.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta

from oracle import cycle_colourable, dpll, reach

# One search budget for every validate call of every workload.
BUDGET = 20_000

VALIDATE, NORMALIZE, CONVERT, EXPORT_ASP = "validate", "normalize", "convert", "export-asp"
CALL_TYPES = (VALIDATE, NORMALIZE, CONVERT, EXPORT_ASP)


@dataclass
class Graph:
    """A property graph in the generator's own terms."""

    nodes: list[str] = field(default_factory=list)
    edges: list[tuple[str, str, str, str]] = field(default_factory=list)  # id, src, dst, label
    labels: dict[str, set[str]] = field(default_factory=dict)
    # element -> key -> [(type tag, value)]
    props: dict[str, dict[str, list[tuple[str, object]]]] = field(default_factory=dict)

    def add_node(self, nid: str, *labels: str) -> str:
        self.nodes.append(nid)
        self.labels[nid] = set(labels)
        return nid

    def add_edge(self, src: str, dst: str, label: str) -> str:
        eid = f"e{len(self.edges)}"
        self.edges.append((eid, src, dst, label))
        self.labels[eid] = {label}
        return eid

    def prop(self, x: str, key: str, tag: str, value) -> None:
        self.props.setdefault(x, {}).setdefault(key, []).append((tag, value))

    def adjacency(self, label: str, inverse: bool = False) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {}
        for _, s, d, lab in self.edges:
            if lab == label:
                a, b = (d, s) if inverse else (s, d)
                adj.setdefault(a, []).append(b)
        return adj

    @property
    def size(self) -> int:
        return len(self.nodes) + len(self.edges)

    def document(self) -> dict:
        """The graph as a JSON document, in canonical element order."""

        def element(x: str) -> dict:
            props = {
                key: [{"type": t, "value": v} for t, v in values]
                for key, values in sorted(self.props.get(x, {}).items())
            }
            return {"id": x, "labels": sorted(self.labels.get(x, ())), "properties": props}

        rels = []
        for eid, s, d, _ in sorted(self.edges):
            obj = element(eid)
            obj["start"], obj["end"] = s, d
            rels.append(obj)
        return {"nodes": [element(n) for n in sorted(self.nodes)], "relationships": rels}


@dataclass
class Instance:
    name: str
    graph: Graph
    shapes: str
    expected: bool
    calls: tuple[str, ...]  # one round's calls; a call type may repeat
    repeat: int = 1  # rounds repeat every call this often
    # Filled in when the inputs are written.
    graph_path: str = ""
    shapes_path: str = ""
    document: dict | None = None


def _date(rng: random.Random) -> str:
    return (date(2000, 1, 1) + timedelta(days=rng.randrange(9000))).isoformat()


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))


# ---------------------------------------------------------------------------
# sparse-io: big sparse graphs, non-recursive shapes on labels, keys, src and
# one-step counts.

SPARSE_SHAPES = """\
NODE PersonShape [:Person] { >= 1 key name . string & <= 1 :worksFor . :Org };
NODE OrgShape [:Org] { ! :Person & >= 1 key name . string };
EDGE WorksShape [:worksFor] { src :Person & >= 1 key since . date };
"""


def sparse_graph(rng: random.Random, n: int, conform: bool) -> tuple[Graph, bool]:
    g = Graph()
    people, orgs = [], []
    for i in range(n):
        r = rng.random()
        if r < 0.6:
            x = g.add_node(f"n{i}", "Person", *(["Employee"] if rng.random() < 0.5 else []))
            people.append(x)
            g.prop(x, "name", "string", _word(rng))
            g.prop(x, "age", "int", rng.randint(18, 90))
            g.prop(x, "born", "date", _date(rng))
            g.prop(x, "email", "string", f"{_word(rng)}@{_word(rng)}.org")
            for _ in range(rng.randint(1, 3)):
                g.prop(x, "tags", "string", _word(rng))
            for _ in range(rng.randint(1, 2)):
                g.prop(x, "score", "int", rng.randint(0, 100))
        elif r < 0.8:
            x = g.add_node(f"n{i}", "Org")
            orgs.append(x)
            g.prop(x, "name", "string", _word(rng))
            g.prop(x, "founded", "date", _date(rng))
            g.prop(x, "sector", "string", _word(rng))
            g.prop(x, "size", "int", rng.randint(1, 10**5))
        else:
            x = g.add_node(f"n{i}", "Place")
            g.prop(x, "code", "int", rng.randint(0, 10**6))
            g.prop(x, "city", "string", _word(rng))
    nodes = list(g.nodes)
    for p in people:
        if rng.random() < 0.7:
            e = g.add_edge(p, rng.choice(orgs), "worksFor")
            g.prop(e, "since", "date", _date(rng))
            g.prop(e, "weight", "int", rng.randint(1, 9))
    while len(g.edges) < 3 * n:
        label = rng.choice(("knows", "likes"))
        src = rng.choice(people) if label == "knows" else rng.choice(nodes)
        e = g.add_edge(src, rng.choice(nodes), label)
        g.prop(e, "weight", "int", rng.randint(1, 9))
        if rng.random() < 0.5:
            g.prop(e, "since", "date", _date(rng))
    if not conform:
        # One violation of a kind picked by the seed.
        kind = rng.randrange(3)
        if kind == 0:
            p = rng.choice(people)
            for o in rng.sample(orgs, 2):
                e = g.add_edge(p, o, "worksFor")
                g.prop(e, "since", "date", _date(rng))
        elif kind == 1:
            g.labels[rng.choice(orgs)].add("Person")
        else:
            g.add_edge(rng.choice(people), rng.choice(orgs), "worksFor")
    return g, sparse_verdict(g)


def sparse_verdict(g: Graph) -> bool:
    def has(x, key, tag):
        return any(t == tag for t, _ in g.props.get(x, {}).get(key, ()))

    works = g.adjacency("worksFor")
    src = {eid: s for eid, s, _, _ in g.edges}
    for x in g.nodes:
        labs = g.labels[x]
        if "Person" in labs:
            employers = {y for y in works.get(x, ()) if "Org" in g.labels[y]}
            if not has(x, "name", "string") or len(employers) > 1:
                return False
        if "Org" in labs and ("Person" in labs or not has(x, "name", "string")):
            return False
    for eid, _, _, lab in g.edges:
        if lab == "worksFor":
            if "Person" not in g.labels[src[eid]] or not has(eid, "since", "date"):
                return False
    return True


# ---------------------------------------------------------------------------
# closure-paths: non-recursive shapes over closure and inverse paths.

CLOSURE_SHAPES = """\
NODE Reach [:Member] { >= 2 (:knows || ^:worksFor)+ . :Org };
NODE Circle [:Hub] { >= 3 ^(:knows/:worksFor)* . :Person };
NODE Taste [:Member] { cmp(subseteq, :likes, :knows*) };
"""


def closure_graph(rng: random.Random, n: int, conform: bool) -> tuple[Graph, bool]:
    # Fixed out-degrees (2 knows, 1 worksFor, 1 likes per node) keep the
    # graph well above the giant-component threshold, so reach sets, and
    # with them the cost, vary little by seed.
    g = Graph()
    org_ids = set(rng.sample(range(n), max(2, n * 3 // 20)))
    for i in range(n):
        g.add_node(f"n{i}", "Org" if i in org_ids else "Person")
    nodes = list(g.nodes)
    orgs = [x for x in nodes if "Org" in g.labels[x]]
    for x in nodes:
        for y in rng.sample(nodes, 2):
            g.add_edge(x, y, "knows")
    for x in nodes:
        g.add_edge(x, rng.choice(orgs), "worksFor")
    knows = g.adjacency("knows")
    works = g.adjacency("worksFor")
    employs = g.adjacency("worksFor", inverse=True)
    step = {x: knows.get(x, []) + employs.get(x, []) for x in nodes}
    back = {}  # inverse of knows/worksFor
    for x in nodes:
        for y in knows.get(x, ()):
            for z in works.get(y, ()):
                back.setdefault(z, []).append(x)
    star = {x: reach(knows, x, reflexive=True) for x in nodes}
    for x in nodes:
        # Mostly likes inside the knows closure, so Taste often holds.
        pool = sorted(star[x]) if rng.random() < 0.9 else nodes
        g.add_edge(x, rng.choice(pool), "likes")
    likes = g.adjacency("likes")

    def org_reach(x):
        return sum(1 for y in reach(step, x, reflexive=False) if "Org" in g.labels[y])

    def circle(x):
        return sum(1 for y in reach(back, x, reflexive=True) if "Person" in g.labels[y])

    members_ok = [x for x in nodes if org_reach(x) >= 2 and set(likes.get(x, ())) <= star[x]]
    hubs_ok = [x for x in nodes if circle(x) >= 3]
    members = rng.sample(members_ok, min(len(members_ok), max(1, n // 4)))
    hubs = rng.sample(hubs_ok, min(len(hubs_ok), max(1, n // 10)))
    if not conform:
        bad = [x for x in nodes if x not in members_ok]
        if bad:
            members.append(rng.choice(bad))
    for x in members:
        g.labels[x].add("Member")
    for x in hubs:
        g.labels[x].add("Hub")
    ok = all(org_reach(x) >= 2 and set(likes.get(x, ())) <= star[x]
             for x in nodes if "Member" in g.labels[x])
    ok = ok and all(circle(x) >= 3 for x in nodes if "Hub" in g.labels[x])
    return g, ok


# ---------------------------------------------------------------------------
# recursive-fixpoint: stratified recursion along acyclic `next` chains.  The
# fixed point decides every atom, after about as many sweeps as a chain is
# long; negation only refers to a lower stratum.

RECURSIVE_SHAPES = """\
NODE Chain [] { :Seed | >= 1 :next . Chain };
NODE Lost [] { ! Chain & (! >= 1 :next . true | >= 1 :next . Lost) };
NODE Warm [] { >= 1 :knows* . Chain | >= 1 :next . Warm };
NODE Safe [:Person] { Warm | ! Lost | >= 1 :next . Safe };
"""


def recursive_graph(rng: random.Random, n: int, length: int, conform: bool) -> tuple[Graph, bool]:
    # Chains of `length` nodes; every other chain ends at a :Seed node.
    g = Graph()
    chains = []
    for c in range(n // length):
        chain = [g.add_node(f"n{c * length + i}", "Person") for i in range(length)]
        for a, b in zip(chain, chain[1:]):
            g.add_edge(a, b, "next")
        if c % 2 == 0:
            g.labels[chain[-1]].add("Seed")
        chains.append(chain)
    nodes = list(g.nodes)
    # knows pairs the nodes off (x knows y and y knows x), so that every
    # `:knows*` set has two nodes and the cost of a graph does not depend
    # on the seed.  A conforming graph pairs the end of every dead chain
    # with the :Seed node of a seeded chain.  A violating one pairs the
    # nodes of one dead chain with their neighbours on it, so that nothing
    # on it reaches a :Seed chain.  Either way the fixed point needs the
    # same number of sweeps whatever the seed, about one per chain node.
    if conform:
        seeds = [chain[-1] for chain in chains[::2]]
        pairs = [(chain[-1], seeds.pop(rng.randrange(len(seeds)))) for chain in chains[1::2]]
    else:
        pairs = list(zip(chains[1][::2], chains[1][1::2]))
    paired = {x for pair in pairs for x in pair}
    rest = [x for x in nodes if x not in paired]
    rng.shuffle(rest)
    pairs += zip(rest[::2], rest[1::2])
    for a, b in pairs:
        g.add_edge(a, b, "knows")
        g.add_edge(b, a, "knows")
    for x in nodes:
        g.add_edge(x, rng.choice(nodes), "likes")
        g.add_edge(x, rng.choice(nodes), "worksFor")
    knows = g.adjacency("knows")
    chain_ok, lost, warm, safe = {}, {}, {}, {}
    for chain in chains:
        for i in reversed(range(len(chain))):
            x = chain[i]
            nxt = chain[i + 1] if i + 1 < len(chain) else None
            chain_ok[x] = "Seed" in g.labels[x] or (nxt is not None and chain_ok[nxt])
            lost[x] = not chain_ok[x] and (nxt is None or lost[nxt])
    for chain in chains:
        for i in reversed(range(len(chain))):
            x = chain[i]
            nxt = chain[i + 1] if i + 1 < len(chain) else None
            warm[x] = (any(chain_ok[y] for y in reach(knows, x, reflexive=True))
                       or (nxt is not None and warm[nxt]))
            safe[x] = warm[x] or not lost[x] or (nxt is not None and safe[nxt])
    return g, all(safe[x] for x in nodes if "Person" in g.labels[x])


# ---------------------------------------------------------------------------
# search-hard: reductions whose atoms the fixed point leaves open.

CYCLE_SHAPES = """\
NODE Red [] { ! Blue & ! >= 1 :e . Red };
NODE Blue [] { ! Red & ! >= 1 :e . Blue };
NODE Col [:V] { Red | Blue };
"""

CNF_SHAPES = """\
NODE tv [] { :Var & ! fv };
NODE fv [] { :Var & ! tv };
NODE C [:Clause] { >= 1 :pos . tv | >= 1 :neg . fv };
"""

WIDE_SHAPES = """\
NODE r [] { ! u };
NODE u [] { ! r };
NODE t [:Person] { r | u };
"""


def cycle_graph(n: int) -> tuple[Graph, bool]:
    g = Graph()
    for i in range(n):
        g.add_node(f"v{i}", "V")
    for i in range(n):
        g.add_edge(f"v{i}", f"v{(i + 1) % n}", "e")
    return g, cycle_colourable(n)


def cnf_graph(rng: random.Random, nvars: int) -> tuple[Graph, bool]:
    nclauses = round(4.26 * nvars)
    clauses = []
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    g = Graph()
    for v in range(1, nvars + 1):
        g.add_node(f"x{v}", "Var")
    for j, clause in enumerate(clauses):
        c = g.add_node(f"c{j}", "Clause")
        for lit in clause:
            g.add_edge(c, f"x{abs(lit)}", "pos" if lit > 0 else "neg")
    return g, dpll(clauses)


def wide_graph(n: int) -> tuple[Graph, bool]:
    g = Graph()
    for i in range(n):
        g.add_node(f"p{i}", "Person")
    return g, True  # r = yes, u = no on every node is a witness


# ---------------------------------------------------------------------------
# Workload table.  `full` holds the generator parameters the benchmark runs,
# `small` the self-check's smallest sizes.  A timed run makes at least
# `min_rounds` passes over the instances, so the tail percentile of the
# validate calls is fixed per workload and never depends on how fast the
# program is.

WORKLOADS = {
    "sparse-io": {
        "min_rounds": 2,
        "full": {"nodes": [400] * 4},
        "small": {"nodes": [60]},
    },
    "closure-paths": {
        "min_rounds": 5,
        "full": {"nodes": [40] * 9},
        "small": {"nodes": [20]},
    },
    "recursive-fixpoint": {
        "min_rounds": 5,
        "full": {"nodes": [60] * 8, "chain": 20},
        "small": {"nodes": [24], "chain": 6},
    },
    "search-hard": {
        "min_rounds": 2,
        "full": {
            "cycle": [*range(6, 22), 31, 41],
            "cnf": [10, 10, 10, 50],
            "wide": [200, 800, 1200, 1600],
        },
        "small": {"cycle": [4, 5], "cnf": [5], "wide": [10]},
    },
}

# Every workload also makes the call types its main layer does not use, on
# one small instance that does not depend on the seed, each call repeated
# SIDE_REPEATS times a round so that their medians are steady.
SIDE_REPEATS = 6


def _side(workload: str) -> Instance:
    rng = random.Random(f"{workload}:side")
    io_calls = (CONVERT, EXPORT_ASP)
    if workload == "sparse-io":
        g, ok = sparse_graph(rng, 20, conform=True)
        inst = Instance("side", g, SPARSE_SHAPES, ok, (NORMALIZE,))
    elif workload == "closure-paths":
        g, ok = closure_graph(rng, 30, conform=True)
        inst = Instance("side", g, CLOSURE_SHAPES, ok, io_calls)
    elif workload == "recursive-fixpoint":
        g, ok = recursive_graph(rng, 8, 4, conform=True)
        inst = Instance("side", g, RECURSIVE_SHAPES, ok, (NORMALIZE, *io_calls))
    else:
        g, ok = cycle_graph(4)
        inst = Instance("side", g, CYCLE_SHAPES, ok, (NORMALIZE, *io_calls))
    inst.repeat = SIDE_REPEATS
    return inst


def generate(workload: str, seed: int, scale: str = "full") -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    p = WORKLOADS[workload][scale]
    out: list[Instance] = []
    if workload == "sparse-io":
        # Five validate calls per graph, so that a run has enough of them
        # for a tail percentile while the exports stay slow.
        calls = (VALIDATE,) * 5 + (CONVERT, EXPORT_ASP)
        for i, n in enumerate(p["nodes"]):
            g, ok = sparse_graph(rng, n, conform=True)
            out.append(Instance(f"sparse-{n}-{i}", g, SPARSE_SHAPES, ok, calls))
    elif workload == "closure-paths":
        for i, n in enumerate(p["nodes"]):
            g, ok = closure_graph(rng, n, conform=i % 2 == 1)
            out.append(Instance(f"closure-{n}-{i}", g, CLOSURE_SHAPES, ok, (VALIDATE, NORMALIZE)))
    elif workload == "recursive-fixpoint":
        for i, n in enumerate(p["nodes"]):
            # One violating graph, so that a round's median falls among
            # the conforming ones, which also seed and print a witness.
            g, ok = recursive_graph(rng, n, p["chain"], conform=i != 1)
            out.append(Instance(f"recursive-{n}-{i}", g, RECURSIVE_SHAPES, ok, (VALIDATE,)))
    elif workload == "search-hard":
        for n in p["cycle"]:
            g, ok = cycle_graph(n)
            out.append(Instance(f"cycle-{n}", g, CYCLE_SHAPES, ok, (VALIDATE,)))
        for i, v in enumerate(p["cnf"]):
            g, ok = cnf_graph(rng, v)
            out.append(Instance(f"cnf-{v}-{i}", g, CNF_SHAPES, ok, (VALIDATE,)))
        for n in p["wide"]:
            g, ok = wide_graph(n)
            out.append(Instance(f"wide-{n}", g, WIDE_SHAPES, ok, (VALIDATE,)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out + [_side(workload)]


def write_inputs(instances: list[Instance], directory) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        inst.document = inst.graph.document()
        gpath = directory / f"{inst.name}.json"
        spath = directory / f"{inst.name}.progs"
        gpath.write_text(json.dumps(inst.document, separators=(",", ":")), encoding="utf-8")
        spath.write_text(inst.shapes, encoding="utf-8")
        inst.graph_path, inst.shapes_path = str(gpath), str(spath)
