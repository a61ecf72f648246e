"""Generated shape files and graph documents through the command line.

Shape files follow docs/grammar.ebnf: chains of up to 30 operands, nesting
up to 6 levels, up to 4 nested exact counts (validation still grounds k of
them in 2^k), references to unknown shapes, and now and then a truncated
file.  Graph documents have at most 6 nodes, ids, labels and text drawn
partly from characters that need escaping, and are sometimes malformed.
Whatever comes in, every subcommand must answer with a contract exit code:
0 and 1 verdicts, 2 input errors, 3 budget exhausted; never 4, an internal
error.  A graph that converts converts again to the same text.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pgshapes.cli import main

SHAPE_NAMES = ("s0", "s1", "s2")
LABELS = ("A", "B")
EDGE_LABELS = ("p", "q")
KEYS = ("k", "m")
MAX_CHAIN = 30
MAX_DEPTH = 6
MAX_EXACT = 4
MAX_NODES = 6
MAX_TEXT = 600
# Quotes, backslashes, control characters, DEL, a line separator, non-ASCII
# and astral text: what the graph writer and the fact export must escape.
ODD_CHARS = '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u2028é\U0001f600"
# JSON text that import must refuse, written over placeholder strings: a
# lone surrogate escape, an integer longer than int() converts, and nesting
# deeper than the decoder recurses.
POISON = "@poison@"
POISONS = ('"\\ud800"', "9" * 5000, "[" * 10_000 + "]" * 10_000)


@st.composite
def shape_files(draw):
    """A shape file, mostly well-formed: forms sit at their kind of
    element and references name shapes of the right kind, except where a
    rare draw asks for the error."""
    names = SHAPE_NAMES[: draw(st.integers(1, len(SHAPE_NAMES)))]
    kinds = {name: draw(st.sampled_from(("NODE", "EDGE"))) for name in names}
    budget = [30]  # operators left; once spent, operands are primaries
    careless = draw(st.integers(0, 3)) == 0  # a file that may hold mistakes

    def pick(options):
        return draw(st.sampled_from(options))

    def rarely() -> bool:
        return careless and draw(st.integers(0, 9)) == 0

    def spend() -> bool:
        budget[0] -= 1
        return budget[0] > 0

    def chain(operand, sep, depth, *args):
        """Up to MAX_CHAIN operands, cycling through up to 3 drawn ones, and
        at most about MAX_TEXT characters."""
        if depth >= MAX_DEPTH or not spend():
            return operand(depth, *args)
        drawn = [operand(depth, *args) for _ in range(draw(st.integers(1, 3)))]
        longest = max(map(len, drawn))
        n = draw(st.integers(1, max(1, min(MAX_CHAIN, MAX_TEXT // longest))))
        return f" {sep} ".join(drawn[i % len(drawn)] for i in range(n))

    def value():
        return pick(("3", "-1", '"x"', "2020-01-02"))

    def predicate(depth):
        if depth >= MAX_DEPTH or not spend():
            return pick(("any", "int", "string", "date", f"< {value()}"))
        form = pick(("!", "()", "cmp"))
        if form == "!":
            return "!" + predicate(depth + 1)
        if form == "()":
            return f"({chain(predicate, '&', depth + 1)})"
        return f"{pick(('=', '!=', '<', '<=', '>', '>='))} {value()}"

    def path(depth):
        return chain(path_seq, "||", depth)

    def path_seq(depth):
        return chain(path_prefix, "/", depth)

    def path_prefix(depth):
        if depth >= MAX_DEPTH or not spend():
            return f":{pick(EDGE_LABELS)}"
        form = pick(("^", "?", "*", "+", "()"))
        if form in ("^", "?"):
            return form + path_prefix(depth + 1)
        if form in ("*", "+"):
            return f":{pick(EDGE_LABELS)}{form}"
        return f"({path(depth + 1)})"

    def constraint(depth, kind, exact):
        return chain(conjunction, "|", depth, kind, exact)

    def conjunction(depth, kind, exact):
        return chain(unary, "&", depth, kind, exact)

    def unary(depth, kind, exact):
        if depth >= MAX_DEPTH or not spend():
            return primary(kind)
        if rarely():  # a form out of place, wherever it stands
            kind = "EDGE" if kind == "NODE" else "NODE"
        form = pick(("!", "count", "()", "primary", "src", "dst"))
        if form == "!":
            return "!" + unary(depth + 1, kind, exact)
        if form in ("src", "dst") and kind == "EDGE":
            return f"{form} {unary(depth + 1, 'NODE', exact)}"
        if form == "()":
            return f"({constraint(depth + 1, kind, exact)})"
        if form != "count":
            return primary(kind)
        op = pick((">=", "<=", "=") if exact < MAX_EXACT else (">=", "<="))
        inner = exact + (op == "=")
        head = f"{op} {draw(st.integers(0, 3))}"
        body = pick(("<-[", "->[", "key", "path")) if kind == "NODE" else "key"
        if body in ("<-[", "->["):
            return f"{head} {body} {constraint(depth + 1, 'EDGE', inner)} ]"
        if body == "key":
            return f"{head} key {pick(KEYS)} . {predicate(depth + 1)}"
        return f"{head} {path(depth + 1)} . {unary(depth + 1, 'NODE', inner)}"

    def primary(kind):
        form = pick(("true", "id", "label", "ref", "ref", "cmp"))
        if form == "true":
            return "true"
        if form == "id":
            return f"id {pick(('n0', 'n1', 'r0', '7'))}"
        if form == "label":
            return f":{pick(LABELS + EDGE_LABELS)}"
        if form == "ref":
            same = [name for name in names if kinds[name] == kind]
            return pick(tuple(same)) if same and not rarely() else "nowhere"
        operand = pick(("key", "path", "pathkey") if kind == "NODE" else ("key",))
        second = pick(("key", "path")) if rarely() else operand
        parts = [
            {"key": f"key {pick(KEYS)}", "path": f":{pick(EDGE_LABELS)}",
             "pathkey": f":{pick(EDGE_LABELS)} key {pick(KEYS)}"}[x]
            for x in (operand, second)
        ]
        comparator = pick(("eq", "subset", "disjoint", "lt"))
        return f"cmp({comparator}, {parts[0]}, {parts[1]})"

    def target(kind):
        plain = (":A", ":B", "id n0", "key k", "key m = 3", 'key k = "x"')
        if kind == "EDGE":
            plain = (":p", ":q", "id r0", "key k")
        form = pick(("", "plain", "plain", "&", "|"))
        if form == "":
            return ""
        if form == "plain":
            return pick(plain)
        return f"{pick(plain)} {form} {pick(plain)}"

    text = "".join(
        f"{kinds[name]} {name} [{target(kinds[name])}] "
        f"{{ {constraint(0, kinds[name], 0)} }};\n"
        for name in names
    )
    if rarely():
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def graph_documents(draw):
    """A graph document, mostly well-formed; a careless one may hold bad
    values, clashing ids, dangling edges, unknown fields or bad JSON, and
    nodes whose id or value is a lone surrogate escape, a 5,000-digit
    integer or 10,000 nested arrays."""
    careless = draw(st.integers(0, 3)) == 0

    def rarely() -> bool:
        return careless and draw(st.integers(0, 5)) == 0

    def odd(text: str) -> str:
        return text + draw(st.text(st.sampled_from(ODD_CHARS), max_size=3))

    # Draws lean towards their lower bound, so the count is drawn downwards
    # from MAX_NODES: most documents have nodes.
    count = MAX_NODES - draw(st.integers(0, MAX_NODES))
    node_ids = [odd(f"n{i}") for i in range(count)]
    values = (
        {"type": "int", "value": 3},
        {"type": "int", "value": -(10**300)},
        {"type": "string", "value": "x"},
        {"type": "string", "value": odd("")},
        {"type": "date", "value": "2020-01-02"},
    )
    bad_values = (
        {"type": "date", "value": "2020-02-30"},  # not a calendar date
        {"type": "int", "value": "3"},
        {"type": "float", "value": 1.5},
    )

    def element(eid, labels):
        obj = {"id": eid}
        if draw(st.booleans()):
            obj["labels"] = draw(st.lists(st.sampled_from(labels).map(odd), max_size=2))
        keys = draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True))
        if keys:
            obj["properties"] = {
                key: [draw(st.sampled_from(bad_values if rarely() else values))]
                for key in keys
            }
        return obj

    nodes = [element(n, LABELS) for n in node_ids]
    rels = []
    for i in range(draw(st.integers(0, 8) if node_ids else st.just(0))):
        rel = element(node_ids[0] if rarely() else f"r{i}", EDGE_LABELS)
        rel["start"], rel["end"] = (
            "ghost" if rarely() else draw(st.sampled_from(node_ids)) for _ in "se"
        )
        if rarely():
            rel["label"] = "p"
        rels.append(rel)
    doc = {"nodes": nodes, "relationships": rels}
    if rarely():
        doc["extra"] = True
    # One poison index per careless document, len(POISONS) for none.  A
    # small range would nearly always give its lower bound; a wide one taken
    # modulo spreads over the kinds.
    poison = draw(st.integers(0, 2**16)) % (len(POISONS) + 1) if careless else len(POISONS)
    if poison < len(POISONS):
        value = {"type": "int", "value": f"{POISON}{poison}"}
        nodes.append(draw(st.sampled_from((
            {"id": f"{POISON}{poison}"},
            {"id": f"v{poison}", "properties": {"k": [value]}},
        ))))
    text = json.dumps(doc)
    for i, raw in enumerate(POISONS):
        text = text.replace(f'"{POISON}{i}"', raw)
    return text[: draw(st.integers(0, len(text)))] if rarely() else text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("ignore:.*unknown fields")
@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(shapes=shape_files(), graph=graph_documents())
def test_generated_inputs_never_crash(workdir, shapes, graph):
    progs, doc = workdir / "fuzz.progs", workdir / "fuzz.json"
    progs.write_text(shapes)
    doc.write_text(graph)
    converted = workdir / "fuzz-converted.json"
    for argv in (
        ["check", str(progs)],
        ["validate", "--budget", "2000", str(doc), str(progs)],
        ["convert", str(progs)],
        ["convert", str(doc), "-o", str(converted)],
        ["export-asp", str(doc), str(progs), str(workdir / "fuzz.asp")],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv[0], err.getvalue(), shapes, graph)
        if argv[:2] == ["convert", str(doc)] and code == 0:
            first = converted.read_bytes()
            assert main(["convert", str(converted), "-o", str(converted)]) == 0
            assert converted.read_bytes() == first, graph
