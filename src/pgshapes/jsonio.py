"""Graph interchange: a JSON document format and its reader and writer.

The document is a single object with "nodes" and "relationships" arrays.
Every element carries "id", optional "labels", and optional "properties";
a relationship adds "start" and "end" node ids.  Property values are typed
wrappers like {"type": "int", "value": 30} so readers never have to guess,
and dates travel as ISO text.  Unknown fields are skipped with a warning
rather than rejected, so documents from richer exporters still load.

Export output is canonical: the bytes of json.dumps(doc, sort_keys=True,
indent=2, ensure_ascii=False) plus a newline, which the writer emits element
by element in the schema's fixed key order, without the generic encoder.
import(export(G)) is the identity.
"""

from __future__ import annotations

import json
import re
import sys
import warnings

from .errors import SchemaError
from .graph import PropertyGraph, _assemble
from .values import (
    DATE,
    INT,
    STRING,
    DateValue,
    StrValue,
    IntValue,
    Value,
    parse_date,
    value_sort_key,
)

_FIELDS = {"nodes": frozenset({"id", "labels", "properties"}),
           "relationships": frozenset({"id", "labels", "label", "start", "end", "properties"})}
_DOC_FIELDS = frozenset(_FIELDS)
_VALUE_FIELDS = frozenset({"type", "value"})

# The string escaper json.dumps itself uses with ensure_ascii=False.
_quote = json.encoder.encode_basestring
_VALUE = '{\n            "type": "%s",\n            "value": %s\n          }'
# In valid JSON every backslash opens an escape, so escapes found from the
# left are the document's own; group 1 is a surrogate not in a valid pair.
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..)|.)")


def _warn_unknown(obj: dict, known: frozenset, where: str, stacklevel: int = 3) -> None:
    """Warn of obj's fields outside known, naming import_graph_json's caller."""
    if not obj.keys() <= known:
        extra = sorted(set(obj) - known)
        warnings.warn(f"{where}: ignoring unknown fields {extra}", stacklevel=stacklevel)


def _id_field(obj: dict, name: str, where: str) -> str:
    if name not in obj:
        raise SchemaError(f"{where}: missing {name!r}")
    raw = obj[name]
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise SchemaError(f"{where}: {name!r} must be a string or integer id")
    if raw == "":
        raise SchemaError(f"{where}: empty id")
    return str(raw)


def _decode_labels(obj: dict, where: str) -> frozenset[str]:
    if "labels" in obj and "label" in obj:
        raise SchemaError(f"{where}: give either 'labels' or 'label', not both")
    raw = [obj["label"]] if "label" in obj else obj.get("labels", [])
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: 'labels' must be a list")
    for lab in raw:
        if not isinstance(lab, str) or not lab:
            raise SchemaError(f"{where}: label must be a non-empty string")
    return frozenset(raw)


def _decode_values(entries: list, where: str, key: str) -> frozenset[Value]:
    """The value set of a key's entries, the common ones checked inline.  A
    loop, not a comprehension, whose frame would shift warnings' stacklevel."""
    values = set()
    for raw in entries:
        tag = type(raw) is dict and len(raw) == 2 and raw.get("type")
        payload = raw.get("value") if tag else None
        if tag == STRING and type(payload) is str:
            values.add(StrValue(payload))
        elif tag == INT and type(payload) is int:
            values.add(IntValue(payload))
        else:
            values.add(_decode_value(raw, f"{where}, key {key!r}"))
    return frozenset(values)


def _decode_value(raw: object, where: str) -> Value:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: value entry must be an object")
    _warn_unknown(raw, _VALUE_FIELDS, where, 5)  # via _decode_values, import_graph_json
    if "type" not in raw or "value" not in raw:
        raise SchemaError(f"{where}: value entry needs 'type' and 'value'")
    tag = raw["type"]
    payload = raw["value"]
    if tag == INT:
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise SchemaError(f"{where}: int value must be a JSON integer")
        return IntValue(payload)
    if tag == STRING:
        if not isinstance(payload, str):
            raise SchemaError(f"{where}: string value must be JSON text")
        return StrValue(payload)
    if tag == DATE:
        if not isinstance(payload, str):
            raise SchemaError(f"{where}: date value must be ISO text")
        try:
            return DateValue(parse_date(payload))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: unknown value type tag {tag!r}")


def import_graph_json(data: bytes | str) -> PropertyGraph:
    """Read a graph document.  Raises SchemaError on malformed input and
    DanglingEdge / IdClash when the document violates graph invariants.
    Each element decodes once, straight into rows for graph._assemble."""
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")  # fails on a lone surrogate
        text = data.decode("utf-8")
    except UnicodeError as exc:
        raise SchemaError(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except ValueError:  # the decoder's only other ValueError: a long integer
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"integer over {limit} digits") from None
    except RecursionError:
        raise SchemaError("arrays or objects nested too deep to decode") from None
    # Only a "\ud" or "\uD" escape decodes to a surrogate; memchr finds no "\"
    # in most documents far faster than a search for either.
    if b"\\" in data and (b"\\ud" in data or b"\\uD" in data):
        if any(m[1] for m in _ESCAPE.finditer(text)):
            raise SchemaError("lone surrogate escape in a string")
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    for name in _FIELDS:
        if name not in doc:
            raise SchemaError(f"document missing {name!r}")
        if not isinstance(doc[name], list):
            raise SchemaError(f"{name!r} must be a list")
    _warn_unknown(doc, _DOC_FIELDS, "document")

    ids: dict[str, list[str]] = {"nodes": [], "relationships": []}
    endpoints, labels, props, keys = {}, {}, {}, {}  # the other rows _assemble takes
    for name, fields in _FIELDS.items():
        for i, obj in enumerate(doc[name]):
            where = f"{name}[{i}]"
            if not isinstance(obj, dict):
                raise SchemaError(f"{where}: must be an object")
            _warn_unknown(obj, fields, where)
            x = _id_field(obj, "id", where)
            ids[name].append(x)
            if name == "relationships":
                endpoints[x] = (_id_field(obj, "start", where), _id_field(obj, "end", where))
            names = _decode_labels(obj, where)
            if names:
                labels[x] = names
            raw = obj.get("properties", {})
            if not isinstance(raw, dict):
                raise SchemaError(f"{where}: 'properties' must be an object")
            for key, entries in raw.items():
                if not key:
                    raise SchemaError(f"{where}: property key must be a non-empty string")
                if not isinstance(entries, list):
                    raise SchemaError(f"{where}: values of {key!r} must be a list")
                if not entries:
                    raise SchemaError(f"{where}: empty value list for {key!r}")
                props[x, key] = _decode_values(entries, where, key)
            if raw:
                keys[x] = tuple(sorted(raw))
    return _assemble(ids["nodes"], ids["relationships"], endpoints, labels, props, keys)


def _value_json(v: Value) -> str:
    if isinstance(v, IntValue):
        payload = int.__repr__(v.value)
    else:
        payload = _quote(v.value if isinstance(v, StrValue) else v.value.isoformat())
    return _VALUE % (v.type_name, payload)


def _element_json(g: PropertyGraph, x: str, head: str = "", tail: str = "") -> str:
    """x as a top-level array item; head, tail: fields around the others."""
    labels = ",\n        ".join(map(_quote, sorted(g.labels_of(x))))
    props = ",\n        ".join(
        f"{_quote(key)}: [\n          "
        + ",\n          ".join(
            map(_value_json, sorted(g.property_values(x, key), key=value_sort_key))
        )
        + "\n        ]"
        for key in g.property_keys(x)
    )
    labels = f"[\n        {labels}\n      ]" if labels else "[]"
    props = f"{{\n        {props}\n      }}" if props else "{}"
    return (
        f'\n    {{\n      {head}"id": {_quote(x)},\n      "labels": {labels},'
        f'\n      "properties": {props}{tail}\n    }}'
    )


def export_graph_json(g: PropertyGraph) -> bytes:
    """Serialize a graph to canonical UTF-8 JSON bytes (module docstring)."""
    nodes = [_element_json(g, n) for n in g.nodes]
    rels = [
        _element_json(
            g, e, f'"end": {_quote(dst)},\n      ', f',\n      "start": {_quote(src)}'
        )
        for e in g.edges
        for src, dst in [g.endpoints(e)]
    ]
    nodes, rels = (f"[{','.join(xs)}\n  ]" if xs else "[]" for xs in (nodes, rels))
    return f'{{\n  "nodes": {nodes},\n  "relationships": {rels}\n}}\n'.encode()
