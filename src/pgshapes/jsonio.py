"""Graph interchange: a JSON document format and its reader and writer.

The document is a single object with "nodes" and "relationships" arrays.
Every element carries "id", optional "labels", and optional "properties";
a relationship adds "start" and "end" node ids.  Property values are typed
wrappers like {"type": "int", "value": 30} so readers never have to guess,
and dates travel as ISO text.  Unknown fields are skipped with a warning
rather than rejected, so documents from richer exporters still load.

Import decodes the common shape of an element inline: string "id",
"start" and "end", a "labels" list, and keys whose entries are each one
string, int or YYYY-MM-DD date.  Each distinct label list, and each
distinct int or date value, is decoded once per document, and the elements
that repeat it share its frozenset.  Every other input (integer ids,
"label", extra fields, DD/MM/YYYY dates, anything malformed) goes through
the helpers, which raise every error and warning.

Export output is canonical: the bytes of json.dumps(doc, sort_keys=True,
indent=2, ensure_ascii=False) plus a newline, which the writer emits element
by element in the schema's fixed key order, without the generic encoder,
and renders each distinct label set, key and value set once per document.
import(export(G)) is the identity.
"""

from __future__ import annotations

import datetime
import json
import re
import sys
import warnings

from .errors import SchemaError
from .graph import PropertyGraph, _assemble, _Memo
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


def _id_field(obj: dict, field: str, name: str, i: int) -> str:
    raw = obj.get(field)
    if type(raw) is str and raw:
        return raw
    if field not in obj:
        raise SchemaError(f"{name}[{i}]: missing {field!r}")
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise SchemaError(f"{name}[{i}]: {field!r} must be a string or integer id")
    if raw == "":
        raise SchemaError(f"{name}[{i}]: empty id")
    return str(raw)


def _decode_labels(obj: dict, name: str, i: int) -> frozenset[str]:
    if "labels" in obj and "label" in obj:
        raise SchemaError(f"{name}[{i}]: give either 'labels' or 'label', not both")
    raw = [obj["label"]] if "label" in obj else obj.get("labels", [])
    if not isinstance(raw, list):
        raise SchemaError(f"{name}[{i}]: 'labels' must be a list")
    for lab in raw:
        if not isinstance(lab, str) or not lab:
            raise SchemaError(f"{name}[{i}]: label must be a non-empty string")
    return frozenset(raw)


def _decode_values(entries: object, name: str, i: int, key: str) -> frozenset[Value]:
    """The value set of a key's entries.  A loop, not a comprehension,
    whose frame would shift warnings' stacklevel."""
    if not key:
        raise SchemaError(f"{name}[{i}]: property key must be a non-empty string")
    if not isinstance(entries, list):
        raise SchemaError(f"{name}[{i}]: values of {key!r} must be a list")
    if not entries:
        raise SchemaError(f"{name}[{i}]: empty value list for {key!r}")
    values = set()
    for raw in entries:
        values.add(_decode_value(raw, f"{name}[{i}], key {key!r}"))
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
    Each element decodes once, straight into rows for graph._assemble.

    String ids and endpoints, "labels" lists and keys whose entries are
    string, int or ISO date values decode inline; label lists and int and
    date values are decoded once per document and shared by the rows that
    repeat them.  Any other shape goes through _id_field, _decode_labels and
    _decode_values, so errors come in document order and warnings name
    this function's caller."""
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
    endpoints, labels, props = {}, {}, {}  # the other rows _assemble takes
    # Decoded once per document: each label list, by its entries, and each
    # int or date entry, by its payload, so equal rows share one frozenset.
    # A payload's type is checked before it is looked up, so true or 1.0
    # never reads the entry of 1.
    label_sets: dict[tuple, frozenset[str]] = {}
    int_sets = _Memo(lambda payload: frozenset((IntValue(payload),)))
    date_sets: dict[str, frozenset[Value]] = {}
    for name, fields in _FIELDS.items():
        edges = name == "relationships"
        xs = ids[name]
        for i, obj in enumerate(doc[name]):
            # The common shape decodes here, with no call; any other goes
            # through the helpers, which raise and warn.  The `nodes[i]`
            # text is built only for an error or a warning.
            if not isinstance(obj, dict):
                raise SchemaError(f"{name}[{i}]: must be an object")
            if not obj.keys() <= fields:
                _warn_unknown(obj, fields, f"{name}[{i}]")
            x = obj.get("id")
            if type(x) is not str or not x:
                x = _id_field(obj, "id", name, i)
            xs.append(x)
            if edges:
                src, dst = obj.get("start"), obj.get("end")
                if type(src) is not str or not src:
                    src = _id_field(obj, "start", name, i)
                if type(dst) is not str or not dst:
                    dst = _id_field(obj, "end", name, i)
                endpoints[x] = (src, dst)
            raw = obj.get("labels")
            if type(raw) is list and "label" not in obj:
                row = tuple(raw)
                try:
                    names = label_sets.get(row)
                except TypeError:  # an unhashable entry, which is no label
                    names = None
                if names is None:
                    names = label_sets[row] = _decode_labels(obj, name, i)
            else:
                names = _decode_labels(obj, name, i)
            if names:
                labels[x] = names
            raw = obj.get("properties", {})
            if not isinstance(raw, dict):
                raise SchemaError(f"{name}[{i}]: 'properties' must be an object")
            row = {}  # in document order, as faults are reported; _assemble sorts it
            for key, entries in raw.items():
                if type(entries) is list and entries and key:
                    # One entry's value set is shared; several are merged.
                    # An entry of any other shape sends the list to the helper.
                    acc = None
                    for entry in entries:
                        if type(entry) is not dict or len(entry) != 2:
                            break
                        tag, payload = entry.get("type"), entry.get("value")
                        if tag == STRING and type(payload) is str:
                            values = frozenset((StrValue(payload),))
                        elif tag == INT and type(payload) is int:
                            values = int_sets[payload]
                        elif tag == DATE and type(payload) is str:
                            values = date_sets.get(payload)
                            if values is None:
                                # YYYY-MM-DD in ASCII digits, as parse_date
                                # reads it, is all fromisoformat takes of
                                # this length with these dashes.
                                if len(payload) != 10 or not payload[4] == payload[7] == "-":
                                    break
                                try:
                                    day = datetime.date.fromisoformat(payload)
                                except ValueError:
                                    break
                                values = date_sets[payload] = frozenset((DateValue(day),))
                        else:
                            break
                        if acc is None:
                            acc = values
                        elif type(acc) is frozenset:
                            acc = {*acc, *values}
                        else:
                            acc |= values
                    else:
                        row[key] = acc if type(acc) is frozenset else frozenset(acc)
                        continue
                row[key] = _decode_values(entries, name, i, key)
            if row:
                props[x] = row
    return _assemble(ids["nodes"], ids["relationships"], endpoints, labels, props)


def _value_json(v: Value) -> str:
    if isinstance(v, IntValue):
        payload = int.__repr__(v.value)
    else:
        payload = _quote(v.value if isinstance(v, StrValue) else v.value.isoformat())
    return _VALUE % (v.type_name, payload)


def _values_json(vs: frozenset[Value]) -> str:
    """A key's entries and the close of its array, after its header."""
    if len(vs) == 1:
        (v,) = vs
        return _value_json(v) + "\n        ]"
    return ",\n          ".join(map(_value_json, sorted(vs, key=value_sort_key))) + "\n        ]"


def export_graph_json(g: PropertyGraph) -> bytes:
    """Serialize a graph to canonical UTF-8 JSON bytes (module docstring)."""
    # Rendered once per call, looked up by the object, which import shares.
    labels_json = _Memo(lambda names: "[\n        " + ",\n        ".join(
        map(_quote, sorted(names))) + "\n      ]" if names else "[]")
    key_json = _Memo(lambda key: f"{_quote(key)}: [\n          ")
    values_json = _Memo(_values_json)
    arrays = []
    for xs in (g.nodes, g.edges):
        items = []
        for x, names, props in g._rows(xs):
            props = ",\n        ".join([key_json[key] + values_json[vs] for key, vs in props])
            props = f"{{\n        {props}\n      }}" if props else "{}"
            head = tail = ""
            if xs is g.edges:
                src, dst = g._endpoints[x]
                head, tail = f'"end": {_quote(dst)},\n      ', f',\n      "start": {_quote(src)}'
            items.append(
                f'\n    {{\n      {head}"id": {_quote(x)},\n      "labels": {labels_json[names]},'
                f'\n      "properties": {props}{tail}\n    }}'
            )
        arrays.append(f"[{','.join(items)}\n  ]" if items else "[]")
    return f'{{\n  "nodes": {arrays[0]},\n  "relationships": {arrays[1]}\n}}\n'.encode()
