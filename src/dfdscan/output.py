"""Serialization of diagrams: JSON, traceability JSON, and Graphviz DOT.

All serializers sort by canonical identity, so two diagrams built from the
same facts in any order serialize byte-identically.  The JSON writers emit
their fixed shapes directly; the text equals json.dumps(obj, indent=4) of
the matching *_to_obj document plus a final newline.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .model import Dfd, Flow, Node, TraceEntry, TraceRecord
from .search import snapshot_lines

_INTEGER = re.compile(r"-?[0-9]+")


def _scalar(v: str) -> int | str:
    """A tag value as JSON holds it: an ASCII integer as a number."""
    if _INTEGER.fullmatch(v):
        try:
            return int(v)
        except ValueError:  # more digits than int() converts
            pass
    return v


def _value_obj(values: list[str]):
    if len(values) == 1:
        return _scalar(values[0])
    return sorted(map(_scalar, values), key=str)


def _tagged_obj(tagged_values: dict[str, list[str]]) -> dict:
    return {k: _value_obj(tagged_values[k]) for k in sorted(tagged_values)}


def dfd_to_obj(dfd: Dfd) -> dict:
    nodes = []
    for node in dfd.sorted_nodes():
        nodes.append(
            {
                "name": node.name,
                "type": node.node_type,
                "stereotypes": sorted(node.stereotypes),
                "tagged_values": _tagged_obj(node.tagged_values),
            }
        )
    flows = []
    for flow in dfd.sorted_flows():
        flows.append(
            {
                "sender": flow.sender,
                "receiver": flow.receiver,
                "stereotypes": sorted(flow.stereotypes),
                "tagged_values": _tagged_obj(flow.tagged_values),
            }
        )
    return {"nodes": nodes, "information_flows": flows}


def _json(v: int | str) -> str:
    return str(v) if type(v) is int else _string(v)


def _block(open_: str, items: list[str], close: str, pad: str) -> str:
    """A JSON array or object whose items are written at pad + 4 spaces."""
    if not items:
        return open_ + close
    inner = "\n" + pad + "    "
    return open_ + inner + ("," + inner).join(items) + "\n" + pad + close


def _block_chunks(open_: str, items, close: str, pad: str):
    """The text of _block, one item at a time, with close as the last chunk's
    end: items may be a generator, so the whole text is never held."""
    inner = "\n" + pad + "    "
    opened = False
    for item in items:
        yield ("," if opened else open_) + inner + item
        opened = True
    yield "\n" + pad + close if opened else open_ + close


def _tags_json(tagged_values: dict[str, list[str]]) -> str:
    tags = []
    for k in sorted(tagged_values):
        value = _value_obj(tagged_values[k])
        if type(value) is list:
            text = _block("[", [_json(v) for v in value], "]", " " * 16)
        else:
            text = _json(value)
        tags.append("%s: %s" % (_string(k), text))
    return _block("{", tags, "}", " " * 12)


# a node or flow of dfd.json: two named strings, its stereotypes and its tags
_ELEMENT = (
    '{\n            "%s": %s,\n            "%s": %s,\n'
    '            "stereotypes": %s,\n            "tagged_values": %s\n        }'
)


def _element_json(k1: str, v1: str, k2: str, v2: str, item: Node | Flow) -> str:
    stereotypes = _block("[", [_string(s) for s in sorted(item.stereotypes)], "]", " " * 12)
    tags = _tags_json(item.tagged_values)
    return _ELEMENT % (k1, _string(v1), k2, _string(v2), stereotypes, tags)


def dfd_chunks(dfd: Dfd):
    """The text of dfd_to_json, one node or flow at a time, for writelines."""
    yield '{\n    "nodes": '
    nodes = (_element_json("name", n.name, "type", n.node_type, n) for n in dfd.sorted_nodes())
    yield from _block_chunks("[", nodes, "],", "    ")
    yield '\n    "information_flows": '
    flows = (_element_json("sender", f.sender, "receiver", f.receiver, f) for f in dfd.sorted_flows())
    yield from _block_chunks("[", flows, "]\n}\n", "    ")


def dfd_to_json(dfd: Dfd) -> str:
    """The diagram document; see dfd_chunks to stream it."""
    return "".join(dfd_chunks(dfd))


def _record_obj(rec: TraceRecord) -> dict:
    obj = rec.primary.to_obj()
    obj["sub_items"] = {k: rec.sub_items[k].to_obj() for k in sorted(rec.sub_items)}
    return obj


def traceability_to_obj(dfd: Dfd) -> dict:
    return {item_id: _record_obj(rec) for item_id, rec in dfd.traces.items()}


def _entry_fields(entry: TraceEntry, pad: str) -> str:
    """The fields of TraceEntry.to_obj, one per line at pad."""
    return '%s"file": %s,\n%s"line": %d,\n%s"span": "%s"' % (
        pad,
        _string(entry.file),
        pad,
        entry.line,
        pad,
        entry.span_str(),
    )


def _record_json(item_id: str, rec: TraceRecord) -> str:
    subs = rec.sub_items
    sub_items = [
        "%s: {\n%s\n            }" % (_string(k), _entry_fields(subs[k], " " * 16))
        for k in sorted(subs)
    ]
    return '%s: {\n%s,\n        "sub_items": %s\n    }' % (
        _string(item_id),
        _entry_fields(rec.primary, " " * 8),
        _block("{", sub_items, "}", " " * 8),
    )


def traceability_chunks(dfd: Dfd):
    """The text of traceability_to_json, one record at a time, for writelines."""
    traces = dfd.traces
    records = (_record_json(item_id, traces.get(item_id)) for item_id in traces)
    return _block_chunks("{", records, "}\n", "")


def traceability_to_json(dfd: Dfd) -> str:
    """The traceability document; see traceability_chunks to stream it."""
    return "".join(traceability_chunks(dfd))


# ============================================================================
# Graphviz
# ============================================================================

_SHAPES = {"service": "ellipse", "database": "cylinder", "external_entity": "box"}


def _dot_label(node: Node) -> str:
    parts = [node.name]
    interesting = sorted(node.stereotypes - {"internal"})
    if interesting:
        parts.append("\\n<<%s>>" % ", ".join(interesting))
    return "".join(parts)


def dot_chunks(dfd: Dfd, title: str = "dfd"):
    """The text of dfd_to_dot, one line at a time, for writelines."""
    yield (
        'digraph %s {\n    rankdir=LR;\n    node [fontname="Helvetica", fontsize=11];\n'
        '    edge [fontname="Helvetica", fontsize=9];\n' % json.dumps(title)
    )
    for node in dfd.sorted_nodes():
        yield '    "%s" [label="%s", shape=%s];\n' % (node.name, _dot_label(node), _SHAPES[node.node_type])
    for flow in dfd.sorted_flows():
        label = ", ".join(sorted(flow.stereotypes))
        attr = ' [label="%s"]' % label if label else ""
        yield '    "%s" -> "%s"%s;\n' % (flow.sender, flow.receiver, attr)
    yield "}\n"


def dfd_to_dot(dfd: Dfd, title: str = "dfd") -> str:
    return "".join(dot_chunks(dfd, title))


# ============================================================================
# Trace verification
# ============================================================================


def verify_traces(dfd: Dfd, root: str | Path) -> tuple[int, list[str]]:
    """Re-read every trace entry from disk and compare the evidence.

    Returns (item_count, failures).  An item fails when any of its entries
    points at a line whose recorded span no longer holds the recorded
    snippet.  Each file is read once per call.
    """
    failures: list[str] = []
    files: dict[str, list[str] | None] = {}
    items = dfd.traces.items()
    for item_id, rec in items:
        entries = [("", rec.primary)]
        entries += [(k, e) for k, e in sorted(rec.sub_items.items())]
        entries += [("", e) for e in rec.extras]
        for key, entry in entries:
            if entry.file not in files:
                files[entry.file] = snapshot_lines(root, entry.file)
            lines = files[entry.file]
            label = "%s/%s" % (item_id, key) if key else item_id
            if lines is None or not 1 <= entry.line <= len(lines):
                failures.append("%s: %s:%d unreadable" % (label, entry.file, entry.line))
                continue
            line = lines[entry.line - 1]
            s, e = entry.span
            if line[s:e] != entry.snippet:
                failures.append(
                    "%s: %s:%d span %s holds %r, recorded %r"
                    % (label, entry.file, entry.line, entry.span_str(), line[s:e], entry.snippet)
                )
    return len(items), failures
