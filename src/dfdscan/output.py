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


def dfd_to_json(dfd: Dfd) -> str:
    nodes = [_element_json("name", n.name, "type", n.node_type, n) for n in dfd.sorted_nodes()]
    flows = [
        _element_json("sender", f.sender, "receiver", f.receiver, f) for f in dfd.sorted_flows()
    ]
    return '{\n    "nodes": %s,\n    "information_flows": %s\n}\n' % (
        _block("[", nodes, "]", "    "),
        _block("[", flows, "]", "    "),
    )


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


def traceability_to_json(dfd: Dfd) -> str:
    records = []
    for item_id, rec in dfd.traces.items():
        subs = rec.sub_items
        sub_items = [
            "%s: {\n%s\n            }" % (_string(k), _entry_fields(subs[k], " " * 16))
            for k in sorted(subs)
        ]
        primary = _entry_fields(rec.primary, " " * 8)
        records.append(
            '%s: {\n%s,\n        "sub_items": %s\n    }'
            % (_string(item_id), primary, _block("{", sub_items, "}", " " * 8))
        )
    return _block("{", records, "}", "") + "\n"


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


def dfd_to_dot(dfd: Dfd, title: str = "dfd") -> str:
    out = ["digraph %s {" % json.dumps(title), "    rankdir=LR;"]
    out.append('    node [fontname="Helvetica", fontsize=11];')
    out.append('    edge [fontname="Helvetica", fontsize=9];')
    for node in dfd.sorted_nodes():
        out.append(
            '    "%s" [label="%s", shape=%s];'
            % (node.name, _dot_label(node), _SHAPES[node.node_type])
        )
    for flow in dfd.sorted_flows():
        label = ", ".join(sorted(flow.stereotypes))
        attr = ' [label="%s"]' % label if label else ""
        out.append('    "%s" -> "%s"%s;' % (flow.sender, flow.receiver, attr))
    out.append("}")
    return "\n".join(out) + "\n"


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
