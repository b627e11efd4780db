"""Serialization of diagrams: JSON, traceability JSON, and Graphviz DOT.

All serializers sort by canonical identity, so two diagrams built from the
same facts in any order serialize byte-identically.
"""
from __future__ import annotations

import json
from pathlib import Path

from .model import Dfd, Node, TraceRecord
from .search import snapshot_lines


def _value_obj(values: list[str]):
    def convert(v: str):
        if v.isdigit() or (v.startswith("-") and v[1:].isdigit()):
            return int(v)
        return v

    if len(values) == 1:
        return convert(values[0])
    return sorted((convert(v) for v in values), key=str)


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


def dfd_to_json(dfd: Dfd) -> str:
    return json.dumps(dfd_to_obj(dfd), indent=4) + "\n"


def _record_obj(rec: TraceRecord) -> dict:
    obj = rec.primary.to_obj()
    obj["sub_items"] = {k: rec.sub_items[k].to_obj() for k in sorted(rec.sub_items)}
    return obj


def traceability_to_obj(dfd: Dfd) -> dict:
    return {item_id: _record_obj(rec) for item_id, rec in dfd.traces.items()}


def traceability_to_json(dfd: Dfd) -> str:
    return json.dumps(traceability_to_obj(dfd), indent=4) + "\n"


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
