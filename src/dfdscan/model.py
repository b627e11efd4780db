"""Dataflow diagram model: nodes, flows, tagged values, and traceability.

The Dfd class is a single-writer builder.  Extractors feed it through
upsert_node / upsert_flow / annotate, all of which are commutative merges:
stereotype sets union, tagged values union, traces accumulate.  That is
what makes extractor order within a pipeline phase irrelevant.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import catalog

NODE_TYPES = ("service", "database", "external_entity")


class ModelError(ValueError):
    """Base class for model constraint violations."""


class NameError_(ModelError):
    """Raised when a name normalizes to the empty string."""


class StereotypeError(ModelError):
    """Raised for unknown stereotypes or kind mismatches."""


class SelfFlowError(ModelError):
    """Raised when a flow would connect a node to itself."""


_SQUEEZE = re.compile(r"_+")


def normalize_name(raw: str) -> str:
    """Canonicalize an element name.

    Lowercases, maps separator characters (hyphen, dot, space, slash) to
    underscores, and collapses runs of underscores.  Surrounding whitespace
    and quotes are stripped first.  The result must be non-empty.
    """
    name = raw.strip().strip("\"'").strip()
    name = name.lower()
    for ch in "-. /":
        name = name.replace(ch, "_")
    name = _SQUEEZE.sub("_", name)
    if not name:
        raise NameError_("name %r normalizes to the empty string" % raw)
    return name


# ============================================================================
# Traceability
# ============================================================================


@dataclass
class TraceEntry:
    """Where in the codebase a model item was detected.

    line is 1-based; span is a 0-based half-open [start:end) character
    interval within that line, rendered as "(start:end)".  snippet keeps the
    matched text so the evidence can be re-checked against the file later;
    it is not serialized.
    """

    file: str
    line: int
    span: tuple[int, int]
    snippet: str = ""

    def span_str(self) -> str:
        return "(%d:%d)" % self.span

    def to_obj(self) -> dict:
        return {"file": self.file, "line": self.line, "span": self.span_str()}


@dataclass
class TraceRecord:
    primary: TraceEntry
    sub_items: dict[str, TraceEntry] = field(default_factory=dict)
    extras: list[TraceEntry] = field(default_factory=list)

    def all_entries(self) -> list[TraceEntry]:
        return [self.primary, *self.sub_items.values(), *self.extras]


def _entry_key(entry: TraceEntry) -> tuple:
    return (entry.file, entry.line, entry.span, entry.snippet)


class TraceStore:
    """Evidence entries keyed by the item they substantiate.

    Nodes are keyed by canonical name, flows by "sender -> receiver".
    Stereotypes and tagged values attached to an item are sub-items keyed by
    stereotype name or tag key.

    The pipeline runner bumps epoch at every phase boundary.  The primary
    entry for an item (and for each sub-item key) is decided within the
    earliest epoch that produced evidence, with ties broken by file
    position so that the choice never depends on extractor order; later
    epochs only accumulate extras.
    """

    def __init__(self) -> None:
        self._records: dict[str, TraceRecord] = {}
        self._primary_epoch: dict[str, int] = {}
        self._sub_epoch: dict[tuple[str, str], int] = {}
        self.epoch = 0

    def record(self, item_id: str, entry: TraceEntry) -> None:
        rec = self._records.get(item_id)
        if rec is None:
            self._records[item_id] = TraceRecord(primary=entry)
            self._primary_epoch[item_id] = self.epoch
            return
        if entry in rec.all_entries():
            return
        same_epoch = self._primary_epoch.get(item_id) == self.epoch
        if same_epoch and _entry_key(entry) < _entry_key(rec.primary):
            rec.extras.append(rec.primary)
            rec.primary = entry
        else:
            rec.extras.append(entry)

    def record_sub(self, item_id: str, key: str, entry: TraceEntry) -> None:
        rec = self._records.get(item_id)
        if rec is None:
            rec = TraceRecord(primary=entry)
            self._records[item_id] = rec
            self._primary_epoch[item_id] = self.epoch
        current = rec.sub_items.get(key)
        if current is None:
            rec.sub_items[key] = entry
            self._sub_epoch[(item_id, key)] = self.epoch
            return
        same_epoch = self._sub_epoch.get((item_id, key)) == self.epoch
        if same_epoch and _entry_key(entry) < _entry_key(current):
            rec.sub_items[key] = entry

    def get(self, item_id: str) -> TraceRecord | None:
        return self._records.get(item_id)

    def items(self) -> list[tuple[str, TraceRecord]]:
        return sorted(self._records.items())

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._records

    def __len__(self) -> int:
        return len(self._records)


# ============================================================================
# Elements
# ============================================================================


def _check_stereotypes(stereotypes, kind: str) -> set[str]:
    out = set()
    for s in stereotypes:
        if not catalog.is_known(s):
            raise StereotypeError("unknown stereotype %r" % s)
        if kind not in catalog.kinds_for(s):
            raise StereotypeError(
                "stereotype %r does not apply to %s elements" % (s, kind)
            )
        out.add(s)
    return out


def _as_values(value) -> list[str]:
    if isinstance(value, (list, tuple, set)):
        return [str(v) for v in value]
    return [str(value)]


class Node:
    """A service, database, or external entity."""

    def __init__(
        self,
        name: str,
        node_type: str = "service",
        stereotypes=(),
        tagged_values: dict | None = None,
        auto_created: bool = False,
    ) -> None:
        if node_type not in NODE_TYPES:
            raise ModelError("bad node type %r" % node_type)
        self.display_name = str(name).strip().strip("\"'")
        self.name = normalize_name(name)
        self.node_type = node_type
        kind = "external_entity" if node_type == "external_entity" else "node"
        self.stereotypes = _check_stereotypes(stereotypes, kind)
        if node_type == "database":
            self.stereotypes.add("database")
        self.tagged_values: dict[str, list[str]] = {}
        for key, value in (tagged_values or {}).items():
            self.tagged_values[str(key)] = _as_values(value)
        # auto_created marks placeholder nodes materialized from a flow
        # endpoint; an explicit upsert later takes over the display name.
        self.auto_created = auto_created

    @property
    def kind(self) -> str:
        return "external_entity" if self.node_type == "external_entity" else "node"

    def __repr__(self) -> str:
        return "Node(%s, %s)" % (self.name, self.node_type)


class Flow:
    """A directed information flow between two nodes."""

    def __init__(
        self,
        sender: str,
        receiver: str,
        stereotypes=(),
        tagged_values: dict | None = None,
        allow_self: bool = False,
    ) -> None:
        self.sender = normalize_name(sender)
        self.receiver = normalize_name(receiver)
        if self.sender == self.receiver and not allow_self:
            raise SelfFlowError(
                "flow %s -> %s connects a node to itself" % (sender, receiver)
            )
        self.allow_self = allow_self
        self.stereotypes = _check_stereotypes(stereotypes, "flow")
        self.tagged_values: dict[str, list[str]] = {}
        for key, value in (tagged_values or {}).items():
            self.tagged_values[str(key)] = _as_values(value)

    @property
    def key(self) -> tuple[str, str]:
        return (self.sender, self.receiver)

    @property
    def item_id(self) -> str:
        return "%s -> %s" % (self.sender, self.receiver)

    def __repr__(self) -> str:
        return "Flow(%s -> %s)" % (self.sender, self.receiver)


def flow_id(sender: str, receiver: str) -> str:
    return "%s -> %s" % (normalize_name(sender), normalize_name(receiver))


# ============================================================================
# The diagram builder
# ============================================================================

# Node-type merge: service is the weak default and can be upgraded; the
# other two types are committed and conflict with each other.
_UPGRADES = {
    ("service", "database"): "database",
    ("service", "external_entity"): "external_entity",
    ("database", "service"): "database",
    ("external_entity", "service"): "external_entity",
}


class Dfd:
    """Mutable dataflow diagram assembled by the extraction pipeline."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.flows: dict[tuple[str, str], Flow] = {}
        self.traces = TraceStore()
        self.conflicts: list[str] = []
        self.suppressed_self_flows: list[str] = []

    # ------------------------------------------------------------------
    # mutation operations (commutative merges)
    # ------------------------------------------------------------------

    def upsert_node(self, node: Node, trace: TraceEntry | None = None) -> Node:
        existing = self.nodes.get(node.name)
        if existing is None:
            self.nodes[node.name] = node
            merged = node
        else:
            merged = self._merge_node(existing, node)
        if trace is not None:
            self.traces.record(merged.name, trace)
            anchor = self.traces.get(merged.name).primary
            for s in node.stereotypes:
                self.traces.record_sub(merged.name, s, trace)
            for key in node.tagged_values:
                self.traces.record_sub(merged.name, key, trace)
        elif merged.name in self.traces:
            anchor = self.traces.get(merged.name).primary
            for s in node.stereotypes:
                self.traces.record_sub(merged.name, s, anchor)
            for key in node.tagged_values:
                self.traces.record_sub(merged.name, key, anchor)
        return merged

    def _merge_node(self, base: Node, incoming: Node) -> Node:
        if base.node_type != incoming.node_type:
            upgraded = _UPGRADES.get((base.node_type, incoming.node_type))
            if upgraded is None:
                self.conflicts.append(
                    "node %s: type %s conflicts with %s (keeping %s)"
                    % (base.name, incoming.node_type, base.node_type, base.node_type)
                )
            else:
                base.node_type = upgraded
                if upgraded == "database":
                    base.stereotypes.add("database")
        kind = base.kind
        base.stereotypes |= _check_stereotypes(incoming.stereotypes, kind)
        for key, values in incoming.tagged_values.items():
            slot = base.tagged_values.setdefault(key, [])
            for v in values:
                if v not in slot:
                    slot.append(v)
        if base.auto_created and not incoming.auto_created:
            base.display_name = incoming.display_name
            base.auto_created = False
        return base

    def ensure_node(self, name: str, trace: TraceEntry | None = None) -> Node:
        """Materialize a plain service node for a flow endpoint."""
        canonical = normalize_name(name)
        if canonical in self.nodes:
            return self.nodes[canonical]
        return self.upsert_node(Node(name, auto_created=True), trace)

    def upsert_flow(self, flow: Flow, trace: TraceEntry | None = None) -> Flow | None:
        if flow.sender == flow.receiver:
            if flow.allow_self:
                # Self-flows come out of scope-wide monitoring configs and
                # are known noise; drop them but keep the tally visible.
                self.suppressed_self_flows.append(flow.item_id)
                return None
            raise SelfFlowError("flow %s rejected" % flow.item_id)
        self.ensure_node(flow.sender, trace)
        self.ensure_node(flow.receiver, trace)
        existing = self.flows.get(flow.key)
        if existing is None:
            self.flows[flow.key] = flow
            merged = flow
        else:
            existing.stereotypes |= flow.stereotypes
            for key, values in flow.tagged_values.items():
                slot = existing.tagged_values.setdefault(key, [])
                for v in values:
                    if v not in slot:
                        slot.append(v)
            merged = existing
        if trace is not None:
            self.traces.record(merged.item_id, trace)
            anchor = self.traces.get(merged.item_id).primary
            for s in flow.stereotypes:
                self.traces.record_sub(merged.item_id, s, trace)
            for key in flow.tagged_values:
                self.traces.record_sub(merged.item_id, key, anchor)
        return merged

    def annotate(
        self,
        item_id: str,
        stereotype: str | None = None,
        tags: dict | None = None,
        trace: TraceEntry | None = None,
    ) -> None:
        """Attach a stereotype and/or tagged values to an existing item.

        item_id is a canonical node name or a flow id.  Annotating a missing
        item is an error; extractors must create items before decorating
        them (creation happens in earlier pipeline phases).
        """
        target_kind = None
        if item_id in self.nodes:
            target_kind = self.nodes[item_id].kind
            target = self.nodes[item_id]
        else:
            pair = _parse_flow_id(item_id)
            if pair is not None and pair in self.flows:
                target_kind = "flow"
                target = self.flows[pair]
            else:
                raise ModelError("cannot annotate unknown item %r" % item_id)
        if stereotype is not None:
            if not catalog.is_known(stereotype):
                raise StereotypeError("unknown stereotype %r" % stereotype)
            if target_kind not in catalog.kinds_for(stereotype):
                raise StereotypeError(
                    "stereotype %r does not apply to %s" % (stereotype, target_kind)
                )
            target.stereotypes.add(stereotype)
            if trace is not None:
                self.traces.record_sub(item_id, stereotype, trace)
        for key, value in (tags or {}).items():
            slot = target.tagged_values.setdefault(str(key), [])
            for v in _as_values(value):
                if v not in slot:
                    slot.append(v)
            if trace is not None:
                self.traces.record_sub(item_id, str(key), trace)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def sorted_nodes(self) -> list[Node]:
        return [self.nodes[k] for k in sorted(self.nodes)]

    def sorted_flows(self) -> list[Flow]:
        return [self.flows[k] for k in sorted(self.flows)]

    def node(self, name: str) -> Node | None:
        return self.nodes.get(normalize_name(name))

    def has_flow(self, sender: str, receiver: str) -> bool:
        return (normalize_name(sender), normalize_name(receiver)) in self.flows

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of integrity violations (empty when consistent)."""
        problems = []
        for key, flow in self.flows.items():
            for endpoint in key:
                if endpoint not in self.nodes:
                    problems.append(
                        "flow %s references missing node %s" % (flow.item_id, endpoint)
                    )
            if flow.sender == flow.receiver:
                problems.append("self-flow %s present" % flow.item_id)
        for name, node in self.nodes.items():
            if name != normalize_name(name):
                problems.append("node key %s is not canonical" % name)
            if node.node_type == "database" and "database" not in node.stereotypes:
                problems.append("database node %s lacks database stereotype" % name)
            kind = node.kind
            for s in node.stereotypes:
                if kind not in catalog.kinds_for(s):
                    problems.append("node %s carries inapplicable %s" % (name, s))
        for name, node in self.nodes.items():
            if name not in self.traces:
                problems.append("node %s has no trace entry" % name)
        for flow in self.flows.values():
            if flow.item_id not in self.traces:
                problems.append("flow %s has no trace entry" % flow.item_id)
        return problems


def _parse_flow_id(item_id: str) -> tuple[str, str] | None:
    if " -> " not in item_id:
        return None
    sender, _, receiver = item_id.partition(" -> ")
    if not sender or not receiver:
        return None
    return (sender, receiver)
