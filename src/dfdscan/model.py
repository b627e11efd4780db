"""Dataflow diagram model: nodes, flows, tagged values, and traceability.

The Dfd class is a single-writer builder.  Extractors feed it through
upsert_node / upsert_flow / annotate, all of which are commutative merges:
stereotype sets union, tagged values union, traces accumulate.  That is
what makes extractor order within a pipeline phase irrelevant.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

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


@lru_cache(maxsize=4096)  # pure, and a diagram names each element many times
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


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """Where in the codebase a model item was detected.

    line is 1-based; span is a 0-based half-open [start:end) character
    interval within that line, rendered as "(start:end)".  snippet keeps the
    matched text so the evidence can be re-checked against the file later;
    it is not serialized.  via holds the other links of the evidence chain
    (a ${...} entry, a constant's definition, a declaration), which the
    trace store keeps as extras; it takes no part in equality.  Entries are
    immutable because one entry is shared by every item and property entry
    it is evidence for.
    """

    file: str
    line: int
    span: tuple[int, int]
    snippet: str = ""
    via: tuple[TraceEntry, ...] = field(default=(), compare=False)

    def linked(self, links) -> TraceEntry:
        """This entry with the links added to via."""
        return replace(self, via=self.via + tuple(links)) if links else self

    def span_str(self) -> str:
        return "(%d:%d)" % self.span

    def to_obj(self) -> dict:
        return {"file": self.file, "line": self.line, "span": self.span_str()}


@dataclass
class TraceRecord:
    primary: TraceEntry
    sub_items: dict[str, TraceEntry] = field(default_factory=dict)
    extras: list[TraceEntry] = field(default_factory=list)


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
    position so that the choice never depends on extractor order.  An
    entry that loses a slot, or is pushed out of one, stays as an extra.
    The via links of a recorded entry join the extras without competing
    for the primary or a sub-item.
    """

    def __init__(self) -> None:
        self._records: dict[str, TraceRecord] = {}
        # the epoch that filled each slot: an item id names its primary,
        # an (item id, key) pair one of its sub-items
        self._epochs: dict[str | tuple[str, str], int] = {}
        # (item id, entry) for every extra: an item can gather thousands
        self._extras: set[tuple[str, TraceEntry]] = set()
        self.epoch = 0

    def _wins(self, slot, entry: TraceEntry, current: TraceEntry | None) -> bool:
        """Whether entry takes the slot: it is empty, or entry comes first by
        file position within the epoch that filled it."""
        if current is None or (
            self._epochs[slot] == self.epoch and _entry_key(entry) < _entry_key(current)
        ):
            self._epochs[slot] = self.epoch
            return True
        return False

    def _open(self, item_id: str, entry: TraceEntry) -> TraceRecord:
        """The item's record, created with entry as its primary if missing."""
        rec = self._records.get(item_id)
        if rec is None:
            rec = self._records[item_id] = TraceRecord(primary=entry)
            self._epochs[item_id] = self.epoch
        return rec

    def _keep(self, item_id: str, rec: TraceRecord, entry: TraceEntry) -> None:
        """Add entry to the extras unless they hold it."""
        if (item_id, entry) not in self._extras:
            self._extras.add((item_id, entry))
            rec.extras.append(entry)

    def _promote(self, item_id: str, rec: TraceRecord, entry: TraceEntry) -> None:
        """Take entry out of the extras: it has won a slot."""
        if (item_id, entry) in self._extras:
            self._extras.remove((item_id, entry))
            rec.extras.remove(entry)

    def record(self, item_id: str, entry: TraceEntry) -> None:
        rec = self._open(item_id, entry)
        if entry != rec.primary:
            if self._wins(item_id, entry, rec.primary):
                self._promote(item_id, rec, entry)
                self._keep(item_id, rec, rec.primary)
                rec.primary = entry
            elif entry not in rec.sub_items.values():
                self._keep(item_id, rec, entry)
        self._link(item_id, rec, entry)

    def record_sub(self, item_id: str, key: str, entry: TraceEntry) -> None:
        rec = self._open(item_id, entry)
        current = rec.sub_items.get(key)
        if entry != current:
            loser = entry
            if self._wins((item_id, key), entry, current):
                self._promote(item_id, rec, entry)
                rec.sub_items[key], loser = entry, current
            if loser is not None and loser != rec.primary and loser not in rec.sub_items.values():
                self._keep(item_id, rec, loser)
        self._link(item_id, rec, entry)

    def _link(self, item_id: str, rec: TraceRecord, entry: TraceEntry) -> None:
        for link in entry.via:
            if link != rec.primary and link not in rec.sub_items.values():
                self._keep(item_id, rec, link)

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
    """The stereotypes as a set, each known and applicable to the kind."""
    out = set()
    for s in stereotypes:
        if not catalog.is_known(s):
            raise StereotypeError("unknown stereotype %r" % s)
        if kind not in catalog.kinds_for(s):
            raise StereotypeError("stereotype %r does not apply to %s" % (s, kind))
        out.add(s)
    return out


def _merge_tags(slots: dict[str, list[str]], tags: dict | None) -> None:
    """Union tagged values into slots.

    A tag's value is one value or a list, tuple or set of them; values are
    kept as strings, once each, in the order they first arrived.
    """
    for key, value in (tags or {}).items():
        slot = slots.setdefault(str(key), [])
        for v in map(str, value if isinstance(value, (list, tuple, set)) else (value,)):
            if v not in slot:
                slot.append(v)


class Node:
    """A service, database, or external entity."""

    def __init__(
        self,
        name: str,
        node_type: str = "service",
        stereotypes=(),
        tagged_values: dict | None = None,
    ) -> None:
        if node_type not in NODE_TYPES:
            raise ModelError("bad node type %r" % node_type)
        self.name = normalize_name(name)
        self.node_type = node_type
        self.stereotypes = _check_stereotypes(stereotypes, self.kind)
        if node_type == "database":
            self.stereotypes.add("database")
        self.tagged_values: dict[str, list[str]] = {}
        _merge_tags(self.tagged_values, tagged_values)

    @property
    def kind(self) -> str:
        return "external_entity" if self.node_type == "external_entity" else "node"

    def __repr__(self) -> str:
        return "Node(%s, %s)" % (self.name, self.node_type)


class Flow:
    """A directed information flow between two nodes.

    Only allow_self flows may connect a node to itself; the diagram drops
    them.  Tagged values come from Dfd.annotate.
    """

    kind = "flow"

    def __init__(self, sender: str, receiver: str, stereotypes=(), allow_self: bool = False) -> None:
        self.sender = normalize_name(sender)
        self.receiver = normalize_name(receiver)
        if self.sender == self.receiver and not allow_self:
            raise SelfFlowError(
                "flow %s -> %s connects a node to itself" % (sender, receiver)
            )
        self.stereotypes = _check_stereotypes(stereotypes, self.kind)
        self.tagged_values: dict[str, list[str]] = {}

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

    def _record(self, item_id: str, stereotypes, tags: dict, trace: TraceEntry | None) -> None:
        """Record trace for the item and for each stereotype and tag key the
        upsert merged."""
        if trace is None:
            return
        self.traces.record(item_id, trace)
        for key in (*stereotypes, *tags):
            self.traces.record_sub(item_id, key, trace)

    def upsert_node(self, node: Node, trace: TraceEntry | None = None) -> Node:
        base = self.nodes.setdefault(node.name, node)
        stereotypes = node.stereotypes
        if base is not node:
            if base.node_type != node.node_type:
                upgraded = _UPGRADES.get((base.node_type, node.node_type))
                if upgraded is None:
                    conflict = "node %s: type %s conflicts with %s (keeping %s)" % (
                        base.name, node.node_type, base.node_type, base.node_type
                    )
                    if conflict not in self.conflicts:
                        self.conflicts.append(conflict)
                    # the kept type is of another kind: drop the known
                    # stereotypes of the other kind, still reject unknown ones
                    stereotypes = {
                        s
                        for s in stereotypes
                        if not catalog.is_known(s) or base.kind in catalog.kinds_for(s)
                    }
                else:
                    base.node_type = upgraded
                    if upgraded == "database":
                        base.stereotypes.add("database")
            base.stereotypes |= _check_stereotypes(stereotypes, base.kind)
            _merge_tags(base.tagged_values, node.tagged_values)
        self._record(base.name, stereotypes, node.tagged_values, trace)
        return base

    def ensure_node(self, name: str, trace: TraceEntry | None = None) -> Node:
        """Materialize a plain service node for a flow endpoint."""
        return self.nodes.get(normalize_name(name)) or self.upsert_node(Node(name), trace)

    def upsert_flow(self, flow: Flow, trace: TraceEntry | None = None) -> Flow | None:
        if flow.sender == flow.receiver:
            # Only allow_self flows get here.  They come out of scope-wide
            # monitoring configs and are known noise; drop them but keep
            # the tally visible.
            self.suppressed_self_flows.append(flow.item_id)
            return None
        self.ensure_node(flow.sender, trace)
        self.ensure_node(flow.receiver, trace)
        base = self.flows.setdefault(flow.key, flow)
        base.stereotypes |= flow.stereotypes
        self._record(base.item_id, flow.stereotypes, flow.tagged_values, trace)
        return base

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
        sender, _, receiver = item_id.partition(" -> ")
        target = self.nodes.get(item_id) or self.flows.get((sender, receiver))
        if target is None:
            raise ModelError("cannot annotate unknown item %r" % item_id)
        stereotypes = () if stereotype is None else (stereotype,)
        target.stereotypes |= _check_stereotypes(stereotypes, target.kind)
        _merge_tags(target.tagged_values, tags)
        if trace is not None:
            for key in (*stereotypes, *map(str, tags or ())):
                self.traces.record_sub(item_id, key, trace)

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
            for s in node.stereotypes:
                try:
                    _check_stereotypes((s,), node.kind)
                except StereotypeError:
                    problems.append("node %s carries inapplicable %s" % (name, s))
        for name, node in self.nodes.items():
            if name not in self.traces:
                problems.append("node %s has no trace entry" % name)
        for flow in self.flows.values():
            if flow.item_id not in self.traces:
                problems.append("flow %s has no trace entry" % flow.item_id)
        return problems
