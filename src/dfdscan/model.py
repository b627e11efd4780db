"""Dataflow diagram model: nodes, flows, tagged values, and traceability.

The Dfd class is a single-writer builder.  Extractors feed it through
the pipeline context, whose node / connect / annotate call its
upsert_node / upsert_flow / annotate, all of which are commutative merges:
an item's stereotypes become the union of what each merge brought, tagged
values union, and one rule picks the entry of every trace slot.  That is
what makes extractor order within a pipeline phase irrelevant.  Names are
canonical, no flow connects a node to itself, and the context decides what
an item the constructors refuse costs.

Items are lean because a diagram holds thousands of them.  A stereotype
set is a frozenset, and every item of one Dfd with the same set holds the
same object: a write rebinds the item to the diagram's shared union or
difference and never mutates a set.  An item without tags, and a trace
record without sub-items, holds the one read-only empty mapping, which the
first write replaces with a dict of its own.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from . import catalog

NODE_TYPES = ("service", "database", "external_entity")

# the empty tags of every item and sub-items of every trace record until
# the first write; it refuses writes, so no item can fill another's
_EMPTY = MappingProxyType({})


class ModelError(ValueError):
    """Base class for model constraint violations."""


class NameError_(ModelError):
    """Raised when a name normalizes to text outside the name grammar."""


class StereotypeError(ModelError):
    """Raised for unknown stereotypes or kind mismatches."""


class SelfFlowError(ModelError):
    """Raised when a flow would connect a node to itself."""


_SQUEEZE = re.compile(r"_+")
# the one grammar of a node name, the pattern dfd.schema.json states
_GRAMMAR = re.compile(r"[a-z0-9_]+")
# quotes and all str.strip() takes for whitespace: stripped at once, none of them stays at an end
_ENDS = "\"' \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"
_ENDS += "".join(map(chr, range(0x2000, 0x200B)))


# Names up to this length are cached; a longer one, which only a hostile
# input gives, is normalized on every call so the cache never keeps it.
_CACHED_NAME = 256


def normalize_name(raw: str) -> str:
    """Canonicalize an element name.

    Lowercases, maps separator characters (hyphen, dot, space, slash) to
    underscores, and collapses runs of underscores.  Whitespace and quotes
    are stripped from both ends first, until neither is left there, so a
    normalized name normalizes to itself.  The result must match the name
    grammar [a-z0-9_]+, else NameError_: "''", "${x:" and "rab:bit,other"
    name nothing.
    """
    return _normalize_cached(raw) if len(raw) <= _CACHED_NAME else _normalize(raw)


def _normalize(raw: str) -> str:
    name = raw.strip(_ENDS).lower()
    for ch in "-. /":
        name = name.replace(ch, "_")
    name = _SQUEEZE.sub("_", name)
    if not _GRAMMAR.fullmatch(name):
        raise NameError_("name %r normalizes to no name in [a-z0-9_]+" % raw)
    return name


# pure, and a diagram names each element many times
_normalize_cached = lru_cache(maxsize=4096)(_normalize)


# ============================================================================
# Traceability
# ============================================================================


class TraceEntry(namedtuple("TraceEntry", "file line span snippet via", defaults=("", ()))):
    """Where in the codebase a model item was detected.

    line is 1-based; span is a 0-based half-open [start:end) character
    interval within that line, rendered as "(start:end)".  snippet keeps the
    matched text so the evidence can be re-checked against the file later;
    it is not serialized.  via holds the other links of the evidence chain
    (a ${...} entry, a constant's definition, a declaration), which the
    trace store keeps as extras; it takes no part in equality or the hash.
    Entries are immutable because one entry is shared by every item and
    property entry it is evidence for.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceEntry) and self[:4] == other[:4]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    def linked(self, links) -> TraceEntry:
        """This entry with the links added to via."""
        return self._replace(via=self.via + tuple(links)) if links else self

    def span_str(self) -> str:
        return "(%d:%d)" % self.span

    def to_obj(self) -> dict:
        return {"file": self.file, "line": self.line, "span": self.span_str()}


class TraceRecord:
    """An item's primary entry, an entry per sub-item key, and its extras."""

    __slots__ = ("primary", "sub_items", "_extras")

    def __init__(self, primary: TraceEntry) -> None:
        self.primary = primary
        self.sub_items: Mapping[str, TraceEntry] = _EMPTY  # a dict from the first sub-item on
        self._extras: dict[TraceEntry, None] | None = None  # made with the first extra

    @property
    def extras(self) -> list[TraceEntry]:
        return list(self._extras or ())

    def keep(self, entry: TraceEntry) -> None:
        """Add entry to the extras unless it fills a slot or they hold it."""
        if entry != self.primary and entry not in self.sub_items.values():
            self._extras = self._extras or {}
            self._extras.setdefault(entry)


class TraceStore:
    """Evidence entries keyed by the item they substantiate.

    Nodes are keyed by canonical name, flows by "sender -> receiver".
    Stereotypes and tagged values attached to an item are sub-items keyed by
    stereotype name or tag key.

    One rule decides every slot, an item's primary or one of its sub-item
    keys: it takes the entry of the earliest epoch that offered one, ties
    broken by file position, so the choice never depends on extractor
    order.  The pipeline runner bumps epoch at every phase boundary and
    epochs never go back, so the store keeps only the slots filled in the
    current epoch.  Every other entry recorded for an item, and every via
    link of one, is kept once as an extra, in order, while it fills no slot.
    """

    def __init__(self) -> None:
        self._records: dict[str, TraceRecord] = {}
        # the slots filled this epoch: an item id for a primary, (item id, key) for a sub-item
        self._filled: set[str | tuple[str, str]] = set()
        self._epoch = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    @epoch.setter
    def epoch(self, epoch: int) -> None:
        if epoch != self._epoch:
            self._filled.clear()
            self._epoch = epoch

    def record(self, item_id: str, entry: TraceEntry) -> None:
        self._fill(item_id, None, entry)

    def record_sub(self, item_id: str, key: str, entry: TraceEntry) -> None:
        self._fill(item_id, key, entry)

    def _fill(self, item_id: str, key: str | None, entry: TraceEntry) -> None:
        """Offer entry to a slot, the primary when key is None, and to a new record's primary."""
        rec = self._records.get(item_id)
        if rec is None:
            rec = self._records[item_id] = TraceRecord(entry)
            self._filled.add(item_id)
        slot = item_id if key is None else (item_id, key)
        current = rec.primary if key is None else rec.sub_items.get(key)
        if current is None or (slot in self._filled and entry[:4] < current[:4]):
            self._filled.add(slot)
            if key is None:
                rec.primary = entry
            elif rec.sub_items:
                rec.sub_items[key] = entry
            else:
                rec.sub_items = {key: entry}
            if rec._extras:
                rec._extras.pop(entry, None)
            if current is not None:
                rec.keep(current)
        else:
            rec.keep(entry)  # no-op when entry fills a slot already
        for link in entry.via:
            rec.keep(link)

    def drop(self, item_id: str, key: str | None = None) -> None:
        """Empty a slot for the next entry offered, the primary (to refill at
        once) when key is None; the dropped entry stays as an extra."""
        rec = self._records.get(item_id)
        if rec is None:
            return
        if key is None:
            entry, rec.primary = rec.primary, None
        elif key in rec.sub_items:  # so rec.sub_items is a dict
            entry = rec.sub_items.pop(key)
            rec.sub_items = rec.sub_items or _EMPTY
        else:
            return
        if entry is not None:
            self._filled.discard(item_id if key is None else (item_id, key))
            rec.keep(entry)

    def get(self, item_id: str) -> TraceRecord | None:
        return self._records.get(item_id)

    def items(self) -> list[tuple[str, TraceRecord]]:
        return sorted(self._records.items())

    def __iter__(self):
        """The item ids in the order of items(), without a pair for each."""
        return iter(sorted(self._records))

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._records

    def __len__(self) -> int:
        return len(self._records)


# ============================================================================
# Elements
# ============================================================================


def _check_stereotypes(stereotypes, kind: str) -> frozenset[str]:
    """The stereotypes as a frozenset, each known and applicable to the kind."""
    out = frozenset(stereotypes)
    for s in out:
        if not catalog.is_known(s):
            raise StereotypeError("unknown stereotype %r" % s)
        if kind not in catalog.kinds_for(s):
            raise StereotypeError("stereotype %r does not apply to %s" % (s, kind))
    return out


def _merge_tags(slots: Mapping[str, list[str]], tags: dict | None) -> Mapping[str, list[str]]:
    """Union tagged values into slots and return the mapping that holds them:
    slots, or a new dict when slots is the shared empty mapping.

    A tag's value is one value or a list, tuple or set of them; values are
    kept as strings, once each, in the order they first arrived.
    """
    if tags:
        slots = slots or {}
        for key, value in tags.items():
            slot = slots.setdefault(str(key), [])
            for v in map(str, value if isinstance(value, (list, tuple, set)) else (value,)):
                if v not in slot:
                    slot.append(v)
    return slots


class Node:
    """A service, database, or external entity."""

    __slots__ = ("name", "node_type", "stereotypes", "tagged_values")

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
        if node_type == "database":
            stereotypes = (*stereotypes, "database")
        self.stereotypes = _check_stereotypes(stereotypes, self.kind)
        self.tagged_values = _merge_tags(_EMPTY, tagged_values)

    @property
    def kind(self) -> str:
        return "external_entity" if self.node_type == "external_entity" else "node"

    def __repr__(self) -> str:
        return "Node(%s, %s)" % (self.name, self.node_type)


class Flow:
    """A directed information flow between two distinct nodes.

    A flow whose ends normalize to the same name is refused with
    SelfFlowError.  Tagged values come from Dfd.annotate.
    """

    __slots__ = ("sender", "receiver", "stereotypes", "tagged_values")

    kind = "flow"

    def __init__(self, sender: str, receiver: str, stereotypes=()) -> None:
        self.sender = normalize_name(sender)
        self.receiver = normalize_name(receiver)
        if self.sender == self.receiver:
            raise SelfFlowError("flow %s -> %s connects a node to itself" % (sender, receiver))
        self.stereotypes = _check_stereotypes(stereotypes, self.kind)
        self.tagged_values: Mapping[str, list[str]] = _EMPTY

    @property
    def key(self) -> tuple[str, str]:
        return (self.sender, self.receiver)

    @property
    def item_id(self) -> str:
        return "%s -> %s" % (self.sender, self.receiver)

    def __repr__(self) -> str:
        return "Flow(%s -> %s)" % (self.sender, self.receiver)


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
    """Mutable dataflow diagram assembled by the extraction pipeline.  Each
    upsert or annotation offers its trace to the TraceStore slots of what it
    merged; a flow's trace reaches an endpoint by ensure_node alone.  Its
    items share one frozenset per distinct stereotype set, from a table the
    diagram owns, so no set outlives the diagrams that hold it."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.flows: dict[tuple[str, str], Flow] = {}
        self.traces = TraceStore()
        self.conflicts: list[str] = []
        self._endpoints: dict[str, int] = {}  # node -> epoch ensure_node made it in
        self._sets: dict[frozenset[str], frozenset[str]] = {}  # each stereotype set, once

    def _set(self, item: Node | Flow, stereotypes: frozenset[str]) -> None:
        """Rebind the item's stereotypes to the diagram's one set equal to these."""
        item.stereotypes = self._sets.setdefault(stereotypes, stereotypes)

    # ------------------------------------------------------------------
    # mutation operations (commutative merges)
    # ------------------------------------------------------------------

    def _record(self, item_id: str, stereotypes, tags: dict, trace: TraceEntry | None) -> None:
        """Offer trace to the item and to each stereotype and tag key the upsert merged."""
        if trace is None:
            return
        self.traces.record(item_id, trace)
        for key in (*stereotypes, *tags):
            self.traces.record_sub(item_id, key, trace)

    def _conflict(self, message: str) -> None:
        if message not in self.conflicts:
            self.conflicts.append(message)

    def upsert_node(self, node: Node, trace: TraceEntry | None = None) -> Node:
        base = self.nodes.setdefault(node.name, node)
        stereotypes = node.stereotypes
        if base is node:
            self._set(node, stereotypes)
        else:
            if base.node_type != node.node_type:
                upgraded = _UPGRADES.get((base.node_type, node.node_type))
                if upgraded is None:
                    self._conflict("node %s: type %s conflicts with %s (keeping %s)" % (
                        base.name, node.node_type, base.node_type, base.node_type
                    ))
                else:
                    base.node_type = upgraded
                    if upgraded == "database":
                        self._set(base, base.stereotypes | {"database"})
                # one rule for either merge: the known stereotypes of another
                # kind than the resulting one are dropped, whichever side
                # brought them; unknown ones are still rejected below
                dropped = {
                    s for s in base.stereotypes | stereotypes
                    if catalog.is_known(s) and base.kind not in catalog.kinds_for(s)
                }
                if dropped and upgraded is not None:
                    self._conflict("node %s: type %s drops %s" % (
                        base.name, base.node_type, ", ".join(sorted(dropped))
                    ))
                self._set(base, base.stereotypes - dropped)
                stereotypes = stereotypes - dropped
                for s in dropped:
                    self.traces.drop(base.name, s)
            self._set(base, base.stereotypes | _check_stereotypes(stereotypes, base.kind))
            base.tagged_values = _merge_tags(base.tagged_values, node.tagged_values)
        if trace is not None and self._endpoints.pop(base.name, None) == self.traces.epoch:
            self.traces.drop(base.name)  # the flows' evidence gives way to the node's own
        self._record(base.name, stereotypes, node.tagged_values, trace)
        return base

    def ensure_node(self, name: str, trace: TraceEntry | None) -> None:
        """Make a missing flow endpoint, a canonical name, a plain service
        node.  It takes the evidence of the flows reaching it in that epoch,
        by position, until an upsert of it in that epoch brings its own."""
        if name not in self.nodes:
            self.upsert_node(Node(name), trace)
            self._endpoints[name] = self.traces.epoch
        elif trace is not None and self._endpoints.get(name) == self.traces.epoch:
            self.traces.record(name, trace)

    def upsert_flow(self, flow: Flow, trace: TraceEntry | None = None) -> Flow:
        self.ensure_node(flow.sender, trace)
        self.ensure_node(flow.receiver, trace)
        base = self.flows.setdefault(flow.key, flow)
        self._set(base, base.stereotypes | flow.stereotypes)
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
        item is an error, which Context.annotate turns into a skip.
        """
        sender, _, receiver = item_id.partition(" -> ")
        target = self.nodes.get(item_id) or self.flows.get((sender, receiver))
        if target is None:
            raise ModelError("cannot annotate unknown item %r" % item_id)
        stereotypes = () if stereotype is None else (stereotype,)
        if stereotype is not None:
            self._set(target, target.stereotypes | _check_stereotypes(stereotypes, target.kind))
        target.tagged_values = _merge_tags(target.tagged_values, tags)
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
        """The node of that name; None also for a name no diagram can hold."""
        try:
            key = normalize_name(name)
        except NameError_:
            return None
        return self.nodes.get(key)

    def has_flow(self, sender: str, receiver: str) -> bool:
        try:
            key = (normalize_name(sender), normalize_name(receiver))
        except NameError_:
            return False
        return key in self.flows

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
            try:
                canonical = name == normalize_name(name)
            except NameError_:
                canonical = False
            if not canonical:
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
