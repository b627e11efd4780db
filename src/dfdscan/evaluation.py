"""Precision/recall evaluation of extracted diagrams against ground truth.

Items are compared by identity within four groups: services (databases
included), external entities, information flows (ordered sender/receiver
pairs, so a reversed flow costs one false positive and one false negative),
and annotations (stereotypes and tagged values).  Annotations are only
judged on items whose identity matched, so a missed node does not double
as a pile of missed annotations.
"""
from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

from . import catalog
from .model import normalize_name

GROUPS = ("services", "external_entities", "information_flows", "annotations")


class Counts:
    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0) -> None:
        self.tp = tp
        self.fp = fp
        self.fn = fn

    def __eq__(self, other) -> bool:
        return isinstance(other, Counts) and (self.tp, self.fp, self.fn) == (other.tp, other.fp, other.fn)

    def __repr__(self) -> str:
        return "Counts(tp=%d, fp=%d, fn=%d)" % (self.tp, self.fp, self.fn)

    @property
    def precision(self) -> float | None:
        denom = self.tp + self.fp
        return self.tp / denom if denom else None

    @property
    def recall(self) -> float | None:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def __iadd__(self, other: "Counts") -> "Counts":
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        return self


def micro(counts) -> Counts:
    total = Counts()
    for c in counts:
        total += c
    return total


# ============================================================================
# Documents
# ============================================================================

Annotation = tuple  # ("s", stereotype) or ("t", key, value)


Item = namedtuple("Item", "annotations")  # a set of Annotations


class Document:
    """A diagram reduced to comparable identities."""

    def __init__(self) -> None:
        self.services: dict[str, Item] = {}
        self.externals: dict[str, Item] = {}
        self.flows: dict[tuple[str, str], Item] = {}


def _annotation_set(obj: dict) -> set:
    out = set()
    stereotypes = obj.get("stereotypes", obj.get("stereotype_instances", []))
    for s in stereotypes or []:
        out.add(("s", str(s).strip().lower()))
    tagged = obj.get("tagged_values", {})
    if isinstance(tagged, dict):
        pairs = list(tagged.items())
    else:
        pairs = [(p[0], p[1]) for p in tagged or []]
    for key, value in pairs:
        values = value if isinstance(value, (list, tuple)) else [value]
        for v in values:
            out.add(("t", str(key).strip().lower(), str(v).strip()))
    return out


def load_document(obj: dict) -> Document:
    """Adapt a diagram JSON object (ours or a ground truth variant).

    Accepts a single "nodes" array with a type field, or separate
    "services" / "external_entities" arrays.  Duplicate identities are an
    input error.
    """
    doc = Document()

    def put(table, key, item, what):
        if key in table:
            raise ValueError("duplicate %s identity: %r" % (what, key))
        table[key] = item

    nodes = list(obj.get("nodes", []))
    for svc in obj.get("services", []):
        svc = dict(svc)
        svc.setdefault("type", "service")
        nodes.append(svc)
    for ext in obj.get("external_entities", []):
        ext = dict(ext)
        ext["type"] = "external_entity"
        nodes.append(ext)
    for node in nodes:
        name = normalize_name(str(node.get("name", "")))
        kind = str(node.get("type", "service"))
        item = Item(_annotation_set(node))
        if kind == "external_entity":
            put(doc.externals, name, item, "external entity")
        else:
            put(doc.services, name, item, "service")
    for flow in obj.get("information_flows", []):
        sender = flow.get("sender", flow.get("source", flow.get("from")))
        receiver = flow.get("receiver", flow.get("target", flow.get("to")))
        key = (normalize_name(str(sender)), normalize_name(str(receiver)))
        put(doc.flows, key, Item(_annotation_set(flow)), "information flow")
    return doc


def load_document_file(path: str | Path) -> Document:
    with open(path, encoding="utf-8") as fh:
        return load_document(json.load(fh))


# ============================================================================
# Comparison
# ============================================================================


class Comparison(namedtuple("Comparison", "counts security false_positives false_negatives")):
    """Counts by group, the security Counts, and the labels of the false
    positives and false negatives by group."""

    __slots__ = ()

    @property
    def overall(self) -> Counts:
        return micro(self.counts.values())

    @property
    def core(self) -> Counts:
        return micro(self.counts[g] for g in GROUPS[:3])


def _flow_label(key: tuple[str, str]) -> str:
    return "%s -> %s" % key


def _annotation_label(owner: str, ann: Annotation) -> str:
    if ann[0] == "s":
        return "%s <<%s>>" % (owner, ann[1])
    return "%s {%s=%s}" % (owner, ann[1], ann[2])


def compare(extracted: Document, truth: Document) -> Comparison:
    counts = {g: Counts() for g in GROUPS}
    fps: dict[str, list[str]] = {g: [] for g in GROUPS}
    fns: dict[str, list[str]] = {g: [] for g in GROUPS}
    security = Counts()

    matched: list[tuple[str, Item, Item]] = []

    def judge(group, ours: dict, theirs: dict, label):
        for key in sorted(ours.keys() | theirs.keys(), key=str):
            if key in ours and key in theirs:
                counts[group].tp += 1
                matched.append((label(key), ours[key], theirs[key]))
            elif key in ours:
                counts[group].fp += 1
                fps[group].append(label(key))
            else:
                counts[group].fn += 1
                fns[group].append(label(key))

    judge("services", extracted.services, truth.services, str)
    judge("external_entities", extracted.externals, truth.externals, str)
    judge("information_flows", extracted.flows, truth.flows, _flow_label)

    def is_security(ann: Annotation) -> bool:
        return ann[0] == "s" and catalog.is_security(ann[1])

    for owner, ours, theirs in matched:
        both = ours.annotations & theirs.annotations
        extra = ours.annotations - theirs.annotations
        missing = theirs.annotations - ours.annotations
        counts["annotations"].tp += len(both)
        counts["annotations"].fp += len(extra)
        counts["annotations"].fn += len(missing)
        fps["annotations"].extend(sorted(_annotation_label(owner, a) for a in extra))
        fns["annotations"].extend(sorted(_annotation_label(owner, a) for a in missing))
        security.tp += sum(1 for a in both if is_security(a))
        security.fp += sum(1 for a in extra if is_security(a))
        security.fn += sum(1 for a in missing if is_security(a))

    return Comparison(counts, security, fps, fns)


def match_items(extracted: Document, truth: Document) -> dict[str, Counts]:
    """Match two documents and return tp/fp/fn per group.

    The result maps every group name to its Counts, plus a "security"
    entry holding the annotation counts restricted to security
    stereotypes.  Raises ValueError on documents with duplicate
    identities (load_document already rejects those).
    """
    comp = compare(extracted, truth)
    out = dict(comp.counts)
    out["security"] = comp.security
    return out


PR = tuple  # (precision, recall), either possibly None when undefined


class Metrics(namedtuple("Metrics", "per_app pooled macro")):
    """Precision/recall per application and pooled across applications.

    per_app mirrors the input order.  pooled uses micro-averaging: counts
    are summed first, then divided, so undefined per-app cells simply
    contribute their raw counts.  macro holds the plain mean of the
    defined per-app values for transparency.  Keys are the group names
    plus "overall" (all groups pooled), "core" (services, external
    entities and flows pooled) and, when the inputs carry it, "security".
    """

    __slots__ = ()


def _pr(c: Counts) -> PR:
    return (c.precision, c.recall)


def _slices(counts: dict[str, Counts]) -> dict[str, Counts]:
    out = dict(counts)
    out["overall"] = micro(counts[g] for g in GROUPS)
    out["core"] = micro(counts[g] for g in GROUPS[:3])
    return out


def compute_metrics(counts: "list[dict[str, Counts]]") -> Metrics:
    """Compute per-application and aggregate metrics from matched counts.

    counts is one dict per application as returned by match_items; the
    "security" entry is optional but must be present either in every
    application or in none.
    """
    counts = list(counts)
    if not counts:
        raise ValueError("compute_metrics needs at least one application")
    with_security = all("security" in c for c in counts)
    keys = list(GROUPS) + ["overall", "core"] + (["security"] if with_security else [])

    sliced = [_slices(c) for c in counts]
    per_app = [{k: _pr(app[k]) for k in keys} for app in sliced]
    pooled = {k: _pr(micro(app[k] for app in sliced)) for k in keys}
    macro = {}
    for k in keys:
        ps = [app[k][0] for app in per_app if app[k][0] is not None]
        rs = [app[k][1] for app in per_app if app[k][1] is not None]
        macro[k] = (
            sum(ps) / len(ps) if ps else None,
            sum(rs) / len(rs) if rs else None,
        )
    return Metrics(per_app=per_app, pooled=pooled, macro=macro)


# ============================================================================
# Reporting
# ============================================================================


def _fmt(x: float | None) -> str:
    return "-" if x is None else ("%.2f" % x).rstrip("0").rstrip(".")


def report_lines(comp: Comparison) -> list[str]:
    lines = []
    header = "%-20s %5s %5s %5s %10s %8s" % ("group", "TP", "FP", "FN", "precision", "recall")
    lines.append(header)
    rows = [(g, comp.counts[g]) for g in GROUPS]
    rows.append(("overall", comp.overall))
    rows.append(("core (S+E+I)", comp.core))
    rows.append(("security", comp.security))
    for name, c in rows:
        lines.append(
            "%-20s %5d %5d %5d %10s %8s"
            % (name, c.tp, c.fp, c.fn, _fmt(c.precision), _fmt(c.recall))
        )
    return lines


def comparison_to_obj(comp: Comparison) -> dict:
    def c_obj(c: Counts) -> dict:
        return {
            "tp": c.tp,
            "fp": c.fp,
            "fn": c.fn,
            "precision": c.precision,
            "recall": c.recall,
        }

    return {
        "groups": {g: c_obj(comp.counts[g]) for g in GROUPS},
        "overall": c_obj(comp.overall),
        "core": c_obj(comp.core),
        "security": c_obj(comp.security),
        "false_positives": comp.false_positives,
        "false_negatives": comp.false_negatives,
    }
