"""Extraction pipeline: phases, context, registry, and the runner.

Extractors run in five phases: parse, node, flow, annotation, finalize.
Within a phase extractors are order-independent: model mutations are
commutative merges and no extractor reads state written by a same-phase
peer.  Later phases may read anything earlier ones produced.  One failing
extractor never aborts the run; the failure lands in the report.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from .. import search
from ..model import Dfd, Flow, ModelError, TraceEntry, normalize_name
from ..parsers import ComposeService, DockerfileInfo, PropertyEntry, PropertyMap, relaxed_key
from ..rules import RuleSet, load_rules
from ..search import FileIndex, env_value

PHASES = ("parse", "node", "flow", "annotation", "finalize")

_LOCAL_HOSTS = frozenset({"localhost", "127.0.0.1", "0.0.0.0", "host.docker.internal"})


def is_remote(host: str | None) -> bool:
    """True for a configured host that does not name the local machine."""
    return bool(host) and host.lower() not in _LOCAL_HOSTS


def enclosing(path: str):
    """Yield a relative path, each directory above it, then "" (the root)."""
    while path:
        yield path
        path = path.rpartition("/")[0]
    yield ""


@dataclass
class ServiceRoot:
    """One buildable service directory discovered in the workspace."""

    name: str  # display name, e.g. "notification-service"
    canonical: str
    root: str  # repository-relative directory, "" for the repo root
    trace: TraceEntry
    properties: PropertyMap = field(default_factory=PropertyMap)
    compose_name: str | None = None


@dataclass
class Report:
    warnings: list[str] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    suppressed_self_flows: list[str] = field(default_factory=list)
    integrity: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


class Context:
    """Shared state flowing through the pipeline."""

    def __init__(self, index: FileIndex, rules: RuleSet) -> None:
        self.index = index
        self.rules = rules
        self.dfd = Dfd()
        self.report = Report()
        # filled by the parse phase
        self.services: dict[str, ServiceRoot] = {}
        self.compose_services: list[ComposeService] = []
        self.dockerfiles: dict[str, DockerfileInfo] = {}
        self._by_root: dict[str, ServiceRoot] = {}  # filled by map_roots()
        # cross-phase hints
        self.datastores: list[tuple[str, str, str, TraceEntry]] = []  # owner, db, kind, trace
        self.lb_flow_hints: list[tuple[str, str]] = []

    def map_roots(self) -> None:
        """Index services by root; run once the parse phase has found them."""
        self._by_root = {svc.root: svc for svc in self.services.values()}

    def owner_of(self, path: str) -> ServiceRoot | None:
        """The service whose directory contains the path (deepest wins)."""
        for d in enclosing(path):
            svc = self._by_root.get(d)
            if svc is not None:
                return svc
        return None

    def hits(self, keywords, languages=("java",), regex=False):
        """Yield (owner, trace) for every hit of the keywords inside a service.

        Comments are skipped where the index masks them; hits outside every
        service directory are dropped.
        """
        for kw in keywords:
            # looked up on the module, so a wrapper installed there sees each call
            for m in search.find_keyword(self.index, kw, languages=languages, regex=regex):
                owner = self.owner_of(m.file)
                if owner is not None:
                    yield owner, m

    def rule_hits(self, rule):
        """Yield (owner, trace) for every hit of one keyword rule, searched
        as the rule says."""
        return self.hits(rule.keywords, rule.languages, rule.regex)

    def evidence(self, stereotype: str):
        """Yield (owner, trace) for every hit of the keyword rules evidencing
        the stereotype."""
        for rule in self.rules.keyword_rules:
            if rule.stereotype == stereotype:
                yield from self.rule_hits(rule)

    def sole_owner(self, stereotype: str) -> str | None:
        """The name of the one service holding evidence of the stereotype, else None."""
        owners = {owner.name for owner, _ in self.evidence(stereotype)}
        return owners.pop() if len(owners) == 1 else None

    def connect(self, sender: str, receiver: str, stereotypes, trace) -> Flow | None:
        """Upsert a flow; None when its names are malformed or the same."""
        try:
            flow = Flow(sender, receiver, stereotypes)
        except ModelError:
            return None
        return self.dfd.upsert_flow(flow, trace)

    def service_named(self, raw_name: str) -> ServiceRoot | None:
        try:
            return self.services.get(normalize_name(raw_name))
        except ValueError:
            return None


class Extractor:
    """Base class; subclasses set name and phase and implement run()."""

    name = "extractor"
    phase = "node"

    def run(self, ctx: Context) -> None:
        raise NotImplementedError


REGISTRY: list[Extractor] = []


def register(cls):
    """Class decorator adding one instance to the default pipeline."""
    if cls.phase not in PHASES:
        raise ValueError("extractor %s has unknown phase %r" % (cls.name, cls.phase))
    REGISTRY.append(cls())
    return cls


def default_extractors() -> list[Extractor]:
    return list(REGISTRY)


def run_pipeline(
    index: FileIndex,
    rules: RuleSet | None = None,
    extractors: list[Extractor] | None = None,
) -> tuple[Dfd, Report]:
    """Run the extraction pipeline over an index and return (dfd, report).

    extractors may be any permutation of the defaults; they are grouped by
    phase and phases always run in their canonical order.
    """
    if rules is None:
        rules = load_rules()
    if extractors is None:
        extractors = default_extractors()
    ctx = Context(index, rules)
    ctx.report.warnings.extend(index.warnings)
    for epoch, phase in enumerate(PHASES):
        ctx.dfd.traces.epoch = epoch
        for ex in [e for e in extractors if e.phase == phase]:
            started = time.perf_counter()
            try:
                ex.run(ctx)
            except Exception as exc:  # noqa: BLE001
                ctx.report.failures.append((ex.name, repr(exc)))
            ctx.report.timings[ex.name] = time.perf_counter() - started
        if phase == "parse":
            ctx.map_roots()
    ctx.report.warnings.extend(ctx.dfd.conflicts)
    ctx.report.suppressed_self_flows = list(ctx.dfd.suppressed_self_flows)
    ctx.report.integrity = ctx.dfd.validate()
    return ctx.dfd, ctx.report


# ============================================================================
# Placeholder resolution
# ============================================================================

# ${NAME} or ${NAME:default}, the one placeholder grammar of configuration values
PLACEHOLDER = re.compile(r"\$\{([^}:{]+)(?::([^}{]*))?\}")

# Property hops one top-level resolution may follow: a chain whose values
# each name the next twice would otherwise double the work at every hop.
MAX_HOPS = 32


@dataclass
class _Walk:
    """One top-level resolution: the property names being resolved, and the hops left."""

    resolving: set[str] = field(default_factory=set)
    hops: int = MAX_HOPS


def resolve_name(
    ctx: Context, svc: ServiceRoot | None, name: str, origin_file: str, walk: _Walk | None = None
) -> tuple[str | None, tuple[TraceEntry, ...]]:
    """The value of one name used in origin_file, and every entry that gave it.

    name is a ${NAME} / ${NAME:default} placeholder or a Java identifier,
    NAME or Stem.NAME.  A placeholder takes, in order, the owning service's
    property NAME (covers compose environment bindings), the nearest
    non-blank .env line setting NAME, then its default, which has no entry
    of its own.  A property whose value holds placeholders is resolved in
    turn; each hop is an entry, the one that holds the literal text last.
    A property whose name is already being resolved counts as unset, so a
    cycle ends, and so does every property once MAX_HOPS properties were
    followed in one top-level call.  An identifier takes the
    string literal Stem.java assigns NAME, else the one origin_file assigns
    NAME.  (None, ()) when nothing resolves.
    """
    shaped = PLACEHOLDER.fullmatch(name)
    if shaped is None:
        # looked up on the module, so a wrapper installed there sees each call
        found = search.resolve_cross_file(ctx.index, name, origin_file)
        if found is None or not found[1]:
            found = search.string_constant(ctx.index.by_path[origin_file], name.rpartition(".")[2])
        return (None, ()) if found is None else (found[1], (found[0],))
    key, default = shaped.group(1).strip(), shaped.group(2)
    relaxed = relaxed_key(key)
    walk = walk or _Walk()
    if svc is not None and relaxed not in walk.resolving:
        for dotted in dict.fromkeys((relaxed, key.lower())):
            e = svc.properties.get(dotted)
            if e is None or walk.hops == 0:
                continue
            walk.hops -= 1
            walk.resolving.add(relaxed)
            value, links = resolve_text(ctx, svc, e.value, e.trace.file, walk)
            walk.resolving.discard(relaxed)
            if value and "${" not in value:  # a malformed placeholder stays unset
                whole = PLACEHOLDER.fullmatch(e.value.strip())
                return value, ((e.trace, *links) if whole else (*links, e.trace))
    found = env_value(ctx.index, key, origin_file)
    if found is not None:
        return found[0], (found[1],)
    return (None if default is None else default.strip()), ()


def resolve_text(
    ctx: Context, svc: ServiceRoot | None, text: str, origin_file: str, walk: _Walk | None = None
) -> tuple[str | None, tuple[TraceEntry, ...]]:
    """Substitute every placeholder in a config value through resolve_name.

    Returns the value and the entries its placeholders were resolved
    from, in order; (None, ()) when any placeholder stays unresolved.
    """
    text = text.strip()
    walk = walk or _Walk()
    out: list[str] = []
    links: list[TraceEntry] = []
    last = 0
    for m in PLACEHOLDER.finditer(text):
        value, found = resolve_name(ctx, svc, m.group(), origin_file, walk)
        if value is None:
            return None, ()
        out += (text[last : m.start()], value)
        links += found
        last = m.end()
    out.append(text[last:])
    return "".join(out), tuple(links)


def resolve_entry(
    ctx: Context, svc: ServiceRoot | None, entry: PropertyEntry
) -> tuple[str | None, TraceEntry]:
    """Resolve one property entry's value, traced to where it came from.

    A value that is one placeholder, resolved from a property or a .env
    line, is traced to the last line of its chain, the one that holds the
    literal, linked to the entry and the other hops; any other value is
    traced to the entry, linked to the lines its placeholders came from.
    """
    value, links = resolve_text(ctx, svc, entry.value, entry.trace.file)
    if links and PLACEHOLDER.fullmatch(entry.value.strip()):
        return value, links[-1].linked([entry.trace, *links[:-1]])
    return value, entry.trace.linked(links)
