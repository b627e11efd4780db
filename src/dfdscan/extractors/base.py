"""Extraction pipeline: phases, context, registry, and the runner.

Extractors run in five phases: parse, node, flow, annotation, finalize.
Within a phase extractors are order-independent: model mutations are
commutative merges and no extractor reads state written by a same-phase
peer.  Later phases may read anything earlier ones produced.

Extractors write the diagram only through Context.node, Context.connect
and Context.annotate, which decide alone what happens to an item the
model refuses: a malformed name is skipped, so is an annotation of an
unknown item, a self-flow is skipped and recorded in
report.suppressed_self_flows, a stereotype the item's kind refuses
becomes a warning, and so does an external entity named like a found
service, which keeps its type.  One refused item never costs an
extractor the rest of its evidence, and one failing extractor never
aborts the run; the failure lands in the report.
"""
from __future__ import annotations

import re
import time
from urllib.parse import urlparse

from .. import search
from ..model import Dfd, Flow, ModelError, Node, SelfFlowError, StereotypeError, TraceEntry, normalize_name
from ..parsers import ComposeService, DockerfileInfo, PropertyEntry, PropertyMap, relaxed_key
from ..rules import RuleSet, load_rules
from ..search import FileIndex, env_value

PHASES = ("parse", "node", "flow", "annotation", "finalize")

_LOCAL_HOSTS = frozenset({"localhost", "127.0.0.1", "0.0.0.0", "host.docker.internal"})


def is_remote(host: str | None) -> bool:
    """True for a configured host that does not name the local machine."""
    return bool(host) and host.lower() not in _LOCAL_HOSTS


def url_host(url: str) -> str | None:
    """The host of a URL; None when it has none or urlparse cannot read it,
    such as an unclosed [ of an IPv6 address."""
    try:
        return urlparse(url).hostname
    except ValueError:
        return None


def enclosing(path: str):
    """Yield a relative path, each directory above it, then "" (the root)."""
    while path:
        yield path
        path = path.rpartition("/")[0]
    yield ""


class ServiceRoot:
    """One buildable service directory discovered in the workspace."""

    def __init__(
        self,
        name: str,
        root: str,
        trace: TraceEntry,
        properties: PropertyMap | None = None,
        compose_name: str | None = None,
    ) -> None:
        self.name = name  # the canonical name the diagram keys its node by, e.g. "notification_service"
        self.root = root  # repository-relative directory, "" for the repo root
        self.trace = trace
        self.properties = PropertyMap() if properties is None else properties
        self.compose_name = compose_name


class Report:
    def __init__(self) -> None:
        self.warnings: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self.suppressed_self_flows: list[str] = []
        self.integrity: list[str] = []
        self.timings: dict[str, float] = {}


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
        self._hits: dict[tuple, list] = {}  # (keyword, languages, regex) -> [(owner, trace)]
        # cross-phase hints
        self.datastores: list[tuple[str, str, str, TraceEntry]] = []  # owner, db, kind, trace
        self.lb_flow_hints: list[str] = []  # ids of load-balanced flows
        self._clashes: set[str] = set()  # found services an external entity was named after

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
        service directory are dropped.  Each keyword is searched once per
        analysis, after the parse phase; later calls reuse its owned hits.
        """
        wanted = None if languages is None else frozenset(languages)
        for kw in keywords:
            key = (kw, wanted, regex)
            owned = self._hits.get(key)
            if owned is None:
                # looked up on the module, so a wrapper installed there sees each call
                found = search.find_keyword(self.index, kw, languages=languages, regex=regex)
                pairs = ((self.owner_of(m.file), m) for m in found)
                owned = self._hits[key] = [(o, m) for o, m in pairs if o is not None]
            yield from owned

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

    def node(self, name: str, node_type: str, stereotypes, trace) -> Node | None:
        """Upsert a node; None when the model refuses it, as it refuses a name
        outside the grammar [a-z0-9_]+ once normalized ("${x:", "rab:bit,other").

        An external entity named like a found service never retypes it: the
        service node is returned as it is, and the clash is one warning.
        """
        try:
            node = Node(name, node_type, stereotypes)
        except ModelError:
            return None
        if node_type == "external_entity" and node.name in self.services:
            self._clashes.add(node.name)
            return self.dfd.nodes.get(node.name)
        return self.dfd.upsert_node(node, trace)

    def connect(self, sender: str, receiver: str, stereotypes, trace) -> Flow | None:
        """Upsert a flow; None when a name is outside that grammar, or when they
        name the same node, whose flow "a -> a" is then recorded in
        report.suppressed_self_flows."""
        try:
            flow = Flow(sender, receiver, stereotypes)
        except SelfFlowError:
            name = normalize_name(sender)
            self.report.suppressed_self_flows.append("%s -> %s" % (name, name))
            return None
        except ModelError:
            return None
        return self.dfd.upsert_flow(flow, trace)

    def annotate(self, item_id: str, stereotype: str | None = None, trace=None, tags=None) -> None:
        """Add a stereotype and/or tagged values to a node or flow by its id.

        An unknown item is skipped; a stereotype the item's kind refuses is
        recorded as a warning, and the item keeps what it had.
        """
        try:
            self.dfd.annotate(item_id, stereotype=stereotype, tags=tags, trace=trace)
        except StereotypeError as exc:
            self.report.warnings.append(str(exc))
        except ModelError:
            pass  # the item was never created

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
    ctx.report.warnings.extend(sorted(ctx.dfd.conflicts))
    ctx.report.warnings.extend(
        "node %s: a found service refuses type external_entity" % name for name in sorted(ctx._clashes)
    )
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


class _Walk:
    """One top-level resolution: the property names being resolved, and the hops left."""

    def __init__(self) -> None:
        self.resolving: set[str] = set()
        self.hops = MAX_HOPS


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
