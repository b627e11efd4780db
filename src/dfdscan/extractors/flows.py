"""Flow phase: connections between nodes.

Each extractor here reads parse- and node-phase state only, creates flows
(materializing endpoint nodes where needed), and never looks at flows a
same-phase peer produced.
"""
from __future__ import annotations

import re

from ..parsers import canonical_key
from .base import Context, Extractor, is_remote, register, resolve_entry, resolve_name, resolve_text, url_host


def _host(url: str | None) -> str | None:
    """The host a configured URL names, or None.  A bare host:port counts
    as http, and so does a scheme urlparse cannot read, such as the
    SASL_SSL:// of a Kafka listener."""
    return url_host("http://" + url.split("://", 1)[-1]) if url else None


def _remote_target(ctx: Context, svc, entry, fallback: str | None = None):
    """(target, trace) for a property entry holding a URL.

    The target is the URL's host when that is remote, else the sole
    service holding evidence of the fallback stereotype, else None.  The
    trace follows placeholder resolution.
    """
    url, trace = resolve_entry(ctx, svc, entry)
    host = _host(url)
    if is_remote(host):
        return host, trace
    return (ctx.sole_owner(fallback) if fallback else None), trace


def _joined_lines(file, start_line: int, stop: int | None) -> str:
    """A statement that may wrap across lines, re-joined for regexes.

    The window is the text from start_line to the text offset stop, or
    four lines long when there is no stop, with comments blanked where the
    index masks them.
    """
    starts = file.line_starts
    if stop is None:
        last = start_line + 3
        stop = starts[last] - 1 if last < len(starts) else len(file.text)
    window = file.search_text(start=starts[start_line - 1], end=stop)
    return " ".join(l.strip() for l in window.split("\n"))


_ARGS_OPEN = re.compile(r"\s*\(")
_PAREN_OR_LITERAL = re.compile(r"\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*'|[()]")


def _annotation_end(file, hit) -> int | None:
    """Text offset just past the annotation whose name is at hit.

    That is the balanced ) closing its arguments, or the end of its name
    when it has none.  None when the arguments are never closed.
    """
    pos = file.line_starts[hit.line - 1] + hit.span[1]
    rest = file.search_text(start=pos)  # from the end of the name on
    args = _ARGS_OPEN.match(rest)
    if args is None:
        return pos
    depth = 0
    for tok in _PAREN_OR_LITERAL.finditer(rest, args.end() - 1):
        if tok.group() == "(":
            depth += 1
        elif tok.group() == ")":
            depth -= 1
            if depth == 0:
                return pos + tok.end()
    return None


# ============================================================================
# HTTP clients
# ============================================================================

_FEIGN_NAME = re.compile(r"(?:name|value)\s*=\s*\"([^\"]+)\"")
_FEIGN_BARE = re.compile(r"@FeignClient\s*\(\s*\"([^\"]+)\"")
_FEIGN_URL = re.compile(r"url\s*=\s*\"([^\"]+)\"")
_FEIGN_IDENT = re.compile(r"(?:name|value)\s*=\s*([A-Za-z_][\w.]*)")


@register
class FeignFlows(Extractor):
    """Declarative HTTP clients: @FeignClient(name = "target")."""

    name = "feign_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        for owner, hit in ctx.hits(["@FeignClient"]):
            file = ctx.index.by_path[hit.file]
            stmt = _joined_lines(file, hit.line, _annotation_end(file, hit))
            target, links = self._target_from(ctx, owner, hit, stmt)
            if not target:
                continue
            ctx.connect(owner.name, target, ["restful_http", "feign_connection"], hit.linked(links))

    def _target_from(self, ctx: Context, owner, hit, stmt: str):
        """(target, links): the service a client names, and the entries
        (property, .env line, constant) its name came from."""
        for rx in (_FEIGN_NAME, _FEIGN_BARE):
            found = rx.search(stmt)
            if found:
                return resolve_text(ctx, owner, found.group(1), hit.file)
        found = _FEIGN_URL.search(stmt)
        if found:
            url, links = resolve_text(ctx, owner, found.group(1), hit.file)
            host = _host(url)
            return (host, links) if is_remote(host) else (None, ())
        found = _FEIGN_IDENT.search(stmt)
        if found:
            return resolve_name(ctx, owner, found.group(1), hit.file)
        return None, ()


_URL_STOP = " \t\"'`)>,;"
_CLIENT_MARKERS = (
    "estTemplate",
    "ebClient",
    "HttpClient",
    "HttpGet",
    "HttpPost",
    "getForObject",
    "postForObject",
    "getForEntity",
    "postForEntity",
    ".exchange(",
    "OkHttp",
    "openConnection",
)
_SCHEMA_HOSTS = frozenset(
    {
        "www.w3.org",
        "maven.apache.org",
        "www.springframework.org",
        "java.sun.com",
        "schemas.xmlsoap.org",
        "xmlns.jcp.org",
    }
)


@register
class RestClientFlows(Extractor):
    """Programmatic HTTP calls with literal URLs.

    A URL counts when a client marker sits on its line outside comments.
    So the markers are searched, not the URLs: the lines that hold one
    are read in (path, line) order, and each http in the line with its
    comments blanked starts a URL.  Neither a marker nor http holds a
    space, so an http found there is exactly a search hit of http that
    touches no comment, and the flows come in the order of those hits.
    """

    name = "rest_client_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        # the owner of each client line inside a service
        client_lines = {(hit.file, hit.line): owner for owner, hit in ctx.hits(_CLIENT_MARKERS)}
        for (path, number), owner in sorted(client_lines.items()):
            file = ctx.index.by_path[path]
            line, masked = file.line(number - 1), file.line(number - 1, masked=True)
            s = masked.find("http")
            while s != -1:
                self._flow_at(ctx, owner, file, number, line, masked, s)
                s = masked.find("http", s + 1)

    def _flow_at(self, ctx: Context, owner, file, number: int, line: str, masked: str, s: int) -> None:
        """The flow from owner to the URL at column s of its client line, if
        it names a remote host.  line is the line as written, masked the same
        line with its comments blanked."""
        if not (line.startswith("http://", s) or line.startswith("https://", s)):
            return
        if s > 0 and (line[s - 1].isalnum() or line[s - 1] in "_."):
            return
        end = s
        while end < len(masked) and masked[end] not in _URL_STOP:
            end += 1
        url, links = resolve_text(ctx, owner, masked[s:end], file.path)
        host = _host(url)
        if not is_remote(host):
            return
        trace = file.trace(number - 1, s, s + len("http")).linked(links)
        target_svc = ctx.service_named(host)
        if target_svc is not None:
            ctx.connect(owner.name, target_svc.name, ["restful_http"], trace)
        elif "." in host and host.lower() not in _SCHEMA_HOSTS:
            site = ctx.node(host, "external_entity", ["external_website"], trace)
            if site is not None:
                ctx.connect(owner.name, site.name, ["restful_http"], trace)


# ============================================================================
# Platform connections from configuration
# ============================================================================


class _UrlFlows(Extractor):
    """A flow between each service and the host of a URL it configures.

    The first of keys that a service configures holds the URL.  When its
    host is local, the sole service holding evidence of the fallback
    stereotype stands in.
    With a node_stereotype the peer becomes a service node carrying it.
    The flow runs from the peer to the service when inbound, else the other
    way.  Subclasses set the class attributes; this class is not registered.
    """

    phase = "flow"
    keys: tuple[str, ...] = ()
    fallback: str | None = None
    node_stereotype: str | None = None
    stereotypes: tuple[str, ...] = ("restful_http",)
    inbound = False

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            entry = svc.properties.get(*self.keys)
            if entry is None:
                continue
            target, trace = _remote_target(ctx, svc, entry, self.fallback)
            if not target:
                continue
            if self.node_stereotype is not None:
                ctx.node(target, "service", [self.node_stereotype], trace)
            ends = (target, svc.name) if self.inbound else (svc.name, target)
            ctx.connect(*ends, self.stereotypes, trace)


@register
class ConfigClientFlows(_UrlFlows):
    """Configuration flowing from a config server to its clients."""

    name = "config_client_flows"
    keys = ("spring.cloud.config.uri", "spring.cloud.config.discovery.service-id")
    fallback = "configuration_server"
    inbound = True


@register
class DiscoveryFlows(_UrlFlows):
    """Service registration with a discovery server."""

    name = "discovery_flows"
    keys = ("eureka.client.serviceurl.defaultzone",)
    fallback = "service_discovery"
    node_stereotype = "service_discovery"


# ============================================================================
# Message brokers
# ============================================================================

_RABBIT_PRODUCER = ("rabbitTemplate.convertAndSend", "amqpTemplate.convertAndSend", "@Output(")
_RABBIT_CONSUMER = ("@RabbitListener", "@RabbitHandler", "@StreamListener", "@Input(")
_KAFKA_PRODUCER = ("kafkaTemplate.send", "KafkaTemplate<")
_KAFKA_CONSUMER = ("@KafkaListener",)


@register
class BrokerFlows(Extractor):
    """Produce/consume connections through message brokers."""

    name = "broker_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        produced: dict[str, list] = {}
        consumed: dict[str, list] = {}
        for slot, keywords in (
            (produced, _RABBIT_PRODUCER + _KAFKA_PRODUCER),
            (consumed, _RABBIT_CONSUMER + _KAFKA_CONSUMER),
        ):
            for owner, hit in ctx.hits(keywords):
                slot.setdefault(owner.name, []).append(hit)

        for svc in ctx.services.values():
            kind, broker_name, host_trace = self._broker_of(ctx, svc)
            out_traces = list(produced.get(svc.name, []))
            in_traces = list(consumed.get(svc.name, []))
            bindings = svc.properties.find_prefix("spring.cloud.stream.bindings")
            out_bind = [e for e in bindings if ".output" in e.key or ".out" in e.key]
            in_bind = [e for e in bindings if ".input" in e.key or ".in." in e.key]
            if out_bind:
                out_traces.append(out_bind[0].trace)
            if in_bind:
                in_traces.append(in_bind[0].trace)
            if kind is None and (out_traces or in_traces):
                kind, broker_name = "rabbitmq", self._default_broker(ctx, "rabbitmq")
                # no broker property: the code that uses the broker is its evidence
                host_trace = (out_traces + in_traces)[0]
            if kind is None or broker_name is None:
                continue
            broker = ctx.node(broker_name, "service", ["message_broker"], host_trace or svc.trace)
            if broker is None:
                continue
            for trace in out_traces:
                ctx.connect(svc.name, broker.name, ["message_producer_%s" % kind], trace)
            for trace in in_traces:
                ctx.connect(broker.name, svc.name, ["message_consumer_%s" % kind], trace)
            if not out_traces and not in_traces and host_trace is not None:
                ctx.connect(svc.name, broker.name, [], host_trace)

    def _broker_of(self, ctx: Context, svc):
        entry = svc.properties.get("spring.rabbitmq.host")
        if entry is not None:
            host, trace = resolve_entry(ctx, svc, entry)
            name = host if is_remote(host) else self._default_broker(ctx, "rabbitmq")
            return "rabbitmq", name, trace
        entry = svc.properties.get(
            "spring.kafka.bootstrap-servers", "spring.cloud.stream.kafka.binder.brokers"
        )
        if entry is not None:
            value, trace = resolve_entry(ctx, svc, entry)
            host = _host((value or "").split(",")[0].strip())
            name = host if is_remote(host) else self._default_broker(ctx, "kafka")
            return "kafka", name, trace
        return None, None, None

    def _default_broker(self, ctx: Context, kind: str) -> str:
        for comp in ctx.compose_services:
            if comp.image and kind in comp.image:
                return comp.name
        return kind


# ============================================================================
# Datastores, mail, and repositories
# ============================================================================

MAIL_SERVER = "mail_server"  # the one node every service's mail goes to


@register
class DatastoreFlows(Extractor):
    """Connections from services to the datastores they configure."""

    name = "datastore_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        for owner, db, kind, trace in ctx.datastores:
            ctx.connect(owner, db, ["jdbc"] if kind == "jdbc" else [], trace)


@register
class MailFlows(Extractor):
    """Outbound mail server connections."""

    name = "mail_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        first_hit = {}  # service name -> its first JavaMailSender hit
        for owner, hit in ctx.hits(["JavaMailSender"]):
            first_hit.setdefault(owner.name, hit)
        for svc in ctx.services.values():
            entry = svc.properties.get("spring.mail.host")
            trace = None
            if entry is not None:
                _, trace = resolve_entry(ctx, svc, entry)
            elif svc.name in first_hit:
                trace = first_hit[svc.name]
            if trace is None:
                continue
            ctx.node(MAIL_SERVER, "external_entity", ["mail_server"], trace)
            ctx.connect(svc.name, MAIL_SERVER, [], trace)


@register
class ConfigRepoFlows(Extractor):
    """Configuration repositories feeding config servers."""

    name = "config_repo_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            entry = svc.properties.get("spring.cloud.config.server.git.uri")
            if entry is None:
                continue
            value, trace = resolve_entry(ctx, svc, entry)
            if not value:
                continue
            repo = ctx.node("github-repository", "external_entity", ["github_repository"], trace)
            if repo is None:
                continue
            ctx.annotate(repo.name, tags={"URL": value}, trace=trace)
            ctx.connect(repo.name, svc.name, [], trace)


# ============================================================================
# Routing, auth, and observability
# ============================================================================


@register
class GatewayRouteFlows(Extractor):
    """Routes from gateway services to the targets they proxy."""

    name = "gateway_route_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            self._zuul(ctx, svc)
            self._cloud_gateway(ctx, svc)

    def _zuul(self, ctx: Context, svc) -> None:
        routes: dict[str, dict] = {}
        for e in svc.properties.find_prefix("zuul.routes"):
            route_id, _, attr = e.key[len("zuul.routes.") :].partition(".")
            routes.setdefault(route_id, {})[canonical_key(attr)] = e
        for route_id in sorted(routes):
            attrs = routes[route_id]
            if "serviceid" in attrs:
                target, trace = resolve_entry(ctx, svc, attrs["serviceid"])
            elif "url" in attrs:
                target, trace = _remote_target(ctx, svc, attrs["url"])
            else:
                trace = next(iter(attrs.values())).trace
                target = route_id if ctx.service_named(route_id) is not None else None
            if target:
                ctx.connect(svc.name, target, ["restful_http"], trace)

    def _cloud_gateway(self, ctx: Context, svc) -> None:
        for e in svc.properties.find_prefix("spring.cloud.gateway.routes"):
            if not e.key.endswith(".uri"):
                continue
            value, trace = resolve_entry(ctx, svc, e)
            if not value:
                continue
            lb = value.startswith("lb://")
            host = value[5:].split("/")[0] if lb else url_host(value)
            if not is_remote(host):
                continue
            merged = ctx.connect(svc.name, host, ["restful_http"], trace)
            if lb and merged is not None:
                ctx.lb_flow_hints.append(merged.item_id)


@register
class OAuthFlows(_UrlFlows):
    """Token traffic between services and their authorization server."""

    name = "oauth_flows"
    keys = (
        "security.oauth2.client.access-token-uri",
        "security.oauth2.resource.user-info-uri",
        "spring.security.oauth2.client.provider.token-uri",
    )
    fallback = "authorization_server"
    stereotypes = ("restful_http", "auth_provider")


@register
class TracingFlows(_UrlFlows):
    """Trace shipping to a distributed tracing server."""

    name = "tracing_flows"
    keys = ("spring.zipkin.base-url",)
    node_stereotype = "tracing_server"


@register
class MonitoringFlows(_UrlFlows):
    """Metric aggregation: turbine clusters and admin clients.

    A turbine app list may name the turbine service itself; that flow is
    refused and recorded, like every self-flow, by Context.connect.
    """

    name = "monitoring_flows"
    keys = ("spring.boot.admin.url", "spring.boot.admin.client.url")

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            entry = svc.properties.get("turbine.app-config")
            if entry is None:
                continue
            value, trace = resolve_entry(ctx, svc, entry)
            for app in (value or "").split(","):
                app = app.strip()
                if app:
                    ctx.connect(app, svc.name, ["restful_http"], trace)
        super().run(ctx)


@register
class ImplicitUserFlows(Extractor):
    """The human user entering the system through its gateways."""

    name = "implicit_user_flows"
    phase = "flow"

    def run(self, ctx: Context) -> None:
        for node in ctx.dfd.sorted_nodes():
            if "gateway" not in node.stereotypes or node.node_type != "service":
                continue
            rec = ctx.dfd.traces.get(node.name)
            if rec is None:
                continue
            ctx.node("user", "external_entity", ["user"], rec.primary)
            ctx.connect("user", node.name, ["restful_http"], rec.primary)
            ctx.connect(node.name, "user", ["restful_http"], rec.primary)
