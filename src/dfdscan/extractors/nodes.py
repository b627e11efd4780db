"""Node phase: materialize services, deployed images, and datastores.

Everything here is an upsert built from parse-phase data, so the
extractors commute with each other.
"""
from __future__ import annotations

import re

from ..parsers import classify_image
from .base import Context, Extractor, is_remote, register, resolve_entry, url_host


@register
class ServiceNodes(Extractor):
    """One service node per discovered service root, with its port."""

    name = "service_nodes"
    phase = "node"

    def run(self, ctx: Context) -> None:
        # the first port of the first compose service of each name that has one
        compose_ports = {}
        for comp in ctx.compose_services:
            if comp.ports:
                compose_ports.setdefault(comp.name, comp.ports[0])
        for svc in ctx.services.values():
            ctx.node(svc.name, "service", (), svc.trace)
            port, ptrace = self._port_of(ctx, svc, compose_ports)
            if port is not None:
                ctx.annotate(svc.name, tags={"Port": port}, trace=ptrace)

    def _port_of(self, ctx: Context, svc, compose_ports):
        if svc.compose_name in compose_ports:
            port, trace = compose_ports[svc.compose_name]
            return str(port), trace
        info = ctx.dockerfiles.get(svc.root)
        if info is not None and info.exposed_ports:
            port, trace = info.exposed_ports[0]
            return str(port), trace
        entry = svc.properties.get("server.port")
        if entry is not None:
            value, trace = resolve_entry(ctx, svc, entry)
            if value and value.isdigit():
                return value, trace
        return None, None


@register
class DeployedImageNodes(Extractor):
    """Nodes for compose services that run an image without local sources."""

    name = "deployed_image_nodes"
    phase = "node"

    def run(self, ctx: Context) -> None:
        for comp in ctx.compose_services:
            if comp.build_context:
                continue
            stereotypes: list[str] = []
            node_type = "service"
            if comp.image:
                rule = classify_image(comp.image, ctx.rules.image_rules)
                if rule is not None:
                    node_type = rule.node_type
                    stereotypes.append(rule.stereotype)
            node = ctx.node(comp.name, node_type, stereotypes, comp.trace)
            if node is None:
                continue
            if comp.image and comp.image_trace is not None:
                ctx.annotate(node.name, tags={"Image": comp.image}, trace=comp.image_trace)
            if comp.ports:
                port, ptrace = comp.ports[0]
                ctx.annotate(node.name, tags={"Port": str(port)}, trace=ptrace)


@register
class DockerfileImageNodes(Extractor):
    """Classify service roots by their Dockerfile base image."""

    name = "dockerfile_image_nodes"
    phase = "node"

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            info = ctx.dockerfiles.get(svc.root)
            if info is None or not info.base_image:
                continue
            rule = classify_image(info.base_image, ctx.rules.image_rules)
            if rule is None:
                continue
            ctx.node(svc.name, rule.node_type, [rule.stereotype], info.base_trace or svc.trace)


_JDBC_URL = re.compile(r"jdbc:(\w+):(?://([^/:;\s]+)(?::(\d+))?)?")
_MONGO_URI = re.compile(r"mongodb://(?:([^:@/]+):([^@/]*)@)?([^:@/,]+)")


@register
class DatastoreNodes(Extractor):
    """Database and cache nodes referenced from service configuration.

    Also records (owner, datastore, kind) hints that the flow phase turns
    into connections.
    """

    name = "datastore_nodes"
    phase = "node"

    def run(self, ctx: Context) -> None:
        for svc in sorted(ctx.services.values(), key=lambda s: s.name):
            self._mongo(ctx, svc)
            self._sql(ctx, svc)
            self._redis(ctx, svc)
            self._elasticsearch(ctx, svc)

    # ------------------------------------------------------------------

    def _add(self, ctx: Context, svc, name, kind, trace, node_type, stereotypes):
        node = ctx.node(name, node_type, stereotypes, trace)
        if node is not None:
            ctx.datastores.append((svc.name, node.name, kind, trace))

    def _name_for(self, svc, host: str | None, fallback_suffix: str) -> str:
        host = (host or "").strip()
        return host if is_remote(host) else "%s-%s" % (svc.name, fallback_suffix)

    def _mongo(self, ctx: Context, svc) -> None:
        entry = svc.properties.get("spring.data.mongodb.host")
        if entry is not None:
            host, trace = resolve_entry(ctx, svc, entry)
        else:
            uri_entry = svc.properties.get("spring.data.mongodb.uri")
            if uri_entry is None:
                return
            value, trace = resolve_entry(ctx, svc, uri_entry)
            if not value:
                return
            m = _MONGO_URI.match(value)
            if not m:
                return
            host = m.group(3)
        name = self._name_for(svc, host, "mongodb")
        self._add(ctx, svc, name, "mongodb", trace, "database", [])

    def _sql(self, ctx: Context, svc) -> None:
        entry = svc.properties.get("spring.datasource.url")
        if entry is None:
            return
        value, trace = resolve_entry(ctx, svc, entry)
        if not value:
            return
        m = _JDBC_URL.search(value)
        if not m:
            return
        subprotocol, host = m.group(1).lower(), m.group(2)
        if subprotocol == "h2":
            name = "%s-db" % svc.name
        else:
            name = self._name_for(svc, host, "db")
        self._add(ctx, svc, name, "jdbc", trace, "database", [])

    def _redis(self, ctx: Context, svc) -> None:
        entry = svc.properties.get("spring.redis.host")
        if entry is None:
            return
        host, trace = resolve_entry(ctx, svc, entry)
        name = self._name_for(svc, host, "redis")
        self._add(ctx, svc, name, "redis", trace, "service", ["in_memory_datastore"])

    def _elasticsearch(self, ctx: Context, svc) -> None:
        entry = svc.properties.get(
            "spring.elasticsearch.uris", "spring.data.elasticsearch.cluster-nodes"
        )
        if entry is None:
            return
        value, trace = resolve_entry(ctx, svc, entry)
        if not value:
            return
        host = value.split(",")[0].strip()
        if "://" in host:
            host = url_host(host)
            if host is None:
                return
        else:
            host = host.split(":")[0]
        name = self._name_for(svc, host, "elasticsearch")
        self._add(ctx, svc, name, "elasticsearch", trace, "service", ["search_engine"])


@register
class GatewayMarker(Extractor):
    """Mark gateway services early so user flows can attach to them."""

    name = "gateway_marker"
    phase = "node"

    def run(self, ctx: Context) -> None:
        for owner, hit in ctx.evidence("gateway"):
            ctx.node(owner.name, "service", ["gateway"], hit)
        for svc in ctx.services.values():
            routed = svc.properties.find_prefix("zuul.routes")
            routed += svc.properties.find_prefix("spring.cloud.gateway.routes")
            if routed:
                ctx.node(svc.name, "service", ["gateway"], routed[0].trace)
