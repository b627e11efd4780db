"""Annotation phase: security stereotypes and tagged values.

These extractors decorate nodes and flows created earlier.  They read
their evidence from the index and from parse/node/flow-phase state, never
from annotations a same-phase peer wrote, so they commute.
"""
from __future__ import annotations

import re

from ..model import ModelError, flow_id, normalize_name
from ..search import find_keyword, iterative_search
from .base import Context, Extractor, register, trace_from


@register
class KeywordAnnotations(Extractor):
    """Rule-file driven: code keyword evidence becomes a node stereotype."""

    name = "keyword_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        for rule in ctx.rules.keyword_rules:
            for kw in rule.keywords:
                matches = find_keyword(
                    ctx.index,
                    kw,
                    languages=rule.languages,
                    regex=rule.regex,
                    raw=ctx.raw,
                )
                for m in matches:
                    owner = ctx.owner_of(m.file)
                    if owner is None or owner.canonical not in ctx.dfd.nodes:
                        continue
                    try:
                        ctx.dfd.annotate(
                            owner.canonical, stereotype=rule.stereotype, trace=trace_from(m)
                        )
                    except ModelError as exc:
                        ctx.report.warnings.append(str(exc))


_ENCODER_CLASSES = (
    "BCryptPasswordEncoder",
    "SCryptPasswordEncoder",
    "Pbkdf2PasswordEncoder",
)


@register
class EncryptionAnnotations(Extractor):
    """Password hashing detected in two steps: declaration, then usage.

    The declaration names the encoder instance; the service is only marked
    when that instance is actually used (encode/matches), confirmed via a
    follow-up search on instance.member.
    """

    name = "encryption_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        for cls in _ENCODER_CLASSES:
            extract = re.compile(r"%s\s+(\w+)\s*=" % cls).pattern
            chains = iterative_search(
                ctx.index,
                cls,
                extract,
                follow=["encode", "matches", "upgradeEncoding"],
                languages=("java",),
                raw=ctx.raw,
            )
            for chain in chains:
                if not chain.resolved:
                    continue
                owner = ctx.owner_of(chain.seed.file)
                if owner is None or owner.canonical not in ctx.dfd.nodes:
                    continue
                try:
                    ctx.dfd.annotate(
                        owner.canonical,
                        stereotype="encryption",
                        trace=trace_from(chain.last),
                    )
                except ModelError as exc:
                    ctx.report.warnings.append(str(exc))


@register
class SslAnnotations(Extractor):
    """TLS termination configured on a service endpoint."""

    name = "ssl_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            if svc.canonical not in ctx.dfd.nodes:
                continue
            entry = svc.properties.get("server.ssl.enabled")
            if entry is not None and entry.value.strip().lower() == "true":
                ctx.dfd.annotate(svc.canonical, stereotype="ssl_enabled", trace=entry.trace())
                continue
            entry = svc.properties.get("server.ssl.key-store")
            if entry is not None and entry.value.strip():
                ctx.dfd.annotate(svc.canonical, stereotype="ssl_enabled", trace=entry.trace())


@register
class CredentialAnnotations(Extractor):
    """Literal credentials in configuration files.

    Placeholder values (${...}) do not count; only plaintext literals mark
    the credential's destination with plaintext_credentials plus the
    username/password tagged values.
    """

    name = "credential_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        owned: dict[str, list[tuple[str, str]]] = {}
        for owner, db, kind, _ in ctx.datastores:
            owned.setdefault(owner, []).append((db, kind))
        for svc in ctx.services.values():
            self._mail(ctx, svc)
            self._datastores(ctx, svc, owned.get(svc.canonical, ()))
            self._local_user(ctx, svc)

    # ------------------------------------------------------------------

    def _collect(self, ctx: Context, svc, prefix: str) -> dict[str, tuple[str, object]]:
        found: dict[str, tuple[str, object]] = {}
        for suffix, tag in ctx.rules.credential_keys:
            entry = svc.properties.get("%s.%s" % (prefix, suffix))
            if entry is None:
                continue
            value = entry.value.strip()
            if not value or "${" in value:
                continue
            found.setdefault(tag, (value, entry.trace()))
        return found

    def _apply(self, ctx: Context, item_id: str, found) -> None:
        if not found:
            return
        for tag in sorted(found):
            value, trace = found[tag]
            try:
                ctx.dfd.annotate(item_id, tags={tag: value}, trace=trace)
            except ModelError:
                return
        first_trace = found[sorted(found)[0]][1]
        try:
            ctx.dfd.annotate(item_id, stereotype="plaintext_credentials", trace=first_trace)
        except ModelError as exc:
            ctx.report.warnings.append(str(exc))

    def _mail(self, ctx: Context, svc) -> None:
        if svc.properties.get("spring.mail.host") is None:
            return
        mail_id = normalize_name("mail-server")
        if mail_id not in ctx.dfd.nodes:
            return
        self._apply(ctx, mail_id, self._collect(ctx, svc, "spring.mail"))

    def _datastores(self, ctx: Context, svc, owned) -> None:
        """owned: the (db, kind) pairs of the service's datastores, in order."""
        owner = svc.canonical
        for db, kind in owned:
            prefix = "spring.datasource" if kind == "jdbc" else "spring.data.mongodb"
            if kind == "redis":
                prefix = "spring.redis"
            found = self._collect(ctx, svc, prefix)
            if not found:
                continue
            self._apply(ctx, db, found)
            fid = flow_id(owner, db)
            if (normalize_name(owner), normalize_name(db)) in ctx.dfd.flows:
                first_trace = found[sorted(found)[0]][1]
                try:
                    ctx.dfd.annotate(
                        fid, stereotype="plaintext_credentials_link", trace=first_trace
                    )
                except ModelError as exc:
                    ctx.report.warnings.append(str(exc))

    def _local_user(self, ctx: Context, svc) -> None:
        if svc.canonical not in ctx.dfd.nodes:
            return
        for prefix in ("spring.security.user", "security.user"):
            found = self._collect(ctx, svc, prefix)
            if found:
                self._apply(ctx, svc.canonical, found)
                return


# ============================================================================
# Flow link annotations
# ============================================================================

_HTTP_LINK = ("restful_http", "feign_connection")


def _owners_with_evidence(ctx: Context, keywords) -> dict[str, object]:
    owners: dict[str, object] = {}
    for kw in keywords:
        for m in find_keyword(ctx.index, kw, languages=("java",), raw=ctx.raw):
            owner = ctx.owner_of(m.file)
            if owner is not None:
                owners.setdefault(owner.canonical, trace_from(m))
    return owners


def _annotate_outgoing(ctx: Context, owners: dict, stereotype: str) -> None:
    for flow in ctx.dfd.sorted_flows():
        if flow.sender not in owners:
            continue
        if not any(s in flow.stereotypes for s in _HTTP_LINK):
            continue
        try:
            ctx.dfd.annotate(flow.item_id, stereotype=stereotype, trace=owners[flow.sender])
        except ModelError as exc:
            ctx.report.warnings.append(str(exc))


@register
class CircuitBreakerLinks(Extractor):
    """Circuit breakers wrapping a service's outgoing HTTP connections."""

    name = "circuit_breaker_links"
    phase = "annotation"

    _KEYWORDS = (
        "@EnableCircuitBreaker",
        "@EnableHystrix",
        "@HystrixCommand",
        "HystrixFeign",
        "@CircuitBreaker",
    )

    def run(self, ctx: Context) -> None:
        _annotate_outgoing(
            ctx, _owners_with_evidence(ctx, self._KEYWORDS), "circuit_breaker_link"
        )


@register
class LoadBalancedLinks(Extractor):
    """Client-side load balancing on outgoing connections."""

    name = "load_balanced_links"
    phase = "annotation"

    _KEYWORDS = ("@LoadBalanced", "@RibbonClient")

    def run(self, ctx: Context) -> None:
        owners = _owners_with_evidence(ctx, self._KEYWORDS)
        for svc in ctx.services.values():
            if svc.properties.find_prefix("ribbon"):
                entry = svc.properties.find_prefix("ribbon")[0]
                owners.setdefault(svc.canonical, entry.trace())
        _annotate_outgoing(ctx, owners, "load_balanced_link")
        for key in ctx.lb_flow_hints:
            if key in ctx.dfd.flows:
                flow = ctx.dfd.flows[key]
                rec = ctx.dfd.traces.get(flow.item_id)
                if rec is not None:
                    try:
                        ctx.dfd.annotate(
                            flow.item_id, stereotype="load_balanced_link", trace=rec.primary
                        )
                    except ModelError as exc:
                        ctx.report.warnings.append(str(exc))


@register
class AuthenticatedRequests(Extractor):
    """Outgoing requests that carry authentication tokens."""

    name = "authenticated_requests"
    phase = "annotation"

    _KEYWORDS = (
        "OAuth2FeignRequestInterceptor",
        "OAuth2RestTemplate",
        "@EnableOAuth2Client",
    )

    def run(self, ctx: Context) -> None:
        _annotate_outgoing(
            ctx, _owners_with_evidence(ctx, self._KEYWORDS), "authenticated_request"
        )
