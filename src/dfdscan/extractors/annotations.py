"""Annotation phase: security stereotypes and tagged values.

These extractors decorate nodes and flows created earlier.  They read
their evidence from the index and from parse/node/flow-phase state, never
from annotations a same-phase peer wrote, so they commute.
"""
from __future__ import annotations

import re
from itertools import chain

from .. import search
from .base import Context, Extractor, register
from .flows import MAIL_SERVER


@register
class KeywordAnnotations(Extractor):
    """Rule-file driven: code keyword evidence becomes a node stereotype."""

    name = "keyword_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        for rule in ctx.rules.keyword_rules:
            for owner, hit in ctx.rule_hits(rule):
                ctx.annotate(owner.name, rule.stereotype, hit)


_ENCODER_CLASSES = (
    "BCryptPasswordEncoder",
    "SCryptPasswordEncoder",
    "Pbkdf2PasswordEncoder",
)
# the declaration of an encoder instance, per encoder class
_ENCODER_DECLARES = {cls: re.compile(r"%s\s+(\w+)\s*=" % cls) for cls in _ENCODER_CLASSES}
_ENCODER_USES = ("encode", "matches", "upgradeEncoding")


@register
class EncryptionAnnotations(Extractor):
    """Password hashing detected in two steps: declaration, then usage.

    The declaration names the encoder instance; the service is only marked
    when that instance is used in the declaring file (encode, matches or
    upgradeEncoding), and the use is traced, linked to the declaration.
    """

    name = "encryption_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        for owner, seed in ctx.hits(_ENCODER_CLASSES):
            file = ctx.index.by_path[seed.file]
            declares = _ENCODER_DECLARES[seed.snippet]
            for ident in declares.findall(file.line(seed.line - 1, masked=True)):
                for member in _ENCODER_USES:
                    # looked up on the module, so a wrapper installed there sees each call
                    for use in search.scan_files([file], "%s.%s" % (ident, member)):
                        ctx.annotate(owner.name, "encryption", use.linked([seed]))


@register
class SslAnnotations(Extractor):
    """TLS termination configured on a service endpoint."""

    name = "ssl_annotations"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        for svc in ctx.services.values():
            entry = svc.properties.get("server.ssl.enabled")
            if entry is not None and entry.value.strip().lower() == "true":
                ctx.annotate(svc.name, "ssl_enabled", entry.trace)
                continue
            entry = svc.properties.get("server.ssl.key-store")
            if entry is not None and entry.value.strip():
                ctx.annotate(svc.name, "ssl_enabled", entry.trace)


# the configuration prefix holding the credentials of each datastore kind
_CREDENTIAL_PREFIX = {
    "jdbc": "spring.datasource",
    "mongodb": "spring.data.mongodb",
    "redis": "spring.redis",
    "elasticsearch": "spring.elasticsearch",
}


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
            self._datastores(ctx, svc, owned.get(svc.name, ()))
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
            found.setdefault(tag, (value, entry.trace))
        return found

    def _apply(self, ctx: Context, item_id: str, found) -> None:
        if not found:
            return
        for tag in sorted(found):
            value, trace = found[tag]
            ctx.annotate(item_id, tags={tag: value}, trace=trace)
        ctx.annotate(item_id, "plaintext_credentials", found[sorted(found)[0]][1])

    def _mail(self, ctx: Context, svc) -> None:
        if svc.properties.get("spring.mail.host") is not None:
            self._apply(ctx, MAIL_SERVER, self._collect(ctx, svc, "spring.mail"))

    def _datastores(self, ctx: Context, svc, owned) -> None:
        """owned: the (db, kind) pairs of the service's datastores, in order."""
        for db, kind in owned:
            found = self._collect(ctx, svc, _CREDENTIAL_PREFIX[kind])
            if not found:
                continue
            self._apply(ctx, db, found)
            first_trace = found[sorted(found)[0]][1]
            ctx.annotate("%s -> %s" % (svc.name, db), "plaintext_credentials_link", first_trace)

    def _local_user(self, ctx: Context, svc) -> None:
        for prefix in ("spring.security.user", "security.user"):
            found = self._collect(ctx, svc, prefix)
            if found:
                self._apply(ctx, svc.name, found)
                return


# ============================================================================
# Flow link annotations
# ============================================================================

_HTTP_LINK = ("restful_http", "feign_connection")


def _annotate_outgoing(ctx: Context, hits, stereotype: str) -> None:
    """Mark the outgoing HTTP flows of each owner in a stream of (owner,
    hit), traced to the owner's first hit."""
    owners: dict[str, object] = {}
    for owner, hit in hits:
        owners.setdefault(owner.name, hit)
    for flow in ctx.dfd.sorted_flows():
        if flow.sender in owners and any(s in flow.stereotypes for s in _HTTP_LINK):
            ctx.annotate(flow.item_id, stereotype, owners[flow.sender])


@register
class CircuitBreakerLinks(Extractor):
    """Circuit breakers wrapping a service's outgoing HTTP connections."""

    name = "circuit_breaker_links"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        _annotate_outgoing(ctx, ctx.evidence("circuit_breaker"), "circuit_breaker_link")


@register
class LoadBalancedLinks(Extractor):
    """Client-side load balancing on outgoing connections."""

    name = "load_balanced_links"
    phase = "annotation"

    def run(self, ctx: Context) -> None:
        ribbon = ((svc, svc.properties.find_prefix("ribbon")) for svc in ctx.services.values())
        hits = chain(ctx.evidence("load_balancer"), ((svc, r[0].trace) for svc, r in ribbon if r))
        _annotate_outgoing(ctx, hits, "load_balanced_link")
        for item_id in ctx.lb_flow_hints:
            rec = ctx.dfd.traces.get(item_id)
            if rec is not None:
                ctx.annotate(item_id, "load_balanced_link", rec.primary)


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
        _annotate_outgoing(ctx, ctx.hits(self._KEYWORDS), "authenticated_request")
