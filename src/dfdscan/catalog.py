"""Closed catalog of node, flow, and external-entity stereotypes.

Every stereotype attached to a model element must come from this catalog and
must be applicable to the element kind it is attached to.  Stereotypes are
split into architectural ones (what a thing is) and security ones (what a
security-relevant property it has); the split drives the security-focused
slice of the evaluation report.
"""
from __future__ import annotations

# ============================================================================
# Architectural stereotypes
# ============================================================================

# Applicable to nodes (services and databases).
NODE_ARCH = frozenset(
    {
        "administration_server",
        "configuration_server",
        "database",
        "gateway",
        "infrastructural",
        "internal",
        "in_memory_authentication",
        "in_memory_datastore",
        "message_broker",
        "search_engine",
        "service_discovery",
        "web_application",
        "web_server",
    }
)

# Applicable to information flows.
FLOW_ARCH = frozenset(
    {
        "feign_connection",
        "jdbc",
        "message_consumer_kafka",
        "message_consumer_rabbitmq",
        "message_producer_kafka",
        "message_producer_rabbitmq",
        "restful_http",
    }
)

# Applicable to external entities.
EXTERNAL_ARCH = frozenset(
    {
        "external_database",
        "external_website",
        "github_repository",
        "mail_server",
        "user",
    }
)

# ============================================================================
# Security stereotypes
# ============================================================================

NODE_SECURITY = frozenset(
    {
        "authentication_scope_all",
        "authorization_server",
        "basic_authentication",
        "circuit_breaker",
        "csrf_disabled",
        "encryption",
        "load_balancer",
        "local_logging",
        "logging_server",
        "metrics_server",
        "monitoring_dashboard",
        "monitoring_server",
        "plaintext_credentials",
        "pre_authorized_endpoints",
        "resource_server",
        "ssl_enabled",
        "token_server",
        "tracing_server",
    }
)

FLOW_SECURITY = frozenset(
    {
        "auth_provider",
        "authenticated_request",
        "circuit_breaker_link",
        "load_balanced_link",
        "plaintext_authentication",
        "plaintext_credentials_link",
    }
)

EXTERNAL_SECURITY = frozenset(
    {
        "entrypoint",
        "exitpoint",
        "logging_server",
        "plaintext_credentials",
        "tokenstore",
    }
)

SECURITY = NODE_SECURITY | FLOW_SECURITY | EXTERNAL_SECURITY

# Element kinds a stereotype may be attached to.  Most stereotypes apply to
# exactly one kind; a couple apply to both nodes and external entities
# (a logging sink or a credential leak can live either inside or outside
# the analyzed system).
_KINDS: dict[str, frozenset[str]] = {}
for _s in NODE_ARCH | NODE_SECURITY:
    _KINDS[_s] = frozenset({"node"})
for _s in FLOW_ARCH | FLOW_SECURITY:
    _KINDS[_s] = frozenset({"flow"})
for _s in EXTERNAL_ARCH | EXTERNAL_SECURITY:
    _KINDS.setdefault(_s, frozenset({"external_entity"}))
_KINDS["logging_server"] = frozenset({"node", "external_entity"})
_KINDS["plaintext_credentials"] = frozenset({"node", "external_entity"})


def kinds_for(stereotype: str) -> frozenset[str]:
    """Return the element kinds a stereotype applies to (empty if unknown)."""
    return _KINDS.get(stereotype, frozenset())


def is_known(stereotype: str) -> bool:
    return stereotype in _KINDS


def is_security(stereotype: str) -> bool:
    return stereotype in SECURITY


# Service stereotypes that mark a node as part of the supporting
# infrastructure rather than the business logic.  A service node ends up
# tagged either `internal` or `infrastructural`; any of these markers tips
# it to `infrastructural`.
INFRASTRUCTURAL_MARKERS = frozenset(
    {
        "administration_server",
        "authorization_server",
        "configuration_server",
        "gateway",
        "logging_server",
        "message_broker",
        "metrics_server",
        "monitoring_dashboard",
        "monitoring_server",
        "search_engine",
        "service_discovery",
        "token_server",
        "tracing_server",
        "web_server",
        "in_memory_datastore",
    }
)
