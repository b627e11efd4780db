"""Finalize phase: classifications derived from the completed diagram."""
from __future__ import annotations

from .. import catalog
from .base import Context, Extractor, register


@register
class InternalInfrastructural(Extractor):
    """Every service node ends up internal or infrastructural.

    Infrastructure markers (config server, discovery, gateway, broker and
    the like) tip a service to infrastructural; everything else is part of
    the business logic and marked internal.
    """

    name = "internal_infrastructural"
    phase = "finalize"

    def run(self, ctx: Context) -> None:
        for node in ctx.dfd.sorted_nodes():
            if node.node_type != "service":
                continue
            marker = (
                "infrastructural"
                if node.stereotypes & catalog.INFRASTRUCTURAL_MARKERS
                else "internal"
            )
            rec = ctx.dfd.traces.get(node.name)
            trace = rec.primary if rec is not None else None
            ctx.annotate(node.name, marker, trace)


@register
class EntryExitPoints(Extractor):
    """External entities become entry and/or exit points by flow direction."""

    name = "entry_exit_points"
    phase = "finalize"

    def run(self, ctx: Context) -> None:
        for node in ctx.dfd.sorted_nodes():
            if node.node_type != "external_entity":
                continue
            rec = ctx.dfd.traces.get(node.name)
            trace = rec.primary if rec is not None else None
            outgoing = any(s == node.name for s, _ in ctx.dfd.flows)
            incoming = any(r == node.name for _, r in ctx.dfd.flows)
            if outgoing:
                ctx.annotate(node.name, "entrypoint", trace)
            if incoming:
                ctx.annotate(node.name, "exitpoint", trace)
