"""Technology extractors, grouped into pipeline phases."""
# No `from __future__ import annotations` here: it would bind the name
# `annotations` in this package and turn the import of that module below
# into a no-op.

from .base import (
    PHASES,
    Context,
    Extractor,
    REGISTRY,
    Report,
    ServiceRoot,
    default_extractors,
    register,
    run_pipeline,
)

# Importing each module registers its extractors; this order is the order
# of Report.timings and of the --verbose time lines.
from . import workspace, nodes, flows, annotations, finalize  # noqa: F401

__all__ = [
    "PHASES",
    "Context",
    "Extractor",
    "REGISTRY",
    "Report",
    "ServiceRoot",
    "default_extractors",
    "register",
    "run_pipeline",
]
