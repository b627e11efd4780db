"""dfdscan: security-annotated dataflow diagrams from microservice code.

The package indexes a Java/Spring codebase as text, runs a pipeline of
technology extractors over it, and produces a dataflow diagram whose every
node, flow, stereotype, and tagged value is traceable to a file, line, and
character span.  An evaluation harness scores extracted diagrams against
ground truth by precision and recall.
"""
from .analysis import AnalysisError, AnalysisResult, analyze_directory, fetch_repository
from .model import Dfd, Flow, Node, TraceEntry, normalize_name
from .output import dfd_to_dot, dfd_to_json, traceability_to_json, verify_traces
from .search import build_index, find_keyword

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "Dfd",
    "Flow",
    "Node",
    "TraceEntry",
    "analyze_directory",
    "build_index",
    "dfd_to_dot",
    "dfd_to_json",
    "fetch_repository",
    "find_keyword",
    "normalize_name",
    "traceability_to_json",
    "verify_traces",
    "__version__",
]
