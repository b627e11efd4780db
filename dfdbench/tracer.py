"""In-memory spans around the calls into dfdscan's layers.

Wrappers are installed where each module looks a function up: a module
that did ``from ..search import find_keyword`` gets its own binding
wrapped, methods are wrapped on their class, extractors on their
instance.  A target that no longer exists is skipped and its metrics read
``None``, so internals can be restructured without breaking the run.

Functions called thousands of times per analysis (the scan kernel, the
comment masker, service-root lookups) are aggregated into a count and a
busy time instead of one span per call.
"""
from __future__ import annotations

import importlib
import time

# (module, attribute, metric stem); attribute may be Class.method
SPANNED = (
    ("dfdscan.analysis", "build_index", "search.build_index"),
    ("dfdscan.analysis", "run_pipeline", "extractors.pipeline"),
    ("dfdscan.search", "find_keyword", "search.find_keyword"),
    ("dfdscan.extractors.nodes", "find_keyword", "search.find_keyword"),
    ("dfdscan.extractors.flows", "find_keyword", "search.find_keyword"),
    ("dfdscan.extractors.annotations", "find_keyword", "search.find_keyword"),
    ("dfdscan.extractors.workspace", "parse_yaml_properties", "parsers.yaml"),
    ("dfdscan.extractors.workspace", "parse_properties_file", "parsers.properties"),
    ("dfdscan.extractors.workspace", "parse_compose", "parsers.compose"),
    ("dfdscan.extractors.workspace", "parse_dockerfile", "parsers.dockerfile"),
    ("dfdscan.extractors.workspace", "parse_maven_modules", "parsers.build"),
    ("dfdscan.extractors.workspace", "parse_maven_artifact_id", "parsers.build"),
    ("dfdscan.extractors.workspace", "parse_gradle_settings", "parsers.build"),
    ("dfdscan.model", "Dfd.validate", "model.validate"),
)
COUNTED = (
    ("dfdscan.search", "mask_java_comments", "search.mask"),
    ("dfdscan._kernel", "scan", "kernel.scan"),
    ("dfdscan.search", "resolve_cross_file", "search.cross_file"),
    ("dfdscan.extractors.flows", "resolve_cross_file", "search.cross_file"),
    ("dfdscan.extractors.base", "Context.owner_of", "extractors.owner_of"),
)


def _lookup(module_name: str, attr: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
    fn = getattr(owner, name, None) if owner is not None else None
    if not callable(fn):
        return None, None, None
    return owner, name, fn


class Tracer:
    """Spans (name, start, end, parent, analysis id) and per-call counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, list] = {}  # stem -> [calls, seconds]
        self.found: set[str] = set()
        self.matches = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._root = -1
        self.analysis = 0
        self.totals: list = []  # counters of every finished analysis

    # ------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.analysis])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, stem: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if stem == "search.find_keyword":
                self.matches += len(result)
            return result

        return wrapper

    def _counted(self, stem: str, fn):
        slot = self.counters.setdefault(stem, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += clock() - t0
                slot[0] += 1

        return wrapper

    def begin(self, extractors) -> None:
        """Start an analysis: wrap every known target and the extractors."""
        self.analysis += 1
        self.counters = {}
        self.matches = 0
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr, stem in table:
                owner, name, fn = _lookup(module_name, attr)
                if owner is None:
                    continue
                self.found.add(stem)
                setattr(owner, name, make(stem, fn))
                self._undo.append((owner, name, fn))
        for ex in extractors:
            stem = "extractors.%s" % ex.name
            self.found.add(stem)
            ex.run = self._spanned(stem, ex.run)
            self._undo.append((ex, "run", None))
        self.found.add("analysis")
        self._root = self.open("analysis")

    def end(self) -> None:
        """Close the analysis span and restore every wrapped target."""
        self.close(self._root)
        for owner, name, fn in reversed(self._undo):
            if fn is None:
                delattr(owner, name)
            else:
                setattr(owner, name, fn)
        self._undo.clear()
        self.totals.append({"analysis": self.analysis, "counters": self.counters, "matches": self.matches})

    # ------------------------------------------------------------------

    def busy(self, stem: str) -> float | None:
        """Total seconds in spans named stem within the current analysis."""
        if stem not in self.found:
            return None
        return sum(e - s for n, s, e, _, a in self.spans if n == stem and a == self.analysis)

    def calls(self, stem: str) -> int | None:
        if stem not in self.found:
            return None
        return sum(1 for n, _, _, _, a in self.spans if n == stem and a == self.analysis)

    def counted(self, stem: str) -> tuple[int | None, float | None]:
        if stem not in self.found:
            return None, None
        calls, seconds = self.counters.get(stem, [0, 0.0])
        return calls, seconds
