"""Structured-file parsers with per-value source locations.

Everything here parses one indexed file into plain data plus TraceEntry
locations so extracted facts stay traceable to a file, line, and span.
YAML goes through the composer (not the loader) to keep line/column marks,
libyaml's when PyYAML was built with it.
"""
from __future__ import annotations

import functools
import posixpath
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import yaml

from .model import TraceEntry
from .search import IndexedFile

# libyaml's composer gives the same nodes and marks about eight times faster.
# The base loader leaves implicit tags unresolved: only values and marks are read.
_Loader = getattr(yaml, "CBaseLoader", yaml.BaseLoader)


class ParserError(Exception):
    """A file could not be parsed; carries the offending path."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__("%s: %s" % (path, reason))
        self.path = path


# ============================================================================
# Property entries (YAML and .properties)
# ============================================================================


@dataclass(slots=True)
class PropertyEntry:
    key: str  # dotted, lowercased; sequence elements carry [i]
    value: str
    trace: TraceEntry  # location of the value
    profile: str | None = None


def _dotted_suffixes(key: str):
    """The parts of key after each of its dots: a.b.c gives b.c, then c."""
    dot = key.find(".")
    while dot != -1:
        yield key[dot + 1 :]
        dot = key.find(".", dot + 1)


class PropertyMap:
    """Merged configuration entries with suffix-tolerant lookup."""

    def __init__(self, entries=()) -> None:
        self.entries: list[PropertyEntry] = []
        # entry positions, in entry order, by relaxed key and by each
        # dotted suffix of a relaxed key
        self._exact: dict[str, list[int]] = {}
        self._suffix: dict[str, list[int]] = {}
        self.add(entries)

    def add(self, entries) -> None:
        exact, suffix = self._exact, self._suffix
        for e in entries:
            i = len(self.entries)
            self.entries.append(e)
            key = self._canon(e.key)
            exact.setdefault(key, []).append(i)
            for tail in _dotted_suffixes(key):
                suffix.setdefault(tail, []).append(i)

    @staticmethod
    def _canon(key: str) -> str:
        # relaxed binding: server.ssl.key-store == server.ssl.keyStore
        canon = key.lower().replace("-", "")
        return key if canon == key else canon  # keys are mostly canonical: share them

    def find(self, dotted: str) -> list[PropertyEntry]:
        """Entries matching a dotted key exactly or by dotted suffix.

        Hyphens are ignored (relaxed binding) and both suffix directions
        are tolerated: a query spring.rabbitmq.host matches an entry
        rabbitmq.host and the other way round, which bridges environment
        variable bindings of typical deployments.
        """
        want, tails = _query(dotted)
        exact = self._exact
        found = exact.get(want) or self._suffix.get(want)
        if not found:
            # entries whose key is a dotted suffix of the query
            found = []
            for tail in tails:
                if tail in exact:
                    found += exact[tail]
            found.sort()
        entries = self.entries
        return [entries[i] for i in found]

    def get(self, *keys: str) -> PropertyEntry | None:
        """The entry of the first key that has one, unprofiled entries first."""
        for dotted in keys:
            found = self.find(dotted)
            if found:
                unprofiled = [e for e in found if e.profile is None]
                return (unprofiled or found)[0]
        return None

    def find_prefix(self, prefix: str) -> list[PropertyEntry]:
        prefix = prefix.lower()
        return [
            e
            for e in self.entries
            if e.key == prefix or e.key.startswith(prefix + ".") or e.key.startswith(prefix + "[")
        ]

    def __len__(self) -> int:
        return len(self.entries)


@functools.lru_cache(maxsize=4096)
def _query(dotted: str) -> tuple[str, tuple[str, ...]]:
    """A find query's relaxed key and its dotted suffixes.

    Every service asks the same extractor keys, so they are kept; the bound
    holds placeholder names, which come from the analyzed files.
    """
    want = PropertyMap._canon(dotted)
    return want, tuple(_dotted_suffixes(want))


# ----------------------------------------------------------------------------
# YAML
# ----------------------------------------------------------------------------


def _trace(node, path: str, lines: list[str]) -> TraceEntry:
    """Location of a YAML node; a value spanning lines is cut at its first line's end."""
    line = node.start_mark.line + 1
    start = node.start_mark.column
    if node.end_mark.line == node.start_mark.line:
        end = node.end_mark.column
    else:
        end = len(lines[line - 1].rstrip()) if line - 1 < len(lines) else start
    if end <= start:
        end = start + 1
    raw = lines[line - 1] if line - 1 < len(lines) else ""
    return TraceEntry(path, line, (start, end), raw[start:end])


def _flatten_yaml(node, prefix: str, scalars: list[tuple[str, yaml.ScalarNode]]) -> None:
    """Collect (dotted key, scalar node) pairs below node, in document order."""
    if isinstance(node, yaml.MappingNode):
        for k, v in node.value:
            key_text = str(getattr(k, "value", ""))
            if key_text == "<<":
                _flatten_yaml(v, prefix, scalars)
                continue
            dotted = "%s.%s" % (prefix, key_text.lower()) if prefix else key_text.lower()
            _flatten_yaml(v, dotted, scalars)
    elif isinstance(node, yaml.SequenceNode):
        for i, v in enumerate(node.value):
            _flatten_yaml(v, "%s[%d]" % (prefix, i), scalars)
    elif isinstance(node, yaml.ScalarNode):
        if prefix:
            scalars.append((prefix, node))


_PROFILE_KEYS = ("spring.profiles", "spring.config.activate.on-profile")


def parse_yaml_properties(file: IndexedFile) -> list[PropertyEntry]:
    """Flatten a (possibly multi-document) YAML file into dotted entries.

    Documents selecting a Spring profile keep all their entries, marked
    with that profile name.
    """
    entries: list[PropertyEntry] = []
    try:
        docs = list(yaml.compose_all(file.text, Loader=_Loader))
    except yaml.YAMLError as exc:
        raise ParserError(file.path, "yaml: %s" % exc) from exc
    lines = file.text.split("\n")
    for doc in docs:
        if doc is None:
            continue
        scalars: list[tuple[str, yaml.ScalarNode]] = []
        _flatten_yaml(doc, "", scalars)
        profile = next((str(n.value) for key, n in scalars if key in _PROFILE_KEYS), None)
        entries += (
            PropertyEntry(key, str(n.value), _trace(n, file.path, lines), profile)
            for key, n in scalars
        )
    return entries


# ----------------------------------------------------------------------------
# .properties
# ----------------------------------------------------------------------------


def parse_properties_file(file: IndexedFile) -> list[PropertyEntry]:
    """Parse key=value (or key:value) lines, honoring \\ continuations."""
    entries: list[PropertyEntry] = []
    lines = file.text.split("\n")
    i = 0
    while i < len(lines):
        raw = lines[i]
        stripped = raw.strip()
        if not stripped or stripped[0] in "#!":
            i += 1
            continue
        sep = len(stripped)
        for ch in "=:":
            idx = stripped.find(ch)
            if idx != -1 and idx < sep:
                sep = idx
        if sep == len(stripped):
            i += 1
            continue
        key = stripped[:sep].strip().lower()
        value = stripped[sep + 1 :].strip()
        # locate the value inside the original line for the span
        vstart = raw.find(stripped) + sep + 1
        while vstart < len(raw) and raw[vstart] in " \t":
            vstart += 1
        vend = len(raw.rstrip())
        if vend <= vstart:
            vstart, vend = 0, max(len(raw.rstrip()), 1)
        line_no = i + 1
        snippet = raw[vstart:vend]
        while value.endswith("\\") and i + 1 < len(lines):
            value = value[:-1].strip()
            i += 1
            value += lines[i].strip()
        if key:
            entries.append(
                PropertyEntry(key, value, TraceEntry(file.path, line_no, (vstart, vend), snippet))
            )
        i += 1
    return entries


def relaxed_key(env_key: str) -> str:
    """SPRING_CLOUD_CONFIG_URI -> spring.cloud.config.uri."""
    return env_key.strip().lower().replace("__", ".").replace("_", ".")


# ============================================================================
# docker-compose
# ============================================================================


@dataclass
class ComposeService:
    name: str
    trace: TraceEntry
    image: str | None = None
    image_trace: TraceEntry | None = None
    build_context: str | None = None
    ports: list[tuple[int, TraceEntry]] = field(default_factory=list)
    environment: list[tuple[str, str, TraceEntry]] = field(default_factory=list)


def _mapping_get(node: yaml.MappingNode, key: str):
    for k, v in node.value:
        if str(getattr(k, "value", "")) == key:
            return v
    return None


def _scalar(node) -> str | None:
    if isinstance(node, yaml.ScalarNode):
        return str(node.value)
    return None


def _container_port(spec: str) -> int | None:
    spec = spec.strip().strip("\"'")
    spec = spec.split("/")[0]
    parts = spec.split(":")
    candidate = parts[-1]
    try:
        return int(candidate)
    except ValueError:
        return None


def parse_compose(file: IndexedFile) -> list[ComposeService]:
    """Parse a docker-compose file into service declarations."""
    try:
        root = yaml.compose(file.text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ParserError(file.path, "yaml: %s" % exc) from exc
    if not isinstance(root, yaml.MappingNode):
        return []
    services_node = _mapping_get(root, "services")
    if not isinstance(services_node, yaml.MappingNode):
        # v1 files put services at the top level
        services_node = yaml.MappingNode(
            root.tag,
            [
                (k, v)
                for k, v in root.value
                if isinstance(v, yaml.MappingNode)
                and str(getattr(k, "value", "")) not in ("networks", "volumes", "version")
            ],
        )
    services: list[ComposeService] = []
    lines = file.text.split("\n")
    for k, v in services_node.value:
        name = str(getattr(k, "value", "")).strip()
        if not name or not isinstance(v, yaml.MappingNode):
            continue
        svc = ComposeService(name=name, trace=_trace(k, file.path, lines))
        img = _mapping_get(v, "image")
        if isinstance(img, yaml.ScalarNode):
            svc.image = str(img.value).strip()
            svc.image_trace = _trace(img, file.path, lines)
        build = _mapping_get(v, "build")
        if isinstance(build, yaml.ScalarNode):
            svc.build_context = str(build.value).strip()
        elif isinstance(build, yaml.MappingNode):
            ctx = _mapping_get(build, "context")
            if isinstance(ctx, yaml.ScalarNode):
                svc.build_context = str(ctx.value).strip()
        ports = _mapping_get(v, "ports")
        if isinstance(ports, yaml.SequenceNode):
            for p in ports.value:
                if isinstance(p, yaml.ScalarNode):
                    port = _container_port(str(p.value))
                    if port is not None:
                        svc.ports.append((port, _trace(p, file.path, lines)))
                elif isinstance(p, yaml.MappingNode):
                    tgt = _mapping_get(p, "target")
                    if isinstance(tgt, yaml.ScalarNode):
                        port = _container_port(str(tgt.value))
                        if port is not None:
                            svc.ports.append((port, _trace(tgt, file.path, lines)))
        env = _mapping_get(v, "environment")
        if isinstance(env, yaml.SequenceNode):
            for item in env.value:
                text = _scalar(item)
                if text and "=" in text:
                    ekey, _, eval_ = text.partition("=")
                    svc.environment.append(
                        (ekey.strip(), eval_.strip(), _trace(item, file.path, lines))
                    )
        elif isinstance(env, yaml.MappingNode):
            for ek, ev in env.value:
                ekey = str(getattr(ek, "value", "")).strip()
                evalue = _scalar(ev)
                if ekey and evalue is not None:
                    svc.environment.append((ekey, evalue.strip(), _trace(ev, file.path, lines)))
        services.append(svc)
    return services


# ============================================================================
# Dockerfile
# ============================================================================


@dataclass
class DockerfileInfo:
    path: str
    base_image: str | None = None
    base_trace: TraceEntry | None = None
    exposed_ports: list[tuple[int, TraceEntry]] = field(default_factory=list)


def parse_dockerfile(file: IndexedFile) -> DockerfileInfo:
    info = DockerfileInfo(path=file.path)
    for i, raw in enumerate(file.text.split("\n")):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        word = tokens[0].upper()
        if word == "FROM" and len(tokens) > 1:
            args = [t for t in tokens[1:] if not t.startswith("--")]
            if args:
                image = args[0]
                start = raw.find(image)
                info.base_image = image
                info.base_trace = TraceEntry(
                    file.path, i + 1, (start, start + len(image)), image
                )
        elif word == "EXPOSE":
            for tok in tokens[1:]:
                try:
                    port = int(tok.split("/")[0])
                except ValueError:
                    continue
                start = raw.find(tok)
                info.exposed_ports.append(
                    (port, TraceEntry(file.path, i + 1, (start, start + len(tok)), tok))
                )
    return info


# ============================================================================
# Build files (Maven / Gradle)
# ============================================================================


def parse_maven_modules(file: IndexedFile) -> list[str]:
    """Module directories declared by a pom.xml (namespace-agnostic)."""
    try:
        root = ET.fromstring(file.text)
    except ET.ParseError as exc:
        raise ParserError(file.path, "xml: %s" % exc) from exc
    modules = []
    for el in root.iter():
        if el.tag.rpartition("}")[2] == "module" and el.text:
            modules.append(el.text.strip())
    return [m for m in modules if m]


def parse_maven_artifact_id(file: IndexedFile) -> str | None:
    try:
        root = ET.fromstring(file.text)
    except ET.ParseError:
        return None
    for child in root:
        if child.tag.rpartition("}")[2] == "artifactId" and child.text:
            return child.text.strip()
    return None


_GRADLE_INCLUDE = re.compile(r"include\s*\(?\s*((?:['\"]:?[^'\"]+['\"]\s*,?\s*)+)\)?")
_GRADLE_PATH = re.compile(r"['\"](:?[^'\"]+)['\"]")


def parse_gradle_settings(file: IndexedFile) -> list[str]:
    """Project directories from settings.gradle include statements."""
    modules = []
    for m in _GRADLE_INCLUDE.finditer(file.text):
        for path in _GRADLE_PATH.findall(m.group(1)):
            modules.append(path.lstrip(":").replace(":", "/"))
    return modules


# ============================================================================
# Container image classification
# ============================================================================


@dataclass(frozen=True)
class ImageRule:
    pattern: str
    stereotype: str
    node_type: str


def load_image_catalog(lines) -> list[ImageRule]:
    rules = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("bad image catalog line: %r" % raw)
        rules.append(ImageRule(parts[0].lower(), parts[1], parts[2]))
    return rules


def classify_image(image: str, rules: list[ImageRule]) -> ImageRule | None:
    """Classify a container image by its repository name.

    The tag is stripped and only the last path segment is compared; the
    longest matching pattern wins so more specific rules take precedence.
    """
    name = image.strip().lower()
    colon = name.rfind(":")
    if colon > name.rfind("/"):  # a colon after the last slash is a tag
        name = name[:colon]
    segment = posixpath.basename(name)
    best: ImageRule | None = None
    for rule in rules:
        if rule.pattern in segment:
            if best is None or len(rule.pattern) > len(best.pattern):
                best = rule
    return best
