"""Structured-file parsers with per-value source locations.

Everything here parses one indexed file into plain data plus TraceEntry
locations, each made by the file's IndexedFile.trace, so extracted facts
stay traceable to a file, line, and span.  YAML goes through the composer
(not the loader) to keep line/column marks, libyaml's when PyYAML was
built with it.  A file that cannot be parsed, or a YAML file past one of
the bounds below, raises ParserError for that file.

Each file parser is memoized on the file's entry (search.memoized): a file
that a service worker's index reuses unchanged is parsed once, and every
later analysis shares the result, so no caller may change it.  A parse
that raises is not kept, so its warning repeats on every analysis.
"""
from __future__ import annotations

import posixpath
import re
import xml.etree.ElementTree as ET
from collections import namedtuple

import yaml

from .model import ModelError, Node, TraceEntry
from .search import IndexedFile, memoized

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


class PropertyEntry:
    __slots__ = ("key", "value", "trace", "profile")

    def __init__(self, key: str, value: str, trace: TraceEntry, profile: str | None = None) -> None:
        self.key = key  # dotted, lowercased; sequence elements carry [i]
        self.value = value
        self.trace = trace  # location of the value
        self.profile = profile

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropertyEntry):
            return False
        return (self.key, self.value, self.trace, self.profile) == (other.key, other.value, other.trace, other.profile)


def canonical_key(key: str) -> str:
    """The relaxed form of a dotted key: server.ssl.key-store and
    server.ssl.keyStore are both server.ssl.keystore."""
    canon = key.lower().replace("-", "")
    return key if canon == key else canon  # keys are mostly canonical: share them


def _index(positions: dict, key: str, i: int) -> None:
    """Add entry position i under key: an int while the key has one
    position, a list from its second on, so growth stays linear."""
    held = positions.get(key)
    if held is None:
        positions[key] = i
    elif type(held) is int:
        positions[key] = [held, i]
    else:
        held.append(i)


class PropertyMap:
    """Merged configuration entries with suffix-tolerant lookup.

    Each entry's relaxed key is kept once and indexed twice: by the whole
    key and by its last dotted segment.  A key that is a dotted suffix of
    another, or the other way round, shares that segment, so a suffix
    lookup filters one bucket, and memory stays linear in key length.
    """

    def __init__(self, entries=()) -> None:
        self.entries: list[PropertyEntry] = []
        self._keys: list[str] = []  # relaxed key of each entry
        # entry positions, in entry order, by relaxed key and by its last
        # segment: almost every key is seen once, so see _index for the form
        self._exact: dict[str, int | list[int]] = {}
        self._last: dict[str, int | list[int]] = {}
        self.add(entries)

    def add(self, entries) -> None:
        exact, last = self._exact, self._last
        for e in entries:
            i = len(self.entries)
            self.entries.append(e)
            key = canonical_key(e.key)
            self._keys.append(key)
            _index(exact, key, i)
            _index(last, key.rpartition(".")[2], i)

    def find(self, dotted: str) -> list[PropertyEntry]:
        """Entries matching a dotted key exactly or by dotted suffix.

        Hyphens are ignored (relaxed binding) and both suffix directions
        are tolerated: a query spring.rabbitmq.host matches an entry
        rabbitmq.host and the other way round, which bridges environment
        variable bindings of typical deployments.
        """
        want = canonical_key(dotted)
        found = self._exact.get(want)
        if found is None:
            bucket = self._last.get(want.rpartition(".")[2])
            if bucket is None:  # most queries: no key ends in their last segment
                return []
            if type(bucket) is int:
                bucket = (bucket,)
            keys = self._keys
            tail = "." + want
            found = [i for i in bucket if keys[i].endswith(tail)]
            if not found:
                # entries whose key is a dotted suffix of the query
                found = [i for i in bucket if want.endswith("." + keys[i])]
        elif type(found) is int:
            return [self.entries[found]]
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


# ----------------------------------------------------------------------------
# YAML
# ----------------------------------------------------------------------------


# Flattening refuses a path deeper than MAX_YAML_DEPTH collections (SnakeYAML's
# default nesting limit is also 50), and a document whose aliases give it more
# than MAX_YAML_EXPANSION entries (mapping pairs and sequence items) per
# character of its text.  Without aliases a document has at most about one;
# a few hundred characters of nested aliases would give millions.
MAX_YAML_DEPTH = 50
MAX_YAML_EXPANSION = 10
# libyaml's composer recurses on the C stack, and about 23,000 nested
# collections overflow an 8 MiB stack and kill the process.  Each level needs
# one of the _NESTING characters, so only a text with more than _COMPOSE_DEPTH
# of them has its parse events counted, and one nested deeper is refused
# before it is composed.
_COMPOSE_DEPTH = 10_000
_NESTING = "[{-?:"


def _compose(file: IndexedFile, documents: bool = False):
    """The root node of a YAML file, or the roots of its documents.

    ParserError when it is no YAML or nests deeper than _COMPOSE_DEPTH.
    """
    text = file.text
    try:
        if sum(map(text.count, _NESTING)) > _COMPOSE_DEPTH:
            depth = 0
            for event in yaml.parse(text, Loader=_Loader):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    if depth > _COMPOSE_DEPTH:
                        raise ParserError(file.path, "yaml: nested deeper than %d collections" % _COMPOSE_DEPTH)
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
        return list(yaml.compose_all(text, Loader=_Loader)) if documents else yaml.compose(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ParserError(file.path, "yaml: %s" % exc) from exc


def _trace(node, file: IndexedFile) -> TraceEntry:
    """Location of a YAML node; a value spanning lines is cut at its first line's end."""
    index, start = node.start_mark.line, node.start_mark.column
    if node.end_mark.line == index:
        end = node.end_mark.column
    else:  # the first line's end; a line past the last one has no text
        end = len(file.line(index).rstrip()) if index < len(file.line_starts) else 0
    return file.trace(index, start, max(end, start + 1))


def _flatten_yaml(root, path: str) -> list[tuple[str, yaml.ScalarNode]]:
    """The (dotted key, scalar node) pairs below root, in document order.

    The walk keeps its own stack, so no depth makes it recurse.  It raises
    ParserError for path past MAX_YAML_DEPTH or MAX_YAML_EXPANSION, and on a
    mapping key that is a collection, whose text would expand every alias
    inside it.
    """
    scalars: list[tuple[str, yaml.ScalarNode]] = []
    budget = MAX_YAML_EXPANSION * (root.end_mark.index - root.start_mark.index)
    entries = 0
    # the dotted key and the (key node or index, value node) pairs left of
    # each open collection, below one pair that holds the root
    stack = [("", iter([(None, root)]))]
    while stack:
        prefix, pairs = stack[-1]
        for k, v in pairs:
            if isinstance(k, int):
                key = "%s[%d]" % (prefix, k)
            elif isinstance(k, yaml.ScalarNode):
                key = k.value.lower()
                if key == "<<":  # a merge key's entries join those of its mapping
                    key = prefix
                elif prefix:
                    key = "%s.%s" % (prefix, key)
            elif k is None:  # the root
                key = ""
            else:
                raise ParserError(path, "yaml: a mapping key that is a collection")
            if isinstance(v, yaml.ScalarNode):
                if key:
                    scalars.append((key, v))
                continue
            if len(stack) > MAX_YAML_DEPTH:
                raise ParserError(path, "yaml: nested deeper than %d collections" % MAX_YAML_DEPTH)
            entries += len(v.value)
            if entries > budget:
                raise ParserError(
                    path, "yaml: aliases expand to more than %d entries per character" % MAX_YAML_EXPANSION
                )
            stack.append((key, enumerate(v.value) if isinstance(v, yaml.SequenceNode) else iter(v.value)))
            break
        else:
            stack.pop()
    return scalars


_PROFILE_KEYS = ("spring.profiles", "spring.config.activate.on-profile")


@memoized
def parse_yaml_properties(file: IndexedFile) -> list[PropertyEntry]:
    """Flatten a (possibly multi-document) YAML file into dotted entries.

    Documents selecting a Spring profile keep all their entries, marked
    with that profile name.
    """
    entries: list[PropertyEntry] = []
    for doc in _compose(file, documents=True):
        scalars = _flatten_yaml(doc, file.path)
        profile = next((str(n.value) for key, n in scalars if key in _PROFILE_KEYS), None)
        entries += (PropertyEntry(key, str(n.value), _trace(n, file), profile) for key, n in scalars)
    return entries


# ----------------------------------------------------------------------------
# .properties
# ----------------------------------------------------------------------------


_SEPARATOR = re.compile("[=:]")


@memoized
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
        found = _SEPARATOR.search(stripped)
        if found is None:
            i += 1
            continue
        sep = found.start()
        key = stripped[:sep].strip().lower()
        value = stripped[sep + 1 :].strip()
        # locate the value inside the original line for the span
        vstart = raw.find(stripped) + sep + 1
        while vstart < len(raw) and raw[vstart] in " \t":
            vstart += 1
        vend = len(raw.rstrip())
        if vend <= vstart:
            vstart, vend = 0, max(len(raw.rstrip()), 1)
        first = i
        while value.endswith("\\") and i + 1 < len(lines):
            value = value[:-1].strip()
            i += 1
            value += lines[i].strip()
        if key:
            entries.append(PropertyEntry(key, value, file.trace(first, vstart, vend)))
        i += 1
    return entries


def relaxed_key(env_key: str) -> str:
    """SPRING_CLOUD_CONFIG_URI -> spring.cloud.config.uri."""
    return env_key.strip().lower().replace("__", ".").replace("_", ".")


# ============================================================================
# docker-compose
# ============================================================================


# ports holds (port, trace) pairs, environment (key, value, trace) triples
ComposeService = namedtuple("ComposeService", "name trace image image_trace build_context ports environment")


def _scalar(node) -> str | None:
    """A scalar's text; None for a collection, whose text is never built."""
    if isinstance(node, yaml.ScalarNode):
        return str(node.value)
    return None


def _mapping_get(node: yaml.MappingNode, key: str):
    for k, v in node.value:
        if isinstance(k, yaml.ScalarNode) and k.value == key:
            return v
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


@memoized
def parse_compose(file: IndexedFile) -> list[ComposeService]:
    """Parse a docker-compose file into service declarations.

    It reads a fixed set of keys, each at a fixed depth, so it expands no
    alias below that depth and names no key that is a collection.
    """
    root = _compose(file)
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
                and _scalar(k) not in ("networks", "volumes", "version")
            ],
        )
    services: list[ComposeService] = []
    for k, v in services_node.value:
        name = (_scalar(k) or "").strip()
        if not name or not isinstance(v, yaml.MappingNode):
            continue
        image = image_trace = build_context = None
        ports, environment = [], []
        img = _mapping_get(v, "image")
        if isinstance(img, yaml.ScalarNode):
            image = str(img.value).strip()
            image_trace = _trace(img, file)
        build = _mapping_get(v, "build")
        if isinstance(build, yaml.MappingNode):
            build = _mapping_get(build, "context")
        if isinstance(build, yaml.ScalarNode):
            build_context = str(build.value).strip()
        port_nodes = _mapping_get(v, "ports")
        if isinstance(port_nodes, yaml.SequenceNode):
            for p in port_nodes.value:
                if isinstance(p, yaml.MappingNode):
                    p = _mapping_get(p, "target")  # the long syntax
                port = _container_port(str(p.value)) if isinstance(p, yaml.ScalarNode) else None
                if port is not None:
                    ports.append((port, _trace(p, file)))
        env = _mapping_get(v, "environment")
        if isinstance(env, yaml.SequenceNode):
            for item in env.value:
                text = _scalar(item)
                if text and "=" in text:
                    ekey, _, eval_ = text.partition("=")
                    environment.append((ekey.strip(), eval_.strip(), _trace(item, file)))
        elif isinstance(env, yaml.MappingNode):
            for ek, ev in env.value:
                ekey = (_scalar(ek) or "").strip()
                evalue = _scalar(ev)
                if ekey and evalue is not None:
                    environment.append((ekey, evalue.strip(), _trace(ev, file)))
        services.append(
            ComposeService(name, _trace(k, file), image, image_trace, build_context, ports, environment)
        )
    return services


# ============================================================================
# Dockerfile
# ============================================================================


# exposed_ports holds (port, trace) pairs
DockerfileInfo = namedtuple("DockerfileInfo", "path base_image base_trace exposed_ports")


@memoized
def parse_dockerfile(file: IndexedFile) -> DockerfileInfo:
    base_image = base_trace = None
    exposed_ports = []
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
                base_image = image
                base_trace = file.trace(i, start, start + len(image))
        elif word == "EXPOSE":
            for tok in tokens[1:]:
                try:
                    port = int(tok.split("/")[0])
                except ValueError:
                    continue
                start = raw.find(tok)
                exposed_ports.append((port, file.trace(i, start, start + len(tok))))
    return DockerfileInfo(file.path, base_image, base_trace, exposed_ports)


# ============================================================================
# Build files (Maven / Gradle)
# ============================================================================


@memoized
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


@memoized
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


@memoized
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


ImageRule = namedtuple("ImageRule", "pattern stereotype node_type")


def load_image_catalog(lines) -> list[ImageRule]:
    """The rules of "pattern stereotype node_type" lines; ValueError names a bad one."""
    rules = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("bad image catalog line: %r" % raw)
        try:
            Node("image", parts[2], [parts[1]])  # the node a matching image becomes
        except ModelError as exc:
            raise ValueError("bad image catalog line %r: %s" % (raw, exc)) from None
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
