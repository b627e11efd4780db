"""File indexing and keyword search over a codebase snapshot.

The index reads every text file once, classifies it by filename, and keeps
one text per file plus, for Java, a comment-masked copy so searches do not
hit commented-out code.  Lines are offsets into that text.  Literal
searches run through _kernel.scan, and every search returns matches
ordered by (path, line, span).
"""
from __future__ import annotations

import os
import posixpath
import re
import stat
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from pathlib import Path

from . import _kernel

# Directories that never contain analyzable sources (VCS metadata and
# build output) and the size cap for individual files.
IGNORED_DIRS = frozenset({".git", ".hg", ".svn", "target", "build", "node_modules"})
MAX_FILE_BYTES = 2 * 1024 * 1024

_COMPOSE_RE = re.compile(r"^(docker-compose[^/]*|compose)\.ya?ml$")
_BUILD_NAMES = frozenset({"pom.xml", "build.gradle", "settings.gradle"})


def classify_path(rel_path: str) -> str:
    """Map a repository-relative path to a source language."""
    parts = rel_path.split("/")
    name = parts[-1].lower()
    if name.endswith(".java"):
        return "java"
    if name.startswith("dockerfile"):
        return "dockerfile"
    if _COMPOSE_RE.match(name):
        return "compose"
    if name in _BUILD_NAMES:
        return "build"
    if name.endswith(".properties"):
        return "properties"
    if name == ".env":
        return "env"
    if name.endswith((".yml", ".yaml")):
        if "application" in name or "bootstrap" in name or "resources" in parts[:-1]:
            return "yaml"
        return "other"
    return "other"


# One step of the masker: code up to the next // or /*.  It jumps whole
# text blocks (JLS 3.10.6), string literals and char literals, so comment
# markers inside them survive.  Strings and char literals end at a newline;
# a text block, whose escapes may span lines, runs to the end of the text
# when it is not closed.  Each alternative either always completes or, for
# the text block, loops until its own closer or the end, so a match never
# backtracks.  The repeat is bounded because the regex engine keeps state
# for every repetition of a group: unbounded, a long file without comments
# would hold tens of bytes per character while it is masked.
_JAVA_CODE = re.compile(
    r"(?:[^\"'/]+"
    r'|"""(?:[^"\\]+|\\[\s\S]?|"(?!""))*(?:"""|\Z)'
    r'|"(?:[^"\\\n]+|\\.)*"?'
    r"|'(?:[^'\\\n]+|\\.)*'?"
    r"|/(?![/*])){0,256}"
)


def mask_java_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line/column layout.

    String, char and text-block literals are honored so protocol strings
    like "http://host" survive.  Comment characters become spaces and
    newlines stay, which keeps every span in the masked text valid in the
    original text too.  An unterminated comment runs to the end of the text.
    """
    parts = []
    copied = pos = 0
    n = len(text)
    while pos < n:
        pos = _JAVA_CODE.match(text, pos).end()
        if text.startswith("//", pos):
            end = text.find("\n", pos)
            if end == -1:
                end = n
            blank = " " * (end - pos)
        elif text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            end = n if end == -1 else end + 2
            blank = "\n".join(" " * len(part) for part in text[pos:end].split("\n"))
        else:
            continue  # the end of the text, or the repeat bound
        parts += (text[copied:pos], blank)
        copied = pos = end
    if not parts:
        return text
    parts.append(text[copied:])
    return "".join(parts)


@dataclass
class IndexedFile:
    """One file of the snapshot.

    masked_text is the comment-masked copy of text for Java and text itself
    otherwise.  line_starts holds the offset of every line start; files are
    capped at MAX_FILE_BYTES, so 32-bit offsets are enough.
    """

    path: str
    language: str
    text: str = field(repr=False)
    masked_text: str = field(repr=False)
    line_starts: array = field(repr=False)

    def search_text(self, raw: bool = False) -> str:
        return self.text if raw else self.masked_text

    def line(self, index: int, masked: bool = False) -> str:
        """The 0-based line index of the text, without its newline."""
        text = self.masked_text if masked else self.text
        starts = self.line_starts
        end = starts[index + 1] - 1 if index + 1 < len(starts) else len(text)
        return text[starts[index] : end]


def _index_file(rel_path: str, content: str) -> IndexedFile:
    text = content.replace("\r\n", "\n")
    language = classify_path(rel_path)
    masked = mask_java_comments(text) if language == "java" else text
    lengths = list(map(len, text.split("\n")))
    # line i starts after the i previous lines and their newlines
    starts = array("I", map(add, accumulate(lengths, initial=0), range(len(lengths))))
    return IndexedFile(rel_path, language, text, masked, starts)


@dataclass
class FileIndex:
    root: Path
    files: list[IndexedFile]
    warnings: list[str] = field(default_factory=list)
    by_path: dict[str, IndexedFile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.by_path = {f.path: f for f in self.files}

    def of_language(self, *languages: str) -> list[IndexedFile]:
        wanted = set(languages)
        return [f for f in self.files if f.language in wanted]


def build_index(
    root: str | Path,
    ignored_dirs: frozenset[str] | set[str] = IGNORED_DIRS,
    max_bytes: int = MAX_FILE_BYTES,
) -> FileIndex:
    """Walk a directory tree and index every readable text file.

    Ignored directories are pruned; oversized and binary files, special
    files (FIFOs, devices, sockets), and symlinks whose target lies
    outside the root, are skipped; anything unreadable produces a warning
    instead of an error.
    """
    root = Path(root).resolve()
    inside = os.path.join(root, "")
    files: list[IndexedFile] = []
    warnings: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in ignored_dirs)
        for fn in sorted(filenames):
            p = Path(dirpath) / fn
            rel = p.relative_to(root).as_posix()
            try:
                st = p.lstat()
                if stat.S_ISLNK(st.st_mode):
                    if not os.path.realpath(p).startswith(inside):
                        warnings.append("skipped %s: symlink outside root" % rel)
                        continue
                    st = p.stat()
                size = st.st_size
            except OSError as exc:
                warnings.append("skipped %s: %s" % (rel, exc))
                continue
            if not stat.S_ISREG(st.st_mode):
                # reading a FIFO or a device can block or never end
                warnings.append("skipped %s: not a regular file" % rel)
                continue
            if size > max_bytes:
                warnings.append("skipped %s: %d bytes over limit" % (rel, size))
                continue
            try:
                data = p.read_bytes()
            except OSError as exc:
                warnings.append("skipped %s: %s" % (rel, exc))
                continue
            if b"\x00" in data[:8192]:
                warnings.append("skipped %s: binary" % rel)
                continue
            files.append(_index_file(rel, data.decode("utf-8", errors="replace")))
    files.sort(key=lambda f: f.path)
    return FileIndex(root=root, files=files, warnings=warnings)


def snapshot_line(root: str | Path, rel_path: str, line: int) -> str | None:
    """Re-read one line from disk with the same normalization as the index.

    line is 1-based.  Returns None when the file or line is gone, which a
    trace integrity check treats as a failure.
    """
    p = Path(root) / rel_path
    try:
        data = p.read_bytes()
    except OSError:
        return None
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n")
    lines = text.split("\n")
    if not 1 <= line <= len(lines):
        return None
    return lines[line - 1]


# ============================================================================
# Keyword search
# ============================================================================


@dataclass(frozen=True)
class Match:
    """One occurrence of a search pattern."""

    file: str
    line: int  # 1-based
    span: tuple[int, int]  # 0-based half-open columns
    text: str
    line_text: str


def _scan_files(files: list[IndexedFile], keyword: str, raw: bool = False) -> list[Match]:
    """Every literal occurrence of keyword in the files, as matches."""
    out: list[Match] = []
    for f in files:
        # called through the module so a tracer that wraps _kernel.scan sees it
        for li, s, e in _kernel.scan(f.search_text(raw), keyword, f.line_starts):
            out.append(Match(f.path, li + 1, (s, e), keyword, f.line(li)))
    return out


def find_keyword(
    index: FileIndex,
    pattern: str | re.Pattern,
    languages=None,
    regex: bool = False,
    raw: bool = False,
) -> list[Match]:
    """Search the index for a literal keyword or a regular expression.

    Literal search is case-sensitive and may return overlapping matches.
    raw=True searches original text even where comments are masked.
    A malformed pattern with regex=True raises re.error.
    """
    if isinstance(pattern, re.Pattern):
        rx = pattern
    elif regex:
        rx = re.compile(pattern)
    else:
        rx = None
    files = index.files if languages is None else index.of_language(*languages)
    if rx is None:
        return _scan_files(files, pattern, raw)
    out: list[Match] = []
    for f in files:
        for li, line in enumerate(f.search_text(raw).split("\n")):
            for m in rx.finditer(line):
                if m.start() == m.end():
                    continue
                out.append(Match(f.path, li + 1, m.span(), m.group(0), f.line(li)))
    return out


# ============================================================================
# Iterative (snowballing) search
# ============================================================================


@dataclass
class EvidenceChain:
    """A seed match plus the follow-up matches that substantiate it.

    A chain holds one to three matches: the seed, an optional member-usage
    or definition hit, and an optional final resolution hit.
    """

    matches: list[Match]
    extracted_identifier: str
    resolved: bool
    resolved_value: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.matches) <= 3:
            raise ValueError("evidence chain must hold 1 to 3 matches")

    @property
    def seed(self) -> Match:
        return self.matches[0]

    @property
    def last(self) -> Match:
        return self.matches[-1]


@dataclass(frozen=True)
class CrossFileHit:
    """Result of resolving a dotted identifier in another file."""

    file: str
    remainder: str
    match: Match
    value: str | None


_QUOTED_DEF = re.compile(r"=\s*\"([^\"]*)\"")


def resolve_cross_file(
    index: FileIndex, dotted: str, origin_path: str
) -> CrossFileHit | None:
    """Resolve Stem.MEMBER by finding MEMBER inside Stem.java.

    Files in the origin's directory win over same-named files elsewhere.
    When the member's line assigns a string literal, that literal comes back
    as the resolved value.
    """
    stem, dot, remainder = dotted.partition(".")
    if not dot or not stem or not remainder:
        return None
    target_name = stem + ".java"
    origin_dir = posixpath.dirname(origin_path)
    candidates = [
        f
        for f in index.files
        if f.language == "java"
        and posixpath.basename(f.path) == target_name
        and f.path != origin_path
    ]
    if not candidates:
        return None
    candidates.sort(
        key=lambda f: (0 if posixpath.dirname(f.path) == origin_dir else 1, f.path)
    )
    target = candidates[0]
    member = remainder.partition(".")[0]
    first: Match | None = None
    for hit in _scan_files([target], member):
        if first is None:
            first = hit
        tail = target.line(hit.line - 1, masked=True)[hit.span[1] :]
        m = _QUOTED_DEF.search(tail)
        if m:
            return CrossFileHit(target.path, remainder, hit, m.group(1))
    if first is None:
        return None
    return CrossFileHit(target.path, remainder, first, None)


_ENV_SHAPE = re.compile(r"^\$\{([^}:]+)(?::([^}]*))?\}$")


def _resolve_env(
    index: FileIndex, expr: str, origin_path: str
) -> tuple[str | None, Match | None]:
    shaped = _ENV_SHAPE.match(expr.strip())
    if not shaped:
        return None, None
    name = shaped.group(1).strip()
    default = shaped.group(2)
    # nearest .env wins, walking up from the origin file's directory
    d = posixpath.dirname(origin_path)
    dirs = []
    while True:
        dirs.append(d)
        if not d:
            break
        d = posixpath.dirname(d)
    for d in dirs:
        env_path = posixpath.join(d, ".env") if d else ".env"
        f = index.by_path.get(env_path)
        if f is None:
            continue
        for li, line in enumerate(f.text.split("\n")):
            stripped = line.strip()
            if not stripped or stripped.startswith("#") or "=" not in stripped:
                continue
            key, _, value = stripped.partition("=")
            if key.strip() == name:
                vstart = line.index("=") + 1
                while vstart < len(line) and line[vstart] == " ":
                    vstart += 1
                hit = Match(f.path, li + 1, (vstart, len(line.rstrip())), value.strip(), line)
                return value.strip().strip("\"'"), hit
    if default is not None:
        return default, None
    return None, None


def resolve_env_var(index: FileIndex, expr: str, origin_path: str) -> str | None:
    """Resolve a ${NAME} or ${NAME:default} expression via .env lookup."""
    value, _ = _resolve_env(index, expr, origin_path)
    return value


def iterative_search(
    index: FileIndex,
    seed: str | re.Pattern,
    extract,
    follow: list[str],
    languages=("java",),
    regex: bool = False,
    raw: bool = False,
) -> list[EvidenceChain]:
    """Snowballing search: seed keyword, extract identifier, chase members.

    extract is either a callable taking a Match and returning zero or more
    identifier strings, or a regex applied to the matched line whose capture
    groups are the identifiers.  For each identifier the search tries
    identifier.member in the same file for every member in follow, then a
    cross-file jump for dotted identifiers, then .env resolution for
    ${...}-shaped ones.  Unresolvable candidates come back with
    resolved=False so no evidence is silently dropped.
    """
    chains: list[EvidenceChain] = []
    for m in find_keyword(index, seed, languages=languages, regex=regex, raw=raw):
        idents = _apply_extract(extract, m)
        if not idents:
            chains.append(EvidenceChain([m], "", False))
            continue
        for ident in idents:
            chains.extend(_resolve_ident(index, m, ident, follow, raw))
    return chains


def _apply_extract(extract, match: Match) -> list[str]:
    if callable(extract):
        res = extract(match)
    else:
        res = [
            g
            for mm in re.finditer(extract, match.line_text)
            for g in mm.groups()
            if g
        ]
    if res is None:
        return []
    if isinstance(res, str):
        return [res]
    return [r for r in res if r]


def _resolve_ident(
    index: FileIndex, seed_match: Match, ident: str, follow, raw: bool
) -> list[EvidenceChain]:
    f = index.by_path[seed_match.file]
    out: list[EvidenceChain] = []
    for member in follow:
        for hit in _scan_files([f], "%s.%s" % (ident, member), raw):
            if hit.line == seed_match.line and hit.span == seed_match.span:
                continue
            out.append(EvidenceChain([seed_match, hit], ident, True))
    if out:
        return out
    if "." in ident:
        cross = resolve_cross_file(index, ident, seed_match.file)
        if cross is not None:
            return [
                EvidenceChain(
                    [seed_match, cross.match], ident, True, resolved_value=cross.value
                )
            ]
    if ident.startswith("${"):
        value, hit = _resolve_env(index, ident, seed_match.file)
        if value is not None:
            matches = [seed_match, hit] if hit else [seed_match]
            return [EvidenceChain(matches, ident, True, resolved_value=value)]
    return [EvidenceChain([seed_match], ident, False)]
