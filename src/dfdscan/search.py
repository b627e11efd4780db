"""File indexing and keyword search over a codebase snapshot.

The index reads every text file once, classifies it by filename, and keeps
one text per file, the offset of every line start and, for Java, the
[start, end) offsets of every comment, so searches do not hit
commented-out code.  An index built raw keeps no comment offsets, so every
reader of it sees the original text: masking is decided once, when the
index is built.  Masked text is never stored: a literal search scans the
text and skips hits that touch a comment, and every other reader blanks
the slice it needs on demand.  Literal searches run through _kernel.scan
unless the index's token vocabulary shows the keyword cannot occur, small
results are cached on the index, and every search returns its hits as
TraceEntry evidence ordered by (path, line, span), each snippet the
original text at the span.

A process keeps a bounded memo of the roots it indexed last.  When it
indexes such a root again, as a service worker does for a tree sent back
with a few files changed, every file is still walked, checked and read,
and the memoized entry of a file (its mask and line table included) is
reused only when its text equals the text just read.  A reused entry also
keeps the literal hits found in it, so an unchanged file is neither
masked nor scanned again for a keyword.
"""
from __future__ import annotations

import os
import posixpath
import re
import stat
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from pathlib import Path

from . import _kernel
from .model import TraceEntry

# Directories that never contain analyzable sources (VCS metadata and
# build output) and the size cap for individual files.
IGNORED_DIRS = frozenset({".git", ".hg", ".svn", "target", "build", "node_modules"})
MAX_FILE_BYTES = 2 * 1024 * 1024

# The budget of one tree: the files its walk reaches and the bytes of the
# files it reads.  A tree over either is refused, never indexed in part.
MAX_TREE_FILES = 100_000
MAX_TREE_BYTES = 256 * 1024 * 1024

# Characters of text the memo of recently indexed roots holds in all; the
# least recently indexed root goes first, and a larger root is not kept.
_MEMO_CHARS = 1 << 21
# (root, raw) -> ({path: IndexedFile}, characters), least recently indexed first
_memo: OrderedDict = OrderedDict()


class AnalysisError(Exception):
    """An input that cannot be analyzed, such as a tree over its budget."""

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


def mask_java_comments(text: str) -> array:
    """The comment mask of Java text: where its // and /* */ comments lie.

    Returns the [start, end) offsets of every comment, flat and in order
    (start0, end0, start1, end1, ...).  A // comment ends before its
    newline; an unterminated comment runs to the end of the text.  String,
    char and text-block literals are honored, so protocol strings like
    "http://host" are not comments.  blank_comments applies the mask.
    """
    spans = array("I")
    pos = 0
    n = len(text)
    while pos < n:
        pos = _JAVA_CODE.match(text, pos).end()
        if text.startswith("//", pos):
            end = text.find("\n", pos)
            if end == -1:
                end = n
        elif text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            end = n if end == -1 else end + 2
        else:
            continue  # the end of the text, or the repeat bound
        spans.append(pos)
        spans.append(end)
        pos = end
    return spans


def blank_comments(text: str, comments: array, start: int = 0, end: int | None = None) -> str:
    """text[start:end] with the comment characters in it turned to spaces.

    comments is a mask from mask_java_comments.  Newlines stay, so line and
    column layout is kept and a span in the result is valid in text too.
    """
    end = len(text) if end is None else end
    i = bisect_right(comments, start) & ~1  # the first comment ending after start
    parts = []
    copied = start
    while i < len(comments) and comments[i] < end:
        lo = max(comments[i], start)
        hi = min(comments[i + 1], end)
        parts += (text[copied:lo], "\n".join(" " * len(part) for part in text[lo:hi].split("\n")))
        copied = hi
        i += 2
    parts.append(text[copied:end])
    return "".join(parts)


_NO_COMMENTS = array("I")


@dataclass(slots=True)
class IndexedFile:
    """One file of the snapshot.

    comments is the comment mask of a Java file in a masked index (see
    mask_java_comments), and empty otherwise; the masked text is not
    stored.  line_starts holds the offset of every line start; files are
    capped at MAX_FILE_BYTES, so 32-bit offsets are enough.  An entry may
    outlive its index in the process's memo of recent roots, which hands
    it to a later index of the same root while its text is unchanged.
    hits stays None until then; from that reuse on, scan_files keeps in it
    the kernel's hits of every literal keyword searched in the file.
    """

    path: str
    language: str
    text: str = field(repr=False)
    line_starts: array = field(repr=False)
    comments: array = field(repr=False)
    hits: dict | None = field(default=None, repr=False, compare=False)

    def search_text(self, start: int = 0, end: int | None = None) -> str:
        """text[start:end], with the comments of the mask blanked.

        This is how every reader gets masked text: it is built on demand
        and only for the slice asked for.  Without a mask it is the text.
        """
        return blank_comments(self.text, self.comments, start, end)

    def line(self, index: int, masked: bool = False) -> str:
        """The 0-based line index of the text, without its newline;
        its comments blanked when masked."""
        starts = self.line_starts
        end = starts[index + 1] - 1 if index + 1 < len(starts) else len(self.text)
        return self.search_text(starts[index], end) if masked else self.text[starts[index] : end]


def normalize_newlines(text: str) -> str:
    """Map CRLF and lone CR line ends to LF.

    Java source, properties and YAML all end a line at a lone CR, so line
    numbers and line-bound parsing agree with theirs.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _index_file(rel_path: str, content: str, raw: bool = False) -> IndexedFile:
    return _index_text(rel_path, normalize_newlines(content), raw)


def _index_text(rel_path: str, text: str, raw: bool) -> IndexedFile:
    language = classify_path(rel_path)
    comments = mask_java_comments(text) if language == "java" and not raw else _NO_COMMENTS
    lengths = list(map(len, text.split("\n")))
    # line i starts after the i previous lines and their newlines
    starts = array("I", map(add, accumulate(lengths, initial=0), range(len(lengths))))
    return IndexedFile(rel_path, language, text, starts, comments)


# Texts are tokenised in slices of about this many characters, each cut at
# a whitespace character, so the token list of one slice stays small.
_VOCAB_SLICE = 64 * 1024
_SPACE = re.compile(r"\s")  # the characters str.split() splits at


@dataclass
class FileIndex:
    """The indexed files plus what literal searches learn about them.

    Each set of languages searched gets its file list and, built on first
    use, its vocabulary: the distinct whitespace-separated tokens of the
    searched texts outside their comment masks, joined by newlines.
    Literal results of at most _CACHED_MATCHES matches are cached per
    (keyword, languages); the counters say how searches were served, and
    reused how many files came unchanged from the memo of recent roots.
    Java files are also listed by file name for cross-file resolution.
    """

    root: Path
    files: list[IndexedFile]
    warnings: list[str] = field(default_factory=list)
    reused: int = 0
    by_path: dict[str, IndexedFile] = field(default_factory=dict)
    literal_searches: int = field(default=0, init=False)
    vocabulary_skips: int = field(default=0, init=False)
    cache_hits: int = field(default=0, init=False)
    _lists: dict = field(default_factory=dict, init=False, repr=False)
    _vocabularies: dict = field(default_factory=dict, init=False, repr=False)
    _results: dict = field(default_factory=dict, init=False, repr=False)
    _java_named: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_path = {f.path: f for f in self.files}
        for f in self.files:
            if f.language == "java":
                self._java_named.setdefault(f.path.rpartition("/")[2], []).append(f)

    def of_language(self, *languages: str) -> list[IndexedFile]:
        return list(self._files(frozenset(languages)))

    def _files(self, wanted: frozenset | None) -> list[IndexedFile]:
        files = self._lists.get(wanted)
        if files is None:
            files = self.files if wanted is None else [f for f in self.files if f.language in wanted]
            self._lists[wanted] = files
        return files

    def _vocabulary(self, wanted: frozenset | None) -> str:
        vocab = self._vocabularies.get(wanted)
        if vocab is None:
            tokens: set[str] = set()
            for f in self._files(wanted):
                # the tokens between comments are those of the masked text
                text = f.text
                bounds = iter(f.comments)
                start = 0
                for stop, after in zip(bounds, bounds):
                    _add_tokens(tokens, text, start, stop)
                    start = after
                _add_tokens(tokens, text, start, len(text))
            vocab = self._vocabularies[wanted] = "\n".join(tokens)
        return vocab


def _add_tokens(tokens: set[str], text: str, start: int, stop: int) -> None:
    """Add the tokens of text[start:stop], split in slices."""
    while start < stop:
        end = stop
        if start + _VOCAB_SLICE < stop:
            cut = _SPACE.search(text, start + _VOCAB_SLICE, stop)
            if cut:
                end = cut.start()
        tokens.update(text[start:end].split())
        start = end


def build_index(
    root: str | Path,
    max_bytes: int = MAX_FILE_BYTES,
    raw: bool = False,
) -> FileIndex:
    """Walk a directory tree and index every readable text file.

    Java comments are masked unless raw: a raw index keeps no masks, so
    its searches and readers see comments as code, as the originally
    published tool did.  Ignored directories are pruned; oversized and
    binary files, special files (FIFOs, devices, sockets), and symlinks
    whose target lies outside the root, are skipped; anything unreadable
    produces a warning instead of an error.  A tree whose walk reaches
    more than MAX_TREE_FILES files, or whose files to read hold more than
    MAX_TREE_BYTES, raises AnalysisError.  A file whose text equals that of
    the memo's last index of (root, raw) keeps that index's entry.
    """
    root = Path(root).resolve()
    inside = os.path.join(root, "")
    key = (root, raw)
    previous = _memo.get(key, ({},))[0]
    files: list[IndexedFile] = []
    warnings: list[str] = []
    reached = total = reused = chars = 0
    for dirpath, dirnames, filenames in os.walk(inside):
        reached += len(filenames)
        if reached > MAX_TREE_FILES:
            raise AnalysisError("%s holds more than %d files; not indexed" % (root, MAX_TREE_FILES))
        dirnames[:] = sorted(d for d in dirnames if d not in IGNORED_DIRS)
        # dirpath is inside joined with the relative directory
        rel_dir = os.path.join(dirpath, "")[len(inside) :].replace(os.sep, "/")
        for fn in sorted(filenames):
            p = os.path.join(dirpath, fn)
            rel = rel_dir + fn
            try:
                st = os.lstat(p)
                if stat.S_ISLNK(st.st_mode):
                    if not os.path.realpath(p).startswith(inside):
                        warnings.append("skipped %s: symlink outside root" % rel)
                        continue
                    st = os.stat(p)
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
            total += size
            if total > MAX_TREE_BYTES:
                raise AnalysisError("%s holds more than %d bytes of files; not indexed" % (root, MAX_TREE_BYTES))
            try:
                with open(p, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                warnings.append("skipped %s: %s" % (rel, exc))
                continue
            if b"\x00" in data[:8192]:
                warnings.append("skipped %s: binary" % rel)
                continue
            text = normalize_newlines(data.decode("utf-8", errors="replace"))
            chars += len(text)
            f = previous.get(rel)
            if f is not None and f.text == text:
                if f.hits is None:
                    f.hits = {}
                reused += 1
            else:
                f = _index_text(rel, text, raw)
            files.append(f)
    files.sort(key=lambda f: f.path)
    index = FileIndex(root=root, files=files, warnings=warnings, reused=reused)
    _remember(key, index.by_path, chars)
    return index


def _remember(key: tuple, by_path: dict[str, IndexedFile], chars: int) -> None:
    """Keep the files as the memo's index of key, within _MEMO_CHARS."""
    _memo.pop(key, None)
    if chars > _MEMO_CHARS:
        return
    _memo[key] = (by_path, chars)
    held = sum(n for _, n in _memo.values())
    while held > _MEMO_CHARS:
        held -= _memo.popitem(last=False)[1][1]


def snapshot_lines(root: str | Path, rel_path: str) -> list[str] | None:
    """Re-read a file's lines from disk with the same normalization as the
    index, so line n of the index is item n - 1.  None when the file cannot
    be read, which a trace integrity check treats as a failure."""
    try:
        with open(os.path.join(root, rel_path), "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return normalize_newlines(data.decode("utf-8", errors="replace")).split("\n")


# ============================================================================
# Keyword search
# ============================================================================


def scan_files(files: list[IndexedFile], keyword: str) -> list[TraceEntry]:
    """Every literal occurrence of keyword in the files, as trace entries.

    Masking turns comments into spaces and newlines, and a keyword holds no
    newline.  So unless it holds a space, a keyword occurs in the masked
    text exactly where it occurs in the text without touching a comment:
    the kernel scans the text and skips the comments.  A keyword with a
    space could match blanks and is scanned in the masked text, built for
    the file.  A file reused from the memo of recent roots keeps its hits
    per keyword, so it is scanned once for each.
    """
    spaced = " " in keyword
    out: list[TraceEntry] = []
    for f in files:
        hits = None if f.hits is None else f.hits.get(keyword)
        if hits is None:
            if spaced:
                text, skip = f.search_text(), _NO_COMMENTS
            else:
                text, skip = f.text, f.comments
            # called through the module so a tracer that wraps _kernel.scan sees it
            hits = _kernel.scan(text, keyword, f.line_starts, skip)
            if f.hits is not None:
                f.hits[keyword] = hits or ()
        for li, s, e in hits:
            out.append(_trace(f, li, s, e))
    return out


def _trace(f: IndexedFile, li: int, start: int, end: int) -> TraceEntry:
    """The evidence at columns [start, end) of line index li of f."""
    at = f.line_starts[li]
    return TraceEntry(f.path, li + 1, (start, end), f.text[at + start : at + end])


# Repeat searches in the built-in rules are for keywords with a handful of
# hits; a keyword with thousands (such as "http") is read once.  Caching
# only small results keeps the cache small, and a repeated large search
# costs one more scan.
_CACHED_MATCHES = 64


def _find_literal(index: FileIndex, keyword: str, wanted) -> list[TraceEntry]:
    """The matches of keyword in the wanted languages' files, cached on the
    index when few; the caller copies the list it returns."""
    index.literal_searches += 1
    key = (keyword, wanted)
    found = index._results.get(key)
    if found is not None:
        index.cache_hits += 1
        return found
    # a keyword without whitespace can only occur inside one token
    if keyword.split() == [keyword] and keyword not in index._vocabulary(wanted):
        index.vocabulary_skips += 1
        found = []
    else:
        found = scan_files(index._files(wanted), keyword)
    if len(found) <= _CACHED_MATCHES:
        index._results[key] = found
    return found


def find_keyword(
    index: FileIndex,
    pattern: str,
    languages=None,
    regex: bool = False,
) -> list[TraceEntry]:
    """Search the index for a literal keyword or a regular expression.

    Literal search is case-sensitive and may return overlapping matches;
    a keyword absent from the index's vocabulary is not scanned at all, and
    a repeated literal search with few matches is served from the index's
    cache.  Hits in comments are skipped where the index masks them.
    A malformed pattern with regex=True raises re.error.
    """
    wanted = None if languages is None else frozenset(languages)
    if not regex:
        return list(_find_literal(index, pattern, wanted))
    rx = re.compile(pattern)
    out: list[TraceEntry] = []
    for f in index._files(wanted):
        for li, line in enumerate(f.search_text().split("\n")):
            for m in rx.finditer(line):
                if m.start() == m.end():
                    continue
                out.append(_trace(f, li, *m.span()))
    return out


_STRING_ASSIGNMENT = re.compile(r"\s*=\s*\"([^\"]*)\"")


def string_constant(file: IndexedFile, name: str) -> tuple[TraceEntry, str] | None:
    """The first line of a Java file that assigns a string literal to name.

    Returns the trace of name on that line and the literal; None when no
    line does outside the comments the index masks.  name must be a whole identifier there, so
    OLD_NAME = "x" does not assign NAME.
    """
    for hit in scan_files([file], name):
        line = file.line(hit.line - 1, masked=True)
        start, end = hit.span
        if start and (line[start - 1].isalnum() or line[start - 1] in "_$"):
            continue
        m = _STRING_ASSIGNMENT.match(line, end)
        if m:
            return hit, m.group(1)
    return None


def resolve_cross_file(
    index: FileIndex, dotted: str, origin_path: str
) -> tuple[TraceEntry, str] | None:
    """Resolve Stem.MEMBER to the string literal Stem.java assigns MEMBER.

    Files in the origin's directory win over same-named files elsewhere.
    Returns the trace of the member on its assigning line and the literal,
    as string_constant does; None when Stem.java or the assignment is
    missing.
    """
    stem, dot, remainder = dotted.partition(".")
    if not dot or not stem or not remainder:
        return None
    origin_dir = posixpath.dirname(origin_path)
    candidates = [f for f in index._java_named.get(stem + ".java", ()) if f.path != origin_path]
    if not candidates:
        return None
    target = min(candidates, key=lambda f: (posixpath.dirname(f.path) != origin_dir, f.path))
    return string_constant(target, remainder.partition(".")[0])


def env_value(index: FileIndex, name: str, origin_path: str) -> tuple[str, TraceEntry] | None:
    """The value a .env file gives name, and the trace of that value.

    The nearest .env that sets name wins, walking up from the origin
    file's directory to the root.  Quotes around the value are dropped;
    the trace covers the value as written.  A line whose value is blank,
    or empty once its quotes are dropped, sets nothing.  None when no .env
    sets name.
    """
    d = posixpath.dirname(origin_path)
    while True:
        f = index.by_path.get(posixpath.join(d, ".env"))
        if f is not None:
            for li, line in enumerate(f.text.split("\n")):
                key, eq, value = line.partition("=")
                if not eq or key.strip() != name or line.lstrip().startswith("#"):
                    continue
                unquoted = value.strip().strip("\"'")
                if unquoted:
                    start = len(key) + 1 + len(value) - len(value.lstrip(" "))
                    end = len(line.rstrip())
                    return unquoted, TraceEntry(f.path, li + 1, (start, end), line[start:end])
        if not d:
            return None
        d = posixpath.dirname(d)

