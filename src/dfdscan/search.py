"""File indexing and keyword search over a codebase snapshot.

The index reads every text file once, classifies it by filename, and keeps
one text per file and, for Java, the [start, end) offsets of every
comment, so searches do not hit commented-out code.  A file's line table,
the offset of every line start, is built only when a reader first asks
for a line, and then kept; a literal hit needs none, because the scan
counts lines as it goes.  An index built raw keeps no comment offsets, so
every reader of it sees the original text: masking is decided once, when
the index is built.  Masked text is never stored: a literal search scans the
text and skips hits that touch a comment, and every other reader blanks
the slice it needs on demand.  Literal searches run through _kernel.scan
unless the index's token vocabulary shows the keyword cannot occur in the
files it read fresh, and every search returns its hits as TraceEntry
evidence ordered by (path, line, span), each snippet the original text at
the span; the index keeps none of them (see extractors.base.Context.hits).

A process keeps a bounded memo of the roots it indexed last.  When it
indexes such a root again, as a service worker does for a tree sent back
with a few files changed, every file is still walked, checked and read,
and the memoized entry of a file (its mask and, if built, its line table
included) is reused only when its text equals the text just read.  A
reused entry also keeps what later analyses derive from its text alone:
its literal hits and its parses (see memoized).  So an unchanged file is
neither masked, tokenized, parsed nor scanned again for a keyword.
"""
from __future__ import annotations

import functools
import os
import posixpath
import re
import stat
from array import array
from bisect import bisect_right
from collections import OrderedDict
from itertools import accumulate
from operator import add, attrgetter
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


class IndexedFile:
    """One file of the snapshot, and the maker of its evidence (trace).

    Only a literal hit of a keyword without a space is made without it,
    in scan_files: the text at its span is the keyword.

    comments is the comment mask of a Java file in a masked index (see
    mask_java_comments), and empty otherwise; the masked text is not
    stored.  line_starts holds the offset of every line start; it is built
    on its first use (line, trace and the readers that cut the text by
    lines) and kept with the entry, so most files of a tree never build
    one.  Files are capped at MAX_FILE_BYTES, so 32-bit offsets are
    enough.  An entry may outlive its index in the process's memo of
    recent roots, which hands it to a later index of the same root while
    its text is unchanged.  memo stays None until then.  From that reuse
    on it keeps what is derived from the text and the mask alone: the hits
    of every literal keyword searched in the file, as trace entries (()
    for none), under the keyword, and each parse of it, under the parser
    (see memoized).
    """

    __slots__ = ("path", "language", "text", "comments", "memo", "_line_starts")

    def __init__(self, path: str, language: str, text: str, comments: array) -> None:
        self.path = path
        self.language = language
        self.text = text
        self.comments = comments
        self.memo: dict | None = None
        self._line_starts: array | None = None

    @property
    def line_starts(self) -> array:
        """The offset of every line start, built on first use and kept."""
        starts = self._line_starts
        if starts is None:
            lengths = list(map(len, self.text.split("\n")))
            # line i starts after the i previous lines and their newlines
            starts = array("I", map(add, accumulate(lengths, initial=0), range(len(lengths))))
            self._line_starts = starts
        return starts

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

    def trace(self, index: int, start: int, end: int) -> TraceEntry:
        """The evidence at columns [start, end) of the 0-based line index.

        Its snippet is the text at the span cut at the line's end, so it
        never holds the newline.  A line past the last, as a YAML mark can
        give (libyaml also ends lines at NEL, U+2028 and U+2029), has none.
        """
        snippet = self.line(index)[start:end] if index < len(self.line_starts) else ""
        return TraceEntry(self.path, index + 1, (start, end), snippet)


def memoized(derive):
    """derive(file), kept in the file's memo from the file's first reuse on.

    Until a later index reuses an entry its memo is None, so a one-shot run
    derives every value afresh and keeps none.  A result, None included, is
    kept under derive; an exception is not, so it is raised again on the
    next call.  Callers must not change what they get.
    """

    @functools.wraps(derive)
    def kept(file: IndexedFile):
        memo = file.memo
        if memo is None:
            return derive(file)
        try:
            return memo[derive]
        except KeyError:
            value = memo[derive] = derive(file)
            return value

    return kept


def normalize_newlines(text: str) -> str:
    """Map CRLF and lone CR line ends to LF.

    Java source, properties and YAML all end a line at a lone CR, so line
    numbers and line-bound parsing agree with theirs.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _index_file(rel_path: str, content: str, raw: bool = False) -> IndexedFile:
    return _index_text(rel_path, normalize_newlines(content), raw)


def _index_text(rel_path: str, text: str, raw: bool) -> IndexedFile:
    language = classify_path(rel_path)
    comments = mask_java_comments(text) if language == "java" and not raw else _NO_COMMENTS
    return IndexedFile(rel_path, language, text, comments)


# Texts are tokenised in slices of about this many characters, each cut at
# a whitespace character, so the token list of one slice stays small.
_VOCAB_SLICE = 64 * 1024
_SPACE = re.compile(r"\s")  # the characters str.split() splits at


class FileIndex:
    """The indexed files plus what literal searches learn about them.

    Each set of languages searched gets its file list and, built on first
    use, its vocabulary: the distinct whitespace-separated tokens of the
    searched texts the index read fresh, outside their comment masks,
    joined by newlines; a reused file answers from the hits it keeps, so
    the reused files are listed with the vocabulary.
    The counters say how many literal searches ran and how many the
    vocabulary answered; reused, how many files the memo gave unchanged.
    Java files are also listed by file name for cross-file resolution.
    """

    def __init__(self, root: Path, files: list[IndexedFile], warnings: list[str], reused: int) -> None:
        self.root = root
        self.files = files
        self.warnings = warnings
        self.reused = reused
        self.by_path = {f.path: f for f in files}
        self.literal_searches = 0
        self.vocabulary_skips = 0
        self._lists: dict = {}
        self._vocabularies: dict = {}
        self._reused: dict = {}
        self._java_named: dict = {}
        for f in files:
            if f.language == "java":
                self._java_named.setdefault(f.path.rpartition("/")[2], []).append(f)

    def of_language(self, *languages: str) -> list[IndexedFile]:
        """The files of the languages: the index's own list, not to be changed."""
        return self._files(frozenset(languages))

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
            reused = self._reused[wanted] = []
            for f in self._files(wanted):
                if f.memo is not None:
                    reused.append(f)
                else:  # the tokens between its comments
                    bounds = iter(f.comments)
                    start = 0
                    for stop, after in zip(bounds, bounds):
                        _add_tokens(tokens, f.text, start, stop)
                        start = after
                    _add_tokens(tokens, f.text, start, len(f.text))
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


class _Skip(Exception):
    """A file the index does not read, and why."""


def _read(entry: os.DirEntry, inside: str) -> bytes:
    """The bytes of a listed file, or _Skip with the reason it is not read.

    A symlink is read only when its target lies inside the root.  The
    listing tells a regular file from a special one without a stat, and
    the opened file's own stat gives its size.  A file that grew since
    then is read on, but never past MAX_FILE_BYTES + 1 bytes.  OSError
    when the file cannot be read.
    """
    p = entry.path
    if entry.is_symlink():
        if not os.path.realpath(p).startswith(inside):
            raise _Skip("symlink outside root")
        regular = stat.S_ISREG(os.stat(p).st_mode)
    else:
        regular = entry.is_file(follow_symlinks=False)
    if not regular:
        # reading a FIFO or a device can block or never end
        raise _Skip("not a regular file")
    fd = os.open(p, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        if size > MAX_FILE_BYTES:
            raise _Skip("%d bytes over limit" % size)
        data = os.read(fd, size + 1)
        while size < len(data) <= MAX_FILE_BYTES and (more := os.read(fd, MAX_FILE_BYTES + 1 - len(data))):
            data += more
        if len(data) > MAX_FILE_BYTES:
            raise _Skip("%d bytes over limit" % len(data))
        return data
    finally:
        os.close(fd)


def build_index(root: str | Path, raw: bool = False) -> FileIndex:
    """Walk a directory tree and index every readable text file.

    Java comments are masked unless raw: a raw index keeps no masks, so
    its searches and readers see comments as code, as the originally
    published tool did.  Ignored directories are pruned; binary files,
    files over MAX_FILE_BYTES, special files (FIFOs, devices, sockets),
    and symlinks whose target lies outside the root, are skipped;
    anything unreadable produces a warning instead of an error.  A tree
    whose walk reaches more than MAX_TREE_FILES files, or whose files to
    read hold more than MAX_TREE_BYTES, raises AnalysisError.  A
    directory that cannot be listed is skipped with a warning, as an
    unreadable file is; a symlink
    to a directory is not followed.  A file whose text equals that of the
    memo's last index of (root, raw) keeps that index's entry.
    """
    root = Path(root).resolve()
    inside = os.path.join(root, "")
    key = (root, raw)
    previous = _memo.get(key, ({},))[0]
    files: list[IndexedFile] = []
    warnings: list[str] = []
    reached = total = reused = chars = 0
    # (directory, its path relative to root with a trailing slash) still
    # to list, the next one last: a directory's own files come before its
    # subdirectories', which are listed in name order
    pending = [(inside, "")]
    while pending:
        path, rel_dir = pending.pop()
        try:
            with os.scandir(path) as listing:
                entries = sorted(listing, key=attrgetter("name"))
        except OSError as exc:
            warnings.append("skipped %s: %s" % (rel_dir[:-1] or ".", exc))
            continue
        file_entries = []
        subdirs = []
        for entry in entries:
            try:
                is_dir = entry.is_dir()  # a symlink to a directory is neither walked nor read
            except OSError:
                is_dir = False
            if not is_dir:
                file_entries.append(entry)
            elif entry.name not in IGNORED_DIRS and entry.is_dir(follow_symlinks=False):
                subdirs.append(entry)
        reached += len(file_entries)
        if reached > MAX_TREE_FILES:
            raise AnalysisError("%s holds more than %d files; not indexed" % (root, MAX_TREE_FILES))
        pending += [(d.path, rel_dir + d.name + "/") for d in reversed(subdirs)]
        for entry in file_entries:
            rel = rel_dir + entry.name
            try:
                data = _read(entry, inside)
            except (OSError, _Skip) as exc:
                warnings.append("skipped %s: %s" % (rel, exc))
                continue
            total += len(data)
            if total > MAX_TREE_BYTES:
                raise AnalysisError("%s holds more than %d bytes of files; not indexed" % (root, MAX_TREE_BYTES))
            if b"\x00" in data[:8192]:
                warnings.append("skipped %s: binary" % rel)
                continue
            text = normalize_newlines(data.decode("utf-8", errors="replace"))
            chars += len(text)
            f = previous.get(rel)
            if f is not None and f.text == text:
                if f.memo is None:
                    f.memo = {}
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
    the kernel scans the text and skips the comments, and the text at each
    hit is the keyword, which is taken as its snippet without reading the
    line.  A keyword with a space could match blanks and is scanned in the
    masked text, built for the file.  A file reused from the memo of recent
    roots keeps its hits per keyword, so it is scanned once for each.
    """
    spaced = " " in keyword
    out: list[TraceEntry] = []
    for f in files:
        memo = f.memo
        found = None if memo is None else memo.get(keyword)
        if found is None:
            if spaced:
                text, skip = f.search_text(), _NO_COMMENTS
            else:
                text, skip = f.text, f.comments
            # called through the module so a tracer that wraps _kernel.scan sees it
            hits = _kernel.scan(text, keyword, skip)
            if not hits:
                found = ()
            elif spaced:
                found = [f.trace(li, s, e) for li, s, e in hits]
            else:
                path = f.path
                found = [TraceEntry(path, li + 1, (s, e), keyword) for li, s, e in hits]
            if memo is not None:
                found = memo[keyword] = tuple(found)
        out += found
    return out


def _find_literal(index: FileIndex, keyword: str, wanted) -> list[TraceEntry]:
    """The matches of keyword in the wanted languages' files, a new list."""
    index.literal_searches += 1
    files = index._files(wanted)
    # a keyword without whitespace can only occur inside one token
    if keyword.split() == [keyword] and keyword not in index._vocabulary(wanted):
        index.vocabulary_skips += 1
        # the vocabulary covers the files it found without a memo, and a memo
        # is never dropped: only reused files are left, and they keep their hits
        files = index._reused[wanted]
    return scan_files(files, keyword)


def find_keyword(
    index: FileIndex,
    pattern: str,
    languages=None,
    regex: bool = False,
) -> list[TraceEntry]:
    """Search the index for a literal keyword or a regular expression.

    Literal search is case-sensitive and may return overlapping matches;
    a keyword absent from the index's vocabulary is sought only in reused files.
    The index keeps no results: a repeated search runs again.  Hits in
    comments are skipped where the index masks them.
    A malformed pattern with regex=True raises re.error.
    """
    wanted = None if languages is None else frozenset(languages)
    if not regex:
        return _find_literal(index, pattern, wanted)
    rx = re.compile(pattern)
    out: list[TraceEntry] = []
    for f in index._files(wanted):
        for li, line in enumerate(f.search_text().split("\n")):
            for m in rx.finditer(line):
                if m.start() == m.end():
                    continue
                out.append(f.trace(li, *m.span()))
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
                    return unquoted, f.trace(li, start, len(line.rstrip()))
        if not d:
            return None
        d = posixpath.dirname(d)

