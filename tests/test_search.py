"""File indexing, comment masking, keyword search, and the lookups of
constants and .env values."""

import os
import random
import re
import shutil
import threading
import tracemalloc

import pytest

from dfdscan import _kernel, parsers, search
from dfdscan.analysis import analyze_directory
from dfdscan.extractors.base import Context, resolve_text
from dfdscan.model import TraceEntry
from dfdscan.rules import load_rules
from dfdscan.search import (
    _SPACE,
    AnalysisError,
    blank_comments,
    build_index,
    classify_path,
    find_keyword,
    mask_java_comments,
    env_value,
    resolve_cross_file,
    snapshot_lines,
    string_constant,
)


def oracle_find(text, keyword):
    """Line/column hits computed by slicing, independent of the kernel."""
    hits = []
    for li, line in enumerate(text.split("\n")):
        pos = line.find(keyword)
        while pos != -1:
            hits.append((li + 1, pos, pos + len(keyword)))
            pos = line.find(keyword, pos + 1)
    return hits


# ----------------------------------------------------------------------
# path classification
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "path,language",
    [
        ("src/main/java/App.java", "java"),
        ("docker-compose.yml", "compose"),
        ("docker-compose.override.yaml", "compose"),
        ("compose.yml", "compose"),
        ("deploy/docker-compose.prod.yml", "compose"),
        ("Dockerfile", "dockerfile"),
        ("svc/Dockerfile", "dockerfile"),
        ("pom.xml", "build"),
        ("svc/pom.xml", "build"),
        ("build.gradle", "build"),
        ("settings.gradle", "build"),
        ("src/main/resources/application.yml", "yaml"),
        ("src/main/resources/bootstrap.yaml", "yaml"),
        ("config/application-dev.yml", "yaml"),
        ("src/main/resources/logback.yml", "yaml"),
        ("app.properties", "properties"),
        (".env", "env"),
        ("README.md", "other"),
        ("random.yml", "other"),
        ("notes.txt", "other"),
    ],
)
def test_classify_path(path, language):
    assert classify_path(path) == language


# ----------------------------------------------------------------------
# comment masking
# ----------------------------------------------------------------------


def oracle_mask(text):
    """The former per-character masker, run line by line.

    It is the reference for every input without a text block: strings and
    char literals end at a newline, a block comment runs on across lines.
    """
    masked = []
    in_block = False
    for line in text.split("\n"):
        out = list(line)
        i, n = 0, len(line)
        while i < n:
            if in_block:
                if line.startswith("*/", i):
                    out[i] = out[i + 1] = " "
                    i += 2
                    in_block = False
                else:
                    out[i] = " "
                    i += 1
                continue
            c = line[i]
            if c == '"' or c == "'":
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                    elif line[i] == quote:
                        i += 1
                        break
                    else:
                        i += 1
            elif c == "/" and line.startswith("//", i):
                for j in range(i, n):
                    out[j] = " "
                i = n
            elif c == "/" and line.startswith("/*", i):
                out[i] = out[i + 1] = " "
                i += 2
                in_block = True
            else:
                i += 1
        masked.append("".join(out))
    return "\n".join(masked)


def masked(text):
    """text with its comment mask applied."""
    return blank_comments(text, mask_java_comments(text))


def mask_lines(lines):
    return masked("\n".join(lines)).split("\n")


def test_mask_line_comment_preserves_columns():
    lines = ["int x = 1; // trailing comment"]
    masked = mask_lines(lines)
    assert masked[0].startswith("int x = 1; ")
    assert len(masked[0]) == len(lines[0])
    assert "comment" not in masked[0]


def test_mask_block_comment_across_lines():
    lines = ["a /* start", "middle", "end */ b"]
    masked = mask_lines(lines)
    assert masked[0].startswith("a ")
    assert "start" not in masked[0]
    assert masked[1].strip() == ""
    assert masked[2].endswith(" b")
    assert len(masked[1]) == len(lines[1])


def test_mask_ignores_comment_markers_inside_strings():
    lines = ['String url = "http://x"; // real comment']
    masked = mask_lines(lines)
    assert '"http://x"' in masked[0]
    assert "real comment" not in masked[0]


def test_mask_handles_escaped_quote():
    lines = ['String s = "a\\"b//c"; int y = 2; // gone']
    masked = mask_lines(lines)
    assert "int y = 2;" in masked[0]
    assert "gone" not in masked[0]


def test_mask_matches_the_per_character_oracle():
    rng = random.Random(378)
    pieces = ["/", "*", '"', "'", "\\", "\n", "a", " ", "//", "/*", "*/"]
    checked = 0
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(32)))
        if '"""' in text:
            continue
        assert masked(text) == oracle_mask(text), repr(text)
        checked += 1
    assert checked > 15000


TEXT_BLOCK_JAVA = """\
String query = \"\"\"
    see "http://x" and // not a comment
    \"\"\"; // real comment
int after = 1;
"""


def test_mask_keeps_text_block_content():
    result = masked(TEXT_BLOCK_JAVA)
    assert '"http://x" and // not a comment' in result
    assert "real comment" not in result
    assert "int after = 1;" in result
    assert len(result) == len(TEXT_BLOCK_JAVA)


@pytest.mark.parametrize("opener", ["/*", "/**"])
def test_mask_comment_opener_inside_text_block_swallows_nothing(opener):
    text = 'String h = """\n    %s generated\n    """;\n@FeignClient(name = "x")\n' % opener
    result = masked(text)
    assert opener + " generated" in result
    assert '@FeignClient(name = "x")' in result


def test_mask_escaped_quotes_do_not_close_a_text_block():
    text = 'String s = """\n  a \\""" // kept\n  """; // gone\n'
    result = masked(text)
    assert "// kept" in result
    assert "gone" not in result


def test_mask_unterminated_text_block_runs_to_the_end():
    text = 'String q = """\n  a // b\n  /* c\n'
    assert len(mask_java_comments(text)) == 0


TEXT_BLOCK_CASES = [
    TEXT_BLOCK_JAVA,
    'String h = """\n    /* generated\n    """;\n@FeignClient(name = "x")\n',
    'String h = """\n    /** generated\n    """;\n@FeignClient(name = "x")\n',
    'String s = """\n  a \\""" // kept\n  """; // gone\n',
    'String q = """\n  a // b\n  /* c\n',
    'a = """x""" /* c """ */ + "y" // """\n"""\n// z',
]


def fuzz_corpus():
    """The seeded inputs of the oracle test, text blocks included."""
    rng = random.Random(378)
    pieces = ["/", "*", '"', "'", "\\", "\n", "a", " ", "//", "/*", "*/"]
    return ["".join(rng.choice(pieces) for _ in range(rng.randrange(32))) for _ in range(20000)]


def test_mask_spans_are_ordered_comments():
    for text in fuzz_corpus() + TEXT_BLOCK_CASES:
        spans = list(mask_java_comments(text))
        assert spans == sorted(spans), repr(text)
        for start, end in zip(spans[::2], spans[1::2]):
            assert start < end <= len(text) and text.startswith(("//", "/*"), start), repr(text)
            if text.startswith("//", start):
                assert "\n" not in text[start:end] and text[end : end + 1] in ("", "\n"), repr(text)
            else:
                assert text[start + 2 : end].endswith("*/") or end == len(text), repr(text)


def test_blanking_any_slice_matches_the_masked_text():
    rng = random.Random(11)
    for text in fuzz_corpus()[:4000] + TEXT_BLOCK_CASES:
        spans = mask_java_comments(text)
        whole = blank_comments(text, spans)
        if '"""' not in text:
            assert whole == oracle_mask(text), repr(text)
        for _ in range(4):
            a = rng.randrange(len(text) + 1)
            b = rng.randrange(a, len(text) + 1)
            assert blank_comments(text, spans, a, b) == whole[a:b], (text, a, b)


def test_text_block_cases_mask_exactly():
    expected = [
        'String query = """\n    see "http://x" and // not a comment\n    """;' + " " * 16 + "\nint after = 1;\n",
        'String h = """\n    /* generated\n    """;\n@FeignClient(name = "x")\n',
        'String h = """\n    /** generated\n    """;\n@FeignClient(name = "x")\n',
        'String s = """\n  a \\""" // kept\n  """; ' + " " * 7 + "\n",
        'String q = """\n  a // b\n  /* c\n',
        # the last line opens a text block that is never closed
        'a = """x"""' + " " * 13 + '+ "y"' + " " * 7 + '\n"""\n// z',
    ]
    assert [masked(text) for text in TEXT_BLOCK_CASES] == expected


def test_mask_memory_stays_bounded_without_comments():
    unit = 'int a = 1; String s = "xy"; char c = \'/\'; b = a / 2;\n'
    text = unit * 4000
    tracemalloc.start()
    try:
        comments = mask_java_comments(text)
        result = blank_comments(text, comments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(comments) == 0 and result is text
    assert peak < len(text)


def test_mask_unterminated_comment_runs_to_the_end():
    text = "int a; /* open\nstill // comment\n end"
    assert masked(text) == "int a; " + " " * 7 + "\n" + " " * 16 + "\n" + " " * 4


# ----------------------------------------------------------------------
# indexing
# ----------------------------------------------------------------------


def make_tree(tmp_path, files):
    for rel, content in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            p.write_bytes(content)
        else:
            p.write_text(content, encoding="utf-8")
    return tmp_path


def test_build_index_prunes_and_skips(tmp_path):
    make_tree(
        tmp_path,
        {
            "svc/App.java": "class App {}\n",
            "target/Ignored.java": "class Ignored {}\n",
            ".git/config": "noise\n",
            "blob.bin": b"\x00\x01\x02",
            "compose.yml": "services: {}\n",
        },
    )
    idx = build_index(tmp_path)
    paths = [f.path for f in idx.files]
    assert "svc/App.java" in paths
    assert "compose.yml" in paths
    assert all("target/" not in p and ".git/" not in p for p in paths)
    assert "blob.bin" not in paths
    assert any("binary" in w for w in idx.warnings)


def test_build_index_size_limit(tmp_path, monkeypatch):
    make_tree(tmp_path, {"big.java": "x" * 100, "small.java": "y"})
    monkeypatch.setattr(search, "MAX_FILE_BYTES", 50)
    idx = build_index(tmp_path)
    paths = [f.path for f in idx.files]
    assert paths == ["small.java"]
    assert any("over limit" in w for w in idx.warnings)


def test_trace_is_the_evidence_at_a_span_cut_at_its_line_end():
    f = search._index_file("a.yml", "port:\nx: 1\nlast")
    assert f.trace(0, 5, 6) == TraceEntry("a.yml", 1, (5, 6), "")
    assert f.trace(1, 0, 4) == TraceEntry("a.yml", 2, (0, 4), "x: 1")
    assert f.trace(1, 3, 9) == TraceEntry("a.yml", 2, (3, 9), "1")
    assert f.trace(2, 1, 9) == TraceEntry("a.yml", 3, (1, 9), "ast")
    # a line past the last one, as a YAML mark can give, has no text
    assert f.trace(5, 1, 2) == TraceEntry("a.yml", 6, (1, 2), "")


def test_index_is_sorted_and_crlf_normalized(tmp_path):
    make_tree(tmp_path, {"b.java": "line1\r\nline2\rline3\r\r\n", "a.java": "x\n"})
    idx = build_index(tmp_path)
    assert [f.path for f in idx.files] == ["a.java", "b.java"]
    assert idx.by_path["b.java"].text == "line1\nline2\nline3\n\n"


def test_index_keeps_one_text_per_file(tmp_path):
    make_tree(tmp_path, {"App.java": "int a; // note\nint b;\n", "c.yml": "a: 1\nb: 2\n"})
    idx = build_index(tmp_path)
    java, yml = idx.by_path["App.java"], idx.by_path["c.yml"]
    assert yml.search_text() is yml.text and len(yml.comments) == 0
    assert java.search_text() == "int a;        \nint b;\n"
    assert list(java.comments) == [7, 14]
    assert list(java.line_starts) == [0, 15, 22]
    assert [java.line(i) for i in range(3)] == ["int a; // note", "int b;", ""]
    assert java.line(0, masked=True) == "int a;        "
    raw = build_index(tmp_path, raw=True).by_path["App.java"]
    assert len(raw.comments) == 0 and raw.search_text() == java.text
    assert raw.line(0, masked=True) == "int a; // note"


def test_masked_lines_are_lines_of_the_masked_text(tmp_path):
    texts = {"A%d.java" % i: text for i, text in enumerate(TEXT_BLOCK_CASES)}
    idx = build_index(make_tree(tmp_path, texts))
    for f in idx.files:
        lines = masked(f.text).split("\n")
        assert [f.line(i, masked=True) for i in range(len(lines))] == lines
        assert f.search_text() == masked(f.text)


def comment_heavy_tree(root, files=40):
    rng = random.Random(7)
    words = ["http", "@FeignClient", "getLogger", "x", "url", "=", "name", "0"]
    for i in range(files):
        out = []
        for _ in range(300):
            code = "int v%d = %d; " % (rng.randrange(99), rng.randrange(999))
            note = " ".join(rng.choice(words) for _ in range(6))
            out.append(rng.choice([code + "// " + note, "/* " + note + " */ " + code, code]))
        make_tree(root, {"svc/C%d.java" % i: "\n".join(out) + "\n"})
    return root


def test_index_holds_each_java_text_once(tmp_path):
    root = comment_heavy_tree(tmp_path)
    build_index(root)  # warm up caches that outlive the index
    search._memo.clear()  # or the index would reuse every entry of the last one
    tracemalloc.start()
    try:
        idx = build_index(root)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    chars = sum(len(f.text) for f in idx.files)
    comment_chars = sum(
        end - start for f in idx.files for start, end in zip(f.comments[::2], f.comments[1::2])
    )
    assert comment_chars > chars / 3
    # one text (1 byte per ASCII character) and comment spans; no line starts
    assert retained / chars <= 1.5


def test_build_index_skips_symlinks_that_leave_the_root(tmp_path):
    # a sibling whose name extends the root's must not count as inside it
    outside = make_tree(tmp_path / "repo-secrets", {"application.yml": "password: hunter2\n"})
    root = make_tree(tmp_path / "repo", {"svc/App.java": "class App {}\n", "svc/shared.yml": "a: 1\n"})
    (root / "svc" / "application.yml").symlink_to(outside / "application.yml")
    (root / "svc" / "bootstrap.yml").symlink_to("../../repo-secrets/application.yml")
    (root / "svc" / "alias.yml").symlink_to("shared.yml")
    idx = build_index(root)
    assert [f.path for f in idx.files] == ["svc/App.java", "svc/alias.yml", "svc/shared.yml"]
    assert idx.warnings == [
        "skipped svc/application.yml: symlink outside root",
        "skipped svc/bootstrap.yml: symlink outside root",
    ]
    assert all("hunter2" not in f.text for f in idx.files)


def test_build_index_skip_warnings_name_the_reason(tmp_path, monkeypatch):
    root = tmp_path.resolve()
    make_tree(root, {"big.java": "x" * 100, "blob.bin": b"\x00\x01", "ok.java": "y"})
    # running as root, chmod 000 would not stop the read: a dangling
    # symlink is the file that cannot be read
    (root / "gone.yml").symlink_to("missing.yml")
    monkeypatch.setattr(search, "MAX_FILE_BYTES", 50)
    idx = build_index(root)
    assert [f.path for f in idx.files] == ["ok.java"]
    assert idx.warnings == [
        "skipped big.java: 100 bytes over limit",
        "skipped blob.bin: binary",
        "skipped gone.yml: [Errno 2] No such file or directory: '%s'" % (root / "gone.yml"),
    ]


def test_a_file_that_grew_since_its_stat_is_read_only_up_to_the_cap(tmp_path, monkeypatch):
    root = make_tree(tmp_path, {"big.java": "x" * 10_000, "small.java": "y"})
    big = os.stat(root / "big.java").st_ino
    fstat, read, got = os.fstat, os.read, []

    def stale_fstat(fd):  # as if big.java had 10 bytes when it was opened
        st = fstat(fd)
        return os.stat_result(st[:6] + (10,) + st[7:10]) if st.st_ino == big else st

    def counted_read(fd, n):
        got.append(read(fd, n))
        return got[-1]

    monkeypatch.setattr(os, "fstat", stale_fstat)
    monkeypatch.setattr(os, "read", counted_read)
    monkeypatch.setattr(search, "MAX_FILE_BYTES", 50)
    idx = build_index(root)
    assert [f.path for f in idx.files] == ["small.java"]
    assert idx.warnings == ["skipped big.java: 51 bytes over limit"]
    assert sum(map(len, got)) == 51 + 1  # big.java up to the cap, and small.java


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_build_index_skips_special_files(tmp_path):
    # opening a FIFO for reading blocks until a writer appears, so the
    # index runs in a daemon thread: a regression fails instead of hanging
    root = make_tree(tmp_path.resolve(), {"svc/App.java": "class App {}\n"})
    os.mkfifo(root / "svc" / "pipe.yml")
    (root / "svc" / "alias.yml").symlink_to("pipe.yml")
    result = []
    worker = threading.Thread(target=lambda: result.append(build_index(root)), daemon=True)
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive():
        # give the blocked reader a writer so the thread can finish
        os.close(os.open(root / "svc" / "pipe.yml", os.O_WRONLY | os.O_NONBLOCK))
    assert not worker.is_alive() and result, "build_index blocked on a FIFO"
    idx = result[0]
    assert [f.path for f in idx.files] == ["svc/App.java"]
    assert idx.warnings == [
        "skipped svc/alias.yml: not a regular file",
        "skipped svc/pipe.yml: not a regular file",
    ]


def test_build_index_walk_keeps_paths_order_and_warnings(tmp_path):
    root = make_tree(
        tmp_path.resolve(),
        {
            "zeta/Z.java": "class Z {} // z\r\n",
            "données/Ünïcode.java": "class Ü {}\n",
            "données/application.yml": "clé: valeur\n",
            "a/target/Built.java": "class Built {}\n",
            "a/b/node_modules/dep.yml": "x: 1\n",
            "a/b/c/.git/config": "noise\n",
            "a/b/c/App.java": "class App {}\n",
            "a/blob.bin": b"\x00\x01",
            "outside/secret.yml": "password: hunter2\n",
        },
    )
    (root / "a" / "b" / "alias.yml").symlink_to("../../données/application.yml")
    (root / "a" / "b" / "escape.yml").symlink_to(tmp_path.parent / "nowhere.yml")
    # a directory symlink is listed by the walk but not followed
    (root / "linked").symlink_to("zeta", target_is_directory=True)
    idx = build_index(root)
    assert [(f.path, f.language) for f in idx.files] == [
        ("a/b/alias.yml", "other"),
        ("a/b/c/App.java", "java"),
        ("données/application.yml", "yaml"),
        ("données/Ünïcode.java", "java"),
        ("outside/secret.yml", "other"),
        ("zeta/Z.java", "java"),
    ]
    texts = {f.path: f.text for f in idx.files}
    assert texts["a/b/alias.yml"] == texts["données/application.yml"] == "clé: valeur\n"
    assert texts["données/Ünïcode.java"] == "class Ü {}\n"
    assert texts["zeta/Z.java"] == "class Z {} // z\n"
    assert idx.by_path["zeta/Z.java"].search_text() == "class Z {}     \n"
    # a directory's own files come before its subdirectories'
    assert idx.warnings == [
        "skipped a/blob.bin: binary",
        "skipped a/b/escape.yml: symlink outside root",
    ]


def test_an_unreadable_directory_is_skipped_with_a_warning(tmp_path, monkeypatch):
    # running as root, chmod 000 would not stop the listing: the listing
    # of chosen directories fails instead
    root = make_tree(
        tmp_path.resolve(),
        {"b.yml": "b: 1\n", "a/A.java": "class A {}\n", "a/blob.bin": b"\x00", "a/locked/L.java": "class L {}\n"},
    )
    refused = set()
    scandir = os.scandir

    def listing(path="."):
        if os.path.normpath(path) in refused:
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", listing)
    locked = os.path.join(root, "a", "locked")
    refused.add(locked)
    idx = build_index(root)
    assert [f.path for f in idx.files] == ["a/A.java", "b.yml"]
    assert idx.warnings == [
        "skipped a/blob.bin: binary",
        "skipped a/locked: [Errno 13] Permission denied: '%s'" % locked,
    ]
    refused.add(str(root))
    idx = build_index(root)
    assert idx.files == [] and idx.warnings == ["skipped .: [Errno 13] Permission denied: '%s/'" % root]


def test_tree_over_its_file_budget_is_refused(tmp_path, monkeypatch):
    root = make_tree(tmp_path, {"a.yml": "a: 1\n", "b/B.java": "class B {}\n", "b/target/T.java": "x"})
    monkeypatch.setattr(search, "MAX_TREE_FILES", 2)
    assert [f.path for f in build_index(root).files] == ["a.yml", "b/B.java"]
    make_tree(root, {"b/c.yml": "c: 1\n"})
    with pytest.raises(AnalysisError, match="more than 2 files"):
        build_index(root)


def test_tree_over_its_byte_budget_is_refused(tmp_path, monkeypatch):
    root = make_tree(tmp_path, {"a.yml": "a: 1\n", "B.java": "class B {}\n", "big.java": "x" * 100})
    monkeypatch.setattr(search, "MAX_TREE_BYTES", 16)
    monkeypatch.setattr(search, "MAX_FILE_BYTES", 50)
    # a file skipped over the per-file cap is not read, so it does not count
    assert [f.path for f in build_index(root).files] == ["B.java", "a.yml"]
    (root / "a.yml").write_text("a: 12\n", encoding="utf-8")
    with pytest.raises(AnalysisError, match="more than 16 bytes"):
        build_index(root)


# ----------------------------------------------------------------------
# the memo of recently indexed roots
# ----------------------------------------------------------------------


def test_an_unchanged_entry_is_reused_and_a_changed_one_is_not(tmp_path):
    root = make_tree(tmp_path, {"A.java": "int a; // x\n", "b.yml": "b: 1\n", "C.java": "int c;\n"})
    first = build_index(root)
    assert first.reused == 0 and all(f.memo is None for f in first.files)
    assert find_keyword(first, "int") and all(f.memo is None for f in first.files)
    make_tree(root, {"C.java": "int d;\n"})
    second = build_index(root)
    old, new = first.by_path, second.by_path
    assert new["A.java"] is old["A.java"] and new["b.yml"] is old["b.yml"]
    assert new["C.java"] is not old["C.java"] and new["C.java"].text == "int d;\n"
    assert second.reused == 2
    assert new["A.java"].memo == {} and new["C.java"].memo is None
    assert [m.snippet for m in find_keyword(second, "int d")] == ["int d"]


def line_starts_of(text):
    return [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]


def test_line_tables_are_built_on_first_use_and_kept_by_the_memo(tmp_path):
    root = make_tree(tmp_path, {"A.java": "int a; // x\nint b;\n", "b.yml": "b: 1\n\nc: 2", "C.java": "int c;"})
    first = build_index(root)
    assert all(f._line_starts is None for f in first.files)
    # a literal hit needs no table
    assert [(m.file, m.line) for m in find_keyword(first, "int")] == [("A.java", 1), ("A.java", 2), ("C.java", 1)]
    assert all(f._line_starts is None for f in first.files)
    a = first.by_path["A.java"]
    assert a.line(1) == "int b;"
    table = a.line_starts
    assert list(table) == line_starts_of(a.text) and a.line_starts is table
    assert first.by_path["b.yml"]._line_starts is None and first.by_path["C.java"]._line_starts is None
    # a warm index reuses the entry with its table
    second = build_index(root)
    assert second.by_path["A.java"] is a and a._line_starts is table
    assert second.by_path["b.yml"].trace(2, 0, 1) == TraceEntry("b.yml", 3, (0, 1), "c")
    assert list(second.by_path["b.yml"].line_starts) == [0, 5, 6]


def test_a_rewrite_that_keeps_size_and_mtime_is_reindexed(tmp_path):
    root = make_tree(tmp_path, {"A.java": "String u = \"http://a\";\n"})
    path = root / "A.java"
    before = os.stat(path)
    build_index(root)
    path.write_text("String u = \"http://b\";\n", encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    idx = build_index(root)
    assert idx.reused == 0 and idx.by_path["A.java"].text == "String u = \"http://b\";\n"
    assert [m.line for m in find_keyword(idx, "http://b")] == [1]


def test_deleted_files_leave_and_new_files_join_the_next_index(tmp_path):
    root = make_tree(tmp_path, {"A.java": "class A {}\n", "b/B.java": "class B {}\n"})
    build_index(root)
    (root / "b" / "B.java").unlink()
    make_tree(root, {"b/N.java": "class N {}\n"})
    idx = build_index(root)
    assert [f.path for f in idx.files] == ["A.java", "b/N.java"] and idx.reused == 1
    assert [m.file for m in find_keyword(idx, "class")] == ["A.java", "b/N.java"]


def test_a_memoized_file_swapped_for_an_escaping_symlink_is_skipped(tmp_path):
    outside = make_tree(tmp_path / "outside", {"App.java": "class Secret {}\n"})
    root = make_tree(tmp_path / "repo", {"App.java": "class App {}\n", "b.yml": "b: 1\n"})
    build_index(root)
    build_index(root)  # the entry now also holds a memo
    (root / "App.java").unlink()
    (root / "App.java").symlink_to(outside / "App.java")
    idx = build_index(root)
    assert [f.path for f in idx.files] == ["b.yml"]
    assert idx.warnings == ["skipped App.java: symlink outside root"]


def test_raw_and_masked_indexes_of_a_root_share_no_entry(tmp_path):
    root = make_tree(tmp_path, {"A.java": "int a; // note\n", "b.yml": "b: 1\n"})
    masked, raw = build_index(root), build_index(root, raw=True)
    again, raw_again = build_index(root), build_index(root, raw=True)
    assert again.reused == raw_again.reused == 2
    entries = {id(f) for f in masked.files} | {id(f) for f in again.files}
    assert entries.isdisjoint(id(f) for f in raw.files + raw_again.files)
    assert find_keyword(again, "note") == [] and len(find_keyword(raw_again, "note")) == 1


def test_the_memo_keeps_at_most_its_bound_least_recently_indexed_first(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_memo", search.OrderedDict())
    monkeypatch.setattr(search, "_MEMO_CHARS", 25)
    roots = [make_tree(tmp_path / n, {"A.java": "class %s {}\n" % n}) for n in ("p", "q", "r")]
    big = make_tree(tmp_path / "big", {"A.java": "x" * 26})
    p, q, r = roots  # 11 characters each: two fit
    for root in (p, q, p, r):
        build_index(root)
    assert list(search._memo) == [(p.resolve(), False), (r.resolve(), False)]
    assert build_index(q).reused == 0 and build_index(p).reused == 0
    assert build_index(big).reused == 0 and build_index(big).reused == 0
    assert (big.resolve(), False) not in search._memo
    assert build_index(p).reused == 1


MEMOIZED_PARSERS = {
    getattr(parsers, name).__wrapped__
    for name in (
        "parse_yaml_properties",
        "parse_properties_file",
        "parse_compose",
        "parse_dockerfile",
        "parse_maven_modules",
        "parse_maven_artifact_id",
        "parse_gradle_settings",
    )
}


def test_searches_of_a_reused_index_match_the_oracle_after_changes(tmp_path, monkeypatch):
    rng = random.Random(19)
    root = tmp_path / "t"
    keywords = {"kw", "Zuul", "@EnableZuul", "x//", "*/x", "kw x", "\u2028", "é="}
    for step in range(4):
        # every step rewrites one file, so later steps search entries
        # whose hits were kept by earlier ones
        names = NAMES if step == 0 else [NAMES[step]]
        files = {
            name: "".join(rng.choice(PIECES) for _ in range(rng.randrange(80))).encode("utf-8")
            for name in names
        }
        make_tree(root, files)
        for text in files.values():
            keywords.update(text.decode("utf-8").split()[:2])
        warm = assert_like_oracle(root, sorted(keywords))
        with monkeypatch.context() as m:
            m.setattr(search, "_memo", search.OrderedDict())  # a cold index; the warm memo stays
            cold = assert_like_oracle(root, sorted(keywords))
        for idx, cold_idx in zip(warm, cold):
            assert cold_idx.reused == 0 and all(f.memo is None for f in cold_idx.files)
            assert idx.literal_searches == cold_idx.literal_searches
            assert idx.vocabulary_skips >= cold_idx.vocabulary_skips  # a smaller vocabulary
            for languages in LANGUAGE_SETS:
                # the vocabulary holds the tokens of exactly the entries read fresh
                wanted = None if languages is None else frozenset(languages)
                fresh = set()
                for f in idx._files(wanted):
                    if f.memo is None:
                        fresh.update(f.search_text().split())
                assert set(idx._vocabulary(wanted).split("\n")) - {""} == fresh
            # a reused entry keeps the hits of searched keywords and parses, nothing else
            for f in idx.files:
                assert f.memo is None or set(f.memo) <= keywords | MEMOIZED_PARSERS
        if step:
            masked, raw = warm
            assert masked.reused == raw.reused == len(NAMES) - 1
            assert masked.vocabulary_skips > 0 and raw.vocabulary_skips > 0
            assert any(f.memo for f in masked.files) and any(f.memo for f in raw.files)


def test_a_vocabulary_skip_on_a_cold_index_scans_nothing(tmp_path, monkeypatch):
    root = make_tree(tmp_path, {"A.java": "class A {}\n", "b.yml": "x: 1\n"})
    search._memo.clear()
    idx = build_index(root)
    assert idx.reused == 0
    scanned = []
    monkeypatch.setattr(_kernel, "scan", lambda *args: scanned.append(args) or [])
    for languages in (None, ("java",), ("java",)):
        assert find_keyword(idx, "@LoadBalanced", languages) == []
    assert idx.vocabulary_skips == 3 and scanned == []
    assert idx._reused == {None: [], frozenset({"java"}): []}


def test_a_keyword_only_a_reused_entry_holds_is_found_from_its_kept_hits(tmp_path, monkeypatch):
    lb = "@LoadBalanced"
    a_java = "@LoadBalanced RestTemplate t;\n// @LoadBalanced old\n"
    root = make_tree(tmp_path, {"A.java": a_java, "B.java": "class B {}\n"})
    build_index(root)
    scanned = []
    scan = _kernel.scan

    def spy(text, keyword, *args):
        scanned.append((text, keyword))
        return scan(text, keyword, *args)

    monkeypatch.setattr(_kernel, "scan", spy)
    for step in range(3):
        # B changes at every step, so A is reused while no fresh file holds the keyword
        b_java = "class B%d {}\n" % step
        make_tree(root, {"B.java": b_java})
        idx = build_index(root)
        a = idx.by_path["A.java"]
        assert idx.reused == 1 and (a.memo == {}) == (step == 0)
        scanned.clear()
        found = find_keyword(idx, lb)
        again = find_keyword(idx, lb, ("java",))
        in_fresh = find_keyword(idx, "class")  # B holds it, so every file is searched
        # the first reuse scans A once for each keyword; later ones only the changed B
        if step == 0:
            assert scanned == [(a_java, lb), (a_java, "class"), (b_java, "class")]
        else:
            assert scanned == [(b_java, "class")]
        assert lb not in idx._vocabulary(None) and idx.vocabulary_skips == 2
        assert found == again == oracle_find_keyword(idx, lb)
        assert [(m.file, m.line, m.span, m.snippet) for m in found] == [("A.java", 1, (0, 13), lb)]
        assert in_fresh == oracle_find_keyword(idx, "class") and [m.file for m in in_fresh] == ["B.java"]


def test_a_one_shot_analysis_keeps_no_memo(tmp_path, miniapp_path):
    # a CLI run indexes a root once: its entries must not hold hits,
    # tokens or parses, which would only cost memory
    root = shutil.copytree(miniapp_path, tmp_path / "app")
    result = analyze_directory(root)
    assert result.index.reused == 0 and result.index.files
    assert all(f.memo is None for f in result.index.files)


def test_snapshot_line_round_trip(tmp_path):
    make_tree(tmp_path, {"f.yml": "one\r\ntwo\nthree\rfour\n"})
    assert snapshot_lines(tmp_path, "f.yml") == ["one", "two", "three", "four", ""]
    assert snapshot_lines(tmp_path, "missing.yml") is None


# ----------------------------------------------------------------------
# keyword search
# ----------------------------------------------------------------------


def test_find_keyword_literal_matches_oracle(tmp_path):
    content = "first getLogger here\nnothing\ngetLogger again getLogger\n"
    make_tree(tmp_path, {"a/App.java": content})
    idx = build_index(tmp_path)
    got = [(m.line, m.span[0], m.span[1]) for m in find_keyword(idx, "getLogger")]
    assert got == oracle_find(content, "getLogger")


def test_find_keyword_respects_masking(tmp_path):
    make_tree(
        tmp_path,
        {
            "App.java": "// @EnableZuulProxy in a comment\n@EnableZuulProxy\n",
            "notes.properties": "# not java so no masking @EnableZuulProxy\n",
        },
    )
    idx = build_index(tmp_path)
    java_hits = find_keyword(idx, "@EnableZuulProxy", languages=("java",))
    assert [m.line for m in java_hits] == [2]
    raw_hits = find_keyword(build_index(tmp_path, raw=True), "@EnableZuulProxy", languages=("java",))
    assert [m.line for m in raw_hits] == [1, 2]


def test_find_keyword_line_text_is_unmasked(tmp_path):
    make_tree(tmp_path, {"App.java": "int a; // note\nint b;\n"})
    idx = build_index(tmp_path)
    hits = find_keyword(idx, "int")
    assert hits[0] == TraceEntry("App.java", 1, (0, 3), "int")
    assert idx.by_path[hits[0].file].line(hits[0].line - 1) == "int a; // note"


def test_find_keyword_regex(tmp_path):
    make_tree(tmp_path, {"app.properties": "zuul.routes.users.url = http://x\n"})
    idx = build_index(tmp_path)
    hits = find_keyword(
        idx, r"zuul\.routes\.(\w+)", languages=("properties",), regex=True
    )
    assert len(hits) == 1
    assert hits[0].snippet == "zuul.routes.users"


def test_find_keyword_bad_regex_raises(tmp_path):
    make_tree(tmp_path, {"a.java": "x\n"})
    idx = build_index(tmp_path)
    with pytest.raises(re.error):
        find_keyword(idx, "(*bad", regex=True)


def test_find_keyword_language_filter(tmp_path):
    make_tree(tmp_path, {"A.java": "needle\n", "b.yml": "needle: 1\n"})
    idx = build_index(tmp_path)
    assert len(find_keyword(idx, "needle")) == 2
    assert len(find_keyword(idx, "needle", languages=("java",))) == 1


# ----------------------------------------------------------------------
# vocabulary gate
# ----------------------------------------------------------------------


def oracle_find_keyword(index, keyword, languages=None):
    """Literal find_keyword without the vocabulary gate."""
    wanted = None if languages is None else set(languages)
    out = []
    for f in index.files:
        if wanted is not None and f.language not in wanted:
            continue
        for li, s, e in _kernel.scan(f.search_text(), keyword):
            out.append(TraceEntry(f.path, li + 1, (s, e), f.line(li)[s:e]))
    return out


LANGUAGE_SETS = [None, ("java",), ("yaml", "properties"), ("java", "other", "env"), ("compose",)]


def both_indexes(root):
    """The masked and the raw index of a tree."""
    return build_index(root), build_index(root, raw=True)


def assert_like_oracle(root, keywords):
    """Compare both indexes of a tree with the oracle; return them."""
    indexes = both_indexes(root)
    for raw, idx in zip((False, True), indexes):
        for keyword in keywords:
            for languages in LANGUAGE_SETS:
                expected = oracle_find_keyword(idx, keyword, languages)
                first = find_keyword(idx, keyword, languages=languages)
                assert first == expected, (keyword, languages, raw)
                first.append(None)  # a caller's edit must not reach a later search
                again = find_keyword(idx, keyword, languages=list(languages or ()) or None)
                assert again == expected, (keyword, languages, raw)
    return indexes


def test_space_pattern_is_what_str_split_splits_at():
    every = "".join(map(chr, range(0x110000)))
    assert "".join(_SPACE.findall(every)) == "".join(c for c in every if c.isspace())


def test_gated_search_matches_the_oracle_on_miniapp(miniapp_path):
    rng = random.Random(5)
    keywords = {"@EnableZuulProxy", "@FeignClient", "http", "spring.", "notHere", "@", ":", "a b"}
    for f in build_index(miniapp_path).files:
        tokens = f.text.split()
        keywords.update(rng.sample(tokens, min(3, len(tokens))))
        start = rng.randrange(max(1, len(f.text) - 12))
        keywords.add(f.text[start : start + rng.randint(1, 12)].partition("\n")[0] or "x")
    for idx in assert_like_oracle(miniapp_path, sorted(keywords)):
        assert idx.vocabulary_skips > 0


def test_gate_keeps_comment_only_and_edge_keywords(tmp_path):
    make_tree(
        tmp_path,
        {
            "A.java": b"first // onlyInComment\r\nint x/*y*/z; a\xc2\xa0b\r\nlast",
            "B.java": b"/* blockOnly */ kw\xe2\x80\xa8kw\x1ckw",
            "c.properties": b"onlyInComment=1\n",
        },
    )
    idx, raw = both_indexes(tmp_path)
    java = ("java",)
    assert find_keyword(idx, "onlyInComment", java) == []
    assert [m.file for m in find_keyword(raw, "onlyInComment", java)] == ["A.java"]
    assert [m.file for m in find_keyword(idx, "onlyInComment")] == ["c.properties"]
    assert find_keyword(idx, "x/*y", java) == [] and find_keyword(raw, "x/*y", java)
    assert [(m.line, m.span) for m in find_keyword(idx, "a\xa0b")] == [(2, (13, 16))]
    assert [m.span for m in find_keyword(idx, "first")] == [(0, 5)]
    assert [(m.line, m.span) for m in find_keyword(idx, "last")] == [(3, (0, 4))]
    assert [m.span for m in find_keyword(idx, "kw\u2028kw")] == [(16, 21)]
    assert [m.span for m in find_keyword(idx, "kw\x1ckw")] == [(19, 24)]
    assert_like_oracle(tmp_path, ["onlyInComment", "blockOnly", "x/*y", "y*/z", "a\xa0b", "first", "last", "kw"])


PIECES = [
    "kw", "Zuul", "@Enable", "x", "//", "/*", "*/", '"', " ", "\t", "\n", "\r\n", "\r",
    "\xa0", "\u2028", "\x1c", "é", "=",
]
NAMES = ["A.java", "b/B.java", "application.yml", "c/app.properties", ".env", "notes.txt"]


def test_gated_search_matches_the_oracle_on_random_trees(tmp_path):
    rng = random.Random(2024)
    for seed in range(12):
        files = {}
        for name in rng.sample(NAMES, rng.randint(1, len(NAMES))):
            files["t%d/%s" % (seed, name)] = "".join(
                rng.choice(PIECES) for _ in range(rng.randrange(60))
            ).encode("utf-8")
        root = make_tree(tmp_path, files) / ("t%d" % seed)
        idx = build_index(root)
        keywords = {"kw", "Zuul", "@EnableZuul", "x//", "*/x", "kw\xa0x", "\u2028", "\x1c", "é="}
        for text in (f.text for f in idx.files if f.text):
            # the first and last token, and random substrings, which may span
            # a comment boundary or hold whitespace other than newlines
            tokens = text.split() or ["x"]
            keywords.update((tokens[0], tokens[-1]))
            for _ in range(4):
                start = rng.randrange(len(text))
                piece = text[start : start + rng.randint(1, 8)].partition("\n")[0]
                if piece:
                    keywords.add(piece)
        assert_like_oracle(root, sorted(keywords))


def test_vocabulary_is_the_tokens_of_the_searched_texts(tmp_path, miniapp_path):
    text = "a /* b */c// d\n" * 30000 + "e/**/f"
    roots = [miniapp_path, comment_heavy_tree(tmp_path / "heavy", 3)]
    roots.append(make_tree(tmp_path / "big", {"Big.java": text}))
    for idx in (idx for root in roots for idx in both_indexes(root)):
        for languages in LANGUAGE_SETS:
            wanted = None if languages is None else frozenset(languages)
            expected = set()
            for f in idx._files(wanted):
                expected.update(f.search_text().split())
            assert set(idx._vocabulary(wanted).split("\n")) - {""} == expected


def test_gate_sees_tokens_across_vocabulary_slices(tmp_path):
    # "marker" straddles the first 64 KiB cut; a token longer than a slice
    # and a file without whitespace stay whole as well
    text = "a\n" * 32765 + "xxmarker\n" + "y" * 70000 + " end\n"
    make_tree(tmp_path, {"Big.java": text, "Solid.java": "q" * 70001})
    idx = build_index(tmp_path)
    for keyword in ("marker", "xxmarker", "y" * 70000, "q" * 70001, "end", "zz"):
        assert find_keyword(idx, keyword) == oracle_find_keyword(idx, keyword), keyword[:10]
    assert idx.vocabulary_skips == 1


def test_literal_search_validation_still_raises(tmp_path):
    make_tree(tmp_path, {"A.java": "a b\n"})
    idx = build_index(tmp_path)
    assert find_keyword(idx, "absent") == []
    for bad in ("", "a\nb"):
        with pytest.raises(ValueError):
            find_keyword(idx, bad)


def test_vocabulary_memory_is_bounded(tmp_path):
    make_tree(tmp_path, {"Big.java": "ab " * (2 * 1024 * 1024 // 3)})
    idx = build_index(tmp_path)
    tracemalloc.start()
    try:
        found = find_keyword(idx, "zz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [] and idx.vocabulary_skips == 1
    # one token list for the whole 2 MiB text peaks at about 40 MB
    assert peak < 8 * 1024 * 1024


# ----------------------------------------------------------------------
# constants and .env values
# ----------------------------------------------------------------------


def test_cross_file_resolution_prefers_origin_directory(tmp_path):
    make_tree(
        tmp_path,
        {
            "svc/Client.java": 'String u = Constants.BASE_URL + "/x";\n',
            "svc/Constants.java": 'class Constants { static final String BASE_URL = "http://orders:8080"; }\n',
            "other/Constants.java": 'class Constants { static final String BASE_URL = "http://wrong:1"; }\n',
        },
    )
    idx = build_index(tmp_path)
    trace, value = resolve_cross_file(idx, "Constants.BASE_URL", "svc/Client.java")
    assert trace.file == "svc/Constants.java"
    assert value == "http://orders:8080"
    assert trace.snippet == "BASE_URL"


def test_cross_file_candidates_are_origin_directory_then_path_order(tmp_path):
    files = {
        "%s/Stem.java" % d: 'class Stem { static final String V = "%s"; }\n' % d
        for d in ("a", "m", "z")
    }
    files["m/Caller.java"] = "use(Stem.V);\n"
    files["q/Caller.java"] = "use(Stem.V);\n"
    files["a/Stem.JAVA"] = 'class Stem { static final String V = "upper"; }\n'
    idx = build_index(make_tree(tmp_path, files))
    assert resolve_cross_file(idx, "Stem.V", "m/Caller.java")[1] == "m"
    assert resolve_cross_file(idx, "Stem.V", "q/Caller.java")[1] == "a"
    # the origin file itself is never its own target
    assert resolve_cross_file(idx, "Stem.V", "a/Stem.java")[1] == "m"
    assert resolve_cross_file(idx, "Other.V", "m/Caller.java") is None


def test_string_constant_takes_the_first_assignment_of_the_whole_name(tmp_path):
    java = (
        "class Names {\n"
        '    // static final String NAME = "commented";\n'
        "    boolean same = NAME == \"x\";\n"
        '    static final String OLD_NAME = "old", NAME_2 = "two";\n'
        '    static final String NAME /* id */ = "b";\n'
        '    static final String $NAME = "dollar";\n'
        '    static final String AGAIN = "a", NAME = "later";\n'
        "}\n"
    )
    idx = build_index(make_tree(tmp_path, {"Names.java": java}))
    f = idx.by_path["Names.java"]
    assert string_constant(f, "NAME") == (TraceEntry("Names.java", 5, (24, 28), "NAME"), "b")
    assert string_constant(f, "AGAIN")[1] == "a"
    assert string_constant(f, "OLD_NAME")[1] == "old"
    assert string_constant(f, "NAME_2")[1] == "two"
    assert string_constant(f, "same") is None
    assert string_constant(f, "MISSING") is None


def test_cross_file_value_is_the_whole_name_assignment(tmp_path):
    files = {
        "a/Names.java": 'class Names {\n    String OLD_NAME = "c";\n    String NAME = "b";\n}\n',
        "a/Caller.java": "use(Names.NAME);\n",
    }
    idx = build_index(make_tree(tmp_path, files))
    hit = resolve_cross_file(idx, "Names.NAME", "a/Caller.java")
    assert hit == (TraceEntry("a/Names.java", 3, (11, 15), "NAME"), "b")
    # a member that is only part of an assigned name does not resolve
    assert resolve_cross_file(idx, "Names.OLD", "a/Caller.java") is None


def test_env_variable_resolution(tmp_path):
    make_tree(
        tmp_path,
        {
            ".env": "# RABBIT_HOST=commented\nRABBIT_HOST=rabbitmq\n",
            "svc/app.properties": "spring.rabbitmq.host=${RABBIT_HOST}\n",
        },
    )
    idx = build_index(tmp_path)
    value, trace = env_value(idx, "RABBIT_HOST", "svc/app.properties")
    assert value == "rabbitmq"
    assert trace == TraceEntry(".env", 2, (12, 20), "rabbitmq")
    assert env_value(idx, "MISSING", "svc/app.properties") is None


def test_nearest_env_file_wins(tmp_path):
    make_tree(
        tmp_path,
        {
            ".env": "HOST=outer\n",
            "svc/.env": "HOST=inner\n",
            "svc/App.java": "x\n",
        },
    )
    idx = build_index(tmp_path)
    assert env_value(idx, "HOST", "svc/App.java")[0] == "inner"
    assert env_value(idx, "HOST", "App.java")[0] == "outer"


def test_blank_env_value_does_not_resolve(tmp_path):
    make_tree(
        tmp_path,
        {
            ".env": "QUOTED=outer\n",
            "svc/.env": "HOST=   \nQUOTED=''\n",
            "svc/application.yml": "x: 1\n",
        },
    )
    ctx = Context(build_index(tmp_path), load_rules())
    origin = "svc/application.yml"
    assert env_value(ctx.index, "HOST", origin) is None
    # a value that is empty once unquoted sets nothing either, so the
    # nearest .env line that does set the name wins
    assert env_value(ctx.index, "QUOTED", origin) == ("outer", TraceEntry(".env", 1, (7, 12), "outer"))
    assert resolve_text(ctx, None, "${HOST:fb}", origin)[0] == "fb"
    assert resolve_text(ctx, None, "${HOST}", origin)[0] is None
