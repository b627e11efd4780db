"""Keyword-scanning kernel and an independent brute-force oracle it must
agree with."""

import random
from array import array

import pytest

from dfdscan import _kernel, search


def oracle_scan(text, keyword):
    """Reference result computed without the kernel: check every offset."""
    hits = []
    n = len(keyword)
    for pos in range(len(text) - n + 1):
        if text[pos:pos + n] != keyword:
            continue
        line = text.count("\n", 0, pos)
        line_start = text.rfind("\n", 0, pos) + 1
        col = pos - line_start
        hits.append((line, col, col + n))
    return hits


def line_starts_of(text):
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


# one scanner, labelled by the name the benchmark records for it
@pytest.fixture(params=[_kernel.scan], ids=[_kernel.BACKEND])
def scan(request):
    return request.param


def test_simple_hits(scan):
    text = "abc def abc\nxabc"
    got = scan(text, "abc", line_starts_of(text))
    assert got == [(0, 0, 3), (0, 8, 11), (1, 1, 4)]
    assert got == oracle_scan(text, "abc")


def test_overlapping_hits_are_all_reported(scan):
    text = "aaaa"
    got = scan(text, "aa", line_starts_of(text))
    assert got == [(0, 0, 2), (0, 1, 3), (0, 2, 4)]
    assert got == oracle_scan(text, "aa")


def test_no_hits(scan):
    text = "nothing to see here"
    assert scan(text, "xyz", line_starts_of(text)) == []


def test_hit_at_text_boundaries(scan):
    text = "end\nmiddle\nend"
    got = scan(text, "end", line_starts_of(text))
    assert got == [(0, 0, 3), (2, 0, 3)]


def test_empty_keyword_rejected(scan):
    with pytest.raises(ValueError):
        scan("text", "", [0])


def test_newline_in_keyword_rejected(scan):
    with pytest.raises(ValueError):
        scan("text", "a\nb", [0])


def test_non_ascii_text(scan):
    text = "café getLogger\nüber getLogger"
    got = scan(text, "getLogger", line_starts_of(text))
    assert got == oracle_scan(text, "getLogger")
    assert [h[0] for h in got] == [0, 1]


def test_non_ascii_keyword(scan):
    text = "x café y\ncafé"
    got = scan(text, "café", line_starts_of(text))
    assert got == oracle_scan(text, "café")


def test_randomized_against_oracle(scan):
    rng = random.Random(20240817)
    alphabet = "ab\nc"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        keyword = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 5)))
        got = scan(text, keyword, line_starts_of(text))
        assert got == oracle_scan(text, keyword), (text, keyword)


def test_index_line_starts_array(scan):
    # the index hands the scanner an array('I'), not a list
    text = "a.b x\n\nx a.b\na.b"
    starts = search._index_file("A.java", text).line_starts
    assert isinstance(starts, array) and starts.typecode == "I"
    assert list(starts) == line_starts_of(text)
    got = scan(text, "a.b", starts)
    assert got == [(0, 0, 3), (2, 2, 5), (3, 0, 3)]
    assert got == oracle_scan(text, "a.b")


def test_selected_backend_exports_scan():
    assert _kernel.BACKEND == "pure"
    text = "k in line"
    assert _kernel.scan(text, "k", [0]) == [(0, 0, 1)]
