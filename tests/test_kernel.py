"""Keyword-scanning kernel and an independent brute-force oracle it must
agree with."""

import random
import time
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
    got = scan(text, "abc")
    assert got == [(0, 0, 3), (0, 8, 11), (1, 1, 4)]
    assert got == oracle_scan(text, "abc")


def test_overlapping_hits_are_all_reported(scan):
    text = "aaaa"
    got = scan(text, "aa")
    assert got == [(0, 0, 2), (0, 1, 3), (0, 2, 4)]
    assert got == oracle_scan(text, "aa")


def test_no_hits(scan):
    text = "nothing to see here"
    assert scan(text, "xyz") == []


def test_hit_at_text_boundaries(scan):
    text = "end\nmiddle\nend"
    got = scan(text, "end")
    assert got == [(0, 0, 3), (2, 0, 3)]


def test_empty_keyword_rejected(scan):
    with pytest.raises(ValueError):
        scan("text", "")


def test_newline_in_keyword_rejected(scan):
    with pytest.raises(ValueError):
        scan("text", "a\nb")


def test_non_ascii_text(scan):
    text = "café getLogger\nüber getLogger"
    got = scan(text, "getLogger")
    assert got == oracle_scan(text, "getLogger")
    assert [h[0] for h in got] == [0, 1]


def test_non_ascii_keyword(scan):
    text = "x café y\ncafé"
    got = scan(text, "café")
    assert got == oracle_scan(text, "café")


def test_randomized_against_oracle(scan):
    rng = random.Random(20240817)
    alphabet = "ab\nc"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        keyword = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 5)))
        got = scan(text, keyword)
        assert got == oracle_scan(text, keyword), (text, keyword)


def oracle_scan_outside(text, keyword, skip):
    """oracle_scan without the occurrences that touch a skipped range."""
    ranges = list(zip(skip[::2], skip[1::2]))
    starts = line_starts_of(text)
    return [
        (li, s, e)
        for li, s, e in oracle_scan(text, keyword)
        if not any(a < starts[li] + e and starts[li] + s < b for a, b in ranges)
    ]


def test_skipped_ranges_hold_no_occurrence(scan):
    text = "ab/*ab*/ab/**/ab\naab//ab"
    skip = array("I", [2, 8, 10, 14, 20, 24])
    got = scan(text, "ab", skip)
    assert got == [(0, 0, 2), (0, 8, 10), (0, 14, 16), (1, 1, 3)]
    assert got == oracle_scan_outside(text, "ab", skip)
    # touching a range at either end is enough to be left out
    assert scan("xab", "xa", [1, 2]) == [] and scan("abx", "bx", [0, 2]) == []


def test_randomized_skips_against_oracle(scan):
    rng = random.Random(8)
    for _ in range(500):
        text = "".join(rng.choice("ab\nc") for _ in range(rng.randrange(0, 80)))
        cuts = sorted(rng.sample(range(len(text) + 1), min(len(text) + 1, 2 * rng.randrange(4))))
        skip = array("I", [c for a, b in zip(cuts[::2], cuts[1::2]) if a < b for c in (a, b)])
        keyword = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 4)))
        got = scan(text, keyword, skip)
        assert got == oracle_scan_outside(text, keyword, skip), (text, keyword, skip)


def test_index_line_starts_array(scan):
    # the index's line table is an array('I'), not a list
    text = "a.b x\n\nx a.b\na.b"
    starts = search._index_file("A.java", text).line_starts
    assert isinstance(starts, array) and starts.typecode == "I"
    assert list(starts) == line_starts_of(text)
    got = scan(text, "a.b")
    assert got == [(0, 0, 3), (2, 2, 5), (3, 0, 3)]
    assert got == oracle_scan(text, "a.b")


def test_hits_on_the_first_and_on_an_unterminated_last_line(scan):
    text = "key x\n\nkey\nx key"
    got = scan(text, "key")
    assert got == [(0, 0, 3), (2, 0, 3), (3, 2, 5)]
    assert got == oracle_scan(text, "key")
    assert scan("key", "key") == [(0, 0, 3)]


def test_hits_right_after_a_skipped_comment_that_spans_lines(scan):
    text = "key /* key\nkey\n key */key key\nkey"
    skip = array("I", [4, 22])
    got = scan(text, "key", skip)
    assert got == [(0, 0, 3), (2, 7, 10), (2, 11, 14), (3, 0, 3)]
    assert got == oracle_scan_outside(text, "key", skip)
    # a line comment, and a block comment that ends just before a hit
    text = "a key\n//key\n/*\n\n*/key"
    skip = array("I", [6, 11, 12, 18])
    assert scan(text, "key", skip) == oracle_scan_outside(text, "key", skip) == [(0, 2, 5), (4, 2, 5)]


def test_one_long_line_scans_in_linear_time(scan):
    # about 2 MiB on one line with about 400,000 hits: a scanner that
    # looked back to the start of the line for each hit would take tens of
    # seconds (the euro sign stores the text at two bytes per character)
    head = "a\n€\n"
    text = head + "xkey " * 420_000
    t0 = time.perf_counter()
    got = scan(text, "key")
    elapsed = time.perf_counter() - t0
    assert len(got) == 420_000
    assert got[0] == (2, 1, 4) and got[-1] == (2, 5 * 419_999 + 1, 5 * 419_999 + 4)
    assert elapsed < 5.0, elapsed


def test_selected_backend_exports_scan():
    assert _kernel.BACKEND == "pure"
    text = "k in line"
    assert _kernel.scan(text, "k") == [(0, 0, 1)]
