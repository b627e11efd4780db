"""Literal keyword scanner.

Every literal search in dfdscan goes through scan; the brute-force oracle in
tests/test_kernel.py checks it.
"""
from __future__ import annotations

import bisect

# Read by the benchmark (dfdbench/run.py records it; dfdbench/tracer.py
# counts calls to this module's scan), so the name and the module stay.
BACKEND = "pure"


def scan(text: str, keyword: str, line_starts: list[int]) -> list[tuple[int, int, int]]:
    """Find every occurrence of keyword in text.

    text is the file content with lines joined by newlines and line_starts
    holds the character offset of each line start.  Returns (line_index,
    start, end) triples with a 0-based line index and a half-open column
    span, ordered by position.  Occurrences may overlap.
    """
    if not keyword:
        raise ValueError("keyword must be non-empty")
    if "\n" in keyword:
        raise ValueError("keyword must not contain newlines")
    out: list[tuple[int, int, int]] = []
    klen = len(keyword)
    pos = text.find(keyword)
    while pos != -1:
        li = bisect.bisect_right(line_starts, pos) - 1
        col = pos - line_starts[li]
        out.append((li, col, col + klen))
        pos = text.find(keyword, pos + 1)
    return out
