"""Comments that must not change the diagram.

Every Java file of miniapp gets comments that hold every keyword of the
rule set and every literal keyword the pipeline searches.  In masked mode
the diagram must stay the same and its traces must verify; with
--paper-parity only items whose evidence lies in the new comments may
differ.
"""

import json
import shutil
from pathlib import Path

import pytest

from dfdscan import search
from dfdscan.analysis import analyze_directory
from dfdscan.output import dfd_to_json, dfd_to_obj, verify_traces
from dfdscan.rules import load_rules


@pytest.fixture(scope="module")
def keywords(miniapp_path):
    """The rule keywords plus every literal the pipeline searches in miniapp."""
    found = {kw for rule in load_rules().keyword_rules if not rule.regex for kw in rule.keywords}
    find_literal, scan_files = search._find_literal, search._scan_files

    def record_find(index, keyword, *args):
        found.add(keyword)
        return find_literal(index, keyword, *args)

    def record_scan(files, keyword, *args):
        found.add(keyword)
        return scan_files(files, keyword, *args)

    search._find_literal, search._scan_files = record_find, record_scan
    try:
        for raw in (False, True):
            analyze_directory(miniapp_path, raw=raw)
    finally:
        search._find_literal, search._scan_files = find_literal, scan_files
    assert {"@FeignClient", "http", "@EnableZuulProxy", "LoggerFactory.getLogger"} <= found
    return sorted(found)


def commented(text, keywords):
    """text with a keyword header, an inline /* */ before every code line
    and a trailing // on every line; also returns the new comments as
    {line: [(start, end), ...]} in 1-based lines of the result."""
    masked = search.blank_comments(text, search.mask_java_comments(text)).split("\n")
    header = ["/*"] + [" * %s" % kw for kw in keywords] + [" */"]
    inserted = {i + 1: [(0, len(line))] for i, line in enumerate(header)}
    out = list(header)
    for i, line in enumerate(text.split("\n")):
        spans = []
        if line.strip():
            # a line that starts inside a comment cannot take a /* */ in front
            if masked[i][:1].strip():
                note = "/* %s */ " % keywords[i % len(keywords)]
                spans.append((0, len(note) - 1))
                line = note + line
            trailer = " // %s %s" % (keywords[(i + 1) % len(keywords)], keywords[(i + 2) % len(keywords)])
            spans.append((len(line) + 1, len(line) + len(trailer)))
            line += trailer
        out.append(line)
        inserted[len(out)] = spans
    return "\n".join(out), inserted


def transformed_copy(miniapp_path, dest, keywords):
    shutil.copytree(miniapp_path, dest)
    inserted = {}
    for path in sorted(Path(dest).rglob("*.java")):
        text, spans = commented(path.read_text(encoding="utf-8"), keywords)
        path.write_text(text, encoding="utf-8")
        inserted[path.relative_to(dest).as_posix()] = spans
    return inserted


def facts(dfd):
    """Every node, flow, stereotype and tagged value, with its trace key."""
    out = {}
    obj = dfd_to_obj(dfd)
    for kind, items in (("node", obj["nodes"]), ("flow", obj["information_flows"])):
        for item in items:
            name = item["name"] if kind == "node" else "%s -> %s" % (item["sender"], item["receiver"])
            out[(kind, name)] = (name, None)
            for st in item["stereotypes"]:
                out[(kind, name, st)] = (name, st)
            for key, value in item["tagged_values"].items():
                out[(kind, name, key, json.dumps(value))] = (name, key)
    return out


def evidence(dfd, name, key):
    """The trace entry that stands for an item or one of its sub-items."""
    rec = dfd.traces.get(name)
    assert rec is not None, name
    return rec.sub_items.get(key, rec.primary) if key else rec.primary


def test_comment_keywords_leave_the_masked_diagram_alone(miniapp_path, tmp_path, keywords):
    app = tmp_path / "miniapp"
    inserted = transformed_copy(miniapp_path, app, keywords)
    assert len(inserted) == 6
    before = analyze_directory(miniapp_path)
    after = analyze_directory(app)
    assert dfd_to_json(after.dfd) == dfd_to_json(before.dfd)
    assert verify_traces(after.dfd, app)[1] == []
    assert after.report.failures == []


def test_paper_parity_differs_only_by_comment_evidence(miniapp_path, tmp_path, keywords):
    app = tmp_path / "miniapp"
    inserted = transformed_copy(miniapp_path, app, keywords)
    before = facts(analyze_directory(miniapp_path, raw=True).dfd)
    result = analyze_directory(app, raw=True)
    after = facts(result.dfd)
    assert verify_traces(result.dfd, app)[1] == []
    new = set(after) - set(before)
    assert new, "comments full of keywords should add evidence under --paper-parity"
    for fact in sorted(new):
        entry = evidence(result.dfd, *after[fact])
        spans = inserted.get(entry.file, {}).get(entry.line, [])
        start, end = entry.span
        assert any(a <= start and end <= b for a, b in spans), (fact, entry)
    # a stereotype may only give way on an item that gained comment evidence,
    # as "internal" does to "infrastructural"
    changed = {fact[:2] for fact in new}
    assert all(fact[:2] in changed for fact in set(before) - set(after))


FEIGN_WRAPPED = """\
package com.acme.notification.client;

import org.springframework.cloud.openfeign.FeignClient;

@FeignClient(
        // the account service, found through discovery
        name = "account-service" /* , url = "http://ghost.example.com" */,
        configuration = Object.class)
public interface AccountServiceClient {
    // @FeignClient(name = "ghost-service")
    Object getAccount(String name);
}
"""


def test_wrapped_feign_arguments_with_comments_keep_the_flow(miniapp_path, tmp_path):
    app = tmp_path / "miniapp"
    shutil.copytree(miniapp_path, app)
    client = next(app.rglob("AccountServiceClient.java"))
    client.write_text(FEIGN_WRAPPED, encoding="utf-8")
    before = analyze_directory(miniapp_path)
    after = analyze_directory(app)
    assert dfd_to_json(after.dfd) == dfd_to_json(before.dfd)
    assert verify_traces(after.dfd, app)[1] == []
