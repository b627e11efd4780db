"""Transformations that must not change the diagram.

Every Java file of miniapp gets comments that hold every keyword of the
rule set and every literal keyword the pipeline searches.  In masked mode
the diagram must stay the same and its traces must verify; with
--paper-parity only items whose evidence lies in the new comments may
differ.

Miniapp and a generated eight-service workspace are also rewritten in ways
that leave the application as it was: other line ends, a byte order mark,
trailing whitespace, .yaml for .yml, compose services in reverse order,
copies of services in ignored build directories, and the whole tree moved
under a subdirectory.  Each must give the same dfd.json, with traces that
verify against the rewritten tree.  A comment block put on top of every
Java file must move each trace entry in a Java file down by its lines and
leave every other entry where it was.
"""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest
import yaml

from dfdscan import search
from dfdscan.analysis import analyze_directory
from dfdscan.model import TraceEntry
from dfdscan.output import dfd_to_json, dfd_to_obj, verify_traces
from dfdscan.rules import load_rules

# the benchmark's seeded workspace generator, used read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "dfdbench"))
import gen  # noqa: E402


@pytest.fixture(scope="module")
def keywords(miniapp_path):
    """The rule keywords plus every literal the pipeline searches in miniapp."""
    found = {kw for rule in load_rules().keyword_rules if not rule.regex for kw in rule.keywords}
    find_literal, scan_files = search._find_literal, search.scan_files

    def record_find(index, keyword, *args):
        found.add(keyword)
        return find_literal(index, keyword, *args)

    def record_scan(files, keyword, *args):
        found.add(keyword)
        return scan_files(files, keyword, *args)

    search._find_literal, search.scan_files = record_find, record_scan
    try:
        for raw in (False, True):
            analyze_directory(miniapp_path, raw=raw)
    finally:
        search._find_literal, search.scan_files = find_literal, scan_files
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


# ----------------------------------------------------------------------
# rewrites of the whole tree
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def apps(miniapp_path, tmp_path_factory):
    """Each base tree with the dfd.json of its own analysis."""
    generated = tmp_path_factory.mktemp("generated") / "small"
    gen.write(gen.plan_small(1, 0), str(generated))
    return {
        name: (Path(root), dfd_to_json(analyze_directory(root).dfd))
        for name, root in (("miniapp", Path(miniapp_path)), ("generated", generated))
    }


def rewrite_texts(root, change):
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            text = path.read_bytes().decode("utf-8")
            path.write_bytes(change(text).encode("utf-8"))


def yml_to_yaml(root):
    for path in sorted(Path(root).rglob("*.yml")):
        path.rename(path.with_suffix(".yaml"))


def compose_reversed(root):
    path = next(Path(root).glob("docker-compose.yml"))
    text = path.read_text(encoding="utf-8")
    head, marker, body = text.partition("services:\n")
    services = [chunk for chunk in re.split(r"(?m)^(?=  \S)", body) if chunk]
    ended = [c if c.endswith("\n") else c + "\n" for c in services]
    reordered = head + marker + "".join(reversed(ended))
    names = list(yaml.safe_load(text)["services"])
    assert list(yaml.safe_load(reordered)["services"]) == names[::-1]
    path.write_text(reordered, encoding="utf-8")


def ignored_copies(root):
    services = sorted(p.parent for p in Path(root).glob("*/pom.xml")) + sorted(
        p.parent for p in Path(root).glob("*/build.gradle")
    )
    assert services
    for svc in services:
        shutil.copytree(svc, Path(root) / "node_modules" / svc.name)
        shutil.copytree(svc, svc / "target" / "classes" / svc.name)


TRANSFORMS = {
    "crlf": lambda root: rewrite_texts(root, lambda t: t.replace("\n", "\r\n")),
    "lone_cr": lambda root: rewrite_texts(root, lambda t: t.replace("\n", "\r")),
    "bom": lambda root: rewrite_texts(root, lambda t: "\ufeff" + t),
    # spaces only: PyYAML, with or without libyaml, refuses a tab on a blank line of a mapping
    "trailing_whitespace": lambda root: rewrite_texts(root, lambda t: t.replace("\n", "  \n")),
    "yaml_suffix": yml_to_yaml,
    "compose_reversed": compose_reversed,
    "ignored_copies": ignored_copies,
}


@pytest.mark.parametrize("app", ["miniapp", "generated"])
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_rewritten_tree_keeps_the_diagram(apps, app, transform, tmp_path):
    root, expected = apps[app]
    copy = tmp_path / app
    shutil.copytree(root, copy)
    TRANSFORMS[transform](copy)
    result = analyze_directory(copy)
    assert dfd_to_json(result.dfd) == expected
    assert verify_traces(result.dfd, copy)[1] == []
    assert result.report.failures == []


@pytest.mark.parametrize("app", ["miniapp", "generated"])
def test_tree_moved_under_a_subdirectory_keeps_the_diagram(apps, app, tmp_path):
    root, expected = apps[app]
    shutil.copytree(root, tmp_path / "code" / "app")
    result = analyze_directory(tmp_path)
    assert dfd_to_json(result.dfd) == expected
    assert verify_traces(result.dfd, tmp_path)[1] == []
    assert not [w for w in result.report.warnings if w.startswith("duplicate service name")]


# three lines of keywords the pipeline chases, all inside one comment
JAVA_HEADER = (
    '/* @FeignClient(name = "ghost-service") BCryptPasswordEncoder ghost = new BCryptPasswordEncoder();\n'
    ' * new RestTemplate().getForObject("http://ghost.example.com/x", String.class); ghost.encode(p);\n'
    " */\n"
)


def trace_layout(dfd, move=lambda entry: entry):
    """Every item's primary, sub-item and extra entries, each moved."""
    return {
        item: (
            move(rec.primary),
            {key: move(entry) for key, entry in rec.sub_items.items()},
            [move(entry) for entry in rec.extras],
        )
        for item, rec in dfd.traces.items()
    }


@pytest.mark.parametrize("app", ["miniapp", "generated"])
def test_java_header_moves_java_traces_down_by_its_lines(apps, app, tmp_path):
    root, expected = apps[app]
    before = analyze_directory(root).dfd
    copy = tmp_path / app
    shutil.copytree(root, copy)
    java = sorted(copy.rglob("*.java"))
    assert java
    for path in java:
        path.write_text(JAVA_HEADER + path.read_text(encoding="utf-8"), encoding="utf-8")
    result = analyze_directory(copy)
    assert dfd_to_json(result.dfd) == expected
    assert verify_traces(result.dfd, copy)[1] == []
    assert result.report.failures == []

    def down(entry):
        if not entry.file.endswith(".java"):
            return entry
        return TraceEntry(entry.file, entry.line + JAVA_HEADER.count("\n"), entry.span, entry.snippet)

    assert trace_layout(result.dfd) == trace_layout(before, down)
