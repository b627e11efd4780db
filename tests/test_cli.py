"""Tests for the command line interface."""
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from dfdscan import cli, search
from dfdscan.analysis import AnalysisError, _fetch, analyze_directory, fetch_repository
from dfdscan.cli import _app_name, build_parser, main
from dfdscan.extractors.base import PHASES, default_extractors
from dfdscan.model import Dfd, Node, TraceEntry
from dfdscan.output import dfd_to_dot, dfd_to_json, traceability_to_json


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_writes_default_outputs(miniapp_path, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        ["analyze", "--path", str(miniapp_path), "--out", str(out)], capsys
    )
    assert code == 0
    assert stderr == ""
    dfd_path = out / "miniapp.json"
    trace_path = out / "miniapp_traceability.json"
    dot_path = out / "miniapp.dot"
    for p in (dfd_path, trace_path, dot_path):
        assert p.is_file()
        assert str(p) in stdout
    dfd = json.loads(dfd_path.read_text(encoding="utf-8"))
    assert len(dfd["nodes"]) == 6
    traces = json.loads(trace_path.read_text(encoding="utf-8"))
    assert "notification_service" in traces
    assert "6 nodes, 4 flows" in stdout


@pytest.mark.parametrize("tree", ["miniapp", "empty"])
def test_written_files_equal_the_writers(tree, miniapp_path, tmp_path, capsys):
    root = Path(miniapp_path) if tree == "miniapp" else tmp_path / "empty"
    if tree == "empty":
        root.mkdir()
    out = tmp_path / "out"
    assert run_cli(["analyze", "--path", str(root), "--out", str(out)], capsys)[0] == 0
    dfd = analyze_directory(root).dfd
    # every file is streamed element by element
    assert (out / ("%s_traceability.json" % tree)).read_bytes() == traceability_to_json(dfd).encode("utf-8")
    assert (out / ("%s.json" % tree)).read_bytes() == dfd_to_json(dfd).encode("utf-8")
    assert (out / ("%s.dot" % tree)).read_bytes() == dfd_to_dot(dfd, title=tree).encode("utf-8")
    assert bool(dfd.nodes) == (tree == "miniapp")


def test_writing_the_outputs_never_holds_a_whole_text(monkeypatch, tmp_path, capsys):
    d = Dfd()
    for i in range(2000):
        d.upsert_node(
            Node("svc_%d" % i, stereotypes=["internal"], tagged_values={"Port": 8000 + i, "Image": "svc:%d" % i}),
            TraceEntry("svc_%d/pom.xml" % i, 3, (4, 9), "svc_%d" % i),
        )
    text = dfd_to_json(d)
    root = tmp_path / "big"
    root.mkdir()
    result = analyze_directory(root)._replace(dfd=d)
    monkeypatch.setattr(cli, "analyze_directory", lambda *args, **kwargs: result)
    args = build_parser().parse_args(["analyze", "--path", str(root), "--out", str(tmp_path / "out")])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.run_analyze(args) == 0
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert (tmp_path / "out" / "big.json").read_text(encoding="utf-8") == text
    # written whole, app.json held its elements, its text and the encoded
    # bytes at once: about three times its length
    assert rise < len(text) / 4, "%d bytes held writing %d" % (rise, len(text))


def test_importing_the_cli_loads_no_subprocess():
    src = str(Path(search.__file__).resolve().parent.parent)
    probe = "import sys; had = 'subprocess' in sys.modules; import dfdscan.cli; print(had, 'subprocess' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    if done.stdout.split()[0] == "True":
        pytest.skip("this interpreter's site imports subprocess")
    assert done.stdout == "False False\n"


def test_the_outputs_do_not_depend_on_the_hash_seed(miniapp_path, tmp_path):
    # stereotype sets are frozensets, whose order follows PYTHONHASHSEED;
    # the serializers sort them, so two seeds write the same bytes
    root = shutil.copytree(miniapp_path, tmp_path / "app")
    src = str(Path(search.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / ("out%s" % seed)
        done = subprocess.run(
            [sys.executable, "-m", "dfdscan.cli", "analyze", "--path", str(root), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["app.dot", "app.json", "app_traceability.json"]
    assert outputs[0] == outputs[1]
    # the diagram holds sets that a seed can order differently
    nodes = json.loads(outputs[0]["app.json"])["nodes"]
    assert max(len(n["stereotypes"]) for n in nodes) >= 3


def test_analyze_json_only(miniapp_path, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(
        ["analyze", "--path", str(miniapp_path), "--out", str(out), "--format", "json"],
        capsys,
    )
    assert code == 0
    assert (out / "miniapp.json").is_file()
    assert not (out / "miniapp.dot").exists()


def test_analyze_dot_only(miniapp_path, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(
        ["analyze", "--path", str(miniapp_path), "--out", str(out), "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert not (out / "miniapp.json").exists()
    assert (out / "miniapp.dot").is_file()


def test_analyze_png_renders_or_notes(miniapp_path, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(
        ["analyze", "--path", str(miniapp_path), "--out", str(out), "--format", "png"],
        capsys,
    )
    assert code == 0
    assert (out / "miniapp.dot").is_file()
    if shutil.which("dot"):
        assert (out / "miniapp.png").is_file()
    else:
        assert "skipping PNG" in stdout


def test_unknown_format_is_an_error(miniapp_path, tmp_path, capsys):
    code, _, stderr = run_cli(
        [
            "analyze",
            "--path",
            str(miniapp_path),
            "--out",
            str(tmp_path / "out"),
            "--format",
            "json,xml",
        ],
        capsys,
    )
    assert code == 2
    assert "unknown format" in stderr


def test_a_tree_over_its_budget_is_an_error(miniapp_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(search, "MAX_TREE_BYTES", 1000)
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(["analyze", "--path", str(miniapp_path), "--out", str(out)], capsys)
    assert code == 2
    assert stderr == "error: %s holds more than 1000 bytes of files; not indexed\n" % Path(miniapp_path).resolve()
    assert not out.exists()


def test_missing_directory_is_an_error(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["analyze", "--path", str(tmp_path / "nope"), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2
    assert "not a directory" in stderr


def test_source_is_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["analyze", "--path", "x", "--repo-url", "https://example.org/y.git"]
        )


def test_app_name_derivation():
    args = build_parser().parse_args(["analyze", "--path", "/tmp/some/app-dir"])
    assert _app_name(args) == "app-dir"
    args = build_parser().parse_args(
        ["analyze", "--repo-url", "https://example.org/org/piggymetrics.git"]
    )
    assert _app_name(args) == "piggymetrics"
    args = build_parser().parse_args(
        ["analyze", "--repo-url", "https://example.org/org/piggymetrics/"]
    )
    assert _app_name(args) == "piggymetrics"


def test_eval_against_own_output_is_perfect(miniapp_path, tmp_path, capsys):
    out1 = tmp_path / "first"
    code, _, _ = run_cli(
        ["analyze", "--path", str(miniapp_path), "--out", str(out1), "--format", "json"],
        capsys,
    )
    assert code == 0
    truth = out1 / "miniapp.json"

    out2 = tmp_path / "second"
    code, stdout, _ = run_cli(
        [
            "analyze",
            "--path",
            str(miniapp_path),
            "--out",
            str(out2),
            "--format",
            "json",
            "--eval-truth",
            str(truth),
        ],
        capsys,
    )
    assert code == 0
    eval_path = out2 / "miniapp_eval.json"
    assert eval_path.is_file()
    result = json.loads(eval_path.read_text(encoding="utf-8"))
    assert result["overall"]["fp"] == 0
    assert result["overall"]["fn"] == 0
    assert result["overall"]["precision"] == 1.0
    assert result["overall"]["recall"] == 1.0
    assert "group" in stdout and "precision" in stdout


def test_eval_truth_bad_file_is_an_error(miniapp_path, tmp_path, capsys):
    bad = tmp_path / "truth.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, stderr = run_cli(
        [
            "analyze",
            "--path",
            str(miniapp_path),
            "--out",
            str(tmp_path / "out"),
            "--eval-truth",
            str(bad),
        ],
        capsys,
    )
    assert code == 2
    assert "error:" in stderr


def test_eval_truth_naming_a_node_outside_the_grammar_is_an_error(miniapp_path, tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"services": [{"name": "svc(x)"}]}), encoding="utf-8")
    argv = ["analyze", "--path", str(miniapp_path), "--out", str(tmp_path / "out"), "--eval-truth", str(truth)]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2
    assert "error:" in stderr and "svc(x)" in stderr


def test_custom_rule_files_equal_defaults(miniapp_path, tmp_path, capsys):
    """Copies of the built-in rule files passed via flags reproduce the
    default analysis byte for byte."""
    rules = tmp_path / "rules.json"
    images = tmp_path / "images.txt"
    pkg = resources.files("dfdscan")
    rules.write_text(
        pkg.joinpath("rules", "keyword_rules.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    images.write_text(
        pkg.joinpath("rules", "image_catalog.txt").read_text(encoding="utf-8"),
        encoding="utf-8",
    )

    out_default = tmp_path / "default"
    out_custom = tmp_path / "custom"
    assert run_cli(
        ["analyze", "--path", str(miniapp_path), "--out", str(out_default), "--format", "json"],
        capsys,
    )[0] == 0
    assert run_cli(
        [
            "analyze",
            "--path",
            str(miniapp_path),
            "--out",
            str(out_custom),
            "--format",
            "json",
            "--rules",
            str(rules),
            "--images",
            str(images),
        ],
        capsys,
    )[0] == 0
    assert (out_custom / "miniapp.json").read_bytes() == (
        out_default / "miniapp.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "flag,content,named",
    [
        ("--rules", '{"rules": [{"stereotype": "gateway", "keywords": "Zuul"}]}', "keyword rule 1 (gateway)"),
        ("--rules", '{"rules": [{"stereotype": "gateway", "keywords": ["Zuul"], "languages": "java"}]}', "keyword rule 1"),
        ("--rules", '{"rules": [{"stereotype": "load_balancer", "keywords": [""]}]}', "keyword rule 1 (load_balancer)"),
        ("--rules", '{"rules": [{"keywords": ["Zuul"]}]}', "keyword rule 1: stereotype must be a string"),
        ("--rules", '{"rules": [{"stereotype": "gateway", "keywords": ["Zuul"]}, "gateway"]}', "keyword rule 2: not an object"),
        ("--rules", '[{"stereotype": "gateway", "keywords": ["Zuul"]}]', 'an object holding a "rules" list'),
        ("--rules", '{"rules": {"stereotype": "gateway", "keywords": ["Zuul"]}}', 'an object holding a "rules" list'),
        (
            "--rules",
            '{"rules": [{"stereotype": "gateway", "keywords": ["Zuul"], "regex": "false"}]}',
            "keyword rule 1 (gateway): regex must be true or false",
        ),
        ("--images", "mongo not_a_stereotype database\n", "mongo not_a_stereotype database"),
    ],
)
def test_a_bad_rule_file_exits_2_naming_its_rule(miniapp_path, tmp_path, capsys, flag, content, named):
    path = tmp_path / "rules.txt"
    path.write_text(content, encoding="utf-8")
    argv = ["analyze", "--path", str(miniapp_path), "--out", str(tmp_path / "out"), flag, str(path)]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2
    assert stderr.startswith("error: ") and named in stderr
    assert not (tmp_path / "out").exists()


def test_paper_parity_flag_accepted(miniapp_path, tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "analyze",
            "--path",
            str(miniapp_path),
            "--out",
            str(tmp_path / "out"),
            "--format",
            "json",
            "--paper-parity",
        ],
        capsys,
    )
    assert code == 0


def test_bad_repo_url_is_an_error(tmp_path, temp_root, capsys):
    code, _, stderr = run_cli(
        [
            "analyze",
            "--repo-url",
            "file://%s/no-such-repo.git" % tmp_path,
            "--out",
            str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 2
    assert "git" in stderr
    assert list(temp_root.iterdir()) == []  # the failed checkout is removed


def test_analyze_local_git_repository(git_repo, tmp_path, temp_root, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(
        ["analyze", "--repo-url", "file://%s" % git_repo, "--out", str(out), "--format", "json"],
        capsys,
    )
    assert code == 0
    assert "(commit " in stdout
    dfd = json.loads((out / "repo.json").read_text(encoding="utf-8"))
    assert [n["name"] for n in dfd["nodes"]] == ["solo"]
    assert list(temp_root.iterdir()) == []  # the checkout is removed


def test_fetch_repository_keeps_a_given_dest(git_repo, tmp_path, temp_root):
    dest = tmp_path / "checkout"
    path, commit = fetch_repository("file://%s" % git_repo, dest=str(dest))
    assert path == dest
    assert len(commit) == 40
    assert (dest / "docker-compose.yml").is_file()
    assert list(temp_root.iterdir()) == []


@pytest.mark.parametrize("option", ["--ref", "--repo-url"])
def test_option_like_git_values_are_refused(option, git_repo, tmp_path, temp_root, capsys):
    marker = tmp_path / "ran"
    values = {"--repo-url": "file://%s" % git_repo, "--ref": "main"}
    values[option] = "--upload-pack=touch %s;git-upload-pack" % marker
    argv = ["analyze", "--out", str(tmp_path / "out")]
    argv += ["%s=%s" % item for item in values.items()]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2
    assert "must not start with '-'" in stderr
    assert not marker.exists()  # git never ran the injected command
    assert list(temp_root.iterdir()) == []


def test_git_reads_user_values_as_operands(git_repo, tmp_path):
    # past the refusal, --end-of-options still keeps git from parsing options
    marker = tmp_path / "ran"
    inject = "--upload-pack=touch %s;git-upload-pack" % marker
    for url, ref in (("file://%s" % git_repo, inject), (inject, None), (inject, "main")):
        with pytest.raises(AnalysisError):
            _fetch(url, ref, tmp_path / "checkout")
        shutil.rmtree(tmp_path / "checkout", ignore_errors=True)
    assert not marker.exists()


def test_fetch_repository_at_a_ref(git_repo, tmp_path, temp_root):
    def git(*args):
        done = subprocess.run(["git", *args], cwd=git_repo, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    head = git("rev-parse", "HEAD")
    for ref in (head, git("symbolic-ref", "--short", "HEAD")):
        path, commit = fetch_repository("file://%s" % git_repo, ref=ref, dest=str(tmp_path / ref))
        assert commit == head
        assert (path / "docker-compose.yml").is_file()


def test_a_digit_like_password_is_written_as_a_string(tmp_path, capsys):
    svc = tmp_path / "app" / "shop"
    (svc / "src" / "main" / "resources").mkdir(parents=True)
    (svc / "pom.xml").write_text("<project><artifactId>shop</artifactId></project>\n", encoding="utf-8")
    (svc / "src" / "main" / "resources" / "application.yml").write_text(
        'spring:\n  security:\n    user:\n      name: admin\n      password: "²"\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, _, stderr = run_cli(["analyze", "--path", str(tmp_path / "app"), "--out", str(out)], capsys)
    assert (code, stderr) == (0, "")
    (node,) = json.loads((out / "app.json").read_text(encoding="utf-8"))["nodes"]
    assert node["tagged_values"]["password"] == "²"


def test_verbose_reports_failures(miniapp_path, tmp_path, capsys, monkeypatch):
    from dfdscan.extractors import base

    class Broken(base.Extractor):
        name = "broken"
        phase = "node"

        def run(self, ctx):
            raise RuntimeError("boom")

    real = base.default_extractors
    monkeypatch.setattr(base, "default_extractors", lambda: real() + [Broken()])
    code, stdout, _ = run_cli(
        [
            "analyze",
            "--path",
            str(miniapp_path),
            "--out",
            str(tmp_path / "out"),
            "--format",
            "json",
            "--verbose",
        ],
        capsys,
    )
    assert code == 0
    assert "extractor broken failed" in stdout


def test_verbose_prints_timings_in_pipeline_order(miniapp_path, tmp_path, capsys):
    argv = ["analyze", "--path", str(miniapp_path), "--out", str(tmp_path / "out")]
    code, quiet, _ = run_cli(argv, capsys)
    assert code == 0
    assert "  time " not in quiet
    code, stdout, _ = run_cli(argv + ["--verbose"], capsys)
    assert code == 0
    timed = re.findall(r"^  time (\w+): \d+\.\d{4}s$", stdout, re.MULTILINE)
    pipeline = [e.name for p in PHASES for e in default_extractors() if e.phase == p]
    assert timed == pipeline + ["serialize"]


def test_verbose_prints_how_literal_searches_were_served(miniapp_path, tmp_path, capsys, monkeypatch):
    argv = ["analyze", "--path", str(miniapp_path), "--out", str(tmp_path / "out")]
    code, quiet, _ = run_cli(argv, capsys)
    assert code == 0
    assert "search:" not in quiet
    # the verbose run and its reference index afresh, as a CLI process does
    monkeypatch.setattr(search, "_memo", search.OrderedDict())
    code, stdout, _ = run_cli(argv + ["--verbose"], capsys)
    assert code == 0
    lines = re.findall(r"^  search: (\d+) literal, (\d+) skipped by vocabulary$", stdout, re.MULTILINE)
    monkeypatch.setattr(search, "_memo", search.OrderedDict())
    index = analyze_directory(miniapp_path).index
    assert index.reused == 0
    expected = (index.literal_searches, index.vocabulary_skips)
    assert [tuple(map(int, line)) for line in lines] == [expected]
    # most keywords of the rule set are absent from the app
    literal, skipped = expected
    assert literal > skipped > 0


DEEP = "[" * 40_000 + "]" * 40_000  # libyaml's composer dies of this (SIGSEGV)


@pytest.mark.parametrize(
    "path, text",
    [
        ("bad/src/main/resources/application.yml", "a: %s\n" % DEEP),
        ("docker-compose.yml", "services:\n  alpha:\n    build: ./alpha\n    x: %s\n" % DEEP),
    ],
    ids=["application.yml", "docker-compose.yml"],
)
def test_a_file_nested_deep_enough_to_crash_libyaml_is_one_warning(tmp_path, path, text):
    files = {
        "alpha/pom.xml": "<project><artifactId>alpha</artifactId></project>",
        "bad/pom.xml": "<project><artifactId>bad</artifactId></project>",
        path: text,
    }
    root = tmp_path / "app"
    for rel, content in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(content, encoding="utf-8")
    src = str(Path(search.__file__).resolve().parent.parent)
    # a subprocess, because a crash in libyaml takes the interpreter with it
    done = subprocess.run(
        [sys.executable, "-m", "dfdscan.cli", "analyze", "--path", str(root), "--out", str(tmp_path / "out"), "--verbose"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    warnings = [line for line in done.stdout.splitlines() if line.startswith("  warning: ")]
    assert warnings == ["  warning: %s: yaml: nested deeper than 10000 collections" % path]
    nodes = json.loads((tmp_path / "out" / "app.json").read_text(encoding="utf-8"))["nodes"]
    assert {n["name"] for n in nodes} == {"alpha", "bad"}
