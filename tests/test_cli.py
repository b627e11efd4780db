"""Tests for the command line interface."""
import json
import re
import shutil
import subprocess
from importlib import resources
from pathlib import Path

import pytest

from dfdscan import search
from dfdscan.analysis import AnalysisError, _fetch, analyze_directory, fetch_repository
from dfdscan.cli import _app_name, build_parser, main
from dfdscan.extractors.base import PHASES, default_extractors


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


def test_verbose_prints_how_literal_searches_were_served(miniapp_path, tmp_path, capsys):
    argv = ["analyze", "--path", str(miniapp_path), "--out", str(tmp_path / "out")]
    code, quiet, _ = run_cli(argv, capsys)
    assert code == 0
    assert "search:" not in quiet
    code, stdout, _ = run_cli(argv + ["--verbose"], capsys)
    assert code == 0
    lines = re.findall(
        r"^  search: (\d+) literal, (\d+) skipped by vocabulary, (\d+) cached$", stdout, re.MULTILINE
    )
    index = analyze_directory(miniapp_path).index
    expected = (index.literal_searches, index.vocabulary_skips, index.cache_hits)
    assert [tuple(map(int, line)) for line in lines] == [expected]
    # the rule set repeats keywords and most of them are absent from the app
    literal, skipped, cached = expected
    assert literal > skipped + cached and skipped > 0 and cached > 0
