"""End-to-end analysis of a codebase snapshot, plus repository fetching."""
from __future__ import annotations

import time
from collections import namedtuple
from pathlib import Path

from .extractors import run_pipeline
from .rules import load_rules
from .search import AnalysisError, build_index


# a model.Dfd, an extractors.Report, a search.FileIndex and the seconds taken, excluding any clone
AnalysisResult = namedtuple("AnalysisResult", "dfd report index elapsed")


def analyze_directory(
    path: str | Path,
    keyword_rules_path: str | None = None,
    image_catalog_path: str | None = None,
    raw: bool = False,
) -> AnalysisResult:
    """Index a directory, run the pipeline, and time the analysis.

    raw indexes Java comments as code (see build_index).
    """
    path = Path(path)
    if not path.is_dir():
        raise AnalysisError("not a directory: %s" % path)
    rules = load_rules(keyword_path=keyword_rules_path, image_path=image_catalog_path)
    started = time.perf_counter()
    index = build_index(path, raw=raw)
    dfd, report = run_pipeline(index, rules=rules)
    elapsed = time.perf_counter() - started
    return AnalysisResult(dfd=dfd, report=report, index=index, elapsed=elapsed)


def fetch_repository(url: str, ref: str | None = None, dest: str | None = None) -> tuple[Path, str]:
    """Clone a git repository (shallow when possible) at an optional ref.

    Returns (checkout_path, resolved_commit).  Without dest the checkout
    goes to a new temporary directory that the caller must remove; when
    the fetch fails that directory is removed here.  Raises AnalysisError
    when git fails, e.g. without network access, and before running git
    when the URL or the ref starts with "-", which git would read as an
    option.  The modules a clone needs (subprocess, tempfile, shutil) are
    imported on the first call, so a local analysis never loads them.
    """
    import shutil  # noqa: PLC0415
    import tempfile  # noqa: PLC0415

    for what, value in (("repository URL", url), ("ref", ref)):
        if value and value.startswith("-"):
            raise AnalysisError("%s must not start with '-': %r" % (what, value))
    if shutil.which("git") is None:
        raise AnalysisError("git is not available")
    target = Path(dest) if dest else Path(tempfile.mkdtemp(prefix="dfdscan_"))
    try:
        return _fetch(url, ref, target)
    except BaseException:
        if dest is None:
            shutil.rmtree(target, ignore_errors=True)
        raise


def _fetch(url: str, ref: str | None, target: Path) -> tuple[Path, str]:
    import shutil  # noqa: PLC0415
    import subprocess  # noqa: PLC0415

    target.mkdir(parents=True, exist_ok=True)

    def run(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=300,
        )

    if ref:
        run("init", "-q", str(target))
        run("remote", "add", "--end-of-options", "origin", url, cwd=target)
        fetched = run("fetch", "-q", "--depth", "1", "--end-of-options", "origin", ref, cwd=target)
        if fetched.returncode == 0:
            run("checkout", "-q", "FETCH_HEAD", cwd=target)
        else:
            # some servers refuse fetching a bare commit; fall back to a full clone
            shutil.rmtree(target, ignore_errors=True)
            cloned = run("clone", "-q", "--end-of-options", url, str(target))
            if cloned.returncode != 0:
                raise AnalysisError("git clone failed: %s" % cloned.stderr.strip())
            # checkout reads --end-of-options as a pathspec; the ref was
            # refused above if it starts with "-"
            checked = run("checkout", "-q", ref, cwd=target)
            if checked.returncode != 0:
                raise AnalysisError("git checkout %s failed: %s" % (ref, checked.stderr.strip()))
    else:
        cloned = run("clone", "-q", "--depth", "1", "--end-of-options", url, str(target))
        if cloned.returncode != 0:
            raise AnalysisError("git clone failed: %s" % cloned.stderr.strip())
    head = run("rev-parse", "HEAD", cwd=target)
    if head.returncode != 0:
        raise AnalysisError("git rev-parse failed: %s" % head.stderr.strip())
    return target, head.stdout.strip()
