import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from collections import OrderedDict

import pytest

from dfdscan import search
from dfdscan.analysis import analyze_directory

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
MINIAPP = os.path.join(FIXTURES, "miniapp")
GEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "dfdbench", "gen.py")


@pytest.fixture(autouse=True)
def empty_index_memo(monkeypatch):
    """Each test starts with an empty memo of recently indexed roots, so
    what an earlier test indexed cannot decide whether its index is warm."""
    monkeypatch.setattr(search, "_memo", OrderedDict())


@pytest.fixture(scope="session")
def miniapp_path():
    return MINIAPP


@pytest.fixture(scope="session")
def miniapp_result():
    """One shared analysis of the miniapp fixture for read-only tests."""
    return analyze_directory(MINIAPP)


@pytest.fixture(scope="session")
def gen():
    """The benchmark's tree generator, dfdbench/gen.py, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("dfdbench_gen_tests", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def git_repo(tmp_path):
    """A local one-commit git repository holding a single compose service."""
    if shutil.which("git") is None:
        pytest.skip("git not installed")
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "docker-compose.yml").write_text(
        "services:\n  solo:\n    build: ./solo\n", encoding="utf-8"
    )
    for args in (("init", "-q"), ("add", "."), ("commit", "-q", "-m", "init")):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
            cwd=repo,
            check=True,
            capture_output=True,
        )
    return repo


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """An empty directory that tempfile uses for new temporary files."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


@pytest.fixture(scope="session")
def alias_bomb():
    """alias_bomb(levels, indent=""): a YAML mapping of levels anchored lists,
    each holding ten aliases of the one before, so l4 flattens to 10**5
    entries."""

    def make(levels, indent=""):
        lines = ["%sl0: &l0 [%s]\n" % (indent, ", ".join(["x"] * 10))]
        for i in range(1, levels):
            lines.append("%sl%d: &l%d [%s]\n" % (indent, i, i, ", ".join(["*l%d" % (i - 1)] * 10)))
        return "".join(lines)

    return make
