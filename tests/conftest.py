import os
import shutil
import subprocess
import tempfile

import pytest

from dfdscan.analysis import analyze_directory

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
MINIAPP = os.path.join(FIXTURES, "miniapp")


@pytest.fixture(scope="session")
def miniapp_path():
    return MINIAPP


@pytest.fixture(scope="session")
def miniapp_result():
    """One shared analysis of the miniapp fixture for read-only tests."""
    return analyze_directory(MINIAPP)


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
