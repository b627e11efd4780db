"""The package's public names, and what importing it costs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfdscan

PACKAGE = Path(dfdscan.__file__).resolve().parent
# dataclasses pulls in inspect, ast, dis and tokenize; typing is as costly
SLOW_IMPORTS = {"dataclasses", "typing"}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dfdscan import *", namespace)
    missing = [name for name in dfdscan.__all__ if name not in namespace]
    assert missing == []
    assert len(set(dfdscan.__all__)) == len(dfdscan.__all__)


def newly_loaded(modules):
    """Which of modules a fresh interpreter loads when it imports the
    package's entry points; skips when its site had loaded one already."""
    probe = (
        "import json, sys; before = set(sys.modules); "
        "import dfdscan.cli, dfdscan.extractors, dfdscan.service, dfdscan.evaluation; "
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    before, loaded = json.loads(done.stdout)
    had = sorted(set(modules) & set(before))
    if had:
        pytest.skip("this interpreter's site imports %s" % ", ".join(had))
    return set(modules) & set(loaded)


def test_no_process_of_the_package_loads_dataclasses_or_inspect():
    assert newly_loaded({"dataclasses", "inspect"}) == set()


def test_no_process_of_the_package_loads_traceback_or_tokenize():
    # traceback loads linecache and tokenize; only a crashed answer needs it
    assert newly_loaded({"traceback", "linecache", "tokenize"}) == set()


def test_no_module_of_the_package_imports_dataclasses_or_typing():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s: %s" % (path.relative_to(PACKAGE), n) for n in names if n.split(".")[0] in SLOW_IMPORTS]
    assert found == []
