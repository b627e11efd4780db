"""The names the benchmark in dfdbench/ reaches into dfdscan by.

The benchmark's tracer wraps functions by module and attribute name and
skips a target that no longer exists, so a rename or deletion in dfdscan
turns the metric into null instead of failing.  Its runner and set-up
probe import a few names outright.  These checks fail first instead.
dfdbench/tracer.py is loaded read-only, by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "dfdbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("dfdbench_tracer_hooks", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_has_a_live_target(tracer):
    targets = {}
    for module_name, attr, stem in tracer.SPANNED + tracer.COUNTED:
        owner, _, _ = tracer._lookup(module_name, attr)
        targets.setdefault(stem, []).append(owner is not None)
    dead = sorted(stem for stem, live in targets.items() if not any(live))
    assert dead == [], "no live target, so the --trace 1 metric reads null"


def test_the_runner_imports_the_kernel_for_provenance():
    kernel = importlib.import_module("dfdscan._kernel")
    assert callable(kernel.scan)
    assert isinstance(kernel.BACKEND, str)


def test_the_setup_probe_finds_the_rules_and_the_registry():
    assert callable(importlib.import_module("dfdscan.rules").load_rules)
    assert callable(importlib.import_module("dfdscan.extractors").default_extractors)
