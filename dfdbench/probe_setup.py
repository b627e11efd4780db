"""Cold set-up of dfdscan, as one CLI process pays it.

Imports the CLI, loads the rule files and imports the extractor registry,
then prints the seconds each step took as one JSON object.  A step whose
function no longer exists reads null.
"""
import importlib
import json
import time

t0 = time.perf_counter()
importlib.import_module("dfdscan.cli")
t1 = time.perf_counter()
rules = importlib.import_module("dfdscan.rules")
load_rules = getattr(rules, "load_rules", None)
if load_rules is not None:
    load_rules()
t2 = time.perf_counter()
extractors = importlib.import_module("dfdscan.extractors")
default_extractors = getattr(extractors, "default_extractors", None)
if default_extractors is not None:
    default_extractors()
t3 = time.perf_counter()
print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "rules_s": t2 - t1 if load_rules else None,
            "registry_s": t3 - t2 if default_extractors else None,
        }
    )
)
