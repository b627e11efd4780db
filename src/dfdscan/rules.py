"""Loading of the data-driven rule files.

Three rule files steer extraction: keyword rules (code evidence mapped to
node stereotypes), the container image catalog, and credential key
suffixes.  Defaults ship as package data; the CLI can swap in user files
for the first two.
"""
from __future__ import annotations

import json
import re
from collections import namedtuple
from functools import cache
from importlib import resources
from pathlib import Path

from . import catalog
from .parsers import ImageRule, load_image_catalog


# keywords is a list of strings, languages a tuple of them
KeywordRule = namedtuple("KeywordRule", "stereotype keywords languages regex")
# credential_keys holds (key suffix, tag) pairs
RuleSet = namedtuple("RuleSet", "keyword_rules image_rules credential_keys")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _parse_keyword_rules(text: str) -> list[KeywordRule]:
    """The rules of a keyword rule file; ValueError names a bad one."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("rules"), list):
        raise ValueError('a keyword rule file must be an object holding a "rules" list')
    rules = []
    for n, obj in enumerate(data["rules"], 1):
        if not isinstance(obj, dict):
            raise ValueError("keyword rule %d: not an object" % n)
        stereotype = obj.get("stereotype")
        if not isinstance(stereotype, str):
            raise ValueError("keyword rule %d: stereotype must be a string" % n)
        if not catalog.is_known(stereotype):
            raise ValueError("keyword rule %d names unknown stereotype %r" % (n, stereotype))
        rule = "keyword rule %d (%s)" % (n, stereotype)
        keywords = obj.get("keywords")
        if not _strings(keywords) or not all(k and "\n" not in k for k in keywords):
            raise ValueError("%s: keywords must be a list of non-empty strings without a newline" % rule)
        languages = obj.get("languages", ["java"])
        if not _strings(languages):
            raise ValueError("%s: languages must be a list of strings" % rule)
        regex = obj.get("regex", False)
        if not isinstance(regex, bool):
            raise ValueError("%s: regex must be true or false" % rule)
        for keyword in keywords if regex else ():
            try:
                re.compile(keyword)
            except re.error as exc:
                raise ValueError("%s: bad regex %r: %s" % (rule, keyword, exc)) from None
        rules.append(KeywordRule(stereotype, keywords, tuple(languages), regex))
    return rules


def _parse_credential_keys(lines) -> list[tuple[str, str]]:
    out = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("bad credential key line: %r" % raw)
        out.append((parts[0].lower(), parts[1]))
    return out


def _default_text(name: str) -> str:
    return resources.files("dfdscan").joinpath("rules", name).read_text(encoding="utf-8")


def load_rules(
    keyword_path: str | Path | None = None,
    image_path: str | Path | None = None,
) -> RuleSet:
    """Build a RuleSet from the given files, defaulting to package data.

    Given files are read on every call.  The default RuleSet is built once
    per process and shared by every caller, so no caller may change it.
    """
    if keyword_path is None and image_path is None:
        return _default_rules()
    return _build_rules(keyword_path, image_path)


@cache
def _default_rules() -> RuleSet:
    return _build_rules(None, None)


def _build_rules(keyword_path: str | Path | None, image_path: str | Path | None) -> RuleSet:
    if keyword_path is not None:
        keyword_text = Path(keyword_path).read_text(encoding="utf-8")
    else:
        keyword_text = _default_text("keyword_rules.json")
    if image_path is not None:
        image_lines = Path(image_path).read_text(encoding="utf-8").splitlines()
    else:
        image_lines = _default_text("image_catalog.txt").splitlines()
    return RuleSet(
        keyword_rules=_parse_keyword_rules(keyword_text),
        image_rules=load_image_catalog(image_lines),
        credential_keys=_parse_credential_keys(_default_text("credential_keys.txt").splitlines()),
    )
