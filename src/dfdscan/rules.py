"""Loading of the data-driven rule files.

Three rule files steer extraction: keyword rules (code evidence mapped to
node stereotypes), the container image catalog, and credential key
suffixes.  Defaults ship as package data; the CLI can swap in user files
for the first two.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path

from . import catalog
from .parsers import ImageRule, load_image_catalog


@dataclass
class KeywordRule:
    stereotype: str
    keywords: list[str]
    languages: tuple[str, ...] = ("java",)
    regex: bool = False


@dataclass
class RuleSet:
    keyword_rules: list[KeywordRule] = field(default_factory=list)
    image_rules: list[ImageRule] = field(default_factory=list)
    credential_keys: list[tuple[str, str]] = field(default_factory=list)


def _parse_keyword_rules(text: str) -> list[KeywordRule]:
    data = json.loads(text)
    rules = []
    for obj in data["rules"]:
        stereotype = obj["stereotype"]
        if not catalog.is_known(stereotype):
            raise ValueError("keyword rule names unknown stereotype %r" % stereotype)
        rules.append(
            KeywordRule(
                stereotype=stereotype,
                keywords=list(obj["keywords"]),
                languages=tuple(obj.get("languages", ["java"])),
                regex=bool(obj.get("regex", False)),
            )
        )
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
