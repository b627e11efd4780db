"""Configuration parsers: YAML flattening, .properties files, compose
files, Dockerfiles, build files, container image classification, and the
loading of rule files."""

import gc
import os
import random
import tracemalloc
from collections import OrderedDict

import pytest
import yaml

from dfdscan import parsers, rules, search
from dfdscan.analysis import analyze_directory
from dfdscan.parsers import (
    ParserError,
    PropertyEntry,
    PropertyMap,
    classify_image,
    load_image_catalog,
    parse_compose,
    parse_dockerfile,
    parse_gradle_settings,
    parse_maven_artifact_id,
    parse_maven_modules,
    parse_properties_file,
    parse_yaml_properties,
    relaxed_key,
)
from dfdscan.model import TraceEntry
from dfdscan.rules import load_rules
from dfdscan.search import _index_file, build_index


def yaml_file(content, path="app/src/main/resources/application.yml"):
    return _index_file(path, content)


# ----------------------------------------------------------------------
# YAML flattening
# ----------------------------------------------------------------------


def test_yaml_flattening_and_locations():
    f = yaml_file(
        "spring:\n"
        "  application:\n"
        "    name: notification-service\n"
        "server:\n"
        "  port: 8000\n"
    )
    entries = {e.key: e for e in parse_yaml_properties(f)}
    name = entries["spring.application.name"]
    assert name.value == "notification-service"
    assert name.trace.line == 3
    assert name.trace.span == (10, 30)
    assert name.trace.snippet == "notification-service"
    assert entries["server.port"].value == "8000"


def test_yaml_sequences_get_indexed_keys():
    f = yaml_file(
        "zuul:\n"
        "  ignored:\n"
        "    - first\n"
        "    - second\n"
    )
    keys = {e.key: e.value for e in parse_yaml_properties(f)}
    assert keys == {"zuul.ignored[0]": "first", "zuul.ignored[1]": "second"}


def test_yaml_multi_document_profiles():
    f = yaml_file(
        "spring:\n"
        "  application:\n"
        "    name: svc\n"
        "---\n"
        "spring:\n"
        "  profiles: docker\n"
        "  rabbitmq:\n"
        "    host: rabbitmq\n"
    )
    entries = parse_yaml_properties(f)
    by_key = {}
    for e in entries:
        by_key.setdefault(e.key, []).append(e)
    assert by_key["spring.application.name"][0].profile is None
    assert by_key["spring.rabbitmq.host"][0].profile == "docker"


def test_yaml_merge_key_flattened_into_parent():
    f = yaml_file(
        "defaults: &base\n"
        "  timeout: 5\n"
        "service:\n"
        "  <<: *base\n"
        "  port: 80\n"
    )
    keys = {e.key: e.value for e in parse_yaml_properties(f)}
    assert keys["service.timeout"] == "5"
    assert keys["service.port"] == "80"


def test_yaml_malformed_raises_parser_error():
    f = yaml_file("key: [unclosed\n")
    with pytest.raises(ParserError):
        parse_yaml_properties(f)


def test_yaml_merge_keys_keep_document_order():
    f = yaml_file(
        "base: &base\n"
        "  timeout: 5\n"
        "  retries: 2\n"
        "tls: &tls\n"
        "  <<: *base\n"
        "  port: 443\n"
        "service:\n"
        "  name: svc\n"
        "  <<: *tls\n"
        "  retries: 3\n"
    )
    pairs = [(e.key, e.value) for e in parse_yaml_properties(f)]
    assert pairs[5:] == [
        ("service.name", "svc"),
        ("service.timeout", "5"),
        ("service.retries", "2"),
        ("service.port", "443"),
        ("service.retries", "3"),
    ]


PATH = "app/src/main/resources/application.yml"


def test_an_empty_value_at_a_line_end_spans_one_past_it():
    entries = {e.key: e for e in parse_yaml_properties(yaml_file("server:\n  port:\nx: 1\n"))}
    assert entries["server.port"].value == ""
    # the span runs past "  port:", and the snippet holds no newline
    assert entries["server.port"].trace == TraceEntry(PATH, 2, (7, 8), "")
    assert entries["x"].trace == TraceEntry(PATH, 3, (3, 4), "1")


def test_a_yaml_mark_past_the_last_line_keeps_its_line_and_an_empty_snippet():
    # libyaml also ends a line at U+2028; the index ends one only at LF
    f = yaml_file('a: [1,\u2028\u2028\u2028 2]\nb: [3,\u2028\u2028 "x\n y"]')
    assert [(e.key, e.trace) for e in parse_yaml_properties(f)] == [
        ("a[0]", TraceEntry(PATH, 1, (4, 5), "1")),
        ("a[1]", TraceEntry(PATH, 4, (1, 2), "")),
        ("b[0]", TraceEntry(PATH, 5, (4, 5), "")),
        ("b[1]", TraceEntry(PATH, 7, (1, 2), "")),
    ]


def nested_yaml(depth, style):
    """A document nested depth collections deep."""
    if style == "flow-list":
        return "a: " + "[" * (depth - 1) + "x" + "]" * (depth - 1) + "\n"
    if style == "flow-mapping":
        return "a: " + "{a: " * (depth - 1) + "x" + "}" * (depth - 1) + "\n"
    if style == "block-list":
        return "- " * depth + "x\n"
    return "".join(" " * i + "a:\n" for i in range(depth - 1)) + " " * (depth - 1) + "a: x\n"


@pytest.mark.parametrize("style", ["flow-list", "flow-mapping", "block-list", "block-mapping"])
def test_yaml_nested_past_the_bound_is_refused(style):
    bound = parsers.MAX_YAML_DEPTH
    entries = parse_yaml_properties(yaml_file(nested_yaml(bound, style)))
    assert [e.value for e in entries] == ["x"]
    with pytest.raises(ParserError, match="nested deeper than %d" % bound):
        parse_yaml_properties(yaml_file(nested_yaml(bound + 1, style)))


@pytest.mark.parametrize("style", ["flow-list", "flow-mapping", "block-list"])
def test_a_yaml_file_3000_levels_deep_is_refused(style):
    with pytest.raises(ParserError, match="nested deeper than"):
        parse_yaml_properties(yaml_file(nested_yaml(3000, style)))


def test_a_deep_compose_file_is_read_to_the_depth_it_needs():
    deep = "services:\n  web:\n    image: nginx\n    x: " + "[" * 3000 + "]" * 3000 + "\n"
    assert [(s.name, s.image) for s in parse_compose(_index_file("docker-compose.yml", deep))] == [("web", "nginx")]


def test_a_text_nested_past_what_libyaml_composes_is_refused_uncomposed(monkeypatch):
    monkeypatch.setattr(parsers, "_COMPOSE_DEPTH", 100)
    for style in ("flow-list", "flow-mapping", "block-list"):
        # 100 collections: the root, services, web and 97 below x
        text = "services:\n  web:\n    image: nginx\n    x:\n" + "".join(
            "      " + line + "\n" for line in nested_yaml(97, style).splitlines()
        )
        assert [s.name for s in parse_compose(_index_file("docker-compose.yml", text))] == ["web"]
        with pytest.raises(ParserError, match="nested deeper than 100 collections"):
            parse_compose(_index_file("docker-compose.yml", nested_yaml(101, style)))
    with pytest.raises(ParserError, match="nested deeper than 100 collections"):
        parse_yaml_properties(yaml_file(nested_yaml(101, "flow-list")))


def test_flattening_a_deep_document_does_not_recurse(monkeypatch):
    monkeypatch.setattr(parsers, "MAX_YAML_DEPTH", 10_000)
    deep = yaml.compose("a: " + "[" * 3000 + "x" + "]" * 3000, Loader=parsers._Loader)
    assert [(key, node.value) for key, node in parsers._flatten_yaml(deep, "f.yml")] == [
        ("a" + "[0]" * 3000, "x")
    ]


def test_aliases_expanding_past_the_bound_are_refused(alias_bomb):
    # 1,110 entries from 157 characters: fewer nodes than the bound allows
    assert len(parse_yaml_properties(yaml_file(alias_bomb(3)))) == 1110
    for levels in (4, 5):  # 11,110 and 111,110 entries from 216 and 275 characters
        bound = parsers.MAX_YAML_EXPANSION
        with pytest.raises(ParserError, match="aliases expand to more than %d entries per character" % bound):
            parse_yaml_properties(yaml_file(alias_bomb(levels)))
    with pytest.raises(ParserError, match="nested deeper than"):
        parse_yaml_properties(yaml_file("a: &a [x, *a]\n"))  # a list holding itself


LOGGING = "x-logging: &log\n  driver: json-file\n  options: {max-size: 10m, max-file: '3'}\n"


def test_a_nested_anchor_shared_by_many_entries_still_flattens():
    text = LOGGING + "".join("s%d:\n  port: %d\n  logging: *log\n" % (i, 8000 + i) for i in range(30))
    entries = parse_yaml_properties(yaml_file(text))
    assert len(entries) == 3 + 30 * 4
    assert [(e.key, e.value) for e in entries if e.key.startswith("s29.")] == [
        ("s29.port", "8029"),
        ("s29.logging.driver", "json-file"),
        ("s29.logging.options.max-size", "10m"),
        ("s29.logging.options.max-file", "3"),
    ]


def test_a_compose_file_sharing_a_nested_anchor_keeps_every_service():
    text = LOGGING + "services:\n" + "".join(
        "  s%d:\n    image: img%d\n    logging: *log\n" % (i, i) for i in range(30)
    )
    services = parse_compose(_index_file("docker-compose.yml", text))
    assert [(s.name, s.image) for s in services] == [("s%d" % i, "img%d" % i) for i in range(30)]


def test_a_compose_file_with_an_alias_bomb_is_read_without_expanding_it(alias_bomb):
    # compose services are read at a fixed depth, so no alias is expanded
    text = "x-bomb:\n" + alias_bomb(6, indent="  ") + "services:\n  web:\n    image: nginx\n"
    text += "    environment: *l5\n    ports: *l5\n"
    services = parse_compose(_index_file("docker-compose.yml", text))
    assert [(s.name, s.image, s.environment, s.ports) for s in services] == [("web", "nginx", [], [])]


def test_a_collection_as_a_key_is_refused_without_expanding_it(alias_bomb):
    # 296 characters; str() of the key would expand it to 6.4 MB
    key = "? {%s}\n: v\nport: 80\n" % ", ".join(alias_bomb(5).splitlines())
    with pytest.raises(ParserError, match="a mapping key that is a collection"):
        parse_yaml_properties(yaml_file(key))
    compose = key + "services:\n  ? [a]\n  : {image: a}\n  web:\n    ? [b]\n    : v\n    image: nginx\n"
    assert [(s.name, s.image) for s in parse_compose(_index_file("docker-compose.yml", compose))] == [("web", "nginx")]


# ----------------------------------------------------------------------
# libyaml composer vs pure-Python composer
# ----------------------------------------------------------------------

# Known divergences, none seen in real configuration files: libyaml
# accepts a tab after "k:" (asserted below) or inside a plain scalar, and a
# comment glued to a block scalar header ("|#c"); it rejects a BOM after
# the first character and an explicit key in a flow collection ("[? ]");
# for an empty value after an explicit "?" key at the very end of a file
# without a final newline it marks the next line.
YAML_EDGE_CORPUS = {
    "block.yml": (
        "logging:\n"
        "  pattern: |\n"
        "    %d{HH:mm} %msg\n"
        "    second line\n"
        "  folded: >-\n"
        "    one\n"
        "    two\n"
        "after: x\n"
    ),
    "profiles.yml": (
        "server:\n  port: 8080\n"
        "---\n"
        "spring:\n  profiles: docker\nserver:\n  port: 80\n"
        "---\n"
        "spring:\n  config:\n    activate:\n      on-profile: prod\n"
        "db:\n  url: jdbc:postgresql://db/x\n"
        "...\n"
    ),
    "anchors.yml": (
        "defaults: &defaults\n"
        "  adapter: postgres\n"
        "  host: localhost\n"
        "development:\n"
        "  <<: *defaults\n"
        "  database: dev\n"
        "list: &l [a, b]\n"
        "other: *l\n"
        "merged:\n"
        "  <<: [*defaults, {extra: 1}]\n"
    ),
    "flow.yml": (
        'ports: [8080, "9090:9090", {target: 1}]\n'
        'env: {A: 1, B: "two", C: [x, y]}\n'
        "empty: {}\n"
        "none: []\n"
    ),
    "multiline.yml": (
        "plain: this is\n"
        "  a multi-line\n"
        "  plain scalar\n"
        'dq: "double\n'
        '  quoted \\u00e9"\n'
        "sq: 'single\n"
        "  ''quoted'''\n"
        "next: 1\n"
    ),
    "unicode.yml": (
        "name: café-ß\n"
        'emoji: "😀 rocket 🚀"\n'
        "ключ: значение 𝔘𝔫𝔦\n"
        '"𝔘𝔫𝔦": x\n'
        "after: 😀😀 y\n"
    ),
    "bom.yml": "\ufeffspring:\n  application:\n    name: bom-svc\n",
    "scalars.yml": (
        "flags:\n"
        "  yes: yes\n"
        "  on: On\n"
        "  nothing: ~\n"
        "  exp: 1e3\n"
        "  hex: 0x1F\n"
        "  tagged: !!str 5\n"
        "base: &base\n"
        "  port: 8080\n"
        "svc:\n"
        "  <<: *base\n"
        "  host: h\n"
    ),
    "docker-compose.yml": (
        "\ufeffx-common: &common\n"
        "  environment:\n"
        "    - SPRING_PROFILES_ACTIVE=docker\n"
        "services:\n"
        "  api:\n"
        "    <<: *common\n"
        "    build: {context: ./api}\n"
        '    ports: ["8080:8080", {target: 9090, published: 9091}]\n'
        "    environment:\n"
        "      PASSWORD: >-\n"
        "        s3cret\n"
        "        more\n"
        '      NAME: "héllo 😀"\n'
        "    depends_on: {db: {condition: service_started}}\n"
        "  db:\n"
        "    image: 'postgres:15'\n"
        '    links: ["api:alias"]\n'
    ),
}

YAML_MALFORMED = ("key: [unclosed\n", "a: b: c\n", "k: 'open\n", "x: *nope\n", "a: \x07\n")

needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)


def under_loader(monkeypatch, loader, parse, f):
    monkeypatch.setattr(parsers, "_Loader", loader)
    return parse(f)


def outcome(monkeypatch, loader, parse, f):
    """The parse result, or the error without the loader-specific message tail."""
    try:
        return under_loader(monkeypatch, loader, parse, f)
    except ParserError as exc:
        return str(exc).partition(": yaml: ")[0]


@needs_libyaml
def test_yaml_loaders_agree_on_fixtures_and_edge_corpus(tmp_path, monkeypatch):
    fixtures = build_index(os.path.join(os.path.dirname(__file__), "fixtures"))
    (tmp_path / "resources").mkdir()
    for name, text in YAML_EDGE_CORPUS.items():
        (tmp_path / "resources" / name).write_text(text, encoding="utf-8")
    corpus = build_index(tmp_path)
    files = fixtures.of_language("yaml", "compose") + corpus.of_language("yaml", "compose")
    assert len(files) == 6 + len(YAML_EDGE_CORPUS)
    for f in files:
        for parse in (parse_yaml_properties, parse_compose):
            pure = outcome(monkeypatch, yaml.SafeLoader, parse, f)
            # tags are never read, so leaving them unresolved changes nothing
            for loader in (yaml.CSafeLoader, yaml.BaseLoader, yaml.CBaseLoader):
                assert outcome(monkeypatch, loader, parse, f) == pure, (f.path, parse.__name__, loader)
    # the corpus reaches what it is meant to cover
    entries = {e.key: e for f in corpus.files for e in parse_yaml_properties(f)}
    assert entries["logging.pattern"].value == "%d{HH:mm} %msg\nsecond line\n"
    assert entries["logging.folded"].value == "one two"
    assert entries["spring.application.name"].value == "bom-svc"
    assert entries["development.adapter"].value == "postgres"
    assert entries["db.url"].profile == "prod"
    assert entries["dq"].value == "double quoted é"
    assert entries["sq"].value == "single 'quoted'"
    assert entries["emoji"].trace.snippet == '"😀 rocket 🚀"'
    assert entries["after"].trace.span == (7, 11)
    flags = {k: e.value for k, e in entries.items() if k.startswith("flags.")}
    assert flags == {
        "flags.yes": "yes",
        "flags.on": "On",
        "flags.nothing": "~",
        "flags.exp": "1e3",
        "flags.hex": "0x1F",
        "flags.tagged": "5",
    }
    assert (entries["svc.port"].value, entries["svc.host"].value) == ("8080", "h")
    api, db = parse_compose(corpus.by_path["resources/docker-compose.yml"])
    assert [p for p, _ in api.ports] == [8080, 9090]
    assert api.environment[0][:2] == ("PASSWORD", "s3cret more")
    assert (api.build_context, db.image) == ("./api", "postgres:15")


@needs_libyaml
@pytest.mark.parametrize("text", YAML_MALFORMED)
@pytest.mark.parametrize("parse", [parse_yaml_properties, parse_compose])
def test_yaml_loaders_both_reject_malformed_input(monkeypatch, text, parse):
    f = yaml_file(text, path="svc/application.yml")
    for loader in (yaml.SafeLoader, yaml.CSafeLoader, yaml.BaseLoader, yaml.CBaseLoader):
        with pytest.raises(ParserError, match=r"^svc/application\.yml: yaml: "):
            under_loader(monkeypatch, loader, parse, f)


@needs_libyaml
def test_yaml_loaders_diverge_on_a_tab_after_the_colon(monkeypatch):
    f = yaml_file("k:\tv\n")
    (entry,) = under_loader(monkeypatch, yaml.CSafeLoader, parse_yaml_properties, f)
    assert (entry.key, entry.value) == ("k", "v")
    with pytest.raises(ParserError, match="cannot start any token"):
        under_loader(monkeypatch, yaml.SafeLoader, parse_yaml_properties, f)


# ----------------------------------------------------------------------
# .properties
# ----------------------------------------------------------------------


def test_properties_basic_and_colon_separator():
    f = _index_file(
        "app.properties",
        "# a comment\n"
        "! also a comment\n"
        "server.port=8000\n"
        "spring.mail.host: smtp.gmail.com\n"
        "no-separator-line\n",
    )
    entries = {e.key: e for e in parse_properties_file(f)}
    assert entries["server.port"].value == "8000"
    assert entries["spring.mail.host"].value == "smtp.gmail.com"
    assert len(entries) == 2


def test_properties_value_span_points_at_value():
    f = _index_file("a.properties", "key = hello\n")
    (entry,) = parse_properties_file(f)
    assert entry.trace.line == 1
    start, end = entry.trace.span
    assert "key = hello"[start:end] == "hello"


def test_properties_backslash_continuation():
    f = _index_file("a.properties", "key=one\\\n    two\n")
    (entry,) = parse_properties_file(f)
    assert entry.value == "onetwo"
    assert entry.trace.line == 1


def test_relaxed_key():
    assert relaxed_key("SPRING_CLOUD_CONFIG_URI") == "spring.cloud.config.uri"
    assert relaxed_key("SPRING__MAIL__HOST") == "spring.mail.host"


def test_property_map_relaxed_and_suffix_lookup():
    f = yaml_file("server:\n  ssl:\n    key-store: classpath:ks\n")
    pm = PropertyMap(parse_yaml_properties(f))
    assert pm.get("server.ssl.keystore").value == "classpath:ks"
    assert pm.get("ssl.key-store").value == "classpath:ks"
    assert pm.get("server.ssl.key-store").value == "classpath:ks"
    assert pm.get("missing.key") is None


def test_property_map_prefers_unprofiled_entry():
    f = yaml_file(
        "spring:\n"
        "  rabbitmq:\n"
        "    host: localhost\n"
        "---\n"
        "spring:\n"
        "  profiles: docker\n"
        "  rabbitmq:\n"
        "    host: rabbitmq\n"
    )
    pm = PropertyMap(parse_yaml_properties(f))
    assert pm.get("spring.rabbitmq.host").value == "localhost"
    values = {e.value for e in pm.find("spring.rabbitmq.host")}
    assert values == {"localhost", "rabbitmq"}


def test_property_map_get_takes_the_first_configured_key():
    f = yaml_file(
        "later:\n"
        "  key: b\n"
        "first:\n"
        "  key: a\n"
        "---\n"
        "spring:\n"
        "  profiles: docker\n"
        "only:\n"
        "  profiled: p\n"
    )
    pm = PropertyMap(parse_yaml_properties(f))
    # key order decides, not entry order
    assert pm.get("first.key", "later.key").value == "a"
    assert pm.get("missing.key", "later.key").value == "b"
    # a key with only a profiled entry still comes before later keys
    assert pm.get("only.profiled", "first.key").value == "p"
    assert pm.get("missing.key", "other.key") is None


@pytest.mark.parametrize("profile", [None, "docker"], ids=["unprofiled", "profiled-first"])
def test_property_map_keys_seen_once_twice_and_thrice(profile):
    """The first occurrence of each key is profiled or not; the first
    unprofiled entry of the key still wins."""

    def entries(key, values):
        return [
            PropertyEntry(key, v, TraceEntry("f", 1, (0, 1), "v"), profile if i == 0 else None)
            for i, v in enumerate(values)
        ]

    twice = entries("a.twice", ["2a", "2b"])
    pm = PropertyMap([*entries("a.once", ["1"]), twice[0], *entries("b.twice", ["x"])])
    pm.add([twice[1], *entries("a.thrice", ["3a", "3b", "3c"])])
    assert [e.value for e in pm.find("a.once")] == ["1"]
    assert [e.value for e in pm.find("once")] == ["1"]
    assert [e.value for e in pm.find("z.a.once")] == ["1"]
    assert [e.value for e in pm.find("a.twice")] == ["2a", "2b"]
    assert [e.value for e in pm.find("twice")] == ["2a", "x", "2b"]
    assert [e.value for e in pm.find("a.thrice")] == ["3a", "3b", "3c"]
    assert pm.get("a.once").value == "1"
    assert pm.get("a.twice").value == ("2b" if profile else "2a")
    assert pm.get("a.thrice").value == ("3b" if profile else "3a")
    assert [e.value for e in pm.find_prefix("a")] == ["1", "2a", "2b", "3a", "3b", "3c"]
    for e in pm.entries:
        assert pm.find(e.key) == oracle_find(pm.entries, e.key)


def oracle_find(entries, dotted):
    """PropertyMap.find recomputing every relaxed key per call."""

    def canon(key):
        return key.lower().replace("-", "")

    want = canon(dotted)
    keyed = [(canon(e.key), e) for e in entries]
    out = [e for k, e in keyed if k == want]
    if out:
        return out
    out = [e for k, e in keyed if k.endswith("." + want)]
    if out:
        return out
    return [e for k, e in keyed if want.endswith("." + k)]


def test_property_map_find_matches_the_uncached_oracle():
    rng = random.Random(3)
    parts = ["spring", "rabbitmq", "host", "key-store", "keyStore", "server", "SSL", "a-b", "ab"]
    # an empty segment (a..b, a trailing dot), sequence elements, case and hyphens
    parts += ["", "[0]", "b[0]", "HOST", "Key-Store", "-"]

    def dotted():
        return ".".join(rng.choice(parts) for _ in range(rng.randint(1, 4)))

    def near(key):
        """A prefix or a dotted suffix of a stored key, as it was written."""
        dots = [i for i, c in enumerate(key) if c == "."]
        if not dots:
            return key
        cut = rng.choice(dots)
        return key[:cut] if rng.random() < 0.5 else key[cut + 1 :]

    pm = PropertyMap()
    for batch in range(30):
        pm.add(
            PropertyEntry(dotted(), "%d.%d" % (batch, i), TraceEntry("f", 1, (0, 1), "v"), rng.choice([None, "docker"]))
            for i in range(rng.randint(0, 10))
        )
        for _ in range(20):
            query = dotted() if not pm.entries or rng.random() < 0.5 else near(rng.choice(pm.entries).key)
            assert pm.find(query) == oracle_find(pm.entries, query)
    assert len(pm) > 100
    # each direction and exact-over-suffix precedence on one map
    pm = PropertyMap(
        PropertyEntry(k, k, TraceEntry("f", 1, (0, 1), "v"))
        for k in ("host", "a.b.host", "b.host", "x..y", "x.", "l[0].Host-Name")
    )
    for query in ("host", "b.host", "z.a.b.host", "q.b.host", "..y", "y", "w.x.", "", "hostname", "m.l[0].hostname"):
        assert pm.find(query) == oracle_find(pm.entries, query), query
    assert [e.key for e in pm.find("host")] == ["host"]
    assert [e.key for e in pm.find("q.b.host")] == ["host", "b.host"]
    assert [e.key for e in pm.find("m.l[0].hostname")] == ["l[0].Host-Name"]


def traced(fn):
    """(fn(), its tracemalloc peak in MiB)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_a_key_of_8000_dots_costs_linear_memory():
    key = ".".join(["a"] * 8001)
    f = _index_file("app/src/main/resources/application.properties", key + "=v\n")
    pm, peak = traced(lambda: PropertyMap(parse_properties_file(f)))
    assert peak < 2, "%.1f MiB" % peak
    assert [e.value for e in pm.find("a.a")] == ["v"]  # the query is a suffix of the key
    assert [e.value for e in pm.find(".".join(["a"] * 9001))] == ["v"]  # and the other way round


def test_a_placeholder_of_8000_dots_costs_linear_memory_and_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_memo", OrderedDict())
    pom = "<project><artifactId>svc</artifactId></project>"

    def tree(name, placeholder):
        root = tmp_path / name
        (root / "src/main/resources").mkdir(parents=True)
        (root / "pom.xml").write_text(pom, encoding="utf-8")
        yml = "eureka:\n  client:\n    serviceUrl:\n      defaultZone: ${%s}\n" % placeholder
        (root / "src/main/resources/application.yml").write_text(yml, encoding="utf-8")
        return root

    analyze_directory(tree("warm", "a.a"))  # rules and the lazy caches of one analysis
    hostile = tree("hostile", ".".join(["a"] * 8001))

    def analyze_and_drop():
        result = analyze_directory(hostile)
        assert "svc" in result.dfd.nodes
        del result
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 2**20

    kept, peak = traced(analyze_and_drop)
    assert peak < 4, "%.1f MiB" % peak
    assert kept < 2, "%.1f MiB" % kept


def test_a_900_kb_artifact_id_leaves_nothing_allocated(tmp_path, monkeypatch):
    # a service worker must not keep a hostile name after its request
    monkeypatch.setattr(search, "_memo", OrderedDict())

    def tree(name, artifact):
        root = tmp_path / name
        (root / "src/main/resources").mkdir(parents=True)
        (root / "pom.xml").write_text("<project><artifactId>%s</artifactId></project>" % artifact, encoding="utf-8")
        (root / "src/main/resources/application.yml").write_text("server:\n  port: 8080\n", encoding="utf-8")
        return root

    analyze_directory(tree("warm", "svc"))  # rules and the lazy caches of one analysis
    artifact = "s" * (900 * 1024)
    hostile = tree("hostile", artifact)

    def analyze_and_drop():
        result = analyze_directory(hostile)
        assert artifact in result.dfd.nodes
        del result
        search._memo.clear()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 2**20

    kept, _ = traced(analyze_and_drop)
    assert kept < 0.1, "%.2f MiB" % kept


def test_property_map_find_prefix():
    f = yaml_file("zuul:\n  routes:\n    users:\n      url: http://u\n")
    pm = PropertyMap(parse_yaml_properties(f))
    assert [e.key for e in pm.find_prefix("zuul.routes")] == ["zuul.routes.users.url"]


# ----------------------------------------------------------------------
# docker-compose
# ----------------------------------------------------------------------

COMPOSE = """\
version: '2'
services:
  gateway:
    build: ./gateway
    ports:
      - "80:4000"
    environment:
      CONFIG_PASSWORD: secret
    depends_on:
      - config
  rabbitmq:
    image: rabbitmq:3-management
    ports:
      - 5672:5672
  db:
    image: mongo
    environment:
      - MONGO_INITDB_DATABASE=main
    links:
      - gateway:gw
"""


def test_parse_compose_services():
    services = {s.name: s for s in parse_compose(_index_file("docker-compose.yml", COMPOSE))}
    assert set(services) == {"gateway", "rabbitmq", "db"}
    gw = services["gateway"]
    assert gw.build_context == "./gateway"
    assert gw.ports[0][0] == 4000
    assert gw.environment == [("CONFIG_PASSWORD", "secret", gw.environment[0][2])]
    assert services["rabbitmq"].image == "rabbitmq:3-management"
    assert services["db"].environment[0][:2] == ("MONGO_INITDB_DATABASE", "main")


def test_parse_compose_v1_top_level():
    content = (
        "web:\n"
        "  build: .\n"
        "  ports:\n"
        "    - '5000:5000'\n"
        "volumes:\n"
        "  data: {}\n"
    )
    services = parse_compose(_index_file("docker-compose.yml", content))
    assert [s.name for s in services] == ["web"]
    assert services[0].ports[0][0] == 5000


def test_parse_compose_long_port_syntax():
    content = (
        "services:\n"
        "  api:\n"
        "    build: .\n"
        "    ports:\n"
        "      - target: 9001\n"
        "        published: 80\n"
    )
    services = parse_compose(_index_file("compose.yml", content))
    assert services[0].ports[0][0] == 9001


def test_parse_compose_build_mapping_context():
    content = "services:\n  api:\n    build:\n      context: ./api\n"
    services = parse_compose(_index_file("compose.yml", content))
    assert services[0].build_context == "./api"


def test_parse_compose_service_trace_snippet():
    services = parse_compose(_index_file("docker-compose.yml", COMPOSE))
    gw = next(s for s in services if s.name == "gateway")
    assert gw.trace.line == 3
    assert gw.trace.snippet == "gateway"


# ----------------------------------------------------------------------
# Dockerfile
# ----------------------------------------------------------------------


def test_parse_dockerfile_from_and_expose():
    f = _index_file(
        "svc/Dockerfile",
        "FROM --platform=linux/amd64 openjdk:8 AS build\n"
        "EXPOSE 8080\n"
        "FROM alpine:3.18\n"
        "EXPOSE 9090/tcp 9091\n",
    )
    info = parse_dockerfile(f)
    assert info.base_image == "alpine:3.18"
    assert [p for p, _ in info.exposed_ports] == [8080, 9090, 9091]


def test_parse_dockerfile_without_expose():
    info = parse_dockerfile(_index_file("Dockerfile", "FROM scratch\n"))
    assert info.base_image == "scratch"
    assert info.exposed_ports == []


# ----------------------------------------------------------------------
# build files
# ----------------------------------------------------------------------

POM = """\
<?xml version="1.0"?>
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <artifactId>parent</artifactId>
  <modules>
    <module>svc-a</module>
    <module>svc-b</module>
  </modules>
</project>
"""


def test_parse_maven_modules_namespace_tolerant():
    assert parse_maven_modules(_index_file("pom.xml", POM)) == ["svc-a", "svc-b"]


def test_parse_maven_artifact_id_direct_child_only():
    pom = (
        "<project>\n"
        "  <parent><artifactId>parent-id</artifactId></parent>\n"
        "  <artifactId>my-service</artifactId>\n"
        "</project>\n"
    )
    assert parse_maven_artifact_id(_index_file("pom.xml", pom)) == "my-service"


def test_parse_gradle_settings():
    content = (
        "rootProject.name = 'demo'\n"
        "include ':svc-a', ':svc-b'\n"
        "include(':nested:svc-c')\n"
    )
    mods = parse_gradle_settings(_index_file("settings.gradle", content))
    assert mods == ["svc-a", "svc-b", "nested/svc-c"]


# ----------------------------------------------------------------------
# image classification
# ----------------------------------------------------------------------


def default_image_rules():
    return load_rules().image_rules


@pytest.mark.parametrize(
    "image,stereotype,node_type",
    [
        ("mongo", "database", "database"),
        ("mongo:3.4", "database", "database"),
        ("library/mysql:8", "database", "database"),
        ("postgres:15-alpine", "database", "database"),
        ("rabbitmq:3-management", "message_broker", "service"),
        ("wurstmeister/kafka", "message_broker", "service"),
        ("redis:7", "in_memory_datastore", "service"),
        ("docker.elastic.co/elasticsearch/elasticsearch:7.17.0", "search_engine", "service"),
        ("openzipkin/zipkin", "tracing_server", "service"),
        ("grafana/grafana", "monitoring_dashboard", "service"),
        ("prom/prometheus", "metrics_server", "service"),
        ("nginx:alpine", "web_server", "service"),
    ],
)
def test_classify_image_known(image, stereotype, node_type):
    rule = classify_image(image, default_image_rules())
    assert rule is not None
    assert rule.stereotype == stereotype
    assert rule.node_type == node_type


def test_classify_image_unknown_and_registry_port():
    rules = default_image_rules()
    assert classify_image("openjdk:8-jre", rules) is None
    got = classify_image("localhost:5000/team/mongo:4", rules)
    assert got is not None and got.stereotype == "database"


def test_classify_image_longest_pattern_wins():
    rules = load_image_catalog(["db database database", "longer-db search_engine service"])
    hit = classify_image("my-longer-db:1", rules)
    assert hit.stereotype == "search_engine"


@pytest.mark.parametrize(
    "line,complaint",
    [
        ("mongo not_a_stereotype database", "unknown stereotype"),
        ("mongo database datastore", "node type"),
        ("mongo user database", "does not apply"),  # an external entity's stereotype
        ("kafka message_broker external_entity", "does not apply"),
        ("mongo restful_http service", "does not apply"),  # a flow's stereotype
    ],
)
def test_load_image_catalog_refuses_a_rule_no_node_can_take(line, complaint):
    with pytest.raises(ValueError) as caught:
        load_image_catalog(["mongo database database", line])
    assert line in str(caught.value) and complaint in str(caught.value)


def test_every_default_image_rule_names_a_node_it_can_make():
    rules = default_image_rules()
    assert len(rules) == 28
    assert load_image_catalog("%s %s %s" % (r.pattern, r.stereotype, r.node_type) for r in rules) == rules
    assert classify_image("logstash", rules).node_type == "service"
    assert load_image_catalog(["fluentd logging_server external_entity"])[0].node_type == "external_entity"


def test_load_image_catalog_skips_comments():
    rules = load_image_catalog(["# comment", "", "mongo database database"])
    assert len(rules) == 1
    assert rules[0].pattern == "mongo"


# ----------------------------------------------------------------------
# rule files
# ----------------------------------------------------------------------


def test_default_rules_are_read_once_per_process(monkeypatch):
    first = load_rules()

    def unread(name):
        raise AssertionError("package data read again: %s" % name)

    monkeypatch.setattr(rules, "_default_text", unread)
    assert load_rules() is first


@pytest.mark.parametrize(
    "fields,complaint",
    [
        ('"keywords": "@EnableZuulProxy"', "keywords"),  # a string is not a list of them
        ('"keywords": [""]', "keywords"),
        ('"keywords": ["@Enable\\nZuul"]', "keywords"),
        ('"keywords": ["@EnableZuulProxy", 5]', "keywords"),
        ('"languages": ["java"]', "keywords"),  # no keywords at all
        ('"keywords": ["@EnableZuulProxy"], "languages": "java"', "languages"),
        ('"keywords": ["@EnableZuulProxy"], "languages": ["java", null]', "languages"),
        ('"keywords": ["@EnableZuulProxy"], "languages": null', "languages"),
        ('"keywords": ["@Enable(Zuul"], "regex": true', "regex"),
    ],
)
def test_a_bad_keyword_rule_is_refused_at_load_naming_the_rule(tmp_path, fields, complaint):
    path = tmp_path / "rules.json"
    good = '{"stereotype": "local_logging", "keywords": ["@Slf4j"]}'
    path.write_text('{"rules": [%s, {"stereotype": "gateway", %s}]}' % (good, fields), encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_rules(keyword_path=path)
    assert "keyword rule 2 (gateway)" in str(caught.value) and complaint in str(caught.value)


def test_good_keyword_rules_load_as_written(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        '{"rules": [{"stereotype": "gateway", "keywords": ["@Enable(Zuul|Gateway)"], "regex": true,'
        ' "languages": ["java", "yaml"]}, {"stereotype": "local_logging", "keywords": []}]}',
        encoding="utf-8",
    )
    gateway, logging = load_rules(keyword_path=path).keyword_rules
    assert (gateway.keywords, gateway.languages, gateway.regex) == (["@Enable(Zuul|Gateway)"], ("java", "yaml"), True)
    assert (logging.keywords, logging.languages, logging.regex) == ([], ("java",), False)


def test_a_rules_file_is_read_on_every_call(tmp_path):
    path = tmp_path / "rules.json"
    rule = '{"rules": [{"stereotype": "gateway", "keywords": ["%s"]}]}'
    path.write_text(rule % "@EnableZuulProxy", encoding="utf-8")
    first = load_rules(keyword_path=path)
    path.write_text(rule % "@EnableGateway", encoding="utf-8")
    second = load_rules(keyword_path=path)
    assert [r.keywords for r in first.keyword_rules] == [["@EnableZuulProxy"]]
    assert [r.keywords for r in second.keyword_rules] == [["@EnableGateway"]]
    assert second is not first and second is not load_rules()
