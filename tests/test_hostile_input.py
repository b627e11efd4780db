"""Hostile input stays a property of every analysis, not a one-off fuzz.

Every configuration key an analysis of miniapp looks up is recorded, so a
key a new extractor reads joins on its own; each prefix it searches gives
child keys that reach each of its readers' branches.  Each key is given each
of a fixed list of hostile values, and seeded mixtures of them, in YAML
and in .properties, one service per key.  Services are also named after
each fixed node the extractors create.  An analysis must finish in
bounded time with no extractor failure, a valid diagram that keeps
dfd.schema.json, and traces that point at the tree.  Java bodies built
from the markers and openers the extractors read, with quotes,
placeholders, CR, NUL and long runs, are analyzed the same way, masked
and raw.  Keyword rule and image catalog files holding the same values
are either refused by name or analyze miniapp the same way.
"""
import json
import random
import re
import sys
import time
import tracemalloc
from importlib.resources import files

import pytest

from dfdscan.extractors.base import run_pipeline
from dfdscan.model import NameError_, normalize_name
from dfdscan.output import dfd_to_obj, verify_traces
from dfdscan.parsers import PropertyMap, parse_properties_file
from dfdscan.rules import load_rules
from dfdscan.search import _index_file, build_index

HOSTILE_VALUES = (
    "",
    "''",
    "\"'",
    "http://[oops",
    "${",
    "${x:",
    "." * 2000,
    "a." * 1000,
    "\0",
    "\r",
    'a" "',
    '" " "',
)
DFD_SCHEMA = json.loads((files("dfdscan") / "schemas" / "dfd.schema.json").read_text("utf-8"))
SEEDS = (1, 2, 3)
MIXES_PER_SEED = 2
# generous: a case of a few dozen small services takes well under a tenth of it
SECONDS_PER_CASE = 5.0


# child keys under each prefix an extractor passes to find_prefix, one for
# each branch that reads it: a Zuul route by service id, by URL and by path
# alone, a gateway route's URI, an output and an input binding
PREFIX_CHILDREN = {
    "zuul.routes": (".r.service-id", ".r.url", ".r.path"),
    "spring.cloud.gateway.routes": ("[0].uri",),
    "spring.cloud.stream.bindings": (".output.destination", ".input.destination"),
    "ribbon": (".listOfServers",),
}


@pytest.fixture(scope="module")
def looked_up_keys(miniapp_path):
    """Every key an analysis of miniapp passes to PropertyMap.get or find,
    and the child keys of each prefix it passes to find_prefix."""
    keys, prefixes = set(), set()
    get, find, find_prefix = PropertyMap.get, PropertyMap.find, PropertyMap.find_prefix

    def recording_get(self, *dotted):
        keys.update(dotted)
        return get(self, *dotted)

    def recording_find(self, dotted):
        keys.add(dotted)
        return find(self, dotted)

    def recording_find_prefix(self, prefix):
        prefixes.add(prefix)
        return find_prefix(self, prefix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PropertyMap, "get", recording_get)
        mp.setattr(PropertyMap, "find", recording_find)
        mp.setattr(PropertyMap, "find_prefix", recording_find_prefix)
        run_pipeline(build_index(miniapp_path))
    # a prefix without children here would go unfuzzed
    assert prefixes == set(PREFIX_CHILDREN)
    return sorted(keys | {p + child for p in prefixes for child in PREFIX_CHILDREN[p]})


def mixes(seed):
    """Values built from pieces of the hostile ones and of well-formed URLs."""
    rng = random.Random(seed)
    pieces = (*HOSTILE_VALUES[1:6], "http://", "lb://", "jdbc:mysql://", "h.example.com", ":", ",", "/", "${a}")
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(2, 6))) for _ in range(MIXES_PER_SEED)]


def config_file(fmt, key, value):
    if fmt == "yml":
        # a JSON string is a YAML double-quoted scalar, so every value survives
        return "application.yml", "%s: %s\n" % (key, json.dumps(value))
    return "application.properties", "%s=%s\n" % (key, value)


def write_service(root, name, files):
    svc = root / name
    (svc / "src/main/resources").mkdir(parents=True)
    (svc / "pom.xml").write_text("<project><artifactId>%s</artifactId></project>" % name, encoding="utf-8")
    for rel, text in files.items():
        (svc / "src/main/resources" / rel).write_text(text, encoding="utf-8", newline="")


def assert_clean(root, raw=False, rules=None):
    started = time.perf_counter()
    dfd, report = run_pipeline(build_index(root, raw=raw), rules)
    assert report.failures == []
    assert report.integrity == []
    assert verify_traces(dfd, root)[1] == []
    assert time.perf_counter() - started < SECONDS_PER_CASE
    # every name keeps the grammar the schema states
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(dfd_to_obj(dfd), DFD_SCHEMA)
    return dfd


def test_miniapp_looks_up_the_keys_of_its_extractors(looked_up_keys):
    # the recorder sees the lookups; a key outside miniapp's files counts too
    assert {"spring.mail.host", "server.ssl.enabled", "spring.datasource.url"} <= set(looked_up_keys)
    assert {"zuul.routes.r.url", "spring.cloud.gateway.routes[0].uri", "ribbon.listOfServers"} <= set(looked_up_keys)


CASES = [("fixed", i, v) for i, v in enumerate(HOSTILE_VALUES)]
CASES += [("seed%d" % seed, i, v) for seed in SEEDS for i, v in enumerate(mixes(seed))]


@pytest.mark.parametrize("fmt", ["yml", "properties"])
@pytest.mark.parametrize("kind,i,value", CASES, ids=["%s-%d" % c[:2] for c in CASES])
def test_a_hostile_value_at_any_looked_up_key_fails_no_extractor(tmp_path, looked_up_keys, fmt, kind, i, value):
    for n, key in enumerate(looked_up_keys):
        rel, text = config_file(fmt, key, value)
        write_service(tmp_path, "s%d" % n, {rel: text})
    assert_clean(tmp_path)


# the configuration that makes the extractors create each fixed node, and
# connect it with the service that holds the configuration
FIXED_NODES = {
    "mail-server": "spring.mail.host: smtp.example.com\n",
    "github-repository": "spring.cloud.config.server.git.uri: https://github.com/acme/config\nserver.ssl.enabled: true\n",
    "user": "zuul.routes.r.serviceId: other\n",
    "rabbitmq": "spring.rabbitmq.host: localhost\n",
    "kafka": "spring.kafka.bootstrap-servers: localhost:9092\n",
}


@pytest.mark.parametrize("name", sorted(FIXED_NODES))
def test_a_service_named_after_a_fixed_node_fails_no_extractor(tmp_path, name):
    for service in (name, "other"):
        write_service(tmp_path, service, {"application.yml": FIXED_NODES[name]})
    dfd = assert_clean(tmp_path)
    assert dfd.has_flow("other", name) or dfd.has_flow(name, "other")


def test_keys_sharing_their_last_segment_index_in_linear_time_and_memory():
    # 100,000 keys in one last-segment bucket, about 1.1 MB; one entry
    # list copied per key would take minutes
    keys = ["k%d.x" % i for i in range(100_000)]
    text = "".join(k + "=1\n" for k in keys)
    path = "app/src/main/resources/application.properties"
    started = time.perf_counter()
    pm = PropertyMap(parse_properties_file(_index_file(path, text)))
    seconds = time.perf_counter() - started
    assert seconds < 2.0, "%.2f s" % seconds  # about 0.3 s on 2 vCPUs
    assert [e.key for e in pm.find("x")] == keys
    tracemalloc.start()
    try:
        PropertyMap(parse_properties_file(_index_file(path, text)))  # a new entry: parsed again
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 120, "%.1f MiB" % peak  # about 39 MiB


def normalized(raw):
    try:
        return normalize_name(raw)
    except NameError_:
        return None


def test_normalize_name_is_idempotent_on_hostile_and_random_names():
    rng = random.Random(7)
    alphabet = "aZ\"' \t\r\n-./_\u00a0\u0130\u2028\0"
    randoms = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))) for _ in range(2000)]
    names = [*HOSTILE_VALUES, *(v for seed in SEEDS for v in mixes(seed)), *randoms]
    for raw in names:
        once = normalized(raw)
        if once is not None:
            assert normalize_name(once) == once, raw


def test_normalize_name_strips_everything_str_strip_takes_for_whitespace():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert [normalize_name(c + "'a" + c) for c in spaces] == ["a"] * len(spaces)


def test_normalize_name_strips_quotes_and_whitespace_until_neither_is_left():
    assert normalize_name('a" "') == "a"
    assert normalize_name(" ' \"a-b\" ' ") == "a_b"
    with pytest.raises(NameError_):
        normalize_name('" " "')


# ----------------------------------------------------------------------
# Java text
# ----------------------------------------------------------------------

JAVA_PIECES = (
    "restTemplate.getForObject(",
    "new RestTemplate()",
    "WebClient.create(",
    "HttpGet",
    ".exchange(",
    "openConnection",
    "@FeignClient(",
    "@FeignClient",
    "name = ",
    "value = ",
    "url = ",
    "Names.TARGET",
    "TARGET",
    '"target"',
    '"',
    "'",
    "\\",
    '"""',
    '"""\n',
    "//",
    "/*",
    "*/",
    "/**",
    "${a}",
    "${",
    "${x:",
    "}",
    "(",
    ")",
    "http://",
    "https://target/x",
    "http://h.example.com/p",
    "http://[oops",
    "JavaMailSender",
    "rabbitTemplate.convertAndSend(",
    "@KafkaListener",
    "BCryptPasswordEncoder enc = ",
    "enc.encode(",
    " ",
    "\n",
    "\r",
    "\r\n",
    "\t",
    ";",
    "\u00e9",
)
LONG_RUNS = ("(" * 3000, '"' * 3000, "/" * 3000, "*" * 3000, "x" * 20000, "\n" * 3000, '"""' * 500)
# the index skips a file as binary when a NUL is in its first 8 KiB
BINARY_PROBE = 8192
JAVA_SEEDS = tuple(range(1, 7))
JAVA_FILES_PER_SEED = 6


def java_bodies(seed):
    """Seeded Java texts; about half hold NULs, all of them past the binary probe."""
    rng = random.Random(seed)
    bodies = []
    for _ in range(JAVA_FILES_PER_SEED):
        parts = [rng.choice(JAVA_PIECES) for _ in range(rng.randint(5, 400))]
        if rng.random() < 0.3:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(LONG_RUNS))
        body = "".join(parts)
        if rng.random() < 0.5:
            head = body.ljust(BINARY_PROBE, " ")
            tail = (rng.choice(JAVA_PIECES + ("\0", "\0\0")) for _ in range(rng.randint(5, 200)))
            body = head + "\0" + "".join(tail)
        bodies.append(body)
    return bodies


def test_java_bodies_put_nuls_only_past_the_binary_probe():
    bodies = [b for seed in JAVA_SEEDS for b in java_bodies(seed)]
    with_nul = [b for b in bodies if "\0" in b]
    assert with_nul and len(with_nul) < len(bodies)
    assert all(b"\0" not in b.encode("utf-8")[:BINARY_PROBE] for b in with_nul)


@pytest.mark.parametrize("raw", [False, True], ids=["masked", "raw"])
@pytest.mark.parametrize("seed", JAVA_SEEDS)
def test_hostile_java_text_fails_no_extractor(tmp_path, seed, raw):
    java = tmp_path / "svc/src/main/java"
    write_service(tmp_path, "svc", {"application.yml": "a: http://target/\n"})
    write_service(tmp_path, "target", {})
    java.mkdir(parents=True)
    (java / "Names.java").write_text('class Names { static final String TARGET = "target"; }\n', encoding="utf-8")
    for n, body in enumerate(java_bodies(seed)):
        (java / ("F%d.java" % n)).write_bytes(body.encode("utf-8"))
    index = build_index(tmp_path, raw=raw)
    assert not any("binary" in w for w in index.warnings)
    assert_clean(tmp_path, raw)


# ----------------------------------------------------------------------
# Rule files
# ----------------------------------------------------------------------

RULES = files("dfdscan") / "rules"
DEFAULT_KEYWORD_RULES = json.loads((RULES / "keyword_rules.json").read_text("utf-8"))["rules"]
DEFAULT_IMAGE_LINES = (RULES / "image_catalog.txt").read_text("utf-8").splitlines()
STEREOTYPES = sorted({rule["stereotype"] for rule in DEFAULT_KEYWORD_RULES})
# every language the index gives a file, so a keyword can hit configuration too
LANGUAGES = ["java", "dockerfile", "compose", "build", "properties", "env", "yaml", "other"]
RULE_VALUES = [*HOSTILE_VALUES, *(v for seed in SEEDS for v in mixes(seed))]


@pytest.mark.parametrize("field", ["stereotype", "keywords", "languages"])
@pytest.mark.parametrize("i", range(len(RULE_VALUES)))
def test_a_hostile_keyword_rule_is_refused_by_number_or_fails_no_extractor(tmp_path, miniapp_path, field, i):
    # after the defaults, a literal rule for each of their stereotypes, with the value in the field
    rules = list(DEFAULT_KEYWORD_RULES)
    for stereotype in STEREOTYPES:
        rule = {"stereotype": stereotype, "keywords": ["@SpringBootApplication"], "languages": LANGUAGES, "regex": False}
        rule[field] = RULE_VALUES[i] if field == "stereotype" else [RULE_VALUES[i]]
        rules.append(rule)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": rules}), encoding="utf-8")
    try:
        loaded = load_rules(keyword_path=path)
    except ValueError as exc:
        # the CLI exits 2 with this message: it names the first hostile rule
        assert re.search(r"\bkeyword rule %d\b" % (len(DEFAULT_KEYWORD_RULES) + 1), str(exc)), exc
        return
    assert_clean(miniapp_path, rules=loaded)


@pytest.mark.parametrize("field", [0, 1, 2], ids=["pattern", "stereotype", "node_type"])
@pytest.mark.parametrize("i", range(len(RULE_VALUES)))
def test_a_hostile_image_catalog_line_is_refused_by_name_or_fails_no_extractor(tmp_path, miniapp_path, field, i):
    parts = ["mongo", "database", "database"]
    parts[field] = RULE_VALUES[i]
    line = " ".join(parts)
    path = tmp_path / "images.txt"
    path.write_text("\n".join([*DEFAULT_IMAGE_LINES, line, ""]), encoding="utf-8", newline="")
    try:
        loaded = load_rules(image_path=path)
    except ValueError as exc:
        # the CLI exits 2 with this message: it quotes the line it refused
        assert any(repr(part) in str(exc) for part in line.splitlines()), exc
        return
    assert_clean(miniapp_path, rules=loaded)
