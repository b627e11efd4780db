"""Serialization: DFD JSON shape, traceability JSON, DOT, schema
conformance, and trace re-verification against the source tree."""

import json
import re
import sys
from pathlib import Path

import pytest

from dfdscan import model
from dfdscan.analysis import analyze_directory
from dfdscan.model import Dfd, Flow, Node, TraceEntry
from dfdscan.output import (
    dfd_chunks,
    dfd_to_dot,
    dfd_to_json,
    dfd_to_obj,
    dot_chunks,
    traceability_chunks,
    traceability_to_json,
    traceability_to_obj,
    verify_traces,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "dfdbench"))
import gen  # noqa: E402

jsonschema = pytest.importorskip("jsonschema")


def load_schema(name):
    from importlib import resources

    text = resources.files("dfdscan").joinpath("schemas", name).read_text("utf-8")
    return json.loads(text)


def small_dfd():
    d = Dfd()
    d.upsert_node(
        Node("web-app", stereotypes=["local_logging"], tagged_values={"Port": 8080}),
        TraceEntry("web/pom.xml", 4, (14, 21), "web-app"),
    )
    d.upsert_node(
        Node("orders-db", node_type="database"),
        TraceEntry("compose.yml", 9, (4, 13), "orders-db"),
    )
    d.upsert_flow(
        Flow("web-app", "orders-db", stereotypes=["jdbc"]),
        TraceEntry("web/app.properties", 2, (22, 55), "jdbc:mysql://orders-db:3306/x"),
    )
    return d


# ----------------------------------------------------------------------
# DFD JSON
# ----------------------------------------------------------------------


def test_dfd_obj_shape():
    obj = dfd_to_obj(small_dfd())
    assert [n["name"] for n in obj["nodes"]] == ["orders_db", "web_app"]
    web = obj["nodes"][1]
    assert web["type"] == "service"
    assert web["stereotypes"] == ["local_logging"]
    assert web["tagged_values"] == {"Port": 8080}
    (flow,) = obj["information_flows"]
    assert flow["sender"] == "web_app"
    assert flow["receiver"] == "orders_db"
    assert flow["stereotypes"] == ["jdbc"]


def test_numeric_tag_values_become_ints():
    d = Dfd()
    d.upsert_node(
        Node("a", tagged_values={"Port": "8000", "Image": "mongo:4"}),
        TraceEntry("f", 1, (0, 1), "a"),
    )
    tags = dfd_to_obj(d)["nodes"][0]["tagged_values"]
    assert tags["Port"] == 8000
    assert tags["Image"] == "mongo:4"


def test_only_ascii_integers_become_numbers():
    too_long = "9" * 5000  # past int()'s digit limit
    tags = {"Sup": "²", "Arabic": "١٢", "Code": "007", "Offset": "-3", "Long": too_long, "Dash": "-"}
    d = Dfd()
    d.upsert_node(Node("a", tagged_values=tags), TraceEntry("f", 1, (0, 1), "a"))
    expected = {"Arabic": "١٢", "Code": 7, "Dash": "-", "Long": too_long, "Offset": -3, "Sup": "²"}
    assert dfd_to_obj(d)["nodes"][0]["tagged_values"] == expected
    assert json.loads(dfd_to_json(d))["nodes"][0]["tagged_values"] == expected


def test_multi_valued_tags_sorted_list():
    d = Dfd()
    d.upsert_node(
        Node("a", tagged_values={"username": ["zed", "adm"]}),
        TraceEntry("f", 1, (0, 1), "a"),
    )
    assert dfd_to_obj(d)["nodes"][0]["tagged_values"]["username"] == ["adm", "zed"]


def test_json_ends_with_newline_and_parses():
    text = dfd_to_json(small_dfd())
    assert text.endswith("\n")
    assert json.loads(text)["nodes"]


def test_miniapp_notification_node_shape(miniapp_result):
    obj = dfd_to_obj(miniapp_result.dfd)
    node = next(n for n in obj["nodes"] if n["name"] == "notification_service")
    assert node["type"] == "service"
    assert "internal" in node["stereotypes"]
    assert node["tagged_values"]["Port"] == 8000


# ----------------------------------------------------------------------
# traceability JSON
# ----------------------------------------------------------------------


def test_traceability_shape():
    tr = traceability_to_obj(small_dfd())
    assert set(tr) == {"orders_db", "web_app", "web_app -> orders_db"}
    web = tr["web_app"]
    assert web["file"] == "web/pom.xml"
    assert web["line"] == 4
    assert web["span"] == "(14:21)"
    assert web["sub_items"]["local_logging"]["span"] == "(14:21)"
    assert web["sub_items"]["Port"]["file"] == "web/pom.xml"
    flow_rec = tr["web_app -> orders_db"]
    assert flow_rec["sub_items"]["jdbc"]["line"] == 2


def test_traceability_covers_every_item(miniapp_result):
    dfd = miniapp_result.dfd
    tr = traceability_to_obj(dfd)
    for name in dfd.nodes:
        assert name in tr
    for flow in dfd.flows.values():
        assert flow.item_id in tr


# ----------------------------------------------------------------------
# schemas
# ----------------------------------------------------------------------


def test_dfd_json_matches_schema(miniapp_result):
    schema = load_schema("dfd.schema.json")
    jsonschema.validate(dfd_to_obj(miniapp_result.dfd), schema)


def test_traceability_json_matches_schema(miniapp_result):
    schema = load_schema("traceability.schema.json")
    jsonschema.validate(traceability_to_obj(miniapp_result.dfd), schema)


def test_schema_rejects_bad_node():
    schema = load_schema("dfd.schema.json")
    bad = {"nodes": [{"name": "Has Spaces", "type": "service", "stereotypes": [], "tagged_values": {}}], "information_flows": []}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


# ----------------------------------------------------------------------
# the JSON writers against json.dumps
# ----------------------------------------------------------------------


def test_the_schema_states_the_name_grammar_the_model_enforces():
    # name, sender and receiver: the character class of model._GRAMMAR,
    # anchored at both ends
    items = load_schema("dfd.schema.json")["properties"]
    fields = {
        **items["nodes"]["items"]["properties"],
        **items["information_flows"]["items"]["properties"],
    }
    patterns = {k: fields[k]["pattern"] for k in ("name", "sender", "receiver")}
    assert patterns == dict.fromkeys(patterns, "^%s$" % model._GRAMMAR.pattern)


def awkward_dfd():
    """Keys and values that exercise every escape and value shape; a name
    holds only [a-z0-9_], so it exercises normalization instead."""
    d = Dfd()
    d.upsert_node(
        Node(
            "Awkward--Name.1",
            tagged_values={
                "Port": "007",
                "Offset": "-3",
                "Arabic": "١٢",
                "mixed": ["10", "b", "2", "-1", "x\ty"],
                "Empty": [],
                "ключ": "значение 😀",
            },
        ),
        TraceEntry('dir "q"/é\\f.yml', 3, (0, 4), "café"),
    )
    d.upsert_node(Node("plain"), TraceEntry("plain.yml", 1, (0, 5), "plain"))  # no sub-items
    d.upsert_node(
        Node("store", node_type="database", stereotypes=["plaintext_credentials"]),
        TraceEntry("s.yml", 2, (1, 6), "store"),
    )
    d.upsert_flow(Flow("plain", "store"), TraceEntry("p.yml", 4, (2, 9), "store"))
    d.upsert_flow(
        Flow("Awkward--Name.1", "plain", stereotypes=["restful_http"]),
        TraceEntry("c.yml", 5, (0, 1), "c"),
    )
    d.annotate("plain -> store", tags={"username": ["zed", "5"]}, trace=TraceEntry("t.yml", 6, (0, 3), "zed"))
    return d


@pytest.fixture(scope="module")
def generated_dfd(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated") / "small"
    gen.write(gen.plan_small(1, 0), str(root))
    return analyze_directory(root).dfd


@pytest.fixture(params=["miniapp", "generated", "awkward", "empty"])
def any_dfd(request, miniapp_result):
    if request.param == "miniapp":
        return miniapp_result.dfd
    if request.param == "generated":
        return request.getfixturevalue("generated_dfd")
    return awkward_dfd() if request.param == "awkward" else Dfd()


def test_json_writers_equal_json_dumps(any_dfd):
    assert dfd_to_json(any_dfd) == json.dumps(dfd_to_obj(any_dfd), indent=4) + "\n"
    traceability = json.dumps(traceability_to_obj(any_dfd), indent=4) + "\n"
    assert traceability_to_json(any_dfd) == traceability
    chunks = list(traceability_chunks(any_dfd))
    assert "".join(chunks) == traceability
    assert len(chunks) == len(any_dfd.traces) + 1  # one per record, then the close
    if not any_dfd.traces:
        assert chunks == ["{}\n"]


def test_dfd_and_dot_chunks_join_to_the_writers(any_dfd):
    chunks = list(dfd_chunks(any_dfd))
    assert "".join(chunks) == dfd_to_json(any_dfd)
    # the two openings, one chunk per node and flow, the two closes
    assert len(chunks) == 4 + len(any_dfd.nodes) + len(any_dfd.flows)
    dot = list(dot_chunks(any_dfd, title="app"))
    assert "".join(dot) == dfd_to_dot(any_dfd, title="app")
    assert len(dot) == 2 + len(any_dfd.nodes) + len(any_dfd.flows)
    if not any_dfd.nodes:
        assert "".join(chunks) == '{\n    "nodes": [],\n    "information_flows": []\n}\n'


def test_awkward_values_round_trip():
    d = awkward_dfd()
    node = json.loads(dfd_to_json(d))["nodes"][0]
    assert node["name"] == "awkward_name_1"
    assert node["stereotypes"] == []
    assert node["tagged_values"] == {
        "Arabic": "١٢",
        "Empty": [],
        "Offset": -3,
        "Port": 7,
        "mixed": [-1, 10, 2, "b", "x\ty"],
        "ключ": "значение 😀",
    }
    traces = json.loads(traceability_to_json(d))
    assert traces["plain"]["sub_items"] == {}
    assert traces[node["name"]]["file"] == 'dir "q"/é\\f.yml'


@pytest.mark.parametrize("which", ["miniapp", "generated", "empty"])
def test_written_json_matches_schemas(which, miniapp_result, generated_dfd):
    d = {"miniapp": miniapp_result.dfd, "generated": generated_dfd, "empty": Dfd()}[which]
    jsonschema.validate(json.loads(dfd_to_json(d)), load_schema("dfd.schema.json"))
    jsonschema.validate(json.loads(traceability_to_json(d)), load_schema("traceability.schema.json"))


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------


def test_dot_shapes_and_labels():
    dot = dfd_to_dot(small_dfd())
    assert dot.startswith('digraph "dfd" {')
    assert '"orders_db" [label="orders_db\\n<<database>>", shape=cylinder];' in dot
    assert 'shape=ellipse' in dot
    assert '"web_app" -> "orders_db" [label="jdbc"];' in dot
    assert dot.rstrip().endswith("}")


def test_dot_hides_internal_marker():
    d = Dfd()
    d.upsert_node(Node("svc", stereotypes=["internal"]), TraceEntry("f", 1, (0, 1), "s"))
    dot = dfd_to_dot(d)
    assert "<<" not in dot


def test_dot_external_entity_box(miniapp_result):
    dot = dfd_to_dot(miniapp_result.dfd)
    assert '"mail_server"' in dot
    assert "shape=box" in dot


# the start of a node line or a flow line of the DOT text, each id quoted once
_DOT_IDS = re.compile(r'    "[a-z0-9_]+"( -> "[a-z0-9_]+")?[ ;]')


def test_dot_quotes_no_quote_of_a_configured_name(tmp_path):
    for name, props in (("s1", 'spring.application.name=a"b\n'), ("s2", "spring.application.name=b\n")):
        (tmp_path / name / "src/main/resources").mkdir(parents=True)
        (tmp_path / name / "pom.xml").write_text("<project><artifactId>%s</artifactId></project>" % name)
        (tmp_path / name / "src/main/resources/application.properties").write_text(props)
    (tmp_path / "s1/src/main/java").mkdir(parents=True)
    (tmp_path / "s1/src/main/java/C.java").write_text('@FeignClient(name = "b")\ninterface C {}\n')
    dot = dfd_to_dot(analyze_directory(tmp_path).dfd)
    ids = [line for line in dot.splitlines() if line.startswith('    "')]
    assert len(ids) == 3  # s1, b and the flow s1 -> b
    assert [line for line in ids if not _DOT_IDS.match(line)] == []


# ----------------------------------------------------------------------
# trace verification
# ----------------------------------------------------------------------


def test_verify_traces_all_good(miniapp_result, miniapp_path):
    count, failures = verify_traces(miniapp_result.dfd, miniapp_path)
    assert failures == []
    assert count == len(miniapp_result.dfd.nodes) + len(miniapp_result.dfd.flows)


def test_verify_traces_detects_drift(tmp_path):
    src = tmp_path / "f.yml"
    src.write_text("name: svc-one\n", encoding="utf-8")
    d = Dfd()
    d.upsert_node(Node("svc-one"), TraceEntry("f.yml", 1, (6, 13), "svc-one"))
    count, failures = verify_traces(d, tmp_path)
    assert count == 1 and failures == []
    src.write_text("name: renamed\n", encoding="utf-8")
    _, failures = verify_traces(d, tmp_path)
    assert len(failures) == 1
    assert "svc-one" in failures[0]


def test_verify_traces_detects_missing_file(tmp_path):
    d = Dfd()
    d.upsert_node(Node("svc"), TraceEntry("gone.yml", 1, (0, 3), "svc"))
    _, failures = verify_traces(d, tmp_path)
    assert len(failures) == 1
    assert "unreadable" in failures[0]


def test_verify_traces_reads_each_file_once(tmp_path, monkeypatch):
    src = tmp_path / "compose.yml"
    src.write_text("one: svc-a\ntwo: svc-b\nlink: svc-a\n", encoding="utf-8")
    d = Dfd()
    d.upsert_node(Node("svc-a", stereotypes=["gateway"]), TraceEntry("compose.yml", 1, (5, 10), "svc-a"))
    d.upsert_node(Node("svc-b"), TraceEntry("compose.yml", 2, (5, 10), "svc-b"))
    d.upsert_flow(Flow("svc-a", "svc-b"), TraceEntry("compose.yml", 3, (6, 11), "svc-a"))
    d.upsert_node(Node("svc-c"), TraceEntry("compose.yml", 9, (0, 1), "x"))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    count, failures = verify_traces(d, tmp_path)
    assert opened == [str(src)]
    assert count == 4
    assert failures == ["svc_c: compose.yml:9 unreadable"]
    src.write_text("one: svc-a\ntwo: svc-x\nlink: svc-a\n", encoding="utf-8")
    opened.clear()
    _, failures = verify_traces(d, tmp_path)
    assert opened == [str(src)]
    assert failures == [
        "svc_b: compose.yml:2 span (5:10) holds 'svc-x', recorded 'svc-b'",
        "svc_c: compose.yml:9 unreadable",
    ]


# ----------------------------------------------------------------------
# byte determinism
# ----------------------------------------------------------------------


def test_serialization_is_stable_across_runs(miniapp_path):
    from dfdscan.analysis import analyze_directory

    a = analyze_directory(miniapp_path)
    b = analyze_directory(miniapp_path)
    assert dfd_to_json(a.dfd) == dfd_to_json(b.dfd)
    assert traceability_to_json(a.dfd) == traceability_to_json(b.dfd)
    assert dfd_to_dot(a.dfd) == dfd_to_dot(b.dfd)
