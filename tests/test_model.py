"""Model semantics: name canonicalization, merge behavior, annotation
applicability, and the commutativity that order independence relies on."""

import random

import pytest

from dfdscan import output
from dfdscan.model import (
    Dfd,
    Flow,
    ModelError,
    NameError_,
    Node,
    SelfFlowError,
    StereotypeError,
    TraceEntry,
    normalize_name,
)


def t(file="a/b.yml", line=1, span=(0, 3), snippet="abc"):
    return TraceEntry(file=file, line=line, span=span, snippet=snippet)


# ----------------------------------------------------------------------
# normalize_name
# ----------------------------------------------------------------------


def test_normalize_name_separators():
    assert normalize_name("notification-service") == "notification_service"
    assert normalize_name("Config Server") == "config_server"
    assert normalize_name("a.b/c") == "a_b_c"


def test_normalize_name_collapses_and_strips():
    assert normalize_name("  'My--Weird  name' ") == "my_weird_name"
    assert normalize_name('"quoted"') == "quoted"


def test_normalize_name_idempotent():
    for raw in ("A-b.C", "x__y", " z "):
        once = normalize_name(raw)
        assert normalize_name(once) == once


def test_normalize_name_empty_rejected():
    with pytest.raises(NameError_):
        normalize_name("  '' ")


# ----------------------------------------------------------------------
# nodes and stereotype checking
# ----------------------------------------------------------------------


def test_database_node_gets_database_stereotype():
    n = Node("orders-db", node_type="database")
    assert "database" in n.stereotypes
    assert n.name == "orders_db"


def test_unknown_stereotype_rejected():
    with pytest.raises(StereotypeError):
        Node("a", stereotypes=["not_a_real_thing"])


def test_flow_stereotype_on_node_rejected():
    with pytest.raises(StereotypeError):
        Node("a", stereotypes=["restful_http"])


def test_node_stereotype_on_flow_rejected():
    with pytest.raises(StereotypeError):
        Flow("a", "b", stereotypes=["local_logging"])


def test_external_entity_stereotype_applicability():
    Node("gh", node_type="external_entity", stereotypes=["github_repository"])
    with pytest.raises(StereotypeError):
        Node("svc", node_type="service", stereotypes=["github_repository"])


def test_self_flow_rejected_by_default():
    with pytest.raises(SelfFlowError):
        Flow("a", "a")
    Flow("a", "a", allow_self=True)


# ----------------------------------------------------------------------
# upsert semantics
# ----------------------------------------------------------------------


def test_upsert_node_merges_stereotypes_and_tags():
    d = Dfd()
    d.upsert_node(Node("svc", stereotypes=["local_logging"]), t())
    d.upsert_node(
        Node("svc", stereotypes=["gateway"], tagged_values={"Port": 8080}), t(line=2)
    )
    node = d.node("svc")
    assert node.stereotypes == {"local_logging", "gateway"}
    assert node.tagged_values == {"Port": ["8080"]}


def test_upsert_node_tag_values_accumulate_without_duplicates():
    d = Dfd()
    d.upsert_node(Node("svc", tagged_values={"Port": 80}), t())
    d.upsert_node(Node("svc", tagged_values={"Port": [80, 443]}), t(line=2))
    assert d.node("svc").tagged_values["Port"] == ["80", "443"]


def test_service_upgrades_to_database():
    d = Dfd()
    d.upsert_node(Node("store"), t())
    d.upsert_node(Node("store", node_type="database"), t(line=2))
    node = d.node("store")
    assert node.node_type == "database"
    assert "database" in node.stereotypes
    assert d.conflicts == []


def test_service_upgrades_to_external_entity_either_order():
    for first, second in (("service", "external_entity"), ("external_entity", "service")):
        d = Dfd()
        d.upsert_node(Node("x", node_type=first), t())
        d.upsert_node(Node("x", node_type=second), t(line=2))
        assert d.node("x").node_type == "external_entity"


def test_database_external_conflict_keeps_first_and_records():
    d = Dfd()
    d.upsert_node(Node("x", node_type="database"), t())
    # only the stereotypes that apply to the kept type are merged
    incoming = Node("x", "external_entity", ["external_website", "plaintext_credentials"])
    node = d.upsert_node(incoming, t(line=2))
    assert (node.node_type, node.stereotypes) == ("database", {"database", "plaintext_credentials"})
    assert d.conflicts == ["node x: type external_entity conflicts with database (keeping database)"]
    assert set(d.traces.get("x").sub_items) == {"database", "plaintext_credentials"}
    assert d.validate() == []
    # the same conflict again is recorded once
    d.upsert_node(Node("x", "external_entity"), t(line=3))
    assert len(d.conflicts) == 1


def test_a_conflict_still_rejects_an_unknown_stereotype():
    d = Dfd()
    d.upsert_node(Node("x", node_type="database"), t())
    incoming = Node("x", "external_entity")
    incoming.stereotypes.add("no_such_stereotype")
    with pytest.raises(StereotypeError):
        d.upsert_node(incoming, t(line=2))


def test_upsert_flow_creates_endpoints():
    d = Dfd()
    d.upsert_flow(Flow("a", "b", stereotypes=["restful_http"]), t())
    assert d.node("a") is not None
    assert d.node("b") is not None
    assert d.has_flow("a", "b")
    assert not d.has_flow("b", "a")


def test_upsert_flow_merges():
    d = Dfd()
    d.upsert_flow(Flow("a", "b", stereotypes=["restful_http"]), t())
    d.upsert_flow(Flow("a", "b", stereotypes=["feign_connection"]), t(line=2))
    flow = d.flows[("a", "b")]
    assert flow.stereotypes == {"restful_http", "feign_connection"}


def test_upsert_flow_suppresses_allowed_self_flow():
    d = Dfd()
    out = d.upsert_flow(Flow("a", "a", allow_self=True), t())
    assert out is None
    assert d.suppressed_self_flows == ["a -> a"]
    assert d.flows == {}


# ----------------------------------------------------------------------
# annotate
# ----------------------------------------------------------------------


def test_annotate_node_and_flow():
    d = Dfd()
    d.upsert_node(Node("svc"), t())
    d.upsert_flow(Flow("svc", "other"), t(line=2))
    d.annotate("svc", stereotype="local_logging", trace=t(line=3))
    d.annotate("svc -> other", stereotype="circuit_breaker_link", trace=t(line=4))
    d.annotate("svc", tags={"Port": 9000}, trace=t(line=5))
    assert "local_logging" in d.node("svc").stereotypes
    assert "circuit_breaker_link" in d.flows[("svc", "other")].stereotypes
    assert d.node("svc").tagged_values["Port"] == ["9000"]


def test_annotate_unknown_item_is_error():
    d = Dfd()
    with pytest.raises(ModelError):
        d.annotate("ghost", stereotype="local_logging")


def test_annotate_applicability_enforced():
    d = Dfd()
    d.upsert_node(Node("svc"), t())
    d.upsert_flow(Flow("svc", "other"), t(line=2))
    with pytest.raises(StereotypeError):
        d.annotate("svc", stereotype="restful_http")
    with pytest.raises(StereotypeError):
        d.annotate("svc -> other", stereotype="local_logging")


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def test_trace_primary_kept_and_extras_deduplicated():
    d = Dfd()
    first = t(line=1)
    d.upsert_node(Node("svc"), first)
    d.upsert_node(Node("svc"), t(line=2))
    d.upsert_node(Node("svc"), t(line=2))
    rec = d.traces.get("svc")
    assert rec.primary == first
    assert rec.extras == [t(line=2)]


def test_trace_sub_items_for_stereotypes_and_tags():
    d = Dfd()
    d.upsert_node(Node("svc", stereotypes=["local_logging"]), t(line=1))
    d.annotate("svc", tags={"Port": 80}, trace=t(line=9))
    rec = d.traces.get("svc")
    assert rec.sub_items["local_logging"] == t(line=1)
    assert rec.sub_items["Port"] == t(line=9)


# Evidence rule: an item's primary and each sub-item go to the entry of
# the earliest epoch that produced evidence, ties broken by file position;
# later entries only become extras of the primary.
SETUP = t(file="z.yml", line=1)
LOW = t(file="a.yml", line=9)  # sorts before HIGH by file position
HIGH = t(file="b.yml", line=5)

# writer -> (write one piece of evidence, the (item, sub-item key) it fills;
# key None stands for the item's primary)
EVIDENCE_WRITERS = {
    "upsert_node": (
        lambda d, e: d.upsert_node(Node("svc", stereotypes=["gateway"], tagged_values={"Port": 80}), e),
        [("svc", None), ("svc", "gateway"), ("svc", "Port")],
    ),
    "upsert_flow": (
        lambda d, e: d.upsert_flow(Flow("svc", "db", stereotypes=["jdbc"]), e),
        [("svc -> db", None), ("svc -> db", "jdbc")],
    ),
    "annotate": (
        lambda d, e: (
            d.annotate("store", stereotype="local_logging", tags={"User": "x"}, trace=e),
            d.annotate("gw -> store", stereotype="circuit_breaker_link", trace=e),
        ),
        [("store", "local_logging"), ("store", "User"), ("gw -> store", "circuit_breaker_link")],
    ),
}


@pytest.mark.parametrize("writer", sorted(EVIDENCE_WRITERS))
@pytest.mark.parametrize(
    "first, second, winner",
    [
        ((1, HIGH), (2, LOW), HIGH),  # a later epoch never takes over
        ((1, HIGH), (1, LOW), LOW),  # within an epoch the lower position wins
        ((1, LOW), (1, HIGH), LOW),
    ],
    ids=["later-epoch", "same-epoch-lower", "same-epoch-higher"],
)
def test_evidence_rule(writer, first, second, winner):
    write, slots = EVIDENCE_WRITERS[writer]
    loser = HIGH if winner == LOW else LOW
    d = Dfd()
    d.upsert_flow(Flow("gw", "store"), SETUP)  # epoch 0: items to annotate
    for epoch, entry in (first, second):
        d.traces.epoch = epoch
        write(d, entry)
    for item_id, key in slots:
        rec = d.traces.get(item_id)
        if key is None:
            assert (rec.primary, rec.extras) == (winner, [loser]), item_id
        else:
            assert rec.sub_items[key] == winner, (item_id, key)
    # annotate competes only for sub-items; the losing entry stays as an extra
    annotated = {item_id for item_id, _ in slots} if writer == "annotate" else set()
    for item_id in ("gw", "store", "gw -> store"):
        rec = d.traces.get(item_id)
        extras = [loser] if item_id in annotated else []
        assert (rec.primary, rec.extras) == (SETUP, extras), item_id


def test_links_join_the_extras_without_competing():
    d = Dfd()
    evidence, link = t(file="b.yml"), t(file="a.yml")  # the link sorts first
    assert evidence.linked([link]) == evidence
    d.upsert_node(Node("svc", stereotypes=["gateway"]), evidence.linked([link]))
    rec = d.traces.get("svc")
    assert (rec.primary, rec.sub_items, rec.extras) == (evidence, {"gateway": evidence}, [link])
    # recorded as evidence of its own, the link competes and leaves the extras
    d.upsert_node(Node("svc"), link)
    assert (rec.primary, rec.extras) == (link, [evidence])
    d.annotate("svc", stereotype="local_logging", trace=t(file="c.yml").linked([t(file="d.yml")]))
    assert rec.sub_items["local_logging"] == t(file="c.yml")
    assert rec.extras == [evidence, t(file="d.yml")]


@pytest.mark.parametrize("annotate_first", [True, False], ids=["annotate-first", "upsert-first"])
@pytest.mark.parametrize("file, wins", [("a.yml", True), ("c.yml", False)], ids=["sorts-first", "sorts-last"])
def test_an_entry_holding_a_sub_item_competes_for_the_primary(annotate_first, file, wins):
    d = Dfd()
    first, entry = t(file="b.yml"), t(file=file)
    d.upsert_node(Node("svc"), first)
    ops = [
        lambda: d.annotate("svc", stereotype="local_logging", trace=entry),
        lambda: d.upsert_node(Node("svc"), entry),
    ]
    for op in ops if annotate_first else reversed(ops):
        op()
    rec = d.traces.get("svc")
    assert rec.sub_items == {"local_logging": entry}
    assert (rec.primary, rec.extras) == ((entry, [first]) if wins else (first, []))


@pytest.mark.parametrize("low_first", [True, False], ids=["low-first", "high-first"])
def test_a_lost_sub_item_slot_keeps_the_entry_as_an_extra(tmp_path, low_first):
    (tmp_path / "a.yml").write_text("logging: file\n", encoding="utf-8")
    (tmp_path / "b.yml").write_text("logger: out\n", encoding="utf-8")
    low = TraceEntry("a.yml", 1, (9, 13), "file")
    high = TraceEntry("b.yml", 1, (8, 11), "out")
    d = Dfd()
    d.upsert_node(Node("svc"), TraceEntry("a.yml", 1, (0, 7), "logging"))
    d.traces.epoch = 3
    for entry in (low, high) if low_first else (high, low):
        d.annotate("svc", stereotype="local_logging", trace=entry)
    rec = d.traces.get("svc")
    assert (rec.sub_items, rec.extras) == ({"local_logging": low}, [high])
    assert output.verify_traces(d, tmp_path) == (1, [])
    (tmp_path / "b.yml").write_text("logger: err\n", encoding="utf-8")
    assert output.verify_traces(d, tmp_path) == (
        1,
        ["svc: b.yml:1 span (8:11) holds 'err', recorded 'out'"],
    )


def test_flow_stereotype_evidence_is_the_upserts_own_trace():
    d = Dfd()
    d.upsert_flow(Flow("a", "b", stereotypes=["restful_http"]), t(line=1))
    d.upsert_flow(Flow("a", "b", stereotypes=["feign_connection"]), t(line=2))
    rec = d.traces.get("a -> b")
    assert rec.primary == t(line=1)
    assert rec.sub_items == {"restful_http": t(line=1), "feign_connection": t(line=2)}


def test_span_rendering():
    entry = TraceEntry(file="f", line=3, span=(10, 30), snippet="x")
    assert entry.span_str() == "(10:30)"


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def test_validate_clean_diagram():
    d = Dfd()
    d.upsert_node(Node("a"), t())
    d.upsert_flow(Flow("a", "b"), t(line=2))
    assert d.validate() == []


def test_validate_catches_missing_trace():
    d = Dfd()
    d.upsert_node(Node("a"))
    problems = d.validate()
    assert any("no trace" in p for p in problems)


# ----------------------------------------------------------------------
# commutativity: applying the same operation set in any order converges
# ----------------------------------------------------------------------


def test_operation_order_does_not_change_result():
    def ops():
        return [
            lambda d: d.upsert_node(Node("gw", stereotypes=["gateway"]), t(line=1)),
            lambda d: d.upsert_node(Node("gw", tagged_values={"Port": 80}), t(line=2)),
            lambda d: d.upsert_node(Node("db", node_type="database"), t(line=3)),
            lambda d: d.upsert_flow(Flow("gw", "db", stereotypes=["jdbc"]), t(line=4)),
            lambda d: d.upsert_flow(Flow("gw", "db", stereotypes=["plaintext_credentials_link"]), t(line=5)),
            lambda d: d.upsert_node(Node("other"), t(line=6)),
            lambda d: d.upsert_node(Node("gw"), t(line=0)),
        ]

    def shape(d):
        return (
            [(n.name, n.node_type, tuple(sorted(n.stereotypes)), tuple(sorted((k, tuple(v)) for k, v in n.tagged_values.items()))) for n in d.sorted_nodes()],
            [(f.item_id, tuple(sorted(f.stereotypes))) for f in d.sorted_flows()],
            output.traceability_to_obj(d),
        )

    base = Dfd()
    for op in ops():
        op(base)
    expected = shape(base)

    rng = random.Random(99)
    for _ in range(25):
        order = ops()
        rng.shuffle(order)
        d = Dfd()
        for op in order:
            op(d)
        assert shape(d) == expected
