"""Model semantics: name canonicalization, merge behavior, annotation
applicability, and the commutativity that order independence relies on."""

import copy
import pickle
import random
from collections import OrderedDict

import pytest

from dfdscan import output, search
from dfdscan.extractors.base import Context, run_pipeline
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
from dfdscan.search import build_index


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


@pytest.mark.parametrize("raw", ["${x:", "rab:bit,other", "svc(x)", 'a"b', "a\\b", "caf\u00e9", "\u0130"])
def test_a_name_outside_the_grammar_is_refused_by_node_and_flow(raw):
    with pytest.raises(NameError_):
        normalize_name(raw)
    with pytest.raises(NameError_):
        Node(raw)
    with pytest.raises(NameError_):
        Flow("a", raw)
    # a query for a name no diagram can hold finds nothing, as for an absent one
    assert Dfd().node(raw) is None and Dfd().node("a") is None
    assert Dfd().has_flow("a", raw) is False
    assert Dfd().has_flow(raw, "a") is False


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


@pytest.mark.parametrize("service_first", [True, False])
def test_an_external_upgrade_drops_node_stereotypes_in_either_order(service_first):
    d = Dfd()
    upserts = [
        (Node("x", "service", ["tracing_server", "local_logging"]), t(line=1)),
        (Node("x", "external_entity", ["external_website"]), t(line=2)),
    ]
    for node, entry in upserts if service_first else upserts[::-1]:
        d.upsert_node(node, entry)
    node = d.node("x")
    assert (node.node_type, node.stereotypes) == ("external_entity", {"external_website"})
    assert d.conflicts == ["node x: type external_entity drops local_logging, tracing_server"]
    rec = d.traces.get("x")
    assert (rec.primary, rec.sub_items) == (t(line=1), {"external_website": t(line=2)})
    assert d.validate() == []
    # the same drop again is recorded once
    d.upsert_node(Node("x", "service", ["tracing_server", "local_logging"]), t(line=3))
    assert len(d.conflicts) == 1


def test_a_dropped_sub_item_keeps_its_entry_as_an_extra():
    d = Dfd()
    d.upsert_node(Node("x"), t(line=1))
    d.annotate("x", "tracing_server", trace=t(line=3))
    d.upsert_node(Node("x", "external_entity"), t(line=2))
    rec = d.traces.get("x")
    assert rec.sub_items == {}
    assert t(line=3) in rec.extras


def test_a_conflict_still_rejects_an_unknown_stereotype():
    d = Dfd()
    d.upsert_node(Node("x", node_type="database"), t())
    incoming = Node("x", "external_entity")
    incoming.stereotypes = incoming.stereotypes | {"no_such_stereotype"}
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


def test_context_connect_refuses_and_records_a_self_flow():
    ctx = Context(None, None)
    assert ctx.connect("A", "a", [], t()) is None
    assert ctx.connect("' '", "' '", [], t()) is None  # malformed, not a self-flow
    assert ctx.report.suppressed_self_flows == ["a -> a"]
    assert ctx.dfd.flows == {} and ctx.dfd.nodes == {}


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


def test_a_dropped_sub_item_is_decided_anew_in_the_epoch_that_refills_it():
    d = Dfd()
    store = d.traces
    store.record("svc", SETUP)
    store.epoch = 1
    store.record_sub("svc", "k", LOW)
    store.epoch = 2
    store.drop("svc", "k")
    store.epoch = 3
    mid = t(file="a.yml", line=10)  # sorts between LOW and HIGH
    store.record_sub("svc", "k", HIGH)
    store.record_sub("svc", "k", mid)  # a lower position in the refilling epoch wins
    assert store.get("svc").sub_items == {"k": mid}
    store.epoch = 4
    store.record_sub("svc", "k", LOW)  # and in the next one nothing takes over
    rec = store.get("svc")
    assert rec.sub_items == {"k": mid}
    assert rec.extras == [LOW, HIGH]


def test_links_join_the_extras_without_competing():
    d = Dfd()
    evidence, link = t(file="b.yml"), t(file="a.yml")  # the link sorts first
    assert evidence.linked([link]) == evidence
    d.upsert_node(Node("svc", stereotypes=["gateway"]), evidence.linked([link]))
    rec = d.traces.get("svc")
    assert (rec.primary, rec.sub_items, rec.extras) == (evidence, {"gateway": evidence}, [link])
    # recorded as evidence of its own, the link competes and leaves the extras;
    # the entry it pushes out still holds gateway, so it is no extra either
    d.upsert_node(Node("svc"), link)
    assert (rec.primary, rec.sub_items, rec.extras) == (link, {"gateway": evidence}, [])
    d.annotate("svc", stereotype="local_logging", trace=t(file="c.yml").linked([t(file="d.yml")]))
    assert rec.sub_items["local_logging"] == t(file="c.yml")
    assert rec.extras == [t(file="d.yml")]


class SlotOracle:
    """The trace store's rule by brute force: a slot holds the lowest-position
    entry of the first epoch that offered one since the slot was last
    dropped, and the extras are every entry and link recorded for the item
    that fills no slot."""

    def __init__(self):
        self.epoch = 0
        self.offers = {}  # (item, key or None) -> [(epoch, entry)] since the last drop
        self.seen = {}  # item -> every entry recorded for it, and their links

    def offer(self, item, key, entry):
        if item not in self.seen:  # the record made now takes entry as its primary
            self.seen[item] = set()
            self.offers[(item, None)] = [(self.epoch, entry)]
        self.offers.setdefault((item, key), []).append((self.epoch, entry))
        self.seen[item].update((entry, *entry.via))

    def slots(self, item):
        """{key: entry} of the item, the primary under None."""
        out = {}
        for (owner, key), offers in self.offers.items():
            if owner == item and offers:
                first = offers[0][0]
                out[key] = min((e for epoch, e in offers if epoch == first), key=lambda e: e[:4])
        return out


@pytest.mark.parametrize("seed", range(6))
def test_the_trace_store_follows_its_slot_rule_by_brute_force(seed):
    rng = random.Random(seed)
    pool = [t(file=f, line=n) for f in ("a.yml", "b.yml") for n in (1, 2, 3)]
    store, oracle = Dfd().traces, SlotOracle()
    for _ in range(400):
        item, key = rng.choice("xy"), rng.choice("km")
        entry = rng.choice(pool).linked(rng.sample(pool, rng.choice((0, 0, 1, 2))))
        op = rng.random()
        if op < 0.1:
            store.epoch = oracle.epoch = oracle.epoch + 1
        elif op < 0.2:
            store.drop(item, key)
            oracle.offers.pop((item, key), None)
        elif op < 0.25 and item in oracle.seen:  # a dropped primary is refilled at once
            store.drop(item)
            oracle.offers.pop((item, None))
            store.record(item, entry)
            oracle.offer(item, None, entry)
        elif op < 0.6:
            store.record(item, entry)
            oracle.offer(item, None, entry)
        else:
            store.record_sub(item, key, entry)
            oracle.offer(item, key, entry)
        for name in oracle.seen:
            rec, slots = store.get(name), oracle.slots(name)
            assert {None: rec.primary, **rec.sub_items} == slots
            extras = rec.extras
            assert len(set(extras)) == len(extras)  # each kept once
            assert not set(extras) & set(slots.values())  # no entry is both
            assert set(extras) == oracle.seen[name] - set(slots.values())


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


def test_a_trace_entry_is_compared_and_hashed_without_its_links():
    plain = t()
    linked = TraceEntry(plain.file, plain.line, plain.span, plain.snippet, (t(line=9),))
    assert plain == linked and not plain != linked
    assert hash(plain) == hash(linked)
    assert len({plain, linked}) == 1
    assert plain != t(line=2) and not plain == t(line=2)


@pytest.mark.parametrize("name", ["file", "via"])
def test_a_trace_entry_is_immutable(name):
    with pytest.raises(AttributeError):
        setattr(t(), name, ())


def test_a_trace_entry_survives_deepcopy_and_pickle_with_its_links():
    entry = t().linked([t(line=9, snippet="link")])
    for copied in (copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
        assert copied == entry
        assert copied.via == entry.via == (t(line=9, snippet="link"),)


def test_linked_adds_links_to_a_new_entry_only():
    entry = t()
    assert entry.linked(()) is entry
    link = t(line=9)
    extended = entry.linked([link])
    assert extended is not entry and extended == entry
    assert extended.via == (link,)
    assert entry.via == ()


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def test_validate_clean_diagram():
    d = Dfd()
    d.upsert_node(Node("a"), t())
    d.upsert_flow(Flow("a", "b"), t(line=2))
    assert d.validate() == []


def test_validate_reports_a_node_key_outside_the_grammar():
    d = Dfd()
    d.upsert_node(Node("a"), t())
    d.nodes["${x:"] = d.nodes["a__b"] = d.nodes["a"]
    d.traces.record("${x:", t())
    d.traces.record("a__b", t())
    assert d.validate() == ["node key ${x: is not canonical", "node key a__b is not canonical"]


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


# ----------------------------------------------------------------------
# lean items: shared stereotype sets, one empty mapping, no instance dict
# ----------------------------------------------------------------------


def _items(dfd):
    return [*dfd.nodes.values(), *dfd.flows.values()]


@pytest.fixture(scope="module")
def lean_diagrams(gen, miniapp_path, tmp_path_factory):
    """The diagrams of miniapp and of a seed-1 many_services tree, indexed
    with a memo of their own so no other test finds these trees in it."""
    plan = gen.plan_many_services(1)
    root = tmp_path_factory.mktemp("lean") / plan.name
    gen.write(plan, str(root))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_memo", OrderedDict())
        return [run_pipeline(build_index(r))[0] for r in (miniapp_path, root)]


def test_diagram_items_have_no_instance_dict(lean_diagrams):
    for dfd in lean_diagrams:
        for item in _items(dfd):
            assert not hasattr(item, "__dict__"), item


def test_items_share_one_set_per_distinct_stereotype_set(lean_diagrams):
    for dfd in lean_diagrams:
        sets = [item.stereotypes for item in _items(dfd)]
        assert all(type(s) is frozenset for s in sets)
        assert len({id(s) for s in sets}) == len(set(sets)) < len(sets)


def test_empty_tags_and_sub_items_are_one_shared_read_only_mapping(lean_diagrams):
    for dfd in lean_diagrams:
        empty = [item.tagged_values for item in _items(dfd) if not item.tagged_values]
        empty += [rec.sub_items for _, rec in dfd.traces.items() if not rec.sub_items]
        assert empty and len({id(m) for m in empty}) == 1
        with pytest.raises(TypeError):
            empty[0]["Port"] = ["80"]
        assert len(empty[0]) == 0
        # a filled one is a dict of its own item
        filled = [item.tagged_values for item in _items(dfd) if item.tagged_values]
        assert filled and len({id(m) for m in filled}) == len(filled)


def test_a_dropped_last_sub_item_leaves_the_shared_empty_mapping():
    d = Dfd()
    d.upsert_node(Node("x", stereotypes=["gateway"]), t())
    d.upsert_node(Node("y"), t(line=2))
    d.upsert_node(Node("x", "external_entity"), t(line=3))  # drops gateway
    assert d.node("x").stereotypes == frozenset()
    assert d.traces.get("x").sub_items is d.traces.get("y").sub_items
    assert d.node("x").tagged_values is d.traces.get("y").sub_items


def test_two_diagrams_do_not_share_their_set_table(miniapp_path):
    index = build_index(miniapp_path)
    first = run_pipeline(index)[0]
    table = dict(first._sets)
    second = run_pipeline(index)[0]
    assert second._sets is not first._sets
    assert first._sets == table
    assert not {id(s) for s in first._sets.values()} & {id(s) for s in second._sets.values()}
