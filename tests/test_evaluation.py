"""Tests for the precision/recall evaluation module.

The arithmetic oracle embeds a reference benchmark: raw TP/FP/FN counts
for 17 open-source microservice applications, split into four item
groups, together with the rounded precision/recall figures reported for
that benchmark.  The metric code must reproduce every reported cell from
the raw counts alone, within half a rounding unit (0.005).

The reference benchmark also reports a security-annotation slice, but
its raw counts are not part of the per-group count data, so those cells
cannot be recomputed from what is embedded here and are left out.
"""
import pytest

from dfdscan.evaluation import (
    Counts,
    GROUPS,
    compare,
    comparison_to_obj,
    compute_metrics,
    load_document,
    match_items,
    micro,
    report_lines,
)

# Shorthand used by the embedded reference data.
GROUP_OF = {
    "S": "services",
    "E": "external_entities",
    "I": "information_flows",
    "A": "annotations",
}

# Half a rounding unit.  A few reported cells round an exact .xx5 value
# (21/24 = 0.875 -> 0.88, 39/40 = 0.975 -> 0.98), where the true gap is
# exactly 0.005; the epsilon keeps binary float representation from
# pushing those just over the line.
TOL = 0.005 + 1e-9

# Raw (tp, fp, fn) per application and group.
# S = services, E = external entities, I = information flows,
# A = annotations (stereotypes plus tagged values).
REFERENCE_COUNTS = {
    1: {"S": (13, 0, 0), "E": (1, 1, 1), "I": (22, 17, 12), "A": (71, 27, 29)},
    2: {"S": (15, 1, 0), "E": (1, 0, 1), "I": (19, 0, 13), "A": (89, 4, 37)},
    3: {"S": (9, 0, 0), "E": (2, 0, 0), "I": (21, 2, 3), "A": (61, 2, 14)},
    4: {"S": (4, 0, 0), "E": (1, 0, 0), "I": (5, 0, 1), "A": (17, 0, 1)},
    5: {"S": (14, 0, 0), "E": (1, 0, 0), "I": (34, 0, 0), "A": (107, 6, 8)},
    6: {"S": (10, 0, 0), "E": (2, 0, 0), "I": (27, 1, 1), "A": (80, 3, 9)},
    7: {"S": (14, 0, 0), "E": (3, 0, 0), "I": (34, 0, 3), "A": (173, 0, 19)},
    8: {"S": (10, 1, 0), "E": (2, 1, 0), "I": (18, 1, 11), "A": (67, 20, 41)},
    9: {"S": (6, 0, 0), "E": (1, 0, 0), "I": (12, 1, 1), "A": (43, 1, 3)},
    10: {"S": (7, 0, 0), "E": (1, 0, 0), "I": (12, 3, 0), "A": (52, 4, 4)},
    11: {"S": (8, 0, 0), "E": (1, 0, 0), "I": (16, 0, 0), "A": (59, 3, 4)},
    12: {"S": (4, 0, 0), "E": (0, 0, 1), "I": (5, 0, 1), "A": (23, 0, 3)},
    13: {"S": (6, 0, 0), "E": (4, 0, 1), "I": (17, 0, 1), "A": (84, 6, 9)},
    14: {"S": (5, 0, 0), "E": (3, 0, 0), "I": (12, 1, 1), "A": (62, 5, 16)},
    15: {"S": (7, 0, 0), "E": (2, 0, 0), "I": (16, 0, 2), "A": (57, 0, 8)},
    16: {"S": (8, 0, 0), "E": (3, 1, 0), "I": (18, 1, 8), "A": (75, 12, 25)},
    17: {"S": (9, 0, 0), "E": (1, 0, 0), "I": (26, 0, 4), "A": (74, 2, 7)},
}

# Per-application whole-row counts (all four groups pooled), used as a
# transcription self-check against REFERENCE_COUNTS.
REFERENCE_ROW_TOTALS = {
    1: (107, 45, 42),
    2: (124, 5, 51),
    3: (93, 4, 17),
    4: (27, 0, 2),
    5: (156, 6, 8),
    6: (119, 4, 10),
    7: (224, 0, 22),
    8: (97, 23, 52),
    9: (62, 2, 4),
    10: (72, 7, 4),
    11: (84, 3, 4),
    12: (32, 0, 5),
    13: (111, 6, 11),
    14: (82, 6, 17),
    15: (82, 0, 10),
    16: (104, 14, 33),
    17: (110, 2, 11),
}

# Pooled counts reported for the two application subsets and the whole
# benchmark, again as transcription self-checks.
REFERENCE_POOLED = {
    "apps_1_7": {
        "S": (79, 1, 0),
        "E": (11, 1, 2),
        "I": (162, 20, 33),
        "A": (598, 42, 117),
        "total": (850, 64, 152),
    },
    "apps_8_17": {
        "S": (70, 1, 0),
        "E": (18, 2, 2),
        "I": (152, 7, 29),
        "A": (596, 53, 120),
        "total": (836, 63, 151),
    },
    "all": {
        "S": (149, 2, 0),
        "E": (29, 3, 4),
        "I": (314, 27, 62),
        "A": (1194, 95, 237),
        "total": (1686, 127, 303),
    },
}

# Rounded (precision, recall) cells reported for the benchmark.  None
# marks a cell the report leaves blank (undefined ratio).  Keys: the four
# groups, "overall" (all groups pooled) and "core" (S+E+I pooled).
REFERENCE_METRICS = {
    1: {
        "S": (1, 1),
        "E": (0.5, 0.5),
        "I": (0.56, 0.65),
        "A": (0.72, 0.71),
        "overall": (0.7, 0.72),
        "core": (0.67, 0.73),
    },
    2: {
        "S": (0.94, 1),
        "E": (1, 0.5),
        "I": (1, 0.59),
        "A": (0.96, 0.71),
        "overall": (0.96, 0.71),
        "core": (0.97, 0.71),
    },
    3: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (0.91, 0.88),
        "A": (0.97, 0.81),
        "overall": (0.96, 0.85),
        "core": (0.94, 0.91),
    },
    4: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (1, 0.83),
        "A": (1, 0.94),
        "overall": (1, 0.93),
        "core": (1, 0.91),
    },
    5: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (1, 1),
        "A": (0.95, 0.93),
        "overall": (0.96, 0.95),
        "core": (1, 1),
    },
    6: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (0.96, 0.96),
        "A": (0.96, 0.9),
        "overall": (0.97, 0.92),
        "core": (0.98, 0.98),
    },
    7: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (1, 0.92),
        "A": (1, 0.9),
        "overall": (1, 0.91),
        "core": (1, 0.94),
    },
    8: {
        "S": (0.91, 1),
        "E": (0.67, 1),
        "I": (0.95, 0.62),
        "A": (0.77, 0.62),
        "overall": (0.81, 0.65),
        "core": (0.91, 0.73),
    },
    9: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (0.92, 0.92),
        "A": (0.98, 0.93),
        "overall": (0.97, 0.94),
        "core": (0.95, 0.95),
    },
    10: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (0.8, 1),
        "A": (0.93, 0.93),
        "overall": (0.91, 0.95),
        "core": (0.87, 1),
    },
    11: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (1, 1),
        "A": (0.95, 0.94),
        "overall": (0.97, 0.95),
        "core": (1, 1),
    },
    12: {
        "S": (1, 1),
        "E": (None, None),
        "I": (1, 0.83),
        "A": (1, 0.88),
        "overall": (1, 0.86),
        "core": (1, 0.82),
    },
    13: {
        "S": (1, 1),
        "E": (1, 0.8),
        "I": (1, 0.94),
        "A": (0.93, 0.9),
        "overall": (0.95, 0.91),
        "core": (1, 0.93),
    },
    14: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (0.92, 0.92),
        "A": (0.93, 0.79),
        "overall": (0.93, 0.83),
        "core": (0.95, 0.95),
    },
    15: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (1, 0.89),
        "A": (1, 0.88),
        "overall": (1, 0.89),
        "core": (1, 0.93),
    },
    16: {
        "S": (1, 1),
        "E": (0.75, 1),
        "I": (0.95, 0.69),
        "A": (0.86, 0.75),
        "overall": (0.88, 0.76),
        "core": (0.94, 0.78),
    },
    17: {
        "S": (1, 1),
        "E": (1, 1),
        "I": (1, 0.87),
        "A": (0.97, 0.91),
        "overall": (0.98, 0.91),
        "core": (1, 0.9),
    },
}

REFERENCE_METRICS_POOLED = {
    "apps_1_7": {
        "S": (0.99, 1),
        "E": (0.92, 0.85),
        "I": (0.89, 0.83),
        "A": (0.93, 0.84),
        "overall": (0.93, 0.85),
        "core": (0.92, 0.88),
    },
    "apps_8_17": {
        "S": (0.99, 1),
        "E": (0.9, 0.9),
        "I": (0.96, 0.84),
        "A": (0.92, 0.83),
        "overall": (0.93, 0.85),
        "core": (0.96, 0.89),
    },
    "all": {
        "S": (0.99, 1),
        "E": (0.91, 0.88),
        "I": (0.92, 0.84),
        "A": (0.93, 0.83),
        "overall": (0.93, 0.85),
        "core": (0.94, 0.88),
    },
}

SUBSETS = {
    "apps_1_7": range(1, 8),
    "apps_8_17": range(8, 18),
    "all": range(1, 18),
}


def app_counts(app):
    return {GROUP_OF[g]: Counts(*REFERENCE_COUNTS[app][g]) for g in ("S", "E", "I", "A")}


def pooled_counts(apps):
    out = {}
    for g in ("S", "E", "I", "A"):
        out[GROUP_OF[g]] = micro(Counts(*REFERENCE_COUNTS[a][g]) for a in apps)
    return out


def check_pr(got, expected):
    got_p, got_r = got
    want_p, want_r = expected
    if want_p is None:
        assert got_p is None
    else:
        assert got_p is not None
        assert abs(got_p - want_p) <= TOL
    if want_r is not None:
        assert got_r is not None
        assert abs(got_r - want_r) <= TOL


def check_cells(cells, expected):
    for g in ("S", "E", "I", "A"):
        check_pr(cells[GROUP_OF[g]], expected[g])
    check_pr(cells["overall"], expected["overall"])
    check_pr(cells["core"], expected["core"])


# ----------------------------------------------------------------------------
# Fixture self-checks: the embedded numbers must be internally consistent
# before they are trusted as an oracle.
# ----------------------------------------------------------------------------


def test_reference_row_totals_consistent():
    for app, groups in REFERENCE_COUNTS.items():
        total = micro(Counts(*groups[g]) for g in ("S", "E", "I", "A"))
        assert (total.tp, total.fp, total.fn) == REFERENCE_ROW_TOTALS[app]


def test_reference_pooled_counts_consistent():
    for subset, apps in SUBSETS.items():
        want = REFERENCE_POOLED[subset]
        pooled = pooled_counts(apps)
        for g in ("S", "E", "I", "A"):
            c = pooled[GROUP_OF[g]]
            assert (c.tp, c.fp, c.fn) == want[g]
        total = micro(pooled.values())
        assert (total.tp, total.fp, total.fn) == want["total"]


# ----------------------------------------------------------------------------
# The oracle proper: every reported precision/recall cell reproduced from
# raw counts within 0.005.
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("app", sorted(REFERENCE_COUNTS))
def test_per_app_cells(app):
    metrics = compute_metrics([app_counts(app)])
    check_cells(metrics.per_app[0], REFERENCE_METRICS[app])


@pytest.mark.parametrize("subset", sorted(SUBSETS))
def test_pooled_cells(subset):
    metrics = compute_metrics([app_counts(a) for a in SUBSETS[subset]])
    check_cells(metrics.pooled, REFERENCE_METRICS_POOLED[subset])


def test_headline_numbers():
    pooled = pooled_counts(range(1, 18))
    services = pooled["services"]
    assert (services.tp, services.fp, services.fn) == (149, 2, 0)
    assert abs(services.precision - 0.99) <= TOL
    assert services.recall == 1.0
    total = micro(pooled.values())
    assert abs(total.precision - 0.93) <= TOL
    assert abs(total.recall - 0.85) <= TOL


def test_undefined_ratios_are_none_not_zero():
    c = Counts(*REFERENCE_COUNTS[12]["E"])
    assert c.precision is None
    assert c.recall == 0.0
    empty = Counts()
    assert empty.precision is None
    assert empty.recall is None


def test_counts_addition():
    a = Counts(1, 2, 3)
    b = Counts(10, 20, 30)
    assert (a + b) == Counts(11, 22, 33)
    a += b
    assert a == Counts(11, 22, 33)
    assert micro([]) == Counts(0, 0, 0)


def test_compute_metrics_requires_input():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_compute_metrics_macro_skips_undefined_cells():
    apps = [
        {
            "services": Counts(1, 0, 0),
            "external_entities": Counts(0, 0, 1),  # precision undefined
            "information_flows": Counts(1, 0, 0),
            "annotations": Counts(2, 0, 0),
        },
        {
            "services": Counts(1, 0, 0),
            "external_entities": Counts(1, 1, 0),
            "information_flows": Counts(1, 0, 0),
            "annotations": Counts(2, 0, 0),
        },
    ]
    metrics = compute_metrics(apps)
    assert metrics.per_app[0]["external_entities"][0] is None
    # Macro precision averages only the one defined value.
    assert metrics.macro["external_entities"][0] == 0.5
    # Micro pooling still counts the undefined app's raw numbers.
    assert metrics.pooled["external_entities"] == (0.5, 0.5)
    assert "security" not in metrics.pooled


def test_compute_metrics_carries_security_slice():
    apps = [
        {
            "services": Counts(1, 0, 0),
            "external_entities": Counts(1, 0, 0),
            "information_flows": Counts(1, 0, 0),
            "annotations": Counts(4, 1, 0),
            "security": Counts(1, 1, 0),
        },
        {
            "services": Counts(1, 0, 0),
            "external_entities": Counts(1, 0, 0),
            "information_flows": Counts(1, 0, 0),
            "annotations": Counts(4, 0, 1),
            "security": Counts(2, 0, 1),
        },
    ]
    metrics = compute_metrics(apps)
    assert metrics.pooled["security"] == (3 / 4, 3 / 4)
    # Security is not pooled into overall; overall covers the four groups.
    assert metrics.pooled["overall"] == (14 / 15, 14 / 15)


# ----------------------------------------------------------------------------
# Matching semantics
# ----------------------------------------------------------------------------


TRUTH_OBJ = {
    "services": [
        {"name": "gateway", "stereotypes": ["gateway", "infrastructural"]},
        {
            "name": "orders-db",
            "type": "database",
            "stereotypes": ["database"],
            "tagged_values": {"Image": "mongo:3.4"},
        },
        {"name": "orders", "stereotypes": ["internal"]},
    ],
    "external_entities": [
        {"name": "mail-server", "stereotypes": ["exitpoint", "plaintext_credentials"]},
    ],
    "information_flows": [
        {"sender": "gateway", "receiver": "orders", "stereotypes": ["restful_http"]},
        {"sender": "orders", "receiver": "orders-db", "stereotypes": []},
    ],
}


def truth_doc():
    return load_document(TRUTH_OBJ)


def test_match_items_symmetry():
    counts = match_items(load_document(TRUTH_OBJ), truth_doc())
    assert set(counts) == set(GROUPS) | {"security"}
    for c in counts.values():
        assert c.fp == 0 and c.fn == 0
    assert counts["services"].tp == 3
    assert counts["security"].tp == 2  # exitpoint, plaintext_credentials


def test_identical_documents_match_everywhere():
    comp = compare(load_document(TRUTH_OBJ), truth_doc())
    for g in GROUPS:
        c = comp.counts[g]
        assert c.fp == 0 and c.fn == 0
        assert comp.false_positives[g] == []
        assert comp.false_negatives[g] == []
    assert comp.counts["services"].tp == 3
    assert comp.counts["external_entities"].tp == 1
    assert comp.counts["information_flows"].tp == 2
    # 4 stereotypes on services, 1 tagged value, 2 stereotypes on the
    # external entity, 1 on flows.
    assert comp.counts["annotations"].tp == 8
    assert comp.overall == Counts(14, 0, 0)
    assert comp.core == Counts(6, 0, 0)


def test_name_normalization_bridges_spellings():
    variant = {
        "services": [
            {"name": "Gateway"},
            {"name": "orders_db", "type": "database"},
            {"name": "ORDERS"},
        ],
        "external_entities": [{"name": "Mail Server"}],
        "information_flows": [
            {"sender": "gateway", "receiver": "orders"},
            {"sender": "orders", "receiver": "orders-db"},
        ],
    }
    comp = compare(load_document(variant), truth_doc())
    for g in ("services", "external_entities", "information_flows"):
        assert comp.counts[g].fp == 0
        assert comp.counts[g].fn == 0


def test_reversed_flow_is_fp_plus_fn():
    reversed_obj = {
        "services": TRUTH_OBJ["services"],
        "external_entities": TRUTH_OBJ["external_entities"],
        "information_flows": [
            {"sender": "orders", "receiver": "gateway"},
            {"sender": "orders", "receiver": "orders-db"},
        ],
    }
    comp = compare(load_document(reversed_obj), truth_doc())
    flows = comp.counts["information_flows"]
    assert (flows.tp, flows.fp, flows.fn) == (1, 1, 1)
    assert comp.false_positives["information_flows"] == ["orders -> gateway"]
    assert comp.false_negatives["information_flows"] == ["gateway -> orders"]


def test_flow_field_aliases_accepted():
    for fields in (("sender", "receiver"), ("source", "target"), ("from", "to")):
        obj = {
            "services": [{"name": "a"}, {"name": "b"}],
            "information_flows": [{fields[0]: "a", fields[1]: "b"}],
        }
        doc = load_document(obj)
        assert ("a", "b") in doc.flows


def test_single_nodes_array_with_types():
    obj = {
        "nodes": [
            {"name": "svc", "type": "service"},
            {"name": "db", "type": "database"},
            {"name": "out", "type": "external_entity"},
        ]
    }
    doc = load_document(obj)
    assert set(doc.services) == {"svc", "db"}
    assert set(doc.externals) == {"out"}


def test_duplicate_identity_is_input_error():
    with pytest.raises(ValueError):
        load_document({"services": [{"name": "a"}, {"name": "A"}]})
    with pytest.raises(ValueError):
        load_document(
            {
                "services": [{"name": "a"}, {"name": "b"}],
                "information_flows": [
                    {"sender": "a", "receiver": "b"},
                    {"sender": "A", "receiver": "B"},
                ],
            }
        )


@pytest.mark.parametrize(
    "obj",
    [
        {"services": [{"name": "${x:"}]},
        {"services": [{"name": "a"}], "information_flows": [{"sender": "a", "receiver": "rab:bit,other"}]},
    ],
    ids=["node", "flow"],
)
def test_a_truth_name_outside_the_grammar_is_an_input_error(obj):
    # no diagram can hold such a node, so the truth document is refused
    with pytest.raises(ValueError, match="no name in"):
        load_document(obj)


def test_annotations_judged_only_on_matched_owners():
    extracted = {
        "services": [
            {"name": "orders", "stereotypes": ["internal"]},
            # Extra node carrying annotations: one service FP, but its
            # annotations must not count as annotation FPs.
            {"name": "phantom", "stereotypes": ["internal", "local_logging"]},
        ],
        "information_flows": [],
    }
    comp = compare(load_document(extracted), truth_doc())
    services = comp.counts["services"]
    assert (services.tp, services.fp, services.fn) == (1, 1, 2)
    ann = comp.counts["annotations"]
    # Only the matched "orders" node is judged: its one stereotype agrees.
    assert (ann.tp, ann.fp, ann.fn) == (1, 0, 0)


def test_annotation_disagreement_on_matched_owner():
    extracted = {
        "services": [
            {"name": "gateway", "stereotypes": ["gateway"]},
            {
                "name": "orders-db",
                "type": "database",
                "stereotypes": ["database"],
                "tagged_values": {"Image": "mysql:8"},
            },
            {"name": "orders", "stereotypes": ["internal"]},
        ],
        "external_entities": TRUTH_OBJ["external_entities"],
        "information_flows": TRUTH_OBJ["information_flows"],
    }
    comp = compare(load_document(extracted), truth_doc())
    ann = comp.counts["annotations"]
    # Missing: infrastructural on gateway, Image=mongo:3.4.  Extra:
    # Image=mysql:8.  Everything else agrees.
    assert (ann.tp, ann.fp, ann.fn) == (6, 1, 2)
    assert comp.false_positives["annotations"] == ["orders_db {image=mysql:8}"]
    assert sorted(comp.false_negatives["annotations"]) == [
        "gateway <<infrastructural>>",
        "orders_db {image=mongo:3.4}",
    ]


def test_tagged_value_identity_trims_and_splits_lists():
    truth = load_document(
        {"services": [{"name": "s", "tagged_values": {"Port": [8080, 8081]}}]}
    )
    got = load_document(
        {"services": [{"name": "s", "tagged_values": [["port", " 8080 "]]}]}
    )
    comp = compare(got, truth)
    ann = comp.counts["annotations"]
    assert (ann.tp, ann.fp, ann.fn) == (1, 0, 1)


def test_security_slice_counts_security_stereotypes_only():
    extracted = {
        "services": TRUTH_OBJ["services"],
        "external_entities": [
            # plaintext_credentials missed, entrypoint invented.
            {"name": "mail-server", "stereotypes": ["exitpoint", "entrypoint"]},
        ],
        "information_flows": TRUTH_OBJ["information_flows"],
    }
    comp = compare(load_document(extracted), truth_doc())
    # exitpoint agrees; both disagreeing stereotypes are security ones.
    assert (comp.security.tp, comp.security.fp, comp.security.fn) == (1, 1, 1)
    # The architectural disagreements do not move the security slice:
    # swap a non-security stereotype and re-check.
    extracted["services"] = [
        {"name": "gateway", "stereotypes": ["gateway", "infrastructural"]},
        {
            "name": "orders-db",
            "type": "database",
            "stereotypes": ["database"],
            "tagged_values": {"Image": "mongo:3.4"},
        },
        {"name": "orders", "stereotypes": ["infrastructural"]},
    ]
    comp2 = compare(load_document(extracted), truth_doc())
    assert (comp2.security.tp, comp2.security.fp, comp2.security.fn) == (1, 1, 1)
    assert comp2.counts["annotations"].fp == 2
    assert comp2.counts["annotations"].fn == 2


def test_conservation_against_truth_sizes():
    extracted = {
        "services": [{"name": "orders"}, {"name": "phantom"}],
        "external_entities": [],
        "information_flows": [{"sender": "orders", "receiver": "orders-db"}],
    }
    truth = truth_doc()
    comp = compare(load_document(extracted), truth)
    assert comp.counts["services"].tp + comp.counts["services"].fn == len(truth.services)
    assert comp.counts["external_entities"].tp + comp.counts["external_entities"].fn == len(
        truth.externals
    )
    assert comp.counts["information_flows"].tp + comp.counts["information_flows"].fn == len(
        truth.flows
    )
    # Annotation conservation holds over the matched owners only: here the
    # "orders" service and the orders -> orders-db flow.
    matched_truth_annotations = len(truth.services["orders"].annotations) + len(
        truth.flows[("orders", "orders_db")].annotations
    )
    ann = comp.counts["annotations"]
    assert ann.tp + ann.fn == matched_truth_annotations


def test_report_lines_shape():
    comp = compare(truth_doc(), truth_doc())
    lines = report_lines(comp)
    assert len(lines) == 1 + len(GROUPS) + 3
    assert lines[0].split() == ["group", "TP", "FP", "FN", "precision", "recall"]
    assert any("core (S+E+I)" in line for line in lines)
    # Undefined ratios render as "-".
    empty = compare(load_document({}), load_document({}))
    for line in report_lines(empty)[1:]:
        assert line.rstrip().endswith("-")


def test_comparison_to_obj_shape():
    obj = comparison_to_obj(compare(truth_doc(), truth_doc()))
    assert set(obj) == {
        "groups",
        "overall",
        "core",
        "security",
        "false_positives",
        "false_negatives",
    }
    assert set(obj["groups"]) == set(GROUPS)
    for cell in obj["groups"].values():
        assert set(cell) == {"tp", "fp", "fn", "precision", "recall"}
    assert obj["overall"]["tp"] == 14
    assert obj["core"]["tp"] == 6
