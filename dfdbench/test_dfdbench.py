"""Tests of the benchmark's generator, truth and tracer."""
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from dfdscan.analysis import analyze_directory  # noqa: E402
from dfdscan.evaluation import compare, load_document  # noqa: E402
from dfdscan.output import dfd_to_obj  # noqa: E402


def _render_digest(app):
    h = hashlib.sha256()
    for rel, text in sorted(gen.render(app)):
        h.update(rel.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def _tiny():
    return gen.App(
        "tiny",
        [
            gen.Service("config", 8888, role="config", config_client=False),
            gen.Service(
                "alpha-service",
                6000,
                feign=["beta-service"],
                mongo="alpha-mongodb",
                mongo_creds=("alpha-user", "alpha-pw"),
                logging=True,
                filler=2,
                text_blocks=1,
            ),
            gen.Service(
                "beta-service",
                6001,
                mail_creds=("mail-user", "mail-pw"),
                hystrix=True,
                rest=["api.rates.example.com"],
                props="properties",
                build="gradle",
            ),
        ],
    )


# Worked out by hand from the planted inputs of _tiny().
TINY_TRUTH = {
    "nodes": [
        {"name": "alpha-mongodb", "type": "database", "stereotypes": ["database", "plaintext_credentials"],
         "tagged_values": {"Image": "mongo:3.4", "password": "alpha-pw", "username": "alpha-user"}},
        {"name": "alpha-service", "type": "service", "stereotypes": ["internal", "local_logging"],
         "tagged_values": {"Port": "6000"}},
        {"name": "api.rates.example.com", "type": "external_entity",
         "stereotypes": ["exitpoint", "external_website"], "tagged_values": {}},
        {"name": "beta-service", "type": "service", "stereotypes": ["circuit_breaker", "internal"],
         "tagged_values": {"Port": "6001"}},
        {"name": "config", "type": "service", "stereotypes": ["configuration_server", "infrastructural"],
         "tagged_values": {"Port": "8888"}},
        {"name": "mail-server", "type": "external_entity",
         "stereotypes": ["exitpoint", "mail_server", "plaintext_credentials"],
         "tagged_values": {"password": "mail-pw", "username": "mail-user"}},
    ],
    "information_flows": [
        {"sender": "alpha_service", "receiver": "alpha_mongodb",
         "stereotypes": ["plaintext_credentials_link"], "tagged_values": {}},
        {"sender": "alpha_service", "receiver": "beta_service",
         "stereotypes": ["feign_connection", "restful_http"], "tagged_values": {}},
        {"sender": "beta_service", "receiver": "api_rates_example_com",
         "stereotypes": ["circuit_breaker_link", "restful_http"], "tagged_values": {}},
        {"sender": "beta_service", "receiver": "mail_server", "stereotypes": [], "tagged_values": {}},
        {"sender": "config", "receiver": "alpha_service", "stereotypes": ["restful_http"], "tagged_values": {}},
        {"sender": "config", "receiver": "beta_service", "stereotypes": ["restful_http"], "tagged_values": {}},
    ],
    "known_missed": [],
    "known_extra": [],
}


def _misses(root, truth):
    comp = compare(load_document(dfd_to_obj(analyze_directory(root).dfd)), load_document(truth))
    return comp.false_positives, comp.false_negatives


def test_plans_are_seeded_and_deterministic():
    for plan in (gen.plan_java_heavy, gen.plan_many_services, lambda s: gen.plan_small(s, 1)):
        assert _render_digest(plan(7)) == _render_digest(plan(7))
        assert _render_digest(plan(7)) != _render_digest(plan(8))


def test_write_records_the_digest_of_the_tree(tmp_path):
    a = gen.write(gen.plan_small(3, 0), str(tmp_path / "a"))
    b = gen.write(gen.plan_small(3, 0), str(tmp_path / "b"))
    assert a == b
    assert gen.tree_digest(str(tmp_path / "a")) == a["digest"]
    assert a["files"] > 100 and a["text_block_files"] > 0


def test_tiny_truth_is_the_hand_checked_one(tmp_path):
    assert gen.truth(_tiny()) == TINY_TRUTH


def test_dfdscan_finds_the_tiny_truth(tmp_path):
    app = _tiny()
    gen.write(app, str(tmp_path / "tiny"))
    extra, missed = _misses(tmp_path / "tiny", gen.truth(app))
    assert not any(extra.values()) and not any(missed.values())


def test_text_block_shortfall_is_recorded_not_hidden(tmp_path):
    app = _tiny()
    app.services[1].poisoned_feign = ["config"]
    truth = gen.truth(app)
    assert [k["item"] for k in truth["known_missed"]] == ["alpha_service -> config"]
    gen.write(app, str(tmp_path / "tiny"))
    extra, missed = _misses(tmp_path / "tiny", truth)
    assert not any(extra.values())
    unexplained = set(missed["information_flows"]) - {"alpha_service -> config"}
    assert not unexplained and not missed["annotations"]


def test_mutations_keep_tree_and_truth_in_step(tmp_path):
    app = gen.plan_small(5, 0)
    root = str(tmp_path / "repo")
    seed_digest = gen.write(app, root)["digest"]
    business = [s for s in app.services if s.role == "business"]
    for step in range(4 * len(business)):
        touched = gen.mutate(app, step)
        gen.update(app, root, touched)
        assert gen.tree_digest(root) == gen.write(app, str(tmp_path / ("fresh%d" % step)))["digest"]
        if step % 5 == 1:
            extra, missed = _misses(root, gen.truth(app))
            assert not any(extra.values()) and not any(missed.values())
    assert gen.tree_digest(root) == seed_digest


def test_tail_is_p90_with_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(195)]) == (90.0, 175.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_tracer_records_layers_and_restores_functions(tmp_path):
    from dfdscan import analysis, search
    from dfdscan.extractors import default_extractors

    app = _tiny()
    info = gen.write(app, str(tmp_path / "tiny"))
    originals = (analysis.build_index, search.find_keyword, search.mask_java_comments)
    extractors = default_extractors()
    tr = tracer.Tracer()
    tr.begin(extractors)
    try:
        analysis.analyze_directory(tmp_path / "tiny")
    finally:
        tr.end()
    assert (analysis.build_index, search.find_keyword, search.mask_java_comments) == originals
    assert all("run" not in vars(ex) for ex in extractors)
    assert tr.busy("search.build_index") > 0
    assert tr.calls("search.find_keyword") > 0
    assert tr.counted("search.mask")[0] == info["java_files"]
    assert tr.busy("extractors.workspace") > 0
    assert tr.busy("no.such.layer") is None
    names = {s[0] for s in tr.spans}
    assert {"analysis", "search.build_index", "extractors.pipeline", "parsers.yaml"} <= names
