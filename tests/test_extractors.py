"""Extraction pipeline behavior: per-technology extractors on small
synthetic codebases, order independence, and fault isolation."""

import ast
import json
import random
import shutil
from pathlib import Path

import pytest

from dfdscan.analysis import analyze_directory
from dfdscan.extractors.base import (
    MAX_HOPS,
    Context,
    Extractor,
    ServiceRoot,
    default_extractors,
    resolve_name,
    resolve_text,
    run_pipeline,
)
from dfdscan.extractors.flows import _UrlFlows
from dfdscan.extractors.workspace import Workspace
from dfdscan.model import TraceEntry
from dfdscan.output import dfd_to_json, traceability_to_json, traceability_to_obj, verify_traces
from dfdscan.parsers import PropertyEntry, PropertyMap
from dfdscan.rules import load_rules
from dfdscan.search import build_index


ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path, files):
    for rel, content in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content, encoding="utf-8")
    return tmp_path


def analyze(tmp_path, files=None, raw=False):
    if files:
        make_tree(tmp_path, files)
    dfd, report = run_pipeline(build_index(tmp_path), raw=raw)
    return dfd, report


def compose_of(services):
    lines = ["services:"]
    for name, body in services.items():
        lines.append("  %s:" % name)
        for key, value in body.items():
            lines.append("    %s: %s" % (key, value))
    return "\n".join(lines) + "\n"


APP_YML = "spring:\n  application:\n    name: %s\n"


# ----------------------------------------------------------------------
# workspace discovery and node creation
# ----------------------------------------------------------------------


def test_compose_build_services_become_nodes(tmp_path):
    dfd, report = analyze(
        tmp_path,
        {
            "docker-compose.yml": compose_of(
                {"svc-a": {"build": "./svc-a"}, "svc-b": {"build": "./svc-b"}}
            ),
            "svc-a/pom.xml": "<project><artifactId>svc-a</artifactId></project>",
            "svc-b/pom.xml": "<project><artifactId>svc-b</artifactId></project>",
        },
    )
    assert report.failures == []
    assert set(dfd.nodes) == {"svc_a", "svc_b"}
    assert dfd.node("svc-a").node_type == "service"


def test_compose_build_contexts_are_relative_to_the_compose_file(miniapp_path, miniapp_result, tmp_path):
    shutil.copytree(miniapp_path, tmp_path / "code")
    result = analyze_directory(tmp_path)
    assert [w for w in result.report.warnings if "duplicate service name" in w] == []
    auth = result.dfd.node("auth_service")
    assert auth.stereotypes == miniapp_result.dfd.node("auth_service").stereotypes
    assert {"authorization_server", "encryption", "ssl_enabled", "infrastructural"} <= auth.stereotypes


def test_spring_application_name_wins_over_compose_name(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "docker-compose.yml": compose_of({"compose-alias": {"build": "./svc"}}),
            "svc/pom.xml": "<project><artifactId>pom-name</artifactId></project>",
            "svc/src/main/resources/application.yml": APP_YML % "real-name",
        },
    )
    assert "real_name" in dfd.nodes
    assert "compose_alias" not in dfd.nodes


def test_maven_modules_without_compose(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "pom.xml": (
                "<project><artifactId>parent</artifactId>"
                "<modules><module>m1</module><module>m2</module></modules></project>"
            ),
            "m1/pom.xml": "<project><artifactId>m1</artifactId></project>",
            "m2/pom.xml": "<project><artifactId>m2</artifactId></project>",
        },
    )
    assert set(dfd.nodes) == {"m1", "m2"}


def oracle_owner_of(services, path):
    """Context.owner_of as a scan over every service (deepest root wins)."""
    best = None
    best_len = -1
    for svc in services.values():
        root = svc.root
        if root == "":
            if best_len < 0:
                best, best_len = svc, 0
        elif path == root or path.startswith(root + "/"):
            if len(root) > best_len:
                best, best_len = svc, len(root)
    return best


def context_with_roots(roots):
    ctx = Context(None, None)
    for i, root in enumerate(roots):
        name = "svc%d" % i
        trace = TraceEntry(root or "pom.xml", 1, (0, 1), "x")
        ctx.services[name] = ServiceRoot(name=name, canonical=name, root=root, trace=trace)
    ctx.map_roots()
    return ctx


def owner_root(ctx, path):
    owner = ctx.owner_of(path)
    return owner.root if owner else None


def test_owner_of_edge_cases():
    ctx = context_with_roots(["", "svc", "svc/mod"])
    assert owner_root(ctx, "App.java") == ""
    assert owner_root(ctx, "") == ""
    assert owner_root(ctx, "svc") == "svc"  # a path equal to a root
    assert owner_root(ctx, "svc/mod") == "svc/mod"
    assert owner_root(ctx, "svc/mod/src/A.java") == "svc/mod"  # deepest wins
    assert owner_root(ctx, "svc/src/B.java") == "svc"
    assert owner_root(ctx, "svc/module/C.java") == "svc"
    assert owner_root(ctx, "svc-2/x") == ""  # a sibling prefix is not inside svc
    ctx = context_with_roots(["svc"])
    assert owner_root(ctx, "svc-2/x") is None
    assert owner_root(ctx, "svc2") is None
    assert owner_root(ctx, "") is None


def test_owner_of_matches_the_brute_force_oracle():
    rng = random.Random(11)
    names = ["svc", "svc-2", "svc2", "a", "a.b", "mod", "src"]

    def rel(depth):
        return "/".join(rng.choice(names) for _ in range(depth))

    for _ in range(200):
        roots = {rel(rng.randint(1, 3)) for _ in range(rng.randint(0, 6))}
        if rng.random() < 0.3:
            roots.add("")
        ctx = context_with_roots(sorted(roots))
        for _ in range(30):
            path = rel(rng.randint(0, 5))
            if rng.random() < 0.7:
                path += "/F.java" if path else "F.java"
            assert ctx.owner_of(path) is oracle_owner_of(ctx.services, path), (roots, path)


def test_parent_root_holds_nested_module_entries_in_path_order(tmp_path):
    make_tree(
        tmp_path,
        {
            "platform/pom.xml": (
                "<project><artifactId>platform</artifactId>"
                "<modules><module>core</module></modules></project>"
            ),
            "platform/application.yml": APP_YML % "platform",
            "platform/a.properties": "a.key=1\n",
            "platform/core/pom.xml": "<project><artifactId>core</artifactId></project>",
            "platform/core/src/main/resources/application.yml": APP_YML % "core",
            "platform/core/src/main/java/Core.java": "class Core {}\n",
            "tools/pom.xml": "<project><artifactId>tools</artifactId></project>",
            "tools/application.properties": "tools.key=2\n",
        },
    )
    ctx = Context(build_index(tmp_path), load_rules())
    Workspace().run(ctx)
    assert sorted(ctx.services) == ["core", "platform", "tools"]
    parent, child = (ctx.services[n] for n in ("platform", "core"))
    # sorted by path, not grouped by format: the .properties file comes first
    assert [e.trace.file for e in parent.properties.entries] == [
        "platform/a.properties",
        "platform/application.yml",
        "platform/core/src/main/resources/application.yml",
    ]
    assert [e.trace.file for e in child.properties.entries] == [
        "platform/core/src/main/resources/application.yml"
    ]
    assert parent.properties.get("spring.application.name").value == "platform"


def test_project_top_below_the_repository_root_is_no_service(tmp_path):
    # the aggregator holding every build file is not a service wherever it lies
    files = {"code/pom.xml": "<project><modules><module>a</module><module>b</module></modules></project>"}
    for name in ("a", "b"):
        files.update({"code/" + rel: text for rel, text in service_files(name).items()})
    make_tree(tmp_path, files)
    ctx = Context(build_index(tmp_path), load_rules())
    Workspace().run(ctx)
    assert ctx.report.warnings == []
    assert {n: s.root for n, s in ctx.services.items()} == {"a": "code/a", "b": "code/b"}


def test_lone_build_directory_below_the_root_is_a_service(tmp_path):
    make_tree(tmp_path, service_files("solo"))
    ctx = Context(build_index(tmp_path), load_rules())
    Workspace().run(ctx)
    assert {n: s.root for n, s in ctx.services.items()} == {"solo": "solo"}


def test_lone_build_directory_beside_compose_services_is_a_service(tmp_path):
    files = service_files("solo")
    files["docker-compose.yml"] = compose_of({"web": {"build": "./web"}})
    files["web/Dockerfile"] = "FROM nginx\n"
    make_tree(tmp_path, files)
    ctx = Context(build_index(tmp_path), load_rules())
    Workspace().run(ctx)
    assert {n: s.root for n, s in ctx.services.items()} == {"solo": "solo", "web": "web"}


def test_mail_flow_uses_each_services_first_mail_sender(tmp_path):
    sender = "class %s { JavaMailSender mail; }\n"
    dfd, report = analyze(
        tmp_path,
        {
            "a/pom.xml": "<project><artifactId>a</artifactId></project>",
            "a/src/A2.java": sender % "A2",
            "a/src/A1.java": sender % "A1",
            "b/pom.xml": "<project><artifactId>b</artifactId></project>",
            "b/application.properties": "spring.mail.host=smtp.example.org\n",
            "b/src/B.java": sender % "B",
            "c/pom.xml": "<project><artifactId>c</artifactId></project>",
            "c/src/C.java": "class C {}\n",
        },
    )
    assert report.failures == []
    assert dfd.has_flow("a", "mail-server") and dfd.has_flow("b", "mail-server")
    assert not dfd.has_flow("c", "mail-server")
    traces = json.loads(traceability_to_json(dfd))
    assert traces["a -> mail_server"]["file"] == "a/src/A1.java"
    assert traces["b -> mail_server"]["file"] == "b/application.properties"


def test_deployed_image_classified(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "docker-compose.yml": compose_of(
                {
                    "app": {"build": "./app"},
                    "app-mongo": {"image": "mongo:4"},
                    "broker": {"image": "rabbitmq:3"},
                }
            ),
            "app/pom.xml": "<project><artifactId>app</artifactId></project>",
        },
    )
    mongo = dfd.node("app-mongo")
    assert mongo.node_type == "database"
    assert "database" in mongo.stereotypes
    assert mongo.tagged_values["Image"] == ["mongo:4"]
    broker = dfd.node("broker")
    assert broker.node_type == "service"
    assert "message_broker" in broker.stereotypes


def test_port_tag_from_compose_and_properties(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "docker-compose.yml": (
                "services:\n"
                "  svc-a:\n"
                "    build: ./svc-a\n"
                "    ports:\n"
                "      - '80:8080'\n"
            ),
            "svc-a/pom.xml": "<project><artifactId>svc-a</artifactId></project>",
            "svc-b/pom.xml": "<project><artifactId>svc-b</artifactId></project>",
            "svc-b/src/main/resources/application.yml": APP_YML % "svc-b" + "server:\n  port: 9999\n",
        },
    )
    assert dfd.node("svc-a").tagged_values["Port"] == ["8080"]
    assert dfd.node("svc-b").tagged_values["Port"] == ["9999"]


def test_datastore_from_properties_names_by_host(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc" + "spring:\n  data:\n    mongodb:\n      host: orders-db\n"
            ),
        },
    )
    db = dfd.node("orders-db")
    assert db is not None
    assert db.node_type == "database"
    assert dfd.has_flow("svc", "orders-db")


def test_jdbc_datastore_flow_stereotype(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.properties": (
                "spring.application.name=svc\n"
                "spring.datasource.url=jdbc:mysql://billing-db:3306/main\n"
            ),
        },
    )
    assert dfd.node("billing-db").node_type == "database"
    flow = dfd.flows[("svc", "billing_db")]
    assert "jdbc" in flow.stereotypes


def test_local_jdbc_host_gets_owner_prefixed_name(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.properties": (
                "spring.application.name=svc\n"
                "spring.datasource.url=jdbc:h2:mem:testdb\n"
            ),
        },
    )
    assert dfd.node("svc-db") is not None
    assert dfd.has_flow("svc", "svc-db")


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------


def test_feign_client_flow(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/Client.java": (
                '@FeignClient(name = "callee")\n'
                "public interface Client {}\n"
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    flow = dfd.flows[("caller", "callee")]
    assert flow.stereotypes == {"restful_http", "feign_connection"}


def test_feign_client_name_via_constant_in_other_file(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/Client.java": (
                "@FeignClient(name = Names.TARGET)\n"
                "public interface Client {}\n"
            ),
            "caller/src/main/java/Names.java": (
                'class Names { static final String TARGET = "callee"; }\n'
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    assert ("caller", "callee") in dfd.flows


NAMES_JAVA = 'class Names {\n    static final String OLD_NAME = "c";\n    static final String NAME = "b";\n}\n'


def test_feign_constant_in_the_same_file_is_matched_by_its_whole_name(tmp_path):
    java = "@FeignClient(name = NAME)\ninterface Client {\n" + NAMES_JAVA.partition("\n")[2]
    files = service_files("a", java=java)
    files.update(service_files("b"))
    files.update(service_files("c"))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert set(dfd.flows) == {("a", "b")}


def test_feign_constant_in_another_file_is_matched_by_its_whole_name(tmp_path):
    files = service_files("a", java="@FeignClient(name = Names.NAME)\ninterface Client {}\n")
    files["a/src/main/java/Names.java"] = NAMES_JAVA
    files.update(service_files("b"))
    files.update(service_files("c"))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert set(dfd.flows) == {("a", "b")}


def test_feign_window_ends_at_the_annotations_closing_paren(tmp_path):
    # the value = of the first request mapping must not be read as the
    # target of a client named by a constant
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/Client.java": (
                "@FeignClient(name = ServiceNames.CALLEE)\n"
                "public interface Client {\n"
                '    @RequestMapping(value = "/callee/{id}")\n'
                "    String fetch(String id);\n"
                "}\n"
            ),
            "caller/src/main/java/ServiceNames.java": (
                'class ServiceNames { static final String CALLEE = "callee"; }\n'
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    assert set(dfd.nodes) == {"caller", "callee"}
    assert set(dfd.flows) == {("caller", "callee")}


def test_feign_window_reads_a_long_annotation_to_its_closing_paren(tmp_path):
    java = (
        "@FeignClient(\n"
        "    configuration = C.class,\n"
        "    fallback = F.class,\n"
        "    decode404 = true,\n"
        '    name = "b")\n'
        "interface Client {}\n"
    )
    files = service_files("a", java=java)
    files.update(service_files("b"))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert set(dfd.flows) == {("a", "b")}


def test_feign_client_after_a_text_block_with_a_comment_opener(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/Client.java": (
                'final class Docs {\n    static final String HEADER = """\n'
                '        /**\n        """;\n}\n\n'
                '@FeignClient(name = "callee")\n'
                "public interface Client {}\n"
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    assert ("caller", "callee") in dfd.flows


def test_rest_template_external_website(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": APP_YML % "svc",
            "svc/src/main/java/W.java": (
                'String body = restTemplate.getForObject("https://api.exchangeratesapi.io/latest", String.class);\n'
            ),
        },
    )
    site = dfd.node("api.exchangeratesapi.io")
    assert site is not None
    assert site.node_type == "external_entity"
    assert "external_website" in site.stereotypes
    assert dfd.has_flow("svc", "api.exchangeratesapi.io")


def test_rest_template_to_known_service(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "a/pom.xml": "<project><artifactId>a</artifactId></project>",
            "a/src/main/resources/application.yml": APP_YML % "a",
            "a/src/main/java/C.java": (
                'restTemplate.getForObject("http://b/items", String.class);\n'
            ),
            "b/pom.xml": "<project><artifactId>b</artifactId></project>",
            "b/src/main/resources/application.yml": APP_YML % "b",
        },
    )
    assert dfd.has_flow("a", "b")
    assert dfd.node("b").node_type == "service"


def test_a_node_type_conflict_is_reported_and_keeps_the_other_flows(tmp_path):
    call = 'class C { String s = restTemplate.getForObject("%s", String.class); }\n'
    jdbc = "spring:\n  datasource:\n    url: jdbc:mysql://db.example.com:3306/x\n"
    # billing's URL names its own database host, and is searched before shop's
    files = service_files("billing", jdbc, call % "http://db.example.com/x")
    files.update(service_files("shop", java=call % "https://api.payments.com/charge"))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert dfd.has_flow("shop", "api.payments.com")
    assert dfd.node("db.example.com").stereotypes == {"database"}
    conflict = "node db_example_com: type external_entity conflicts with database (keeping database)"
    assert report.warnings == [conflict]


def test_a_conflict_met_at_two_calls_is_one_warning(tmp_path):
    calls = (
        'class C { String s = restTemplate.getForObject("http://db.example.com/a", String.class); }\n'
        'class D { String s = restTemplate.getForObject("http://db.example.com/b", String.class); }\n'
    )
    jdbc = "spring:\n  datasource:\n    url: jdbc:mysql://db.example.com:3306/x\n"
    dfd, report = analyze(tmp_path, service_files("billing", jdbc, calls))
    assert report.failures == []
    conflict = "node db_example_com: type external_entity conflicts with database (keeping database)"
    assert report.warnings == [conflict]
    assert dfd.conflicts == [conflict]


def test_an_external_upgrade_gives_one_diagram_in_either_extractor_order(tmp_path):
    # the tracing server is configured and called by URL: tracing_flows makes a
    # service carrying tracing_server, rest_client_flows an external entity
    yml = "  zipkin:\n    base-url: https://zipkin.example.com\n"
    call = 'class C { String s = restTemplate.getForObject("https://zipkin.example.com/api", String.class); }\n'
    index = build_index(make_tree(tmp_path, service_files("svc", yml, call)))
    conflict = "node zipkin_example_com: type external_entity drops tracing_server"
    outputs = []
    for tracing_first in (False, True):
        extractors = default_extractors()
        extractors.sort(key=lambda ex: not tracing_first or ex.name != "tracing_flows")
        dfd, report = run_pipeline(index, extractors=extractors)
        assert report.failures == []
        assert report.integrity == []
        node = dfd.node("zipkin.example.com")
        assert (node.node_type, node.stereotypes) == ("external_entity", {"exitpoint", "external_website"})
        assert dfd.has_flow("svc", "zipkin.example.com")
        assert dfd.conflicts == [conflict]
        assert report.warnings == [conflict]
        assert verify_traces(dfd, tmp_path)[1] == []
        outputs.append(dfd_to_json(dfd) + traceability_to_json(dfd))
    assert outputs[0] == outputs[1]
    assert '"tracing_server"' not in outputs[0]


def test_plain_url_without_client_marker_ignored(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": APP_YML % "svc",
            "svc/src/main/java/Doc.java": (
                'String docs = "https://example.org/manual";\n'
            ),
        },
    )
    assert dfd.node("example.org") is None


@pytest.mark.parametrize(
    "line",
    [
        'String docs = "https://example.org/manual"; // restTemplate.getForObject(docs)\n',
        '/* WebClient */ String docs = "https://example.org/manual";\n',
    ],
)
def test_client_named_only_in_a_comment_makes_no_flow(tmp_path, line):
    files = {
        "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
        "svc/src/main/resources/application.yml": APP_YML % "svc",
        "svc/src/main/java/Doc.java": line,
    }
    dfd, _ = analyze(tmp_path, files)
    assert dfd.node("example.org") is None
    # --paper-parity reads comments as code
    raw, _ = analyze(tmp_path, raw=True)
    assert raw.has_flow("svc", "example.org")


def test_discovery_flow_and_registry_node(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "registry/pom.xml": "<project><artifactId>registry</artifactId></project>",
            "registry/src/main/resources/application.yml": APP_YML % "registry",
            "registry/src/main/java/R.java": "@EnableEurekaServer\nclass R {}\n",
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc"
                + "eureka:\n  client:\n    serviceUrl:\n      defaultZone: http://registry:8761/eureka/\n"
            ),
        },
    )
    assert "service_discovery" in dfd.node("registry").stereotypes
    assert dfd.has_flow("svc", "registry")


def test_discovery_localhost_resolves_to_eureka_owner(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "registry/pom.xml": "<project><artifactId>registry</artifactId></project>",
            "registry/src/main/resources/application.yml": APP_YML % "registry",
            "registry/src/main/java/R.java": "@EnableEurekaServer\nclass R {}\n",
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc"
                + "eureka:\n  client:\n    serviceUrl:\n      defaultZone: http://localhost:8761/eureka/\n"
            ),
        },
    )
    assert dfd.has_flow("svc", "registry")


def test_config_client_flow_direction_is_server_to_client(miniapp_result):
    dfd = miniapp_result.dfd
    assert dfd.has_flow("config", "notification-service")
    assert not dfd.has_flow("notification-service", "config")


def test_rabbit_producer_consumer_flows(tmp_path):
    rabbit_yml = "spring:\n  rabbitmq:\n    host: rabbitmq\n"
    dfd, _ = analyze(
        tmp_path,
        {
            "docker-compose.yml": compose_of(
                {
                    "producer": {"build": "./producer"},
                    "consumer": {"build": "./consumer"},
                    "rabbitmq": {"image": "rabbitmq:3-management"},
                }
            ),
            "producer/pom.xml": "<project><artifactId>producer</artifactId></project>",
            "producer/src/main/resources/application.yml": APP_YML % "producer" + rabbit_yml,
            "producer/src/main/java/P.java": (
                'rabbitTemplate.convertAndSend("queue", msg);\n'
            ),
            "consumer/pom.xml": "<project><artifactId>consumer</artifactId></project>",
            "consumer/src/main/resources/application.yml": APP_YML % "consumer" + rabbit_yml,
            "consumer/src/main/java/C.java": (
                '@RabbitListener(queues = "queue")\nvoid handle(String m) {}\n'
            ),
        },
    )
    broker = dfd.node("rabbitmq")
    assert "message_broker" in broker.stereotypes
    out = dfd.flows[("producer", "rabbitmq")]
    assert "message_producer_rabbitmq" in out.stereotypes
    inc = dfd.flows[("rabbitmq", "consumer")]
    assert "message_consumer_rabbitmq" in inc.stereotypes


def test_broker_inferred_from_code_is_traced_to_that_code(tmp_path):
    # no broker property: the producer call is the only evidence of the broker
    dfd, _ = analyze(
        tmp_path,
        {
            "p/pom.xml": "<project><artifactId>p</artifactId></project>",
            "p/src/main/resources/application.yml": APP_YML % "p",
            "p/src/main/java/P.java": 'class P {\n  void f() { rabbitTemplate.convertAndSend("q", m); }\n}\n',
        },
    )
    assert "message_broker" in dfd.node("rabbitmq").stereotypes
    primary = dfd.traces.get("rabbitmq").primary
    assert (primary.file, primary.line, primary.snippet) == (
        "p/src/main/java/P.java",
        2,
        "rabbitTemplate.convertAndSend",
    )
    assert verify_traces(dfd, tmp_path)[1] == []


def test_kafka_flows_from_bootstrap_servers(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "p/pom.xml": "<project><artifactId>p</artifactId></project>",
            "p/src/main/resources/application.yml": (
                APP_YML % "p" + "spring:\n  kafka:\n    bootstrap-servers: kafka:9092\n"
            ),
            "p/src/main/java/P.java": "kafkaTemplate.send(topic, msg);\n",
        },
    )
    assert "message_broker" in dfd.node("kafka").stereotypes
    assert "message_producer_kafka" in dfd.flows[("p", "kafka")].stereotypes


def test_mail_server_from_properties(miniapp_result):
    dfd = miniapp_result.dfd
    mail = dfd.node("mail-server")
    assert mail.node_type == "external_entity"
    assert "mail_server" in mail.stereotypes
    assert dfd.has_flow("notification-service", "mail-server")


def test_config_repo_node_and_flow(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "config/pom.xml": "<project><artifactId>config</artifactId></project>",
            "config/src/main/resources/application.yml": (
                APP_YML % "config"
                + "spring:\n  cloud:\n    config:\n      server:\n        git:\n          uri: https://github.com/acme/config-repo\n"
            ),
        },
    )
    repo = dfd.node("github-repository")
    assert repo.node_type == "external_entity"
    assert "github_repository" in repo.stereotypes
    assert repo.tagged_values["URL"] == ["https://github.com/acme/config-repo"]
    assert dfd.has_flow("github-repository", "config")


def test_zuul_gateway_routes_and_user(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "gateway/pom.xml": "<project><artifactId>gateway</artifactId></project>",
            "gateway/src/main/resources/application.yml": (
                APP_YML % "gateway"
                + "zuul:\n  routes:\n    users:\n      serviceId: user-service\n"
            ),
            "gateway/src/main/java/G.java": "@EnableZuulProxy\nclass G {}\n",
            "user-service/pom.xml": "<project><artifactId>user-service</artifactId></project>",
            "user-service/src/main/resources/application.yml": APP_YML % "user-service",
        },
    )
    gw = dfd.node("gateway")
    assert "gateway" in gw.stereotypes
    assert dfd.has_flow("gateway", "user-service")
    user = dfd.node("user")
    assert user.node_type == "external_entity"
    assert "user" in user.stereotypes
    assert dfd.has_flow("user", "gateway")
    assert dfd.has_flow("gateway", "user")
    assert "entrypoint" in user.stereotypes
    assert "exitpoint" in user.stereotypes


def test_zuul_url_routes_skip_local_hosts(tmp_path):
    yml = (
        "zuul:\n  routes:\n"
        "    users:\n      url: http://localhost:9000\n"
        "    orders:\n      url: http://orders.example.com/api\n"
    )
    dfd, report = analyze(tmp_path, service_files("gw", yml))
    assert report.failures == []
    assert dfd.node("localhost") is None
    assert not any("localhost" in key for key in dfd.flows)
    assert dfd.has_flow("gw", "orders_example_com")


def test_cloud_gateway_lb_route_gets_load_balanced_link(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "gw/pom.xml": "<project><artifactId>gw</artifactId></project>",
            "gw/src/main/resources/application.yml": (
                APP_YML % "gw"
                + "spring:\n  cloud:\n    gateway:\n      routes:\n"
                + "        - id: orders\n          uri: lb://order-service\n"
            ),
            "order-service/pom.xml": "<project><artifactId>order-service</artifactId></project>",
            "order-service/src/main/resources/application.yml": APP_YML % "order-service",
        },
    )
    flow = dfd.flows[("gw", "order_service")]
    assert "restful_http" in flow.stereotypes
    assert "load_balanced_link" in flow.stereotypes


def test_oauth_token_flow_to_auth_server(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "auth/pom.xml": "<project><artifactId>auth</artifactId></project>",
            "auth/src/main/resources/application.yml": APP_YML % "auth",
            "auth/src/main/java/A.java": "@EnableAuthorizationServer\nclass A {}\n",
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc"
                + "security:\n  oauth2:\n    client:\n      access-token-uri: http://auth:5000/oauth/token\n"
            ),
        },
    )
    flow = dfd.flows[("svc", "auth")]
    assert "auth_provider" in flow.stereotypes
    assert "restful_http" in flow.stereotypes


def test_zipkin_tracing_flow(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc" + "spring:\n  zipkin:\n    base-url: http://zipkin:9411\n"
            ),
        },
    )
    assert "tracing_server" in dfd.node("zipkin").stereotypes
    assert dfd.has_flow("svc", "zipkin")


def test_turbine_self_entry_suppressed(tmp_path):
    dfd, report = analyze(
        tmp_path,
        {
            "turbine/pom.xml": "<project><artifactId>turbine</artifactId></project>",
            "turbine/src/main/resources/application.yml": (
                APP_YML % "turbine" + "turbine:\n  app-config: turbine,svc-a\n"
            ),
            "svc-a/pom.xml": "<project><artifactId>svc-a</artifactId></project>",
            "svc-a/src/main/resources/application.yml": APP_YML % "svc-a",
        },
    )
    assert dfd.has_flow("svc-a", "turbine")
    assert not dfd.has_flow("turbine", "turbine")
    assert report.suppressed_self_flows == ["turbine -> turbine"]


def service_files(name, yml="", java=None):
    files = {
        "%s/pom.xml" % name: "<project><artifactId>%s</artifactId></project>" % name,
        "%s/src/main/resources/application.yml" % name: APP_YML % name + yml,
    }
    if java is not None:
        files["%s/src/main/java/Main.java" % name] = java
    return files


@pytest.mark.parametrize("spelling", ["service-url", "serviceUrl"])
def test_discovery_key_spellings(tmp_path, spelling):
    yml = "eureka:\n  client:\n    %s:\n      defaultZone: http://registry:8761/eureka/\n"
    dfd, report = analyze(tmp_path, service_files("svc", yml % spelling))
    assert report.failures == []
    assert dfd.has_flow("svc", "registry")


@pytest.mark.parametrize("spelling", ["base-url", "baseUrl"])
def test_tracing_key_spellings(tmp_path, spelling):
    yml = "spring:\n  zipkin:\n    %s: http://zipkin:9411\n"
    dfd, _ = analyze(tmp_path, service_files("svc", yml % spelling))
    assert dfd.has_flow("svc", "zipkin")


@pytest.mark.parametrize("spelling", ["app-config", "appConfig"])
def test_turbine_key_spellings(tmp_path, spelling):
    files = service_files("turbine", "turbine:\n  %s: svc-a\n" % spelling)
    files.update(service_files("svc-a"))
    dfd, _ = analyze(tmp_path, files)
    assert dfd.has_flow("svc-a", "turbine")


def test_broker_from_the_stream_binder_key(tmp_path):
    yml = "spring:\n  cloud:\n    stream:\n      kafka:\n        binder:\n          brokers: kafka:9092\n"
    dfd, _ = analyze(tmp_path, service_files("p", yml, "kafkaTemplate.send(topic, msg);\n"))
    assert "message_producer_kafka" in dfd.flows[("p", "kafka")].stereotypes


def test_elasticsearch_from_the_cluster_nodes_key(tmp_path):
    yml = "spring:\n  data:\n    elasticsearch:\n      cluster-nodes: es-host:9300\n"
    dfd, _ = analyze(tmp_path, service_files("svc", yml))
    assert "search_engine" in dfd.node("es-host").stereotypes
    assert dfd.has_flow("svc", "es-host")


@pytest.mark.parametrize(
    "yml",
    [
        "security:\n  oauth2:\n    resource:\n      user-info-uri: http://auth:5000/user\n",
        "spring:\n  security:\n    oauth2:\n      client:\n        provider:\n"
        "          token-uri: http://auth:5000/oauth/token\n",
    ],
    ids=["user-info-uri", "provider-token-uri"],
)
def test_oauth_flow_from_the_later_keys(tmp_path, yml):
    dfd, _ = analyze(tmp_path, service_files("svc", yml))
    assert "auth_provider" in dfd.flows[("svc", "auth")].stereotypes


@pytest.mark.parametrize(
    "yml",
    [
        "spring:\n  boot:\n    admin:\n      url: http://admin:8080\n",
        "spring:\n  boot:\n    admin:\n      client:\n        url: http://admin:8080\n",
    ],
    ids=["url", "client-url"],
)
def test_boot_admin_flow(tmp_path, yml):
    dfd, report = analyze(tmp_path, service_files("svc", yml))
    assert report.failures == []
    assert "restful_http" in dfd.flows[("svc", "admin")].stereotypes


CONFIG_CLIENT_YML = "spring:\n  cloud:\n    config:\n      uri: http://localhost:8888\n"


def test_local_config_uri_flows_from_the_one_config_server(tmp_path):
    files = service_files("config", java="@EnableConfigServer\nclass C {}\n")
    files.update(service_files("svc", CONFIG_CLIENT_YML))
    dfd, _ = analyze(tmp_path, files)
    assert dfd.has_flow("config", "svc")


def test_local_config_uri_without_a_sole_config_server_has_no_flow(tmp_path):
    files = service_files("config-a", java="@EnableConfigServer\nclass A {}\n")
    files.update(service_files("config-b", java="@EnableConfigServer\nclass B {}\n"))
    files.update(service_files("svc", CONFIG_CLIENT_YML))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert not any(receiver == "svc" for _, receiver in dfd.flows)


CONFIG_DISCOVERY_YML = (
    "spring:\n  cloud:\n    config:\n      discovery:\n        service-id: %s\n"
)


def test_config_discovery_service_id_flows_from_that_service(tmp_path):
    files = service_files("config")
    files.update(service_files("svc", CONFIG_DISCOVERY_YML % "config"))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert set(dfd.flows) == {("config", "svc")}


def test_local_config_service_id_flows_from_the_one_config_server(tmp_path):
    files = service_files("config", java="@EnableConfigServer\nclass C {}\n")
    files.update(service_files("svc", CONFIG_DISCOVERY_YML % "localhost"))
    dfd, _ = analyze(tmp_path, files)
    assert set(dfd.flows) == {("config", "svc")}
    assert "localhost" not in dfd.nodes


def rule_keywords(stereotype):
    """The keywords of the built-in rules evidencing the stereotype."""
    return [kw for r in load_rules().keyword_rules if r.stereotype == stereotype for kw in r.keywords]


# rule stereotype -> a local URL naming its holder, and the flow it gives
FALLBACK_URLS = {
    "configuration_server": (CONFIG_CLIENT_YML, ("server", "svc")),
    "service_discovery": (
        "eureka:\n  client:\n    serviceUrl:\n      defaultZone: http://localhost:8761/eureka/\n",
        ("svc", "server"),
    ),
    "authorization_server": (
        "security:\n  oauth2:\n    client:\n      access-token-uri: http://127.0.0.1:5000/oauth/token\n",
        ("svc", "server"),
    ),
}


@pytest.mark.parametrize(
    "stereotype, keyword", [(s, kw) for s in FALLBACK_URLS for kw in rule_keywords(s)]
)
def test_a_local_url_falls_back_to_the_sole_holder_of_the_rule(tmp_path, stereotype, keyword):
    yml, ends = FALLBACK_URLS[stereotype]
    files = service_files("server", java="%s\nclass S {}\n" % keyword)
    files.update(service_files("svc", yml))
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert set(dfd.flows) == {ends}


def test_local_config_service_id_without_a_config_server_has_no_flow(tmp_path):
    dfd, report = analyze(tmp_path, service_files("svc", CONFIG_DISCOVERY_YML % "localhost"))
    assert report.failures == []
    assert dfd.flows == {}
    assert set(dfd.nodes) == {"svc"}


def test_feign_name_that_normalizes_to_empty_is_skipped(tmp_path):
    java = '@FeignClient(name = "\' \'")\ninterface C {}\n'
    dfd, report = analyze(tmp_path, service_files("svc", java=java))
    assert report.failures == []
    assert dfd.flows == {}


def test_environment_placeholder_resolved_from_compose(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "docker-compose.yml": (
                "services:\n"
                "  svc:\n"
                "    build: ./svc\n"
                "    environment:\n"
                "      RABBIT_HOST: bunny\n"
                "  bunny:\n"
                "    image: rabbitmq:3\n"
            ),
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc" + "spring:\n  rabbitmq:\n    host: ${RABBIT_HOST}\n"
            ),
            "svc/src/main/java/P.java": 'rabbitTemplate.convertAndSend("q", m);\n',
        },
    )
    assert dfd.has_flow("svc", "bunny")
    assert "message_broker" in dfd.node("bunny").stereotypes


def resolver_context(tmp_path, files, properties=()):
    """A context over the files and one service "svc" holding the properties."""
    ctx = Context(build_index(make_tree(tmp_path, files)), load_rules())
    svc = ServiceRoot(
        name="svc",
        canonical="svc",
        root="svc",
        trace=TraceEntry("svc", 1, (0, 1), "x"),
        properties=PropertyMap(properties),
    )
    return ctx, svc


def test_resolve_text_falls_back_to_env_then_inline_default(tmp_path):
    # a service without properties, so every placeholder goes past them
    ctx, svc = resolver_context(tmp_path, {".env": "DB_HOST=db.internal\n", "svc/application.yml": "x: 1\n"})
    origin = "svc/application.yml"
    env_line = TraceEntry(".env", 1, (8, 19), "db.internal")
    assert resolve_text(ctx, svc, "${DB_HOST}", origin) == ("db.internal", (env_line,))
    assert resolve_text(ctx, svc, "${DB_PORT:5432}", origin) == ("5432", ())
    assert resolve_text(ctx, svc, "jdbc://${DB_HOST}:${DB_PORT:5432}/x", origin) == (
        "jdbc://db.internal:5432/x",
        (env_line,),
    )
    assert resolve_text(ctx, svc, "${MISSING}", origin) == (None, ())


def test_resolve_name_takes_a_placeholder_from_env(tmp_path):
    ctx, svc = resolver_context(
        tmp_path,
        {
            ".env": "# hosts\nDB_HOST = db.internal\n",
            "svc/Repo.java": 'class Repo { @Value("${DB_HOST}") String host; }\n',
        },
    )
    assert resolve_name(ctx, svc, "${DB_HOST}", "svc/Repo.java") == (
        "db.internal",
        (TraceEntry(".env", 2, (10, 21), "db.internal"),),
    )


def test_resolve_name_takes_a_placeholder_default_without_env(tmp_path):
    java = 'class Repo { @Value("${DB_HOST:db.local}") String host; }\n'
    ctx, svc = resolver_context(tmp_path, {"svc/Repo.java": java})
    assert resolve_name(ctx, svc, "${DB_HOST:db.local}", "svc/Repo.java") == ("db.local", ())
    assert resolve_name(ctx, svc, "${DB_HOST}", "svc/Repo.java") == (None, ())


def test_resolve_name_jumps_to_a_cross_file_constant(tmp_path):
    ctx, svc = resolver_context(
        tmp_path,
        {
            "a/Caller.java": "connect(Config.TARGET);\n",
            "a/Config.java": 'class Config { static final String TARGET = "inventory"; }\n',
        },
    )
    assert resolve_name(ctx, svc, "Config.TARGET", "a/Caller.java") == (
        "inventory",
        (TraceEntry("a/Config.java", 1, (35, 41), "TARGET"),),
    )


def test_resolve_name_tries_each_source_in_order(tmp_path):
    prop = PropertyEntry("db.host", "from-property", TraceEntry("svc/app.properties", 1, (8, 21), "from-property"))
    blank = PropertyEntry("cache.host", " ", TraceEntry("svc/app.properties", 2, (11, 12), " "))
    ctx, svc = resolver_context(
        tmp_path,
        {
            "svc/app.properties": "db.host=from-property\ncache.host= \n",
            "svc/.env": "DB_HOST=from-env\nCACHE_HOST=cache-env\n",
            "svc/Client.java": 'class Client {\n    static final String TARGET = "same-file";\n    String NAME = "";\n}\n',
            "svc/Names.java": 'class Names {\n    static final String NAME = "";\n}\n',
        },
        [prop, blank],
    )
    origin = "svc/Client.java"
    # property first, under its relaxed spelling; a blank property is skipped
    assert resolve_name(ctx, svc, "${DB_HOST:fb}", origin) == ("from-property", (prop.trace,))
    assert resolve_name(ctx, svc, "${CACHE_HOST:fb}", origin) == (
        "cache-env",
        (TraceEntry("svc/.env", 2, (11, 20), "cache-env"),),
    )
    assert resolve_name(ctx, None, "${DB_HOST:fb}", origin)[0] == "from-env"
    # a stem with no Stem.java, or an empty literal there, falls back to the origin file
    assert resolve_name(ctx, svc, "Missing.TARGET", origin) == (
        "same-file",
        (TraceEntry(origin, 2, (24, 30), "TARGET"),),
    )
    assert resolve_name(ctx, svc, "TARGET", origin)[0] == "same-file"
    assert resolve_name(ctx, svc, "Names.NAME", origin) == ("", (TraceEntry(origin, 3, (11, 15), "NAME"),))
    assert resolve_name(ctx, svc, "Names.OTHER", origin) == (None, ())


def test_a_property_holding_a_placeholder_is_followed_and_a_cycle_ends(tmp_path):
    origin = "svc/app.properties"
    lines = [
        "a=${B}",
        "b=${A}",
        "c=${C}",
        "d=${E}",
        "e=http://${HOST}:9411",
        "host=zipkin",
        "f=${UNSET}",
    ]
    entries = {}
    for n, line in enumerate(lines, 1):
        key, _, value = line.partition("=")
        entries[key] = PropertyEntry(key, value, TraceEntry(origin, n, (2, len(line)), value))
    env = {"svc/.env": "B=from-env\n", origin: "\n".join(lines) + "\n"}
    ctx, svc = resolver_context(tmp_path, env, entries.values())
    env_line = TraceEntry("svc/.env", 1, (2, 10), "from-env")
    trace = {key: e.trace for key, e in entries.items()}
    # each hop is a link, the line holding the literal last
    assert resolve_name(ctx, svc, "${D}", origin) == (
        "http://zipkin:9411",
        (trace["d"], trace["host"], trace["e"]),
    )
    # a name being resolved counts as unset: .env, then the default
    assert resolve_name(ctx, svc, "${A}", origin) == ("from-env", (trace["a"], env_line))
    assert resolve_name(ctx, svc, "${B}", origin) == ("from-env", (trace["b"], trace["a"], env_line))
    assert resolve_name(ctx, svc, "${C:fallback}", origin) == ("fallback", ())
    assert resolve_name(ctx, svc, "${C}", origin) == (None, ())
    assert resolve_name(ctx, svc, "${F:fallback}", origin) == ("fallback", ())


def test_a_doubling_placeholder_chain_stops_at_the_hop_budget(tmp_path):
    # a0=${A1}${A1}, a1=${A2}${A2}, ..., a39=x: 2**40 lookups unbounded
    origin = "svc/app.properties"
    lines = ["a%d=${A%d}${A%d}" % (n, n + 1, n + 1) for n in range(39)] + ["a39=x"]
    entries = []
    for n, line in enumerate(lines, 1):
        key, _, value = line.partition("=")
        entries.append(PropertyEntry(key, value, TraceEntry(origin, n, (len(key) + 1, len(line)), value)))
    ctx, svc = resolver_context(tmp_path, {origin: "\n".join(lines) + "\n"}, entries)
    lookups = []
    get = svc.properties.get
    svc.properties.get = lambda dotted: lookups.append(dotted) or get(dotted)
    # the budget is spent before the literal is reached, so A0 counts as unset
    assert resolve_name(ctx, svc, "${A0}", origin) == (None, ())
    assert resolve_name(ctx, svc, "${A0:fallback}", origin) == ("fallback", ())
    assert len(lookups) <= 2 * (MAX_HOPS + 1)
    # a short doubling chain is within the budget and resolves
    assert resolve_name(ctx, svc, "${A36}", origin)[0] == "x" * 8


def test_a_doubling_placeholder_chain_leaves_the_pipeline_running(tmp_path):
    chain = "".join("a%d=${A%d}${A%d}\n" % (n, n + 1, n + 1) for n in range(39))
    files = service_files("svc", "x: 1\n")
    files["svc/src/main/resources/application.properties"] = (
        "spring.zipkin.base-url=${A0}\n" + chain + "a39=http://zipkin:9411\n"
    )
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert not dfd.has_flow("svc", "zipkin")


def test_a_compose_binding_to_a_placeholder_is_followed_to_its_default(tmp_path):
    files = service_files("svc", "spring:\n  zipkin:\n    base-url: ${ZIPKIN}\n")
    files["docker-compose.yml"] = (
        "services:\n  svc:\n    build: ./svc\n    environment:\n"
        "      ZIPKIN: ${ZIPKIN_URL:http://zipkin:9411}\n"
    )
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert dfd.has_flow("svc", "zipkin")
    rec = dfd.traces.get("svc -> zipkin")
    # traced to the binding that holds the literal, linked to the placeholder
    assert (rec.primary.file, rec.primary.line) == ("docker-compose.yml", 5)
    assert ("svc/src/main/resources/application.yml", 6) in {(e.file, e.line) for e in rec.extras}
    assert verify_traces(dfd, tmp_path)[1] == []


def test_whole_placeholder_from_env_is_traced_to_the_env_line(tmp_path):
    yml = "spring:\n  zipkin:\n    base-url: ${ZIPKIN_URL}\n"
    files = service_files("svc", yml)
    files[".env"] = "ZIPKIN_URL=http://zipkin:9411\n"
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    assert dfd.has_flow("svc", "zipkin")
    env_line = TraceEntry(".env", 1, (11, 29), "http://zipkin:9411")
    placeholder = TraceEntry("svc/src/main/resources/application.yml", 6, (14, 27), "${ZIPKIN_URL}")
    for item in ("svc -> zipkin", "zipkin"):
        rec = dfd.traces.get(item)
        assert rec.primary == env_line
        assert placeholder in rec.extras
    assert traceability_to_obj(dfd)["svc -> zipkin"]["file"] == ".env"
    assert verify_traces(dfd, tmp_path)[1] == []


# ----------------------------------------------------------------------
# annotations
# ----------------------------------------------------------------------


def test_keyword_annotations_on_miniapp(miniapp_result):
    dfd = miniapp_result.dfd
    auth = dfd.node("auth-service")
    assert "authorization_server" in auth.stereotypes
    assert "encryption" in auth.stereotypes
    assert "ssl_enabled" in auth.stereotypes
    assert "local_logging" in dfd.node("notification-service").stereotypes
    assert "configuration_server" in dfd.node("config").stereotypes


ENCODER_DECLARED_IN_A_COMMENT = (
    "class S {\n"
    "    BCryptPasswordEncoder e = new BCryptPasswordEncoder(); "
    "// was: BCryptPasswordEncoder legacy = old;\n"
    "    void f(String p) { legacy.encode(p); }\n"
    "}\n"
)


@pytest.mark.parametrize("raw", [False, True], ids=["masked", "paper-parity"])
def test_encoder_named_only_in_a_comment_is_not_chased(tmp_path, raw):
    dfd, _ = analyze(tmp_path, service_files("svc", java=ENCODER_DECLARED_IN_A_COMMENT), raw=raw)
    assert ("encryption" in dfd.node("svc").stereotypes) == raw


def test_keyword_annotation_in_comment_not_counted(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": APP_YML % "svc",
            "svc/src/main/java/S.java": "// @EnableZuulProxy someday\nclass S {}\n",
        },
    )
    assert "gateway" not in dfd.node("svc").stereotypes


def test_raw_mode_counts_commented_keywords(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": APP_YML % "svc",
            "svc/src/main/java/S.java": "// @EnableZuulProxy someday\nclass S {}\n",
        },
        raw=True,
    )
    assert "gateway" in dfd.node("svc").stereotypes


def test_datastore_credentials_and_link(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.properties": (
                "spring.application.name=svc\n"
                "spring.datasource.url=jdbc:mysql://pay-db:3306/pay\n"
                "spring.datasource.username=root\n"
                "spring.datasource.password=hunter2\n"
            ),
        },
    )
    db = dfd.node("pay-db")
    assert "plaintext_credentials" in db.stereotypes
    assert db.tagged_values["username"] == ["root"]
    assert db.tagged_values["password"] == ["hunter2"]
    flow = dfd.flows[("svc", "pay_db")]
    assert "plaintext_credentials_link" in flow.stereotypes


def test_elasticsearch_does_not_take_mongodb_credentials(tmp_path):
    yml = (
        "spring:\n"
        "  data:\n"
        "    mongodb:\n"
        "      host: mongo\n"
        "      username: root\n"
        "      password: hunter2\n"
        "  elasticsearch:\n"
        "    uris: http://search:9200\n"
    )
    dfd, report = analyze(tmp_path, service_files("svc", yml))
    assert report.failures == []
    mongo, search = dfd.node("mongo"), dfd.node("search")
    assert "plaintext_credentials" in mongo.stereotypes
    assert mongo.tagged_values["password"] == ["hunter2"]
    assert "plaintext_credentials" not in search.stereotypes
    assert "username" not in search.tagged_values
    assert "password" not in search.tagged_values
    assert "plaintext_credentials_link" in dfd.flows[("svc", "mongo")].stereotypes
    assert "plaintext_credentials_link" not in dfd.flows[("svc", "search")].stereotypes


def test_datastore_credentials_stay_with_their_owner(tmp_path):
    files = {}
    for name, user in (("svc-a", "alice"), ("svc-b", "bob")):
        files["%s/pom.xml" % name] = "<project><artifactId>%s</artifactId></project>" % name
        files["%s/src/main/resources/application.properties" % name] = (
            "spring.application.name=%s\n"
            "spring.datasource.url=jdbc:mysql://%s-db:3306/main\n"
            "spring.datasource.username=%s\n"
            "spring.datasource.password=%s-secret\n" % (name, name, user, user)
        )
    dfd, report = analyze(tmp_path, files)
    assert report.failures == []
    for name, user in (("svc_a", "alice"), ("svc_b", "bob")):
        db = dfd.node("%s_db" % name)
        assert "plaintext_credentials" in db.stereotypes
        assert db.tagged_values["username"] == [user]
        assert db.tagged_values["password"] == ["%s-secret" % user]
        assert "plaintext_credentials_link" in dfd.flows[(name, "%s_db" % name)].stereotypes
    assert ("svc_a", "svc_b_db") not in dfd.flows
    assert ("svc_b", "svc_a_db") not in dfd.flows


def test_local_user_credentials_annotate_owner(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc"
                + "  security:\n    user:\n      name: admin\n      password: letmein\n"
            ),
        },
    )
    node = dfd.node("svc")
    assert "plaintext_credentials" in node.stereotypes
    assert node.tagged_values["password"] == ["letmein"]


def test_placeholder_credentials_not_reported(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.properties": (
                "spring.application.name=svc\n"
                "spring.datasource.url=jdbc:mysql://pay-db:3306/pay\n"
                "spring.datasource.password=${DB_PASSWORD}\n"
            ),
        },
    )
    assert "plaintext_credentials" not in dfd.node("pay-db").stereotypes


def test_circuit_breaker_on_outgoing_flows(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/C.java": (
                "@EnableCircuitBreaker\n"
                '@FeignClient(name = "callee")\n'
                "interface C {}\n"
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    flow = dfd.flows[("caller", "callee")]
    assert "circuit_breaker_link" in flow.stereotypes
    assert "circuit_breaker" in dfd.node("caller").stereotypes


def test_load_balanced_annotation(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/C.java": (
                "@LoadBalanced\n"
                '@FeignClient(name = "callee")\n'
                "interface C {}\n"
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    assert "load_balanced_link" in dfd.flows[("caller", "callee")].stereotypes


def feign_caller(code):
    """A caller holding code and a Feign client of callee."""
    files = service_files("caller", java='%s\n@FeignClient(name = "callee")\ninterface C {}\n' % code)
    files.update(service_files("callee"))
    return files


LINK_OF = {"circuit_breaker": "circuit_breaker_link", "load_balancer": "load_balanced_link"}
# usages whose node stereotype and link once disagreed
DRIFTED = [
    ("circuit_breaker", "HystrixFeign.builder()"),
    ("circuit_breaker", "Resilience4j"),
    ("circuit_breaker", "Resilience4JCircuitBreakerFactory"),
    ("load_balancer", "@EnableLoadBalancerClient"),
]


@pytest.mark.parametrize(
    "stereotype, code",
    list(dict.fromkeys([(s, kw) for s in LINK_OF for kw in rule_keywords(s)] + DRIFTED)),
)
def test_each_keyword_gives_its_stereotype_and_its_link(tmp_path, stereotype, code):
    dfd, report = analyze(tmp_path, feign_caller(code))
    assert report.failures == []
    assert stereotype in dfd.node("caller").stereotypes
    assert LINK_OF[stereotype] in dfd.flows[("caller", "callee")].stereotypes


@pytest.mark.parametrize("keyword", rule_keywords("gateway"))
def test_each_gateway_keyword_marks_a_gateway_with_user_flows(tmp_path, keyword):
    dfd, _ = analyze(tmp_path, service_files("edge", java="%s\nclass E {}\n" % keyword))
    assert "gateway" in dfd.node("edge").stereotypes
    assert dfd.has_flow("user", "edge") and dfd.has_flow("edge", "user")


def write_rules(path, edit):
    """A keyword rules file: the built-in rules as edited in place by edit."""
    data = json.loads((ROOT / "src/dfdscan/rules/keyword_rules.json").read_text(encoding="utf-8"))
    edit(data["rules"])
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_a_rules_file_drives_the_links_and_the_gateway_marker(tmp_path):
    code = "@EnableCircuitBreaker\n@EnableEdgeProxy"
    make_tree(tmp_path / "code", feign_caller(code))

    def without_circuit_breakers(rules):
        rules[:] = [r for r in rules if r.get("stereotype") != "circuit_breaker"]

    dfd = analyze_directory(tmp_path / "code", write_rules(tmp_path / "a.json", without_circuit_breakers)).dfd
    assert "circuit_breaker" not in dfd.node("caller").stereotypes
    assert "circuit_breaker_link" not in dfd.flows[("caller", "callee")].stereotypes
    assert not dfd.has_flow("user", "caller")

    def with_edge_proxy(rules):
        next(r for r in rules if r.get("stereotype") == "gateway")["keywords"].append("@EnableEdgeProxy")

    dfd = analyze_directory(tmp_path / "code", write_rules(tmp_path / "b.json", with_edge_proxy)).dfd
    assert "gateway" in dfd.node("caller").stereotypes
    assert dfd.has_flow("user", "caller") and dfd.has_flow("caller", "user")


def test_no_extractor_repeats_a_keyword_of_the_rules():
    # the rules are the one table: a copy in code would drift from a --rules file
    keywords = {kw for r in load_rules().keyword_rules for kw in r.keywords}
    repeated = []
    for path in sorted((ROOT / "src/dfdscan/extractors").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in keywords:
                repeated.append("%s:%d %s" % (path.name, node.lineno, node.value))
    assert repeated == []


def test_authenticated_request_annotation(tmp_path):
    dfd, _ = analyze(
        tmp_path,
        {
            "caller/pom.xml": "<project><artifactId>caller</artifactId></project>",
            "caller/src/main/resources/application.yml": APP_YML % "caller",
            "caller/src/main/java/C.java": (
                "OAuth2FeignRequestInterceptor interceptor;\n"
                '@FeignClient(name = "callee")\n'
                "interface C {}\n"
            ),
            "callee/pom.xml": "<project><artifactId>callee</artifactId></project>",
            "callee/src/main/resources/application.yml": APP_YML % "callee",
        },
    )
    assert "authenticated_request" in dfd.flows[("caller", "callee")].stereotypes


def test_mail_credentials_from_miniapp(miniapp_result):
    mail = miniapp_result.dfd.node("mail-server")
    assert mail.tagged_values["username"] == ["dev-user@gmail.com"]
    assert mail.tagged_values["password"] == ["dev-mail-password"]
    assert "plaintext_credentials" in mail.stereotypes


# ----------------------------------------------------------------------
# evidence chains
# ----------------------------------------------------------------------

LINKED_YML = (
    "clients:\n  mail: mailer\n"
    "spring:\n  zipkin:\n    base-url: ${ZIPKIN_URL}\n"
)
LINKED_FILES = {
    ".env": "ZIPKIN_URL=http://zipkin:9411\nPAY_URL=https://payments.example.com/v1\n",
    "a/src/main/java/AccountsClient.java": "@FeignClient(name = ServiceNames.ACCOUNTS)\ninterface AccountsClient {}\n",
    "a/src/main/java/ServiceNames.java": 'class ServiceNames {\n    static final String ACCOUNTS = "accounts";\n}\n',
    "a/src/main/java/StoreClient.java": '@FeignClient(name = STORE)\ninterface StoreClient {\n    String STORE = "store";\n}\n',
    "a/src/main/java/MailClient.java": '@FeignClient(name = "${clients.mail}")\ninterface MailClient {}\n',
    "a/src/main/java/PayClient.java": '@FeignClient(url = "${PAY_URL}")\ninterface PayClient {}\n',
}
YML = "a/src/main/resources/application.yml"
# item -> the line that gave its value, other than the item's own evidence
LINKS = {
    "a -> accounts": ("a/src/main/java/ServiceNames.java", 2),
    "a -> store": ("a/src/main/java/StoreClient.java", 3),
    "a -> mailer": (YML, 5),
    "a -> payments_example_com": (".env", 2),
    "a -> zipkin": (YML, 8),
}
MINIAPP_LINKS = {
    # the encoder's declaration, whose use marks the service
    "auth_service": ("auth-service/src/main/java/com/acme/auth/UserService.java", 9),
}


def test_every_link_of_a_resolved_value_is_kept_and_verified(miniapp_path, tmp_path):
    files = service_files("a", LINKED_YML)
    files.update(LINKED_FILES)
    small = make_tree(tmp_path / "small", files)
    for root, links in ((Path(miniapp_path), MINIAPP_LINKS), (small, LINKS)):
        dfd = analyze_directory(root).dfd
        assert verify_traces(dfd, root)[1] == []
        for item, (path, line) in links.items():
            rec = dfd.traces.get(item)
            assert rec is not None, item
            entries = [rec.primary, *rec.sub_items.values(), *rec.extras]
            assert (path, line) in {(e.file, e.line) for e in entries}, item
            assert (path, line) != (rec.primary.file, rec.primary.line), item
            # the link is evidence like any other: editing its line is caught
            edited = tmp_path / "edited"
            shutil.rmtree(edited, ignore_errors=True)
            shutil.copytree(root, edited)
            target = edited / path
            lines = target.read_text(encoding="utf-8").split("\n")
            lines[line - 1] = " " + lines[line - 1]
            target.write_text("\n".join(lines), encoding="utf-8")
            failures = verify_traces(dfd, edited)[1]
            assert any(f.startswith("%s: %s:%d " % (item, path, line)) for f in failures), item


# ----------------------------------------------------------------------
# finalize
# ----------------------------------------------------------------------


def test_internal_vs_infrastructural(miniapp_result):
    dfd = miniapp_result.dfd
    assert "internal" in dfd.node("notification-service").stereotypes
    assert "internal" in dfd.node("account-service").stereotypes
    assert "infrastructural" in dfd.node("config").stereotypes
    assert "infrastructural" in dfd.node("auth-service").stereotypes
    assert "internal" not in dfd.node("config").stereotypes
    # externals and databases take neither
    assert "internal" not in dfd.node("mail-server").stereotypes
    assert "internal" not in dfd.node("notification-mongodb").stereotypes


def test_exitpoint_on_mail_server(miniapp_result):
    mail = miniapp_result.dfd.node("mail-server")
    assert "exitpoint" in mail.stereotypes
    assert "entrypoint" not in mail.stereotypes


# ----------------------------------------------------------------------
# pipeline properties
# ----------------------------------------------------------------------


def test_extractor_permutations_produce_identical_output(tmp_path):
    make_tree(
        tmp_path,
        {
            "docker-compose.yml": compose_of(
                {
                    "gateway": {"build": "./gateway"},
                    "svc": {"build": "./svc"},
                    "rabbitmq": {"image": "rabbitmq:3"},
                }
            ),
            "gateway/pom.xml": "<project><artifactId>gateway</artifactId></project>",
            "gateway/src/main/resources/application.yml": (
                APP_YML % "gateway" + "zuul:\n  routes:\n    svc:\n      serviceId: svc\n"
            ),
            "gateway/src/main/java/G.java": "@EnableZuulProxy\nclass G {}\n",
            "svc/pom.xml": "<project><artifactId>svc</artifactId></project>",
            "svc/src/main/resources/application.yml": (
                APP_YML % "svc"
                + "spring:\n  rabbitmq:\n    host: rabbitmq\n  mail:\n    host: smtp.x.com\n"
            ),
            "svc/src/main/java/S.java": (
                "@EnableCircuitBreaker\n"
                'rabbitTemplate.convertAndSend("q", m);\n'
                "LoggerFactory.getLogger(S.class);\n"
            ),
        },
    )
    index = build_index(tmp_path)
    baseline_dfd, baseline_report = run_pipeline(index)
    assert baseline_report.failures == []
    expected = dfd_to_json(baseline_dfd) + traceability_to_json(baseline_dfd)
    rng = random.Random(4242)
    for _ in range(20):
        shuffled = default_extractors()
        rng.shuffle(shuffled)
        dfd, report = run_pipeline(index, extractors=shuffled)
        assert report.failures == []
        assert dfd_to_json(dfd) + traceability_to_json(dfd) == expected


def test_repeated_runs_identical(miniapp_path):
    index = build_index(miniapp_path)
    a, _ = run_pipeline(index)
    b, _ = run_pipeline(index)
    assert dfd_to_json(a) == dfd_to_json(b)
    assert traceability_to_json(a) == traceability_to_json(b)


def test_failing_extractor_is_isolated(miniapp_path):
    class Broken(Extractor):
        name = "broken"
        phase = "flow"

        def run(self, ctx: Context) -> None:
            raise RuntimeError("boom")

    extractors = default_extractors() + [Broken()]
    dfd, report = run_pipeline(build_index(miniapp_path), extractors=extractors)
    assert ("broken", "RuntimeError('boom')") in report.failures
    # the rest of the pipeline still produced the whole diagram
    assert set(dfd.nodes) == {
        "account_service",
        "auth_service",
        "config",
        "mail_server",
        "notification_mongodb",
        "notification_service",
    }
    assert report.integrity == []


def test_cr_only_line_ends_keep_the_diagram(miniapp_path, miniapp_result, tmp_path):
    app = tmp_path / "app"
    shutil.copytree(miniapp_path, app)
    props = app / "auth-service/src/main/resources/application.properties"
    props.write_bytes(props.read_bytes().replace(b"\n", b"\r"))
    result = analyze_directory(app)
    assert "ssl_enabled" in result.dfd.node("auth-service").stereotypes
    assert dfd_to_json(result.dfd) == dfd_to_json(miniapp_result.dfd)
    assert traceability_to_json(result.dfd) == traceability_to_json(miniapp_result.dfd)
    assert verify_traces(result.dfd, app)[1] == []


def test_report_timings_cover_all_extractors(miniapp_result):
    names = {e.name for e in default_extractors()}
    assert names <= set(miniapp_result.report.timings)


def test_every_extractor_has_its_benchmark_layer():
    # merging or renaming extractors must not silently drop a per-layer metric
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        layers = {m["name"] for m in json.load(fh)["per_layer"]}
    for ex in default_extractors():
        assert "extractors.%s_s" % ex.name in layers
    assert not any(type(ex) is _UrlFlows for ex in default_extractors())


def test_empty_directory_yields_empty_diagram(tmp_path):
    dfd, report = analyze(tmp_path, {"README.md": "nothing here\n"})
    assert dfd.nodes == {}
    assert dfd.flows == {}
    assert report.failures == []
    assert report.integrity == []
