"""Extraction pipeline behavior: per-technology extractors on small
synthetic codebases, order independence, and fault isolation."""

import json
import random

from dfdscan.extractors.base import (
    Context,
    Extractor,
    ServiceRoot,
    default_extractors,
    run_pipeline,
)
from dfdscan.extractors.workspace import Workspace
from dfdscan.model import TraceEntry
from dfdscan.output import dfd_to_json, traceability_to_json
from dfdscan.rules import load_rules
from dfdscan.search import build_index


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
    parent, child, tools = (ctx.services[n] for n in ("platform", "core", "tools"))
    # sorted by path, not grouped by format: the .properties file comes first
    assert [e.file for e in parent.properties.entries] == [
        "platform/a.properties",
        "platform/application.yml",
        "platform/core/src/main/resources/application.yml",
    ]
    assert [e.file for e in child.properties.entries] == [
        "platform/core/src/main/resources/application.yml"
    ]
    assert parent.properties.value("spring.application.name") == "platform"
    assert (parent.has_java, child.has_java, tools.has_java) == (True, True, False)


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


def test_report_timings_cover_all_extractors(miniapp_result):
    names = {e.name for e in default_extractors()}
    assert names <= set(miniapp_result.report.timings)


def test_empty_directory_yields_empty_diagram(tmp_path):
    dfd, report = analyze(tmp_path, {"README.md": "nothing here\n"})
    assert dfd.nodes == {}
    assert dfd.flows == {}
    assert report.failures == []
    assert report.integrity == []
