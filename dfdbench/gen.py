"""Seeded generator of Java/Spring workspaces with the DFD planted in them.

A plan (an App of Service records) is drawn from a seed; ``render`` turns
it into file texts and ``truth`` turns the same plan into the ground-truth
diagram, following the extraction rules of the paper: comments are not
evidence, text blocks are string literals, every keyword rule annotates
the service owning the file, and so on.  The truth never looks at
dfdscan's output.

Planted inputs that dfdscan is known to get wrong stay in the data.  The
items they cost are listed in ``truth(...)["known_missed"]`` and
``["known_extra"]`` with the reason, so the benchmark can tell that
shortfall from a new loss.
"""
from __future__ import annotations

import hashlib
import os
import random
import re
from dataclasses import dataclass, field

MONGO_IMAGE = "mongo:3.4"
CONFIG_PORT = 8888
REGISTRY_PORT = 8761
AUTH_PORT = 5000
GATEWAY_PORT = 4000

# Node stereotypes that make a service infrastructural (the paper's split
# between infrastructure and business logic), restricted to those planted.
_INFRA = frozenset({"configuration_server", "service_discovery", "gateway", "authorization_server"})
_HTTP = frozenset({"restful_http", "feign_connection"})

_WORDS = (
    "account audit billing catalog checkout coupon customer delivery invoice "
    "inventory ledger loyalty message order payment pricing profile rating "
    "recommend refund report review search shipping statistics stock "
    "subscription support tax ticket tracking transfer user voucher wallet "
    "warehouse wishlist booking cart claim contract device document exchange "
    "feedback forecast fraud gift history identity insight label lead market "
    "media notify offer partner policy portfolio quote region reward route "
    "schedule session settle survey task tenant token travel vendor"
).split()
_SUBS = ("web", "domain", "repository", "service", "util", "config")
_NOUNS = ("Item", "Record", "Entry", "Batch", "Event", "Status", "Summary", "Detail")
_VERBS = ("load", "store", "merge", "check", "build", "render", "update", "count")


@dataclass
class Service:
    name: str
    port: int
    role: str = "business"  # config, registry, gateway, auth, business
    build: str = "maven"  # maven or gradle
    props: str = "yaml"  # format of application.*: yaml or properties
    config_client: bool = True
    registers: bool = False
    oauth_uri: bool = False  # fetches tokens from the auth service
    feign: list = field(default_factory=list)
    # first client names its target via ServiceNames.X: "bare" or "documented"
    # (a doc comment between the interface and its first mapping)
    feign_constant: str = ""
    poisoned_feign: list = field(default_factory=list)  # declared after a "/**" in a text block
    rest: list = field(default_factory=list)  # literal RestTemplate URL hosts
    routes: list = field(default_factory=list)  # zuul routes (gateway)
    mongo: str | None = None
    mongo_creds: tuple | None = None
    mail_creds: tuple | None = None  # spring.mail.* with literal credentials
    mail_java: bool = False  # JavaMailSender in code, no mail config
    logging: bool = False
    hystrix: bool = False
    load_balanced: bool = False
    oauth_client: bool = False
    resource_server: bool = False
    pre_authorize: bool = False
    dockerfile: bool = False
    filler: int = 0  # comment-rich Java files
    text_blocks: int = 0  # of the filler files, how many hold a benign text block
    methods: int = 3  # methods per filler file


@dataclass
class App:
    name: str
    services: list
    mail_host: str = "smtp.mailhost.example.com"
    config_git: str | None = None

    def by_name(self) -> dict:
        return {s.name: s for s in self.services}


# ============================================================================
# Plans
# ============================================================================


def _names(rng: random.Random, count: int, suffix: str = "service") -> list[str]:
    if count <= len(_WORDS):
        words = rng.sample(_WORDS, count)
        return ["%s-%s" % (w, suffix) for w in words]
    pairs = ["%s-%s" % (a, b) for a in _WORDS for b in _WORDS if a != b]
    return ["%s-%s" % (p, suffix) for p in rng.sample(pairs, count)]


def _infra(rng: random.Random, business: list) -> list:
    """Config server, registry, gateway and auth server of an app."""
    names = [s.name for s in business]
    return [
        Service("config", CONFIG_PORT, role="config", config_client=False, dockerfile=True, logging=True),
        Service("registry", REGISTRY_PORT, role="registry", dockerfile=True),
        Service(
            "gateway",
            GATEWAY_PORT,
            role="gateway",
            registers=True,
            routes=sorted(rng.sample(names, min(3, len(names)))),
            dockerfile=True,
        ),
        Service("auth-service", AUTH_PORT, role="auth", registers=True, logging=True, dockerfile=True),
    ]


def _creds(rng: random.Random, who: str) -> tuple:
    return ("%s-user" % who, "pw-%s-%06d" % (who, rng.randrange(10**6)))


def plan_java_heavy(seed: int) -> App:
    """About 20 services with thousands of comment-rich Java files."""
    rng = random.Random("java_heavy:%d" % seed)
    names = _names(rng, 16)
    business = []
    for i, name in enumerate(names):
        s = Service(
            name,
            6000 + i,
            registers=True,
            oauth_uri=i % 2 == 0,
            logging=True,
            hystrix=i % 3 == 0,
            load_balanced=i % 4 == 1,
            oauth_client=i % 5 == 2,
            resource_server=i % 2 == 1,
            pre_authorize=i % 3 == 1,
            mongo="%s-mongodb" % name,
            mongo_creds=_creds(rng, name) if i % 2 == 0 else None,
            mail_creds=_creds(rng, "mail%d" % i) if i % 8 == 0 else None,
            mail_java=i % 8 == 4,
            build="gradle" if i % 5 == 4 else "maven",
            props="properties" if i % 4 == 3 else "yaml",
            feign_constant={1: "documented", 3: "bare"}.get(i % 4, ""),
            filler=125,
            text_blocks=12,
            methods=2,
        )
        business.append(s)
    for i, s in enumerate(business):
        others = [n for n in names if n != s.name]
        s.feign = sorted(rng.sample(others, 3))
        if i % 4 == 0:
            s.rest = [rng.choice([n for n in others if n not in s.feign])]
    sites = iter(rng.sample(_WORDS, len(business)))
    for s in business[2::4]:
        s.rest = ["api.%s-rates.example.com" % next(sites)]
    # a "/**" inside a text block masks the client after it (known defect)
    for s in business[:4]:
        taken = {s.name, *s.feign, *s.rest}
        s.poisoned_feign = [rng.choice([n for n in names if n not in taken])]
    return App("java-heavy", _infra(rng, business) + business, config_git="https://github.com/acme/config-repo")


def plan_many_services(seed: int) -> App:
    """About 400 small services wired in Feign rings, one compose file."""
    rng = random.Random("many_services:%d" % seed)
    names = _names(rng, 396, suffix="svc")
    business = []
    for i, name in enumerate(names):
        business.append(
            Service(
                name,
                10000 + i,
                mongo="%s-mongodb" % name,
                mongo_creds=_creds(rng, name) if i % 3 == 0 else None,
                logging=i % 2 == 0,
                build="gradle" if i % 10 == 9 else "maven",
                props="properties" if i % 4 == 3 else "yaml",
                feign_constant="documented" if i % 40 == 0 else "",
                dockerfile=i % 10 == 0,
            )
        )
    # rings of eleven services each calling the next
    order = list(range(len(business)))
    rng.shuffle(order)
    for k in range(0, len(order), 11):
        ring = order[k : k + 11]
        for j, idx in enumerate(ring):
            business[idx].feign = [business[ring[(j + 1) % len(ring)]].name]
    config = Service("config", CONFIG_PORT, role="config", config_client=False, logging=True)
    return App("many-services", [config] + business)


def plan_small(seed: int, index: int) -> App:
    """A piggymetrics-scale app: eight services, about 130 files."""
    rng = random.Random("service_small:%d:%d" % (seed, index))
    names = _names(rng, 4)
    business = []
    for i, name in enumerate(names):
        business.append(
            Service(
                name,
                6000 + 100 * i,
                registers=True,
                oauth_uri=True,
                logging=True,
                hystrix=i == 1,
                load_balanced=i == 2,
                oauth_client=i == 0,
                resource_server=True,
                pre_authorize=i != 3,
                mongo="%s-mongodb" % name,
                mongo_creds=_creds(rng, name) if i < 2 else None,
                mail_creds=_creds(rng, "mail") if i == 3 else None,
                feign_constant="documented" if i == 0 else "",
                props="properties" if i == 3 else "yaml",
                dockerfile=True,
                filler=22,
                text_blocks=2,
                methods=3,
            )
        )
    for i, s in enumerate(business):
        s.feign = [names[(i + 1) % len(names)]]
    business[1].rest = ["api.%s-rates.example.com" % rng.choice(_WORDS)]
    return App("small-%d" % index, _infra(rng, business) + business, config_git="https://github.com/acme/small-config")


# ============================================================================
# Mutations (service workload)
# ============================================================================


def mutate(app: App, step: int) -> set[str]:
    """Rewrite one planted value in place; returns the services touched.

    Mutations alternate between a compose port and a Feign target, and
    every value toggles between two states, so a tree returns to an
    earlier state after four mutations per business service.
    """
    business = [s for s in app.services if s.role == "business"]
    s = business[(step // 2) % len(business)]
    if step % 2 == 0:
        s.port = s.port + 1 if s.port % 2 == 0 else s.port - 1
        return {s.name}
    names = [b.name for b in business]
    i = names.index(s.name)
    forward, backward = names[(i + 1) % len(names)], names[(i - 1) % len(names)]
    s.feign = [backward if s.feign == [forward] else forward]
    return {s.name}


# ============================================================================
# Truth
# ============================================================================


def _canon(name: str) -> str:
    out = name.strip().lower()
    for ch in "-. /":
        out = out.replace(ch, "_")
    return re.sub(r"_+", "_", out)


def truth(app: App) -> dict:
    """The planted diagram in dfdscan's JSON layout, plus known shortfall."""
    nodes: dict[str, dict] = {}
    flows: dict[tuple, set] = {}
    services = app.by_name()

    def node(name, kind, *stereotypes, **tags):
        n = nodes.setdefault(_canon(name), {"name": name, "type": kind, "stereotypes": set(), "tags": {}})
        n["stereotypes"].update(stereotypes)
        for k, v in tags.items():
            n["tags"].setdefault(k, set()).add(str(v))
        return n

    def flow(sender, receiver, *stereotypes):
        flows.setdefault((_canon(sender), _canon(receiver)), set()).update(stereotypes)

    role_stereotypes = {
        "config": ("configuration_server",),
        "registry": ("service_discovery",),
        "gateway": ("gateway",),
        "auth": ("authorization_server", "encryption"),
        "business": (),
    }
    for s in app.services:
        n = node(s.name, "service", *role_stereotypes[s.role], Port=s.port)
        for flag, stereotype in (
            (s.logging, "local_logging"),
            (s.hystrix, "circuit_breaker"),
            (s.load_balanced, "load_balancer"),
            (s.resource_server, "resource_server"),
            (s.pre_authorize, "pre_authorized_endpoints"),
        ):
            if flag:
                n["stereotypes"].add(stereotype)
        if s.config_client:
            flow("config", s.name, "restful_http")
        if s.registers:
            node("registry", "service", "service_discovery")
            flow(s.name, "registry", "restful_http")
        if s.oauth_uri:
            flow(s.name, "auth-service", "restful_http", "auth_provider")
        for target in s.feign + s.poisoned_feign:
            flow(s.name, target, "restful_http", "feign_connection")
        for host in s.rest:
            if host not in services:
                node(host, "external_entity", "external_website")
            flow(s.name, host, "restful_http")
        for target in s.routes:
            flow(s.name, target, "restful_http")
        if s.role == "gateway":
            node("user", "external_entity", "user")
            flow("user", s.name, "restful_http")
            flow(s.name, "user", "restful_http")
        if s.mongo:
            d = node(s.mongo, "database", "database", Image=MONGO_IMAGE)
            flow(s.name, s.mongo)
            if s.mongo_creds:
                d["tags"].setdefault("username", set()).add(s.mongo_creds[0])
                d["tags"].setdefault("password", set()).add(s.mongo_creds[1])
                d["stereotypes"].add("plaintext_credentials")
                flow(s.name, s.mongo, "plaintext_credentials_link")
        if s.mail_creds or s.mail_java:
            m = node("mail-server", "external_entity", "mail_server")
            flow(s.name, "mail-server")
            if s.mail_creds:
                m["tags"].setdefault("username", set()).add(s.mail_creds[0])
                m["tags"].setdefault("password", set()).add(s.mail_creds[1])
                m["stereotypes"].add("plaintext_credentials")
        if s.role == "config" and app.config_git:
            node("github-repository", "external_entity", "github_repository", URL=app.config_git)
            flow("github-repository", s.name)

    # links on outgoing HTTP connections of services with the evidence
    by_canon = {_canon(s.name): s for s in app.services}
    for (sender, _), stereotypes in flows.items():
        svc = by_canon.get(sender)
        if svc is None or not stereotypes & _HTTP:
            continue
        for flag, link in (
            (svc.hystrix, "circuit_breaker_link"),
            (svc.load_balanced, "load_balanced_link"),
            (svc.oauth_client, "authenticated_request"),
        ):
            if flag:
                stereotypes.add(link)
    for key, n in nodes.items():
        if n["type"] == "service":
            n["stereotypes"].add("infrastructural" if n["stereotypes"] & _INFRA else "internal")
        elif n["type"] == "external_entity":
            if any(s == key for s, _ in flows):
                n["stereotypes"].add("entrypoint")
            if any(r == key for _, r in flows):
                n["stereotypes"].add("exitpoint")

    known_missed, known_extra = [], []
    for s in app.services:
        for target in s.poisoned_feign:
            if target not in s.feign and target not in s.rest:
                known_missed.append(
                    {
                        "item": "%s -> %s" % (_canon(s.name), _canon(target)),
                        "reason": "Feign client declared after a '/**' inside a Java text block",
                    }
                )
        if s.feign_constant == "bare" and s.feign:
            # the four-line statement window reaches the value = "/x/{id}"
            # of the client's first @RequestMapping
            reason = "Feign client naming its target by a constant reads a later value = instead"
            wrong = _canon("/%s/{id}" % s.feign[0])
            known_missed.append({"item": "%s -> %s" % (_canon(s.name), _canon(s.feign[0])), "reason": reason})
            known_extra.append({"item": wrong, "reason": reason})
            known_extra.append({"item": "%s -> %s" % (_canon(s.name), wrong), "reason": reason})

    def tags_obj(tags):
        return {k: sorted(v) if len(v) > 1 else next(iter(v)) for k, v in sorted(tags.items())}

    return {
        "nodes": [
            {
                "name": n["name"],
                "type": n["type"],
                "stereotypes": sorted(n["stereotypes"]),
                "tagged_values": tags_obj(n["tags"]),
            }
            for _, n in sorted(nodes.items())
        ],
        "information_flows": [
            {"sender": s, "receiver": r, "stereotypes": sorted(st), "tagged_values": {}}
            for (s, r), st in sorted(flows.items())
        ],
        "known_missed": known_missed,
        "known_extra": known_extra,
    }


# ============================================================================
# Rendering
# ============================================================================


def _pkg(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


def _camel(name: str) -> str:
    return "".join(p[:1].upper() + p[1:] for p in re.split(r"[^A-Za-z0-9]", name) if p)


_LICENSE = """/*
 * Copyright 2024 the original author or authors.
 *
 * Licensed under the Apache License, Version 2.0 (the "License");
 * you may not use this file except in compliance with the License.
 * You may obtain a copy of the License at
 *
 *      http://www.apache.org/licenses/LICENSE-2.0
 *
 * Unless required by applicable law or agreed to in writing, software
 * distributed under the License is distributed on an "AS IS" BASIS,
 * WITHOUT WARRANTIES OR CONDITIONS OF ANY KIND, either express or implied.
 */
"""

# Keywords that must stay unmatched: they only ever appear inside comments.
_DECOYS = (
    '// @FeignClient(name = "ghost-service") was retired in 2.3',
    '/* restTemplate.getForObject("http://ghost.example.org/api", String.class); */',
    "// @EnableEurekaServer moved to the registry module",
    "/* @HystrixCommand(fallbackMethod = \"fallback\") */",
    "// private JavaMailSender mailSender; // see http://ghost-mail.example.org",
    "/* @LoadBalanced @EnableZuulProxy */",
    "// LoggerFactory.getLogger(Ghost.class) replaced by the audit sink",
    "/* @PreAuthorize(\"hasRole('ADMIN')\") csrf().disable() */",
)


def _filler_java(rng: random.Random, s: Service, pkg: str, cls: str, text_block: bool) -> str:
    out = [_LICENSE, "package %s;\n\n" % pkg]
    out.append("import java.util.List;\nimport java.util.Map;\n")
    out.append("import org.springframework.http.HttpStatus;\nimport org.springframework.http.ResponseEntity;\n")
    if s.logging:
        out.append("import org.slf4j.Logger;\nimport org.slf4j.LoggerFactory;\n")
    out.append("\n/**\n * %s keeps the %s %s of the %s module.\n" % (cls, rng.choice(_VERBS), rng.choice(_NOUNS).lower(), s.name))
    out.append(" * <p>Documented at http://docs.acme.example/%s/%s; the /* and // in\n" % (s.name, cls.lower()))
    out.append(" * this comment are plain text.\n *\n * @author platform team\n */\n")
    out.append("public class %s {\n\n" % cls)
    if s.logging:
        out.append("    private static final Logger log = LoggerFactory.getLogger(%s.class);\n" % cls)
    else:
        out.append("    private static final String TAG = \"%s\";\n" % cls)
    out.append('    private static final String DOC_URL = "http://docs.acme.example/%s"; // mirror: http://mirror.acme.example\n' % cls.lower())
    out.append("    private static final char SEPARATOR = '/';\n")
    out.append('    private static final String SLASHES = "//"; /* two slashes, not a comment */\n\n')
    for k in range(s.methods):
        verb, noun = rng.choice(_VERBS), rng.choice(_NOUNS)
        out.append("    /**\n     * %s the %s identified by the key.\n     *\n" % (verb.capitalize(), noun.lower()))
        out.append("     * @param key the %s key, never {@code null}\n     * @return the %s\n     */\n" % (noun.lower(), noun.lower()))
        out.append("    public ResponseEntity<String> %s%s%d(String key, Map<String, List<String>> index) {\n" % (verb, noun, k))
        out.append("        %s\n" % rng.choice(_DECOYS))
        if text_block and k == 0:
            out.append('        String query = """\n            SELECT id, name FROM %s // rows, not a comment\n' % noun.lower())
            out.append("            WHERE owner = ? AND kind = 'x'\n            \"\"\";\n")
        out.append('        String joined = key + "://" + SEPARATOR + DOC_URL; // "quoted" trailing note\n')
        out.append("        if (index.containsKey(key)) { // cache hit\n")
        out.append("            return ResponseEntity.ok(joined + index.get(key).size());\n        }\n")
        out.append("        /* miss: fall through to the %s path */\n" % rng.choice(_VERBS))
        out.append("        return new ResponseEntity<>(SLASHES + joined, HttpStatus.NOT_FOUND);\n    }\n\n")
    out.append("}\n")
    return "".join(out)


def _app_java(s: Service, pkg: str) -> str:
    cls = _camel(s.name) + "Application"
    annotations = ["@SpringBootApplication", "@EnableDiscoveryClient"]
    role = {
        "config": "@EnableConfigServer",
        "registry": "@EnableEurekaServer",
        "gateway": "@EnableZuulProxy",
        "auth": "@EnableAuthorizationServer",
    }.get(s.role)
    if role:
        annotations.append(role)
    if s.feign or s.poisoned_feign:
        annotations.append("@EnableFeignClients")
    if s.hystrix:
        annotations.append("@EnableCircuitBreaker")
    if s.resource_server:
        annotations.append("@EnableResourceServer")
    if s.oauth_client:
        annotations.append("@EnableOAuth2Client")
    body = [
        "package %s;\n\n" % pkg,
        "import org.springframework.boot.SpringApplication;\n",
        "import org.springframework.boot.autoconfigure.SpringBootApplication;\n\n",
        "/**\n * Entry point of %s.\n */\n" % s.name,
        "\n".join(annotations) + "\n",
        "public class %s {\n\n" % cls,
    ]
    if s.logging:
        body.append("    private static final org.slf4j.Logger log = org.slf4j.LoggerFactory.getLogger(%s.class);\n\n" % cls)
    body.append("    public static void main(String[] args) {\n")
    body.append("        SpringApplication.run(%s.class, args); // boot\n    }\n" % cls)
    if s.load_balanced:
        body.append("\n    @Bean\n    @LoadBalanced\n    public RestTemplate restTemplate() {\n        return new RestTemplate();\n    }\n")
    if s.oauth_client:
        body.append("\n    @Bean\n    public RequestInterceptor oauth2Interceptor(OAuth2ClientContext context) {\n")
        body.append("        return new OAuth2FeignRequestInterceptor(context, resource());\n    }\n")
    body.append("}\n")
    return "".join(body)


def _constant(target: str) -> str:
    return re.sub(r"[^A-Z0-9]", "_", target.upper())


def _names_java(s: Service, pkg: str) -> str:
    out = ["package %s.client;\n\n" % pkg, "/** Service ids of the Feign clients. */\n"]
    out.append("final class ServiceNames {\n\n")
    for target in s.feign:
        out.append('    static final String %s = "%s";\n' % (_constant(target), target))
    out.append("\n    private ServiceNames() {\n    }\n}\n")
    return "".join(out)


def _feign_java(s: Service, pkg: str, target: str, poisoned: bool) -> str:
    cls = _camel(target) + "Client"
    out = ["package %s.client;\n\n" % pkg, "import org.springframework.cloud.openfeign.FeignClient;\n"]
    out.append("import org.springframework.web.bind.annotation.PathVariable;\n")
    out.append("import org.springframework.web.bind.annotation.RequestMapping;\n\n")
    if poisoned:
        out.append("final class %sDocs {\n    static final String HEADER = \"\"\"\n" % cls)
        out.append("        /**\n         * Generated client for %s.\n        \"\"\";\n}\n\n" % target)
    else:
        out.append("/**\n * Declarative client of %s.\n */\n" % target)
    if s.feign_constant and not poisoned and target == s.feign[0]:
        out.append("@FeignClient(name = ServiceNames.%s)\n" % _constant(target))
    else:
        out.append('@FeignClient(name = "%s")\n' % target)
    out.append("public interface %s {\n\n" % cls)
    if s.feign_constant == "documented" and target == s.feign[0]:
        out.append("    /** Fetches one record of %s. */\n" % target)
    out.append('    @RequestMapping(method = RequestMethod.GET, value = "/%s/{id}")\n' % target)
    out.append('    String fetch(@PathVariable("id") String id);\n}\n')
    return "".join(out)


def _worker_java(s: Service, pkg: str) -> str:
    """Outbound calls and security evidence of one service."""
    out = ["package %s.service;\n\n" % pkg]
    out.append("import org.springframework.web.client.RestTemplate;\n\n")
    out.append("/**\n * Outbound integrations of %s.\n */\n@Service\npublic class Integrations {\n\n" % s.name)
    out.append("    private final RestTemplate restTemplate = new RestTemplate();\n")
    if s.mail_java:
        out.append("    private final JavaMailSender mailSender;\n")
    out.append("\n")
    for i, host in enumerate(s.rest):
        scheme = "https" if "." in host else "http"
        out.append("    public String call%d() {\n" % i)
        out.append('        return restTemplate.getForObject("%s://%s/api/v1/items", String.class);\n    }\n\n' % (scheme, host))
    if s.hystrix:
        out.append('    @HystrixCommand(fallbackMethod = "fallback")\n    public String guarded() {\n        return "ok";\n    }\n\n')
    if s.pre_authorize:
        out.append("    @PreAuthorize(\"#oauth2.hasScope('server')\")\n    public String secured() {\n        return \"secured\";\n    }\n\n")
    if s.role == "auth":
        out.append("    private final BCryptPasswordEncoder encoder = new BCryptPasswordEncoder();\n\n")
        out.append("    public String hash(String password) {\n        return encoder.encode(password);\n    }\n")
    out.append("}\n")
    return "".join(out)


def _pom(artifact: str, modules: list | None = None) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<project xmlns="http://maven.apache.org/POM/4.0.0"\n',
        '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">\n',
        "    <modelVersion>4.0.0</modelVersion>\n",
        "    <groupId>com.acme</groupId>\n",
        "    <artifactId>%s</artifactId>\n" % artifact,
        "    <version>1.0.0</version>\n",
    ]
    if modules:
        out.append("    <packaging>pom</packaging>\n    <modules>\n")
        out.extend("        <module>%s</module>\n" % m for m in modules)
        out.append("    </modules>\n")
    else:
        out.append("    <dependencies>\n        <dependency>\n")
        out.append("            <groupId>org.springframework.boot</groupId>\n")
        out.append("            <artifactId>spring-boot-starter-web</artifactId>\n")
        out.append("        </dependency>\n    </dependencies>\n")
    out.append("</project>\n")
    return "".join(out)


def _config_entries(app: App, s: Service) -> list[tuple[str, str]]:
    """Dotted keys and values of a service's application config."""
    entries = [("server.port", str(s.port))]
    if s.registers:
        entries.append(("eureka.client.serviceUrl.defaultZone", "http://registry:%d/eureka/" % REGISTRY_PORT))
    if s.oauth_uri:
        entries.append(("security.oauth2.client.access-token-uri", "http://auth-service:%d/uaa/oauth/token" % AUTH_PORT))
        entries.append(("security.oauth2.client.client-id", s.name))
    if s.mongo:
        entries.append(("spring.data.mongodb.host", s.mongo))
        entries.append(("spring.data.mongodb.database", _pkg(s.name)))
        if s.mongo_creds:
            entries.append(("spring.data.mongodb.username", s.mongo_creds[0]))
            entries.append(("spring.data.mongodb.password", s.mongo_creds[1]))
    if s.mail_creds:
        entries.append(("spring.mail.host", app.mail_host))
        entries.append(("spring.mail.username", s.mail_creds[0]))
        entries.append(("spring.mail.password", s.mail_creds[1]))
    for target in s.routes:
        entries.append(("zuul.routes.%s.path" % target, "/%s/**" % target))
        entries.append(("zuul.routes.%s.serviceId" % target, target))
    if s.role == "config" and app.config_git:
        entries.append(("spring.cloud.config.server.git.uri", app.config_git))
    return entries


def _yaml(entries: list[tuple[str, str]]) -> str:
    """Nested YAML for dotted keys (keys sharing a prefix stay together)."""
    tree: dict = {}
    for key, value in entries:
        cur = tree
        parts = key.split(".")
        for p in parts[:-1]:
            cur = cur.setdefault(p, {})
        cur[parts[-1]] = value
    out: list[str] = []

    def emit(d: dict, depth: int) -> None:
        for k, v in d.items():
            if isinstance(v, dict):
                out.append("%s%s:\n" % ("  " * depth, k))
                emit(v, depth + 1)
            else:
                out.append("%s%s: %s\n" % ("  " * depth, k, v))

    emit(tree, 0)
    return "".join(out)


def _compose(app: App) -> str:
    out = ["version: '3'\nservices:\n"]
    for s in app.services:
        out.append("  %s:\n    build: ./%s\n    ports:\n      - \"%d:%d\"\n" % (s.name, s.name, s.port, s.port))
        if s.config_client:
            out.append("    depends_on:\n      - config\n")
        if s.mongo:
            out.append("  %s:\n    image: %s\n" % (s.mongo, MONGO_IMAGE))
    return "".join(out)


def render(app: App):
    """Yield (relative path, text) for every file of the workspace."""
    yield "docker-compose.yml", _compose(app)
    yield "pom.xml", _pom(_pkg(app.name), [s.name for s in app.services if s.build == "maven"])
    yield "README.md", "# %s\n\nGenerated Spring workspace; see docker-compose.yml.\n" % app.name
    for s in app.services:
        rng = random.Random("%s:%s" % (app.name, s.name))
        pkg = "com.acme.%s" % _pkg(s.name)
        src = "%s/src/main/java/%s" % (s.name, pkg.replace(".", "/"))
        res = "%s/src/main/resources" % s.name
        if s.build == "maven":
            yield "%s/pom.xml" % s.name, _pom(s.name)
        else:
            yield "%s/build.gradle" % s.name, "plugins {\n    id 'org.springframework.boot'\n}\n\ngroup = 'com.acme'\n"
        if s.dockerfile:
            yield "%s/Dockerfile" % s.name, "FROM openjdk:8-jre\nADD ./target/%s.jar /app/\nCMD [\"java\", \"-jar\", \"/app/%s.jar\"]\nEXPOSE %d\n" % (s.name, s.name, s.port)
        boot = [("spring.application.name", s.name)]
        if s.config_client:
            boot.append(("spring.cloud.config.uri", "http://config:%d" % CONFIG_PORT))
            boot.append(("spring.cloud.config.fail-fast", "true"))
        yield "%s/bootstrap.yml" % res, _yaml(boot)
        entries = _config_entries(app, s)
        if s.props == "yaml":
            yield "%s/application.yml" % res, _yaml(entries)
        else:
            yield "%s/application.properties" % res, "".join("%s=%s\n" % kv for kv in entries)
        yield "%s/%sApplication.java" % (src, _camel(s.name)), _app_java(s, pkg)
        if s.feign_constant and s.feign:
            yield "%s/client/ServiceNames.java" % src, _names_java(s, pkg)
        for target in s.feign:
            yield "%s/client/%sClient.java" % (src, _camel(target)), _feign_java(s, pkg, target, False)
        for target in s.poisoned_feign:
            yield "%s/client/%sDocsClient.java" % (src, _camel(target)), _feign_java(s, pkg, target, True)
        if s.rest or s.mail_java or s.hystrix or s.pre_authorize or s.role == "auth":
            yield "%s/service/Integrations.java" % src, _worker_java(s, pkg)
        for k in range(s.filler):
            sub = _SUBS[k % len(_SUBS)]
            cls = "%s%s%d" % (rng.choice(_NOUNS), _camel(sub), k)
            yield "%s/%s/%s.java" % (src, sub, cls), _filler_java(rng, s, "%s.%s" % (pkg, sub), cls, k < s.text_blocks)


def write(app: App, root: str) -> dict:
    """Write the workspace under root; returns its digest and sizes."""
    digest = hashlib.sha256()
    files = chars = java = text_blocks = 0
    made: set[str] = set()
    for rel, text in sorted(render(app)):
        if rel.endswith(".java"):
            java += 1
            text_blocks += '"""' in text
        path = os.path.join(root, rel)
        parent = os.path.dirname(path)
        if parent not in made:
            os.makedirs(parent, exist_ok=True)
            made.add(parent)
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        digest.update(rel.encode("utf-8") + b"\0" + data + b"\0")
        files += 1
        chars += len(text)
    return {
        "digest": digest.hexdigest(),
        "files": files,
        "chars": chars,
        "java_files": java,
        "text_block_files": text_blocks,
    }


def update(app: App, root: str, services: set[str]) -> None:
    """Bring the files of the given services and the compose file up to date."""
    prefixes = tuple("%s/" % s for s in services)
    wanted = {rel: text for rel, text in render(app) if rel == "docker-compose.yml" or rel.startswith(prefixes)}
    for service in services:
        for dirpath, _, filenames in os.walk(os.path.join(root, service)):
            for fn in filenames:
                path = os.path.join(dirpath, fn)
                if os.path.relpath(path, root).replace(os.sep, "/") not in wanted:
                    os.remove(path)
    for rel, text in wanted.items():
        path = os.path.join(root, rel)
        data = text.encode("utf-8")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    continue
        with open(path, "wb") as fh:
            fh.write(data)


def tree_digest(root: str) -> str:
    """Digest of a tree on disk, computed the way ``write`` computes it."""
    digest = hashlib.sha256()
    rels = []
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            rels.append(os.path.relpath(os.path.join(dirpath, fn), root).replace(os.sep, "/"))
    for rel in sorted(rels):
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(rel.encode("utf-8") + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()
