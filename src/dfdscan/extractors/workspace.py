"""Parse phase: discover services and collect their configuration.

Runs as a single extractor because everything later depends on its output:
compose declarations, Dockerfiles, build-module layout, service roots, and
one merged property map per service (file config plus compose environment
via relaxed key binding).
"""
from __future__ import annotations

import posixpath

from ..model import TraceEntry, normalize_name
from ..parsers import (
    ComposeService,
    ParserError,
    PropertyEntry,
    PropertyMap,
    parse_compose,
    parse_dockerfile,
    parse_gradle_settings,
    parse_maven_artifact_id,
    parse_maven_modules,
    parse_properties_file,
    parse_yaml_properties,
    relaxed_key,
)
from .base import Context, Extractor, ServiceRoot, enclosing, register


def _norm_dir(context_dir: str) -> str:
    d = posixpath.normpath(context_dir.strip())
    if d in (".", "/", ""):
        return ""
    return d


@register
class Workspace(Extractor):
    name = "workspace"
    phase = "parse"

    def run(self, ctx: Context) -> None:
        self._collect_compose(ctx)
        self._collect_dockerfiles(ctx)
        compose_by_root: dict[str, ComposeService] = {}
        for svc in ctx.compose_services:
            if svc.build_context:
                # compose reads a context against the compose file's directory
                context = posixpath.join(posixpath.dirname(svc.trace.file), svc.build_context)
                compose_by_root.setdefault(_norm_dir(context), svc)
        roots = self._discover_roots(ctx, compose_by_root)
        entries_by_file = self._collect_properties(ctx)

        # each file belongs to every root above it, nested roots included
        props_by_root = {root: PropertyMap() for root in roots}
        for path in sorted(entries_by_file):
            for d in enclosing(path):
                if d in props_by_root:
                    props_by_root[d].add(entries_by_file[path])

        services: list[ServiceRoot] = []
        for root in sorted(roots):
            svc = self._build_service(ctx, root, props_by_root[root], compose_by_root.get(root))
            if svc is not None:
                services.append(svc)
        for svc in sorted(services, key=lambda s: s.canonical):
            if svc.canonical in ctx.services:
                ctx.report.warnings.append(
                    "duplicate service name %s (roots %s and %s)"
                    % (svc.canonical, ctx.services[svc.canonical].root, svc.root)
                )
                continue
            ctx.services[svc.canonical] = svc

    # ------------------------------------------------------------------

    def _collect_compose(self, ctx: Context) -> None:
        compose_files = ctx.index.of_language("compose")
        if not compose_files:
            return
        # shallowest file wins; extra compose variants are ignored
        compose_files.sort(key=lambda f: (f.path.count("/"), f.path))
        chosen = compose_files[0]
        if len(compose_files) > 1:
            ctx.report.warnings.append(
                "multiple compose files; using %s" % chosen.path
            )
        try:
            ctx.compose_services = parse_compose(chosen)
        except ParserError as exc:
            ctx.report.warnings.append(str(exc))

    def _collect_dockerfiles(self, ctx: Context) -> None:
        for f in ctx.index.of_language("dockerfile"):
            try:
                info = parse_dockerfile(f)
            except Exception as exc:  # noqa: BLE001
                ctx.report.warnings.append("%s: %s" % (f.path, exc))
                continue
            ctx.dockerfiles[posixpath.dirname(f.path)] = info

    def _discover_roots(
        self, ctx: Context, compose_by_root: dict[str, ComposeService]
    ) -> set[str]:
        build_dirs = {posixpath.dirname(f.path) for f in ctx.index.of_language("build")}
        roots = set(compose_by_root)
        module_dirs: set[str] = set()
        for f in ctx.index.of_language("build"):
            base = posixpath.basename(f.path)
            d = posixpath.dirname(f.path)
            try:
                if base == "pom.xml":
                    for m in parse_maven_modules(f):
                        module_dirs.add(posixpath.normpath(posixpath.join(d, m)))
                elif base == "settings.gradle":
                    for m in parse_gradle_settings(f):
                        module_dirs.add(posixpath.normpath(posixpath.join(d, m)))
            except ParserError as exc:
                ctx.report.warnings.append(str(exc))
        roots |= {m for m in module_dirs if m in build_dirs}
        # any directory with its own build file is a candidate, except the
        # project's top, the one enclosing every build file and the compose
        # file, which like the repository root is a service only when
        # nothing else is
        ends = build_dirs | {posixpath.dirname(c.trace.file) for c in ctx.compose_services}
        top = posixpath.commonpath(ends) if ends else ""
        roots |= build_dirs - {top}
        if not roots and top in build_dirs:
            roots.add(top)
        return roots

    def _collect_properties(self, ctx: Context) -> dict[str, list]:
        out: dict[str, list] = {}
        for f in ctx.index.of_language("yaml"):
            try:
                out[f.path] = parse_yaml_properties(f)
            except ParserError as exc:
                ctx.report.warnings.append(str(exc))
        for f in ctx.index.of_language("properties"):
            try:
                out[f.path] = parse_properties_file(f)
            except Exception as exc:  # noqa: BLE001
                ctx.report.warnings.append("%s: %s" % (f.path, exc))
        return out

    def _build_service(
        self,
        ctx: Context,
        root: str,
        props: PropertyMap,
        compose_match: ComposeService | None,
    ) -> ServiceRoot | None:
        index = ctx.index
        if compose_match is not None:
            props.add(PropertyEntry(relaxed_key(k), v, t) for k, v, t in compose_match.environment)

        name = None
        trace = None
        app_name = props.get("spring.application.name")
        if app_name is not None and app_name.value and "${" not in app_name.value:
            name = app_name.value
            trace = app_name.trace
        if name is None and compose_match is not None:
            name = compose_match.name
            trace = compose_match.trace
        if name is None:
            name = self._maven_name(ctx, root)
            if name is not None:
                trace = self._build_file_trace(ctx, root, name)
        if name is None:
            name = posixpath.basename(root) if root else index.root.name
            trace = self._build_file_trace(ctx, root, name)
        if trace is None:
            return None
        try:
            canonical = normalize_name(name)
        except ValueError:
            return None
        return ServiceRoot(
            name=name,
            canonical=canonical,
            root=root,
            trace=trace,
            properties=props,
            compose_name=compose_match.name if compose_match else None,
        )

    def _maven_name(self, ctx: Context, root: str) -> str | None:
        pom = ctx.index.by_path.get(posixpath.join(root, "pom.xml") if root else "pom.xml")
        if pom is None:
            return None
        return parse_maven_artifact_id(pom)

    def _build_file_trace(self, ctx: Context, root: str, name: str) -> TraceEntry | None:
        """Anchor a service without a named config to its build file."""
        for base in ("pom.xml", "build.gradle", "settings.gradle"):
            path = posixpath.join(root, base) if root else base
            f = ctx.index.by_path.get(path)
            if f is None:
                continue
            lines = f.text.split("\n")
            for li, line in enumerate(lines):
                col = line.find(name)
                if col != -1:
                    return TraceEntry(
                        f.path, li + 1, (col, col + len(name)), name
                    )
            first = lines[0]
            end = max(len(first.rstrip()), 1)
            return TraceEntry(f.path, 1, (0, end), first[:end])
        return None

