"""Parse phase: discover services and collect their configuration.

Runs as a single extractor because everything later depends on its output:
compose declarations, Dockerfiles, build-module layout, service roots, and
one merged property map per service (file config plus compose environment
via relaxed key binding).  Every parser is called through _parsed, so a
file a parser refuses, for any reason, is one warning and is left out.
"""
from __future__ import annotations

import posixpath

from ..model import NameError_, TraceEntry, normalize_name
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


def _parsed(ctx: Context, parse, file):
    """parse(file), or None after the file's one warning if it raises: no
    file can fail the extractor.  A ParserError names its file itself."""
    try:
        return parse(file)
    except Exception as exc:  # noqa: BLE001
        warning = str(exc) if isinstance(exc, ParserError) else "%s: %s" % (file.path, exc)
        ctx.report.warnings.append(warning)
        return None


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
        for svc in sorted(services, key=lambda s: s.name):
            if svc.name in ctx.services:
                ctx.report.warnings.append(
                    "duplicate service name %s (roots %s and %s)"
                    % (svc.name, ctx.services[svc.name].root, svc.root)
                )
                continue
            ctx.services[svc.name] = svc

    # ------------------------------------------------------------------

    def _collect_compose(self, ctx: Context) -> None:
        compose_files = ctx.index.of_language("compose")
        if not compose_files:
            return
        # shallowest file wins; extra compose variants are ignored
        chosen = min(compose_files, key=lambda f: (f.path.count("/"), f.path))
        if len(compose_files) > 1:
            ctx.report.warnings.append(
                "multiple compose files; using %s" % chosen.path
            )
        ctx.compose_services = _parsed(ctx, parse_compose, chosen) or []

    def _collect_dockerfiles(self, ctx: Context) -> None:
        for f in ctx.index.of_language("dockerfile"):
            info = _parsed(ctx, parse_dockerfile, f)
            if info is not None:
                ctx.dockerfiles[posixpath.dirname(f.path)] = info

    def _discover_roots(
        self, ctx: Context, compose_by_root: dict[str, ComposeService]
    ) -> set[str]:
        build_dirs = {posixpath.dirname(f.path) for f in ctx.index.of_language("build")}
        roots = set(compose_by_root)
        module_dirs: set[str] = set()
        for f in ctx.index.of_language("build"):
            base = posixpath.basename(f.path)
            if base == "pom.xml":
                modules = _parsed(ctx, parse_maven_modules, f)
            elif base == "settings.gradle":
                modules = _parsed(ctx, parse_gradle_settings, f)
            else:
                continue
            d = posixpath.dirname(f.path)
            module_dirs.update(posixpath.normpath(posixpath.join(d, m)) for m in modules or ())
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
            entries = _parsed(ctx, parse_yaml_properties, f)
            if entries is not None:
                out[f.path] = entries
        for f in ctx.index.of_language("properties"):
            entries = _parsed(ctx, parse_properties_file, f)
            if entries is not None:
                out[f.path] = entries
        return out

    def _build_service(
        self,
        ctx: Context,
        root: str,
        props: PropertyMap,
        compose_match: ComposeService | None,
    ) -> ServiceRoot | None:
        if compose_match is not None:
            props.add(PropertyEntry(relaxed_key(k), v, t) for k, v, t in compose_match.environment)

        for raw, trace in self._names(ctx, root, props, compose_match):
            try:
                name = normalize_name(raw)
            except NameError_:
                continue
            trace = trace or self._build_file_trace(ctx, root, raw)
            if trace is not None:
                return ServiceRoot(name, root, trace, props, compose_match and compose_match.name)
        ctx.report.warnings.append("service root %s has no traceable name in [a-z0-9_]+" % (root or "."))
        return None

    def _names(self, ctx: Context, root: str, props: PropertyMap, compose_match):
        """(name, trace or None) of each name a service may take, in the
        order they are tried; a later one is read only when all before it
        fail."""
        app_name = props.get("spring.application.name")
        if app_name is not None:
            yield app_name.value, app_name.trace
        if compose_match is not None:
            yield compose_match.name, compose_match.trace
        pom = ctx.index.by_path.get(posixpath.join(root, "pom.xml"))
        artifact_id = None if pom is None else _parsed(ctx, parse_maven_artifact_id, pom)
        if artifact_id is not None:
            yield artifact_id, None
        yield posixpath.basename(root) if root else ctx.index.root.name, None

    def _build_file_trace(self, ctx: Context, root: str, name: str) -> TraceEntry | None:
        """Anchor a service without a named config to its build file."""
        for base in ("pom.xml", "build.gradle", "settings.gradle"):
            f = ctx.index.by_path.get(posixpath.join(root, base))
            if f is None:
                continue
            # a name may hold a newline, so it is looked for line by line
            lines = f.text.split("\n")
            for li, line in enumerate(lines):
                col = line.find(name)
                if col != -1:
                    return f.trace(li, col, col + len(name))
            return f.trace(0, 0, max(len(lines[0].rstrip()), 1))
        return None

