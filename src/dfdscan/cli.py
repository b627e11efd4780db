"""Command line interface.

dfdscan analyze --path DIR [options]        analyze a local codebase
dfdscan analyze --repo-url URL [--ref SHA]  clone and analyze a repository
dfdscan serve [--host H] [--port P]         run the HTTP analysis service
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from .analysis import AnalysisError, analyze_directory, fetch_repository
from .output import dfd_to_dot, dfd_to_json, dfd_to_obj, traceability_to_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfdscan",
        description="Extract security-annotated dataflow diagrams from "
        "Java/Spring microservice codebases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a codebase")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--path", help="local codebase directory")
    source.add_argument("--repo-url", help="git repository URL to clone")
    analyze.add_argument("--ref", help="commit or branch to pin (with --repo-url)")
    analyze.add_argument("--out", default="dfd-output", help="output directory")
    analyze.add_argument(
        "--format",
        default="json,dot",
        help="comma list of outputs: json, dot, png (default: json,dot)",
    )
    analyze.add_argument("--rules", help="keyword rules JSON replacing the built-in set")
    analyze.add_argument("--images", help="image catalog file replacing the built-in set")
    analyze.add_argument("--eval-truth", help="ground truth DFD JSON to evaluate against")
    analyze.add_argument(
        "--paper-parity",
        action="store_true",
        help="read Java comments as code, matching originally published behavior",
    )
    analyze.add_argument("--verbose", action="store_true", help="print warnings and timings")

    serve = sub.add_parser("serve", help="run the HTTP analysis service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--verbose", action="store_true")
    return parser


def _app_name(args) -> str:
    if args.path:
        return Path(args.path).resolve().name
    tail = args.repo_url.rstrip("/").rpartition("/")[2]
    return tail[:-4] if tail.endswith(".git") else tail


def _parse_formats(spec: str) -> set[str]:
    formats = {f.strip().lower() for f in spec.split(",") if f.strip()}
    unknown = formats - {"json", "dot", "png"}
    if unknown:
        raise AnalysisError("unknown format(s): %s" % ", ".join(sorted(unknown)))
    return formats


def run_analyze(args) -> int:
    formats = _parse_formats(args.format)
    commit = checkout = None
    if args.repo_url:
        print("cloning %s ..." % args.repo_url)
        checkout, commit = fetch_repository(args.repo_url, args.ref)
    try:
        result = analyze_directory(
            checkout or Path(args.path),
            keyword_rules_path=args.rules,
            image_catalog_path=args.images,
            raw=args.paper_parity,
        )
    finally:
        if checkout is not None:
            shutil.rmtree(checkout, ignore_errors=True)
    dfd, report = result.dfd, result.report

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    app = _app_name(args)
    written = []
    started = time.perf_counter()
    if "json" in formats:
        dfd_path = out_dir / ("%s.json" % app)
        dfd_path.write_text(dfd_to_json(dfd), encoding="utf-8")
        trace_path = out_dir / ("%s_traceability.json" % app)
        trace_path.write_text(traceability_to_json(dfd), encoding="utf-8")
        written += [dfd_path, trace_path]
    if "dot" in formats or "png" in formats:
        dot_path = out_dir / ("%s.dot" % app)
        dot_path.write_text(dfd_to_dot(dfd, title=app), encoding="utf-8")
        written.append(dot_path)
    report.timings["serialize"] = time.perf_counter() - started
    if "png" in formats:
        png_path = out_dir / ("%s.png" % app)
        if shutil.which("dot"):
            subprocess.run(["dot", "-Tpng", str(dot_path), "-o", str(png_path)], check=False)
            written.append(png_path)
        else:
            print("note: graphviz 'dot' not found, skipping PNG rendering")

    print(
        "%s: %d nodes, %d flows in %.2fs%s"
        % (
            app,
            len(dfd.nodes),
            len(dfd.flows),
            result.elapsed,
            " (commit %s)" % commit[:12] if commit else "",
        )
    )
    for p in written:
        print("  wrote %s" % p)
    if args.verbose:
        for w in report.warnings:
            print("  warning: %s" % w)
        for name, err in report.failures:
            print("  extractor %s failed: %s" % (name, err))
        for sf in report.suppressed_self_flows:
            print("  suppressed self-flow: %s" % sf)
        for name, seconds in report.timings.items():
            print("  time %s: %.4fs" % (name, seconds))
        index = result.index
        print(
            "  search: %d literal, %d skipped by vocabulary, %d cached"
            % (index.literal_searches, index.vocabulary_skips, index.cache_hits)
        )
    elif report.failures:
        print("  %d extractor failure(s); use --verbose for details" % len(report.failures))

    if args.eval_truth:
        # imported here: neither a plain analysis nor the service needs it
        from .evaluation import (  # noqa: PLC0415
            compare,
            comparison_to_obj,
            load_document,
            load_document_file,
            report_lines,
        )

        truth = load_document_file(args.eval_truth)
        extracted = load_document(dfd_to_obj(dfd))
        comp = compare(extracted, truth)
        for line in report_lines(comp):
            print(line)
        eval_path = out_dir / ("%s_eval.json" % app)
        eval_path.write_text(
            json.dumps(comparison_to_obj(comp), indent=4) + "\n", encoding="utf-8"
        )
        print("  wrote %s" % eval_path)
    return 0


def run_serve(args) -> int:
    from .service import serve  # noqa: PLC0415

    serve(args.host, args.port, verbose=args.verbose)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return run_analyze(args)
        return run_serve(args)
    except AnalysisError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
