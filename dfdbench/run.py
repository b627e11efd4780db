#!/usr/bin/env python3
"""Layered end-to-end benchmark of dfdscan over generated Spring workspaces.

    python3 dfdbench/run.py --workload java_heavy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workspaces come from ``gen.py``
(seeded, with their planted diagram); dfdscan is used as users use it:

* ``java_heavy`` and ``many_services``: one ``dfdscan analyze`` process
  per analysis, back to back, over one generated tree.
* ``service_small``: a ``dfdscan serve`` process under a closed loop of
  two connections from this process, each owning two small repositories
  and rewriting one planted value between its visits to a repository.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of in-process analyses
traced by ``tracer.py`` (spans go to ``dfdbench/out/``).  Every analysis
is checked after the timed interval: exit status or HTTP status,
extractor failures, integrity, trace evidence, byte-identical output for
an unchanged tree, and precision/recall against the planted truth.  The
last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import copy
import http.client
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

CLI_PLANS = {"java_heavy": gen.plan_java_heavy, "many_services": gen.plan_many_services}
WORKLOADS = (*CLI_PLANS, "service_small")
SETUP_REPS = 5
POOL = 4  # service_small repositories
CONNECTIONS = 2
VERIFIED_STATES = 2  # per repository, re-analyzed in process and trace-verified
TIMEOUT = 120.0  # seconds for any single analysis or server start
# Where each CLI workload should spend its time (reported in traced runs);
# service_small reports service_overhead_share instead.
TARGET_LAYER = {"java_heavy": "search.build_index_s", "many_services": "extractors.parse_s"}
PHASES = ("parse", "node", "flow", "annotation", "finalize")


def _fail(msg: str) -> None:
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(2)


# ============================================================================
# Processes
# ============================================================================


class Procs:
    """Every child process of the run; all are reaped before exit."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.live: list[subprocess.Popen] = []

    def spawn(self, args, env=None, **kwargs) -> subprocess.Popen:
        p = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env or self.env, **kwargs)
        self.live.append(p)
        return p

    def reap(self, p: subprocess.Popen, timeout: float = TIMEOUT):
        """Wait for p; returns (exit code, ru_maxrss in MiB).

        ru_maxrss includes the pages p inherited from this process, so it
        is only a fallback where /proc is missing."""
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        return p.returncode, usage.ru_maxrss / 1024.0

    def close(self) -> None:
        for p in list(self.live):
            if p.poll() is None:
                p.kill()
            try:
                self.reap(p, timeout=10)
            except ChildProcessError:
                self.live.remove(p)


def setup_probes(procs: Procs, reps: int) -> tuple[list[float], list[dict]]:
    """Cold interpreter: import the CLI, load rules, import the registry."""
    walls, steps = [], []
    for i in range(reps + 1):  # the first one only fills bytecode caches
        t0 = time.perf_counter()
        p = procs.spawn([str(HERE / "probe_setup.py")], stdout=subprocess.PIPE)
        out = p.stdout.read()
        p.stdout.close()
        code, _ = procs.reap(p)
        wall = time.perf_counter() - t0
        if code != 0:
            _fail("set-up probe exited with %d" % code)
        if i:
            walls.append(wall)
            steps.append(json.loads(out))
    return walls, steps


# ============================================================================
# Checks
# ============================================================================


class Checker:
    """Scores outputs against the planted truth, pooling precision/recall."""

    def __init__(self) -> None:
        from dfdscan import evaluation  # noqa: PLC0415

        self.ev = evaluation
        self.counts: list = []
        self.unexpected: list[str] = []

    def score(self, dfd_obj: dict, truth: dict) -> None:
        """Pool one analysis into precision/recall; note unexpected misses."""
        ours = self.ev.load_document(dfd_obj)
        theirs = self.ev.load_document(truth)
        self.counts.append(self.ev.match_items(ours, theirs))
        comp = self.ev.compare(ours, theirs)
        known = {k["item"] for k in truth["known_missed"]}
        extra = {k["item"] for k in truth["known_extra"]}
        for group, labels in comp.false_positives.items():
            self.unexpected += ["extra %s: %s" % (group, l) for l in labels if l not in extra]
        for group, labels in comp.false_negatives.items():
            self.unexpected += ["missed %s: %s" % (group, l) for l in labels if l not in known]

    def pooled(self) -> tuple[float, float]:
        overall = self.ev.compute_metrics(self.counts).pooled["overall"]
        return overall[0] or 0.0, overall[1] or 0.0


def read_tree(root: Path):
    """A reader of repository-relative paths under root (None when absent)."""

    def read(path: str) -> str | None:
        try:
            return (root / path).read_bytes().decode("utf-8", errors="replace")
        except OSError:
            return None

    return read


def trace_problems(dfd_obj: dict, trace_obj: dict, read) -> list[str]:
    """Every node and flow is traced, and every entry points at real text."""
    problems = []
    items = [n["name"] for n in dfd_obj["nodes"]]
    items += ["%s -> %s" % (f["sender"], f["receiver"]) for f in dfd_obj["information_flows"]]
    problems += ["%s: no trace" % i for i in items if i not in trace_obj]
    lines: dict[str, list | None] = {}
    for item_id, rec in trace_obj.items():
        for entry in [rec, *rec.get("sub_items", {}).values()]:
            path = entry["file"]
            if path not in lines:
                text = read(path)
                lines[path] = None if text is None else text.replace("\r\n", "\n").split("\n")
            file_lines = lines[path]
            n = entry["line"]
            m = re.fullmatch(r"\((\d+):(\d+)\)", entry["span"])
            if file_lines is None or not 1 <= n <= len(file_lines) or m is None:
                problems.append("%s: %s:%s unreadable" % (item_id, path, n))
                continue
            s, e = int(m.group(1)), int(m.group(2))
            if not 0 <= s < e <= len(file_lines[n - 1]) or not file_lines[n - 1][s:e].strip():
                problems.append("%s: %s:%d span %s empty" % (item_id, path, n, entry["span"]))
    return problems


OUTPUTS = {"json": "%s.json", "traceability": "%s_traceability.json", "dot": "%s.dot"}
SERIALIZERS = (
    ("json", "output.dfd_json", "dfd_to_json"),
    ("traceability", "output.traceability_json", "traceability_to_json"),
    ("dot", "output.dot", "dfd_to_dot"),
)


def analyze_like_cli(root: Path, tr: tracer.Tracer | None = None, out: Path | None = None):
    """What ``dfdscan analyze --format json,dot`` does, in process.

    Returns (result, texts); serializations are spanned when traced and
    written under out when given."""
    from dfdscan import analysis, output  # noqa: PLC0415

    result = analysis.analyze_directory(root)
    texts = {}
    for key, stem, fn_name in SERIALIZERS:
        fn = getattr(output, fn_name)
        idx = tr.open(stem) if tr else None
        texts[key] = fn(result.dfd, title=root.name) if key == "dot" else fn(result.dfd)
        if tr:
            tr.close(idx)
            tr.found.add(stem)
        if out is not None:
            (out / (OUTPUTS[key] % root.name)).write_text(texts[key], encoding="utf-8")
    return result, texts


def problems_of(result, root: Path) -> list[str]:
    """Extractor failures, integrity violations and unverifiable traces."""
    from dfdscan.output import verify_traces  # noqa: PLC0415

    problems = ["extractor %s failed: %s" % f for f in result.report.failures]
    problems += ["integrity: %s" % p for p in result.report.integrity]
    problems += ["trace: %s" % p for p in verify_traces(result.dfd, root)[1]]
    return problems


def inprocess(root: Path) -> tuple[dict, list[str]]:
    """Analyze in process; returns the CLI's output texts and the problems."""
    result, texts = analyze_like_cli(root)
    return texts, problems_of(result, root)


# ============================================================================
# Statistics
# ============================================================================


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): p90 by nearest rank when at least ten samples lie
    beyond it (100 samples or more), else the maximum (p100).

    The percentile is fixed rather than the highest one with ten samples
    beyond it, which would drift between p94 and p96 with the sample count
    of a service run and make runs less comparable."""
    s = sorted(values)
    n = len(s)
    if n < 100:
        return 100.0, s[-1]
    rank = -(-9 * n // 10)  # ceil(0.9 * n) in integers
    return 90.0, s[rank - 1]


def median_or_none(values: list):
    if not values or any(v is None for v in values):
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


# ============================================================================
# CLI workloads
# ============================================================================


def cli_analyze(procs: Procs, tree: Path, out: Path) -> dict:
    """One ``dfdscan analyze`` process; outputs are read back, not checked."""
    app = tree.name
    for pattern in OUTPUTS.values():
        (out / (pattern % app)).unlink(missing_ok=True)
    log = out / "stdout.txt"
    hwm = out / "hwm.txt"
    hwm.unlink(missing_ok=True)
    args = [str(HERE / "cli_hwm.py"), "analyze", "--path", str(tree), "--out", str(out), "--format", "json,dot"]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        p = procs.spawn(args, stdout=fh, stderr=subprocess.STDOUT, env=dict(procs.env, DFDBENCH_HWM=str(hwm)))
        code, rss = procs.reap(p)
        wall = time.perf_counter() - t0
    if hwm.exists():
        rss = int(hwm.read_text()) / 1024.0
    texts = {}
    for key, pattern in OUTPUTS.items():
        path = out / (pattern % app)
        texts[key] = path.read_text(encoding="utf-8") if path.exists() else None
    return {"wall": wall, "code": code, "rss": rss, "texts": texts, "log": log.read_text(errors="replace")}


def run_cli(args, procs: Procs, work: Path, prov: dict) -> dict:
    plan = CLI_PLANS[args.workload](args.seed)
    tree = work / plan.name
    info = gen.write(plan, str(tree))
    truth = gen.truth(plan)
    prov["trees"] = [{"name": plan.name, **info}]
    prov["known_missed"] = truth["known_missed"]
    prov["known_extra"] = truth["known_extra"]
    out = work / "out"
    out.mkdir()

    setup_walls, setup_steps = setup_probes(procs, SETUP_REPS)
    if args.trace:
        http = service_layer(procs, work, [Repo(plan, tree)], args.seconds / 4, prov)
        return merge(traced(args, [tree], [truth], setup_steps, prov, args.seconds * 3 / 4), http)

    runs = [cli_analyze(procs, tree, out)]  # warm-up; its output is the reference
    start = time.perf_counter()
    while True:
        runs.append(cli_analyze(procs, tree, out))
        if time.perf_counter() - start >= args.seconds:
            break
    interval = time.perf_counter() - start

    # checks, outside the timed interval
    ref = runs[0]["texts"]
    problems = []
    if all(ref.values()):
        texts, problems = inprocess(tree)
        if texts != ref:
            problems.append("CLI output differs from an in-process analysis of the same tree")
        dfd_obj = json.loads(ref["json"])
        problems += trace_problems(dfd_obj, json.loads(ref["traceability"]), read_tree(tree))
    checker = Checker()
    failed = 0
    for r in runs:
        bad = r["code"] != 0 or r["texts"] != ref or problems or "extractor failure" in r["log"]
        if bad or not all(r["texts"].values()):
            failed += 1
            continue
        checker.score(json.loads(r["texts"]["json"]), truth)
    for p in problems[:20]:
        print("problem: %s" % p)
    timed = runs[1:]
    walls = [r["wall"] for r in timed]
    tail_p, tail_v = tail(walls)
    prov["tail"] = {"percentile": tail_p, "samples": len(walls)}
    precision, recall = checker.pooled() if checker.counts else (0.0, 0.0)
    return {
        "attempted": len(runs),
        "failed": failed,
        "unexpected": checker.unexpected,
        "metrics": {
            "setup_s": statistics.median(setup_walls),
            "analyze_s": statistics.median(walls),
            "analyze_tail_s": tail_v,
            "analyses_per_s": sum(1 for r in timed if r["code"] == 0) / interval,
            "peak_rss_mb": statistics.median(r["rss"] for r in timed),
            "precision": precision,
            "recall": recall,
        },
    }


# ============================================================================
# Service workload
# ============================================================================


class Repo:
    """One repository of the pool with its current plan and truth."""

    def __init__(self, plan: gen.App, root: Path) -> None:
        self.plan = plan
        self.root = root
        self.truth = gen.truth(plan)
        self.step = 0
        self.states: dict[str, tuple] = {}  # state key -> (plan snapshot, truth)
        self.key = self._remember()

    def _remember(self) -> str:
        key = repr([(s.port, s.feign) for s in self.plan.services])
        self.states.setdefault(key, (copy.deepcopy(self.plan), self.truth))
        return key

    def advance(self) -> None:
        """Rewrite one planted value before the next visit."""
        touched = gen.mutate(self.plan, self.step)
        self.step += 1
        gen.update(self.plan, str(self.root), touched)
        self.truth = gen.truth(self.plan)
        self.key = self._remember()


def start_server(procs: Procs, log) -> tuple[subprocess.Popen, int, float]:
    """Spawn ``dfdscan serve`` on an ephemeral port; returns time to first 200."""
    t0 = time.perf_counter()
    p = procs.spawn(
        ["-u", "-m", "dfdscan.cli", "serve", "--port", "0"], stdout=subprocess.PIPE, stderr=log
    )
    killer = threading.Timer(TIMEOUT, p.kill)
    killer.start()
    try:
        banner = p.stdout.readline().decode("utf-8", errors="replace")
        m = re.search(r":(\d+)\b", banner)
        if m is None:
            _fail("server did not start: %r" % banner)
        port = int(m.group(1))
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
            try:
                conn.request("GET", "/health")
                if conn.getresponse().status == 200:
                    break
            except OSError:
                time.sleep(0.002)
            finally:
                conn.close()
    finally:
        killer.cancel()
    return p, port, time.perf_counter() - t0


def stop_server(procs: Procs, p: subprocess.Popen) -> float:
    """Stop the server; returns its peak RSS in MiB (VmHWM while alive)."""
    rss = None
    try:
        with open("/proc/%d/status" % p.pid, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    rss = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    p.terminate()
    _, maxrss = procs.reap(p, timeout=30)
    p.stdout.close()
    return maxrss if rss is None else rss


def post(port: int, path: Path) -> tuple[int | None, bytes, float, float]:
    body = json.dumps({"path": str(path)}).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    t0 = time.perf_counter()
    try:
        conn.request("POST", "/analyze", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        status, data = resp.status, resp.read()
    except OSError as exc:
        status, data = None, str(exc).encode("utf-8")
    finally:
        conn.close()
    return status, data, t0, time.perf_counter()


def closed_loop(port: int, repos: list[Repo], seconds: float) -> tuple[list, list, float]:
    """Warm each repository once, then run the connections for ``seconds``.

    With fewer repositories than connections, one connection requests the
    first repository, unchanged, until ``seconds`` pass (at least twice)."""
    warm = []
    for repo in repos:
        warm.append((repo, repo.key, *post(port, repo.root)))
    records: list = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    errors: list[BaseException] = []
    if len(repos) < CONNECTIONS:
        repo = repos[0]
        while time.perf_counter() < deadline or len(records) < 2:
            records.append((repo, repo.key, *post(port, repo.root)))
        return warm, records, time.perf_counter() - start

    def client(mine: list[Repo]) -> None:
        k = 0
        try:
            while time.perf_counter() < deadline and not errors:
                repo = mine[k % len(mine)]
                k += 1
                repo.advance()
                rec = (repo, repo.key, *post(port, repo.root))
                with lock:
                    records.append(rec)
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(repos[i::CONNECTIONS],), daemon=True)
        for i in range(CONNECTIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return warm, records, time.perf_counter() - start


def check_responses(responses: list, work: Path, checker: Checker) -> tuple[int, list[str]]:
    """Status, failures, determinism, evidence and score of every response."""
    failed = 0
    problems: list[str] = []
    first: dict = {}
    verified: dict = {}
    for repo, key, status, data, _, _ in responses:
        try:
            obj = json.loads(data) if status == 200 else None
        except ValueError:
            obj = None
        if obj is None or obj.get("extractor_failures"):
            failed += 1
            problems.append("%s: status %s %s" % (repo.root.name, status, data[:200]))
            continue
        canonical = json.dumps([obj["dfd"], obj["traceability"]], sort_keys=True)
        state = (repo.root.name, key)
        if state not in first:
            first[state] = canonical
            snapshot, _ = repo.states[key]
            files = dict(gen.render(snapshot))
            bad = trace_problems(obj["dfd"], obj["traceability"], files.get)
            if verified.setdefault(repo.root.name, 0) < VERIFIED_STATES:
                verified[repo.root.name] += 1
                check_root = work / "check" / repo.root.name
                gen.write(snapshot, str(check_root))
                texts, more = inprocess(check_root)
                shutil.rmtree(check_root)
                bad += more
                if json.loads(texts["json"]) != obj["dfd"] or json.loads(texts["traceability"]) != obj["traceability"]:
                    bad.append("response differs from an in-process analysis")
            if bad:
                first[state] = None
                problems += bad[:5]
        if first[state] != canonical:
            failed += 1
            problems.append("%s: output differs for an unchanged tree" % repo.root.name)
            continue
        checker.score(obj["dfd"], repo.states[key][1])
    return failed, problems


def service_layer(procs: Procs, work: Path, repos: list[Repo], seconds: float, prov: dict) -> dict:
    """The service layer of a traced run: ``dfdscan serve`` over the same trees.

    service.overhead_s is the client latency minus the response's own
    elapsed_seconds: HTTP handling, JSON encoding and queueing."""
    with open(work / "server.log", "wb") as log:
        p, port, _ = start_server(procs, log)
        try:
            warm, records, _ = closed_loop(port, repos, seconds)
        finally:
            stop_server(procs, p)
    ok = [(data, t1 - t0) for _, _, status, data, t0, t1 in records if status == 200]
    overhead = [latency - json.loads(data)["elapsed_seconds"] for data, latency in ok]
    if overhead:
        share = statistics.median(overhead) / statistics.median(latency for _, latency in ok)
        prov["service_overhead_share"] = share
    checker = Checker()
    failed, problems = check_responses(warm + records, work, checker)
    for p_ in problems[:20]:
        print("problem: %s" % p_)
    return {
        "attempted": len(warm) + len(records),
        "failed": failed,
        "unexpected": checker.unexpected,
        "metrics": {
            "service.overhead_s": median_or_none(overhead),
            "service.response_bytes": median_or_none([len(data) for data, _ in ok]),
        },
    }


def merge(res: dict, more: dict) -> dict:
    """Add another part of a run (counts, failures, metrics) to a result."""
    res["attempted"] += more["attempted"]
    res["failed"] += more["failed"]
    res["unexpected"] += more["unexpected"]
    res["metrics"].update(more["metrics"])
    return res


def run_service(args, procs: Procs, work: Path, prov: dict) -> dict:
    repos = []
    for i in range(POOL):
        plan = gen.plan_small(args.seed, i)
        root = work / "pool" / plan.name
        info = gen.write(plan, str(root))
        prov.setdefault("trees", []).append({"name": plan.name, **info})
        repos.append(Repo(plan, root))
    prov["known_missed"] = [k for r in repos for k in r.truth["known_missed"]]
    prov["known_extra"] = [k for r in repos for k in r.truth["known_extra"]]
    if args.trace:
        _, setup_steps = setup_probes(procs, SETUP_REPS)
        http = service_layer(procs, work, repos, args.seconds / 2, prov)
        for repo in repos:  # back to the seed state for the in-process split
            repo.plan, repo.truth = repo.states[next(iter(repo.states))]
            gen.update(repo.plan, str(repo.root), {s.name for s in repo.plan.services})
        res = traced(args, [r.root for r in repos], [r.truth for r in repos], setup_steps, prov, args.seconds / 2)
        return merge(res, http)
    log = open(work / "server.log", "wb")
    try:
        servers = []
        for _ in range(SETUP_REPS):
            servers.append(start_server(procs, log))
        for p, _, _ in servers[:-1]:
            stop_server(procs, p)
        setup_walls = [s for _, _, s in servers]
        p, port, _ = servers[-1]
        warm, records, interval = closed_loop(port, repos, args.seconds)
        rss = stop_server(procs, p)
    finally:
        log.close()

    checker = Checker()
    failed, problems = check_responses(warm + records, work, checker)
    for p_ in problems[:20]:
        print("problem: %s" % p_)
    latencies = [t1 - t0 for _, _, _, _, t0, t1 in records]
    tail_p, tail_v = tail(latencies)
    prov["tail"] = {"percentile": tail_p, "samples": len(latencies)}
    prov["mutations"] = sum(r.step for r in repos)
    precision, recall = checker.pooled() if checker.counts else (0.0, 0.0)
    return {
        "attempted": len(warm) + len(records),
        "failed": failed,
        "unexpected": checker.unexpected,
        "metrics": {
            "setup_s": statistics.median(setup_walls),
            "analyze_s": statistics.median(latencies),
            "analyze_tail_s": tail_v,
            "analyses_per_s": sum(1 for r in records if r[2] == 200) / interval,
            "peak_rss_mb": rss,
            "precision": precision,
            "recall": recall,
        },
    }


# ============================================================================
# Traced run (per-layer metrics)
# ============================================================================


def _layers(tr: tracer.Tracer, result, texts: dict, extractors) -> dict:
    m: dict = {}
    build = tr.busy("search.build_index")
    _, mask_s = tr.counted("search.mask")
    m["search.build_index_s"] = build
    m["search.mask_s"] = mask_s
    m["search.index_other_s"] = build - mask_s if build is not None and mask_s is not None else None
    files = getattr(result.index, "files", None)
    m["search.files"] = len(files) if files is not None else None
    try:
        m["search.src_mchars"] = sum(len(f.text) for f in files) / 1e6
    except (AttributeError, TypeError):
        m["search.src_mchars"] = None
    m["search.skipped"] = sum(1 for w in getattr(result.index, "warnings", []) if w.startswith("skipped"))
    m["search.find_keyword_calls"] = tr.calls("search.find_keyword")
    m["search.find_keyword_s"] = tr.busy("search.find_keyword")
    m["search.matches"] = tr.matches if "search.find_keyword" in tr.found else None
    m["kernel.scan_calls"], m["kernel.scan_s"] = tr.counted("kernel.scan")
    m["search.cross_file_s"] = tr.counted("search.cross_file")[1]
    for kind in ("yaml", "properties", "compose", "dockerfile", "build"):
        m["parsers.%s_s" % kind] = tr.busy("parsers.%s" % kind)
    for phase in PHASES:
        m["extractors.%s_s" % phase] = sum(
            tr.busy("extractors.%s" % ex.name) for ex in extractors if ex.phase == phase
        )
    for ex in extractors:
        m["extractors.%s_s" % ex.name] = tr.busy("extractors.%s" % ex.name)
    m["extractors.owner_of_calls"], m["extractors.owner_of_s"] = tr.counted("extractors.owner_of")
    dfd = result.dfd
    m["model.nodes"] = len(dfd.nodes)
    m["model.flows"] = len(dfd.flows)
    m["model.trace_records"] = len(dfd.traces)
    m["model.validate_s"] = tr.busy("model.validate")
    m["output.dfd_json_s"] = tr.busy("output.dfd_json")
    m["output.traceability_json_s"] = tr.busy("output.traceability_json")
    m["output.dot_s"] = tr.busy("output.dot")
    m["output.bytes"] = sum(len(t.encode("utf-8")) for t in texts.values())
    m["analysis_s"] = tr.busy("analysis")
    return m


def traced(args, trees: list[Path], truths: list[dict], setup_steps, prov, seconds=None) -> dict:
    """Alternate untraced and traced in-process analyses for ``seconds``."""
    from dfdscan import _kernel  # noqa: PLC0415
    from dfdscan.extractors import default_extractors  # noqa: PLC0415
    from dfdscan.search import build_index  # noqa: PLC0415

    seconds = args.seconds if seconds is None else seconds
    extractors = default_extractors()
    tr = tracer.Tracer()
    out = trees[0].parent / "traced-out"
    out.mkdir(exist_ok=True)
    checker = Checker()
    rows, untraced, refs = [], [], {}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while i < 2 * len(trees) or time.perf_counter() - start < seconds:
        root, truth = trees[i % len(trees)], truths[i % len(trees)]
        i += 1
        t0 = time.perf_counter()
        analyze_like_cli(root, out=out)
        untraced.append(time.perf_counter() - t0)
        tr.begin(extractors)
        try:
            result, texts = analyze_like_cli(root, tr, out)
        finally:
            tr.end()
        rows.append(_layers(tr, result, texts, extractors))
        attempted += 1
        if root not in refs:
            refs[root] = texts
            bad = problems_of(result, root)
        else:
            bad = ["extractor %s failed: %s" % f for f in result.report.failures]
            bad += ["integrity: %s" % p for p in result.report.integrity]
            if refs[root] != texts:
                bad.append("output differs for an unchanged tree")
        if bad:
            failed += 1
            problems += bad[:5]
            continue
        checker.score(json.loads(texts["json"]), truth)
    for p in problems[:20]:
        print("problem: %s" % p)

    # retained index memory, measured once with tracemalloc
    tracemalloc.start()
    index = build_index(trees[0])
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    chars = sum(len(f.text) for f in index.files)
    del index

    metrics = {}
    for name in rows[0]:
        metrics[name] = median_or_none([r[name] for r in rows])
    analysis_s = metrics.pop("analysis_s")
    metrics["search.retained_bytes_per_src_char"] = retained / chars if chars else None
    metrics["setup.import_s"] = median_or_none([s["import_s"] for s in setup_steps])
    metrics["setup.rules_s"] = median_or_none([s["rules_s"] for s in setup_steps])
    metrics["setup.registry_s"] = median_or_none([s["registry_s"] for s in setup_steps])
    metrics["trace.untraced_analysis_s"] = statistics.median(untraced)
    metrics["trace.overhead_ratio"] = analysis_s / statistics.median(untraced) if analysis_s else None
    if analysis_s:
        layers = ("search.build_index_s", "extractors.parse_s", "search.mask_s")
        prov["layer_share"] = {k: metrics[k] / analysis_s for k in layers if metrics.get(k) is not None}
        target = TARGET_LAYER.get(args.workload)
        if target in prov["layer_share"]:
            prov["target_share"] = {target: prov["layer_share"][target]}
    prov["backend"] = _kernel.BACKEND
    prov["traced_analyses"] = len(rows)

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    spans = {"spans": tr.spans, "totals": tr.totals, "found": sorted(tr.found)}
    (outdir / ("spans-%s-seed%d.json" % (args.workload, args.seed))).write_text(json.dumps(spans))
    precision, recall = checker.pooled() if checker.counts else (0.0, 0.0)
    prov["traced_precision_recall"] = [precision, recall]
    return {"attempted": attempted, "failed": failed, "unexpected": checker.unexpected, "metrics": metrics}


# ============================================================================
# Main
# ============================================================================

UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_tail_s": "s",
    "analyses_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "precision": "ratio",
    "recall": "ratio",
    "op_ok_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name == "search.retained_bytes_per_src_char":
        return "bytes/char"
    if name == "search.src_mchars":
        return "Mchar"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    if not (SRC / "dfdscan" / "__init__.py").is_file():
        _fail("no dfdscan sources under %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import yaml  # noqa: PLC0415

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = HERE / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    procs = Procs()
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
    }
    try:
        if args.workload == "service_small":
            res = run_service(args, procs, work, prov)
        else:
            res = run_cli(args, procs, work, prov)
    finally:
        procs.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if "backend" not in prov:
        from dfdscan import _kernel  # noqa: PLC0415

        prov["backend"] = _kernel.BACKEND
    attempted, failed = res["attempted"], res["failed"]
    metrics = res["metrics"]
    if not args.trace:
        metrics["op_ok_ratio"] = (attempted - failed) / attempted
    for line in res["unexpected"][:20]:
        print("unexpected: %s" % line)
    for name in sorted(metrics):
        print("%-44s %s %s" % (name, metrics[name], unit_of(name)))
    print("provenance %s" % json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0 and not res["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
