"""A warm service worker gives the same analysis as a cold process.

A worker keeps, across requests, the index entries of unchanged files and
what it derived from them: literal hits and parses.  Here the
four service_small trees of the benchmark's generator (the gen fixture)
are analyzed in one process over a seeded run of edits.  After each edit the warm analysis is compared with a cold one,
taken with an empty memo of recently indexed roots: the diagram, the
traceability, every trace record with its snippets and links, the
warnings in order, and the integrity check of the traces.
"""

import os
import random
from collections import OrderedDict

from dfdscan import search
from dfdscan.analysis import analyze_directory
from dfdscan.output import dfd_to_json, traceability_to_json, verify_traces

STEPS = 40
# Rule keywords that gen.py never writes, so no other file of a tree holds them
RARE = ("@EnableHystrix", "@RibbonClient", "@EnableAdminServer", "httpBasic()", "@Slf4j")
RARE_JAVA = """package rare;

@EnableHystrix
@EnableAdminServer
@RibbonClient(name = "peer")
public class Rare%d {
    // @Slf4j, in a comment only
    void configure(HttpSecurity http) { http.httpBasic(); }
}
"""


def entry(t):
    return (t.file, t.line, t.span, t.snippet, tuple(entry(v) for v in t.via))


def outputs(result, root):
    dfd = result.dfd
    records = {
        item: (entry(rec.primary), {k: entry(e) for k, e in rec.sub_items.items()}, [entry(e) for e in rec.extras])
        for item, rec in dfd.traces.items()
    }
    return {
        "dfd": dfd_to_json(dfd),
        "traceability": traceability_to_json(dfd),
        "records": records,
        "warnings": result.report.warnings,
        "failures": result.report.failures,
        "verify": verify_traces(dfd, root),
    }


class Tree:
    """One generated tree on disk and the edits that are still to undo."""

    def __init__(self, gen, app, root):
        self.gen, self.app, self.root = gen, app, root
        gen.write(app, str(root))
        self.undo = []

    def files(self, suffix):
        return sorted(p for p in self.root.rglob("*" + suffix) if p.is_file() and not p.is_symlink())

    def restore(self, path, text, *remove):
        """Undo: remove are gone and path holds text as a plain file again,
        whatever edits came since."""

        def undo():
            for p in (*remove, path):
                p.unlink(missing_ok=True)
            path.write_bytes(text)

        self.undo.append(undo)

    def mutate(self, step, rng):
        self.gen.update(self.app, str(self.root), self.gen.mutate(self.app, step))

    def break_yaml(self, step, rng):
        path = rng.choice(self.files("application.yml"))
        text = path.read_bytes()
        path.write_bytes(text + b"broken: [\n")
        self.undo.append(lambda: path.write_bytes(text))

    def hostile_yaml(self, step, rng):
        path = rng.choice(self.files("application.yml")).with_name("application-hostile.yml")
        if rng.random() < 0.5:
            levels = "".join("l%d: &l%d [%s]\n" % (i, i, ", ".join(["*l%d" % (i - 1)] * 8)) for i in range(1, 4))
            path.write_text("l0: &l0 [x, y]\n" + levels, encoding="utf-8")
        else:
            path.write_text("a: " + "[" * 3000 + "]" * 3000 + "\n", encoding="utf-8")
        self.undo.append(lambda: path.unlink(missing_ok=True))  # a mutate may have removed it

    def rare_keywords(self, step, rng):
        """A Java file of keywords no other file holds: while it stays, later
        analyses reuse it and no file they read fresh holds its keywords."""
        path = rng.choice(self.files(".java")).with_name("Rare%d.java" % step)
        path.write_text(RARE_JAVA % step, encoding="utf-8")
        self.undo.append(lambda: path.unlink(missing_ok=True))  # a mutate may have removed it

    def java_comment(self, step, rng):
        path = rng.choice(self.files(".java"))
        path.write_bytes(path.read_bytes() + b"// reviewed in step %d\n" % step)

    def crlf(self, step, rng):
        path = rng.choice(self.files(".yml") + self.files(".java"))
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        self.undo.append(lambda: path.write_bytes(text))

    def delete(self, step, rng):
        path = rng.choice(self.files(".java") + self.files(".yml") + self.files("pom.xml"))
        text = path.read_bytes()
        path.unlink()
        self.undo.append(lambda: path.write_bytes(text))

    def rename(self, step, rng):
        path = rng.choice(self.files(".java") + self.files(".yml"))
        text = path.read_bytes()
        moved = path.rename(path.with_name("%s_%d%s" % (path.stem, step, path.suffix)))
        self.restore(path, text, moved)

    def symlink(self, step, rng):
        path, target = rng.sample(self.files(".java") + self.files(".yml"), 2)
        text = path.read_bytes()
        path.unlink()
        path.symlink_to(os.path.relpath(target, path.parent))
        self.restore(path, text)


EDITS = (
    "mutate", "break_yaml", "java_comment", "rare_keywords", "hostile_yaml", "crlf", "delete", "rename", "symlink"
)


def test_a_warm_worker_analyzes_like_a_cold_process(gen, tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_memo", OrderedDict())
    monkeypatch.setattr(search, "_MEMO_CHARS", 1 << 24)  # room for every tree, masked and raw
    rng = random.Random(21)
    trees = [Tree(gen, gen.plan_small(1, i), tmp_path / ("small-%d" % i)) for i in range(4)]
    for tree in trees:
        for raw in (False, True):
            analyze_directory(tree.root, raw=raw)  # fills the memo
    warned = reused = rare = 0
    edits = []
    for step in range(STEPS):
        tree = trees[step % len(trees)]
        if tree.undo and rng.random() < 0.5:
            tree.undo.pop(rng.randrange(len(tree.undo)))()
        else:
            edits.append(EDITS[len(edits) % len(EDITS)])  # in turn, whichever tree's step it is
            getattr(tree, edits[-1])(step, rng)
        raw = rng.random() < 0.3
        warm = analyze_directory(tree.root, raw=raw)
        with monkeypatch.context() as m:
            m.setattr(search, "_memo", OrderedDict())  # a cold index; the warm memo stays
            cold = analyze_directory(tree.root, raw=raw)
        assert cold.index.reused == 0
        assert outputs(warm, tree.root) == outputs(cold, tree.root), "step %d" % step
        reused += warm.index.reused > 0
        rare += any(f.memo and any(f.memo.get(k) for k in RARE) for f in warm.index.files)
        warned += any(": yaml: " in w for w in warm.report.warnings)
    # every analysis took the warm path, some met refused files, some found rare
    # keywords in the hits a reused file kept, and every edit ran
    assert reused == STEPS and warned > 0 and rare > 0
    assert set(edits) == set(EDITS)
