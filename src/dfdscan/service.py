"""Embedded HTTP service exposing the analyzer.

POST /analyze with {"path": "..."} (or {"repo_url": "...", "ref": "..."})
returns the diagram and its traceability as JSON.  GET /health reports
liveness.

Connections are answered by worker processes forked from the server once
it has loaded the default rules.  Each worker loops: accept a connection on
the shared listening socket, answer its one request, accept the next.  So
from its second connection on a worker answers without a fork and with its
memos warm, while concurrent analyses still share neither an interpreter
lock nor memory.  Between requests a worker keeps only what its process
holds for every caller: the default ``RuleSet``, the bounded
``lru_cache`` memo of ``model``, and the bounded index
memo of ``search`` (at most ``search._MEMO_CHARS`` characters of the
trees it indexed last).  Each analysis builds its own index, but a file
whose text equals that of the worker's last index of the same tree keeps
its entry: comment mask, line table, literal hits and parses (see
``search.IndexedFile``).  Every file is still walked, checked and
read, so a change, a deletion or an escaping symlink is seen.  With
``--verbose`` a worker logs how many files each analysis indexed and how
many it reused.  A worker exits after answering a 500, or when answering
raises, so no state from a failed analysis survives it.

The parent never accepts, holds no index and starts no thread, because
forking is safe only in a single-threaded process.  It keeps one idle
spare: whenever no worker is idle it forks one, up to ``MAX_WORKERS`` (40)
in all; further connections wait in the listen backlog.  An idle worker
other than the most recently idle one retires after ``IDLE_SECONDS``, so a
server at rest is the parent and one spare.  A worker that dies is reaped
and, when no other is idle, replaced.  Each worker reports "busy" and
"idle" to the parent over its own socket pair; the parent shuts its end to
stop the worker, which then exits at once when idle and after its answer
when busy.  A worker whose parent is gone sees the same end of file and
exits too.  A worker gives up on a client that sends or reads nothing for
``_Handler.timeout`` seconds, so an idle connection neither holds a worker
nor delays shutdown for longer.  POSIX only, since it needs ``os.fork``.
SIGTERM stops the server like Ctrl-C: the parent stops its workers, waits
for those still answering, and returns.  In-flight answers finish only
when the parent alone is signalled; a signal sent to the whole process
group (Ctrl-C in a terminal, a control-group stop) interrupts the workers
too, and they exit without answering.
"""
from __future__ import annotations

import contextlib
import json
import os
import select
import shutil
import signal
import socket
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler

from .analysis import AnalysisError, analyze_directory, fetch_repository
from .output import dfd_to_obj, traceability_to_obj
from .rules import load_rules

# A request carries only a path, or a repository URL and ref.
MAX_BODY_BYTES = 1024 * 1024

# Workers alive at once, busy or idle; each answers one connection at a time.
MAX_WORKERS = 40

# Seconds an idle worker waits for a connection before it retires, unless
# it is the one spare the server keeps.
IDLE_SECONDS = 30.0

# What a worker reports to the parent when it takes a connection and when
# it is ready for the next.
_BUSY, _IDLE = b"b", b"i"

# The signals that stop the server (as KeyboardInterrupt).  The parent takes
# them only while it waits, so a stop never falls between a fork or a reap
# and the bookkeeping that lets close() find every worker.
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}

# The JSON type of each request field; null counts as absent.
_FIELD_TYPES = {"path": str, "repo_url": str, "ref": str, "paper_parity": bool}


class _Handler(BaseHTTPRequestHandler):
    verbose = False
    # seconds one socket read or write may wait; the analysis is not limited
    timeout = 60
    # in a worker, its end of the socket pair to the parent
    ctl: socket.socket | None = None
    # set once a 500 is sent: the process may hold state from the failure
    failed = False
    # set once the worker has reported itself idle for this connection
    idle = False

    def report_idle(self) -> None:
        """Tell the parent, once, that this worker takes the next connection."""
        if self.ctl is not None and not (self.idle or self.failed):
            self.idle = True
            self.ctl.send(_IDLE)

    def _send(self, status: int, obj: dict) -> None:
        if status >= 500:
            self.failed = True
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        # before the answer is written: a client may connect again as soon
        # as it has the answer, and a parent that still counted this worker
        # busy would fork a needless spare
        self.report_idle()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/health":
            self._send(200, {"status": "ok"})
        else:
            self._send(404, {"error": "unknown endpoint %s" % self.path})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/analyze":
            self._send(404, {"error": "unknown endpoint %s" % self.path})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            # checked before reading: rfile.read(-1) waits for the client to
            # close the socket, and a huge length is allocated up front
            if length < 0:
                raise ValueError("negative Content-Length")
            if length > MAX_BODY_BYTES:
                self._send(413, {"error": "request body over %d bytes" % MAX_BODY_BYTES})
                return
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            for name, kind in _FIELD_TYPES.items():
                if payload.get(name) is not None and not isinstance(payload[name], kind):
                    raise ValueError("%s must be a %s" % (name, "boolean" if kind is bool else "string"))
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": "bad request: %s" % exc})
            return
        path = payload.get("path")
        repo_url = payload.get("repo_url")
        if bool(path) == bool(repo_url):
            self._send(400, {"error": "provide exactly one of 'path' or 'repo_url'"})
            return
        commit = checkout = None
        try:
            if repo_url:
                checkout, commit = fetch_repository(repo_url, payload.get("ref"))
            result = analyze_directory(
                checkout or path, raw=bool(payload.get("paper_parity"))
            )
        except AnalysisError as exc:
            self._send(400, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001
            self._send(500, {"error": "analysis failed: %r" % exc})
            return
        finally:
            if checkout is not None:
                shutil.rmtree(checkout, ignore_errors=True)
        self.log_message(
            "indexed %d files, %d reused from an earlier request", len(result.index.files), result.index.reused
        )
        self._send(
            200,
            {
                "dfd": dfd_to_obj(result.dfd),
                "traceability": traceability_to_obj(result.dfd),
                "commit": commit,
                "elapsed_seconds": result.elapsed,
                "warnings": result.report.warnings,
                "extractor_failures": [
                    {"extractor": n, "error": e} for n, e in result.report.failures
                ],
            },
        )

    def log_message(self, fmt: str, *args) -> None:
        if self.verbose:
            super().log_message(fmt, *args)


def _answer(handler, conn: socket.socket, addr) -> bool:
    """Answer the one request of a connection, close it, and report idle.

    Returns False when the worker must take no further connection."""
    try:
        answered = handler(conn, addr, None)
    except Exception:  # noqa: BLE001 - reported, and the worker exits
        traceback.print_exc()
        return False
    finally:
        with contextlib.suppress(OSError):  # the client may be gone already
            conn.shutdown(socket.SHUT_WR)
        conn.close()
    answered.report_idle()  # when no answer was sent, e.g. a client that timed out
    return not answered.failed


def _work(listener: socket.socket, ctl: socket.socket, handler) -> None:
    """A worker's loop: accept and answer until ctl reads end of file."""
    handler = type("Handler", (handler,), {"ctl": ctl})
    while ctl not in select.select([listener, ctl], [], [])[0]:
        try:
            conn, addr = listener.accept()
        except BlockingIOError:  # another worker took the connection
            continue
        ctl.send(_BUSY)
        if not _answer(handler, conn, addr):
            return


@dataclass
class _Worker:
    pid: int
    ctl: socket.socket  # the parent's end of the worker's socket pair
    idle_since: float | None  # time.monotonic() of its last report, None while busy
    stopping: bool = False


class _Pool:
    """The parent's side of the workers answering one listening socket."""

    def __init__(self, listener: socket.socket, handler) -> None:
        self.listener = listener
        self.handler = handler
        self.workers: dict[socket.socket, _Worker] = {}

    def run(self) -> None:
        """Keep a spare, retire surplus idle workers and reap dead ones; never returns."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        while True:
            idle = sorted(
                (w for w in self.workers.values() if w.idle_since is not None and not w.stopping),
                key=lambda w: w.idle_since,
            )
            if not idle and len(self.workers) < MAX_WORKERS:
                self._fork()
                continue
            timeout = self._retire(idle)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
            ready = select.select(list(self.workers), [], [], timeout)[0]
            signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
            for ctl in ready:
                self._read(self.workers[ctl])

    def close(self) -> None:
        """Stop every worker, idle ones at once and busy ones after their answer, and reap them."""
        self.listener.close()
        for worker in self.workers.values():
            self._stop(worker)
        for worker in self.workers.values():
            os.waitpid(worker.pid, 0)
            worker.ctl.close()
        self.workers.clear()

    def _fork(self) -> None:
        ours, theirs = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            try:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
                # only the parent may hold these, or a worker would not see
                # end of file when the parent is gone
                ours.close()
                for ctl in self.workers:
                    ctl.close()
                _work(self.listener, theirs, self.handler)
            finally:
                os._exit(0)
        theirs.close()
        self.workers[ours] = _Worker(pid, ours, time.monotonic())

    def _retire(self, idle: list[_Worker]) -> float | None:
        """Stop the idle workers, oldest first and all but the last, that waited IDLE_SECONDS.

        Returns the seconds until the next one is due, or None."""
        now = time.monotonic()
        for worker in idle[:-1]:
            left = worker.idle_since + IDLE_SECONDS - now
            if left > 0:
                return left
            self._stop(worker)
        return None

    @staticmethod
    def _stop(worker: _Worker) -> None:
        worker.stopping = True
        with contextlib.suppress(OSError):  # the worker may have exited already
            worker.ctl.shutdown(socket.SHUT_WR)

    def _read(self, worker: _Worker) -> None:
        state = worker.ctl.recv(64)
        if state:
            worker.idle_since = time.monotonic() if state.endswith(_IDLE) else None
        else:  # the worker exited
            del self.workers[worker.ctl]
            worker.ctl.close()
            os.waitpid(worker.pid, 0)


def serve(host: str, port: int, verbose: bool = False) -> None:
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    load_rules()  # read once here, so every worker inherits the default rules
    # the kernel queues up to 5 connections while every worker is busy
    listener = socket.create_server((host, port), backlog=5)
    listener.setblocking(False)  # idle workers race for each connection
    pool = _Pool(listener, type("Handler", (_Handler,), {"verbose": verbose}))
    try:
        print("dfdscan service on http://%s:%d (POST /analyze)" % listener.getsockname()[:2], flush=True)
        pool.run()
    except KeyboardInterrupt:
        pass
    finally:
        pool.close()
