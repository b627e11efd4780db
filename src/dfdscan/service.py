"""Embedded HTTP service exposing the analyzer.

POST /analyze with {"path": "..."} (or {"repo_url": "...", "ref": "..."})
returns the diagram and its traceability as JSON.  GET /health reports
liveness.

_Handler reads the one HTTP/1.0 request of a connection itself, so no
process of the service loads http.server and with it http.client, ssl
and the email parser.  With no dfdscan module loading dataclasses either,
the parent peaks at 18.0 MiB VmHWM, against 24.1 with http.server and
19.2 with dataclasses (Python 3.11.7, Linux).  It
accepts a request line ``METHOD TARGET HTTP/1.0`` (or ``HTTP/1.1``) and
headers up to the blank line, and answers GET and POST.  It refuses, in JSON like every
answer: a request line or header line over _MAX_LINE bytes (414, 431),
more than _MAX_HEADERS header lines (431), a malformed request line or a
header line without a colon (400), a Content-Length that is not an
integer, negative or given twice (400) or over MAX_BODY_BYTES (413,
before the body is read), a body that ends before its length (400), and
any other method (501).  A client that closes before the blank line gets
no answer.  An answer is ``HTTP/1.0 <code> <reason>`` with Content-Type,
Content-Length and Date.

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
import socketserver
import sys
import time

from .analysis import AnalysisError, analyze_directory, fetch_repository
from .output import dfd_to_obj, traceability_to_obj
from .rules import load_rules

# A request carries only a path, or a repository URL and ref.
MAX_BODY_BYTES = 1024 * 1024

# Bytes of the request line or of one header line, line end included, and
# header lines of one request.
_MAX_LINE = 64 * 1024
_MAX_HEADERS = 100

# The reason phrase of each status the service answers with.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

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


class _Refused(Exception):
    """A request refused before it is dispatched, with its status."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status


class _Handler(socketserver.StreamRequestHandler):
    """Reads the one HTTP/1.0 request of a connection and answers it in JSON."""

    verbose = False
    # seconds one socket read or write may wait; the analysis is not limited
    timeout = 60
    # in a worker, its end of the socket pair to the parent
    ctl: socket.socket | None = None
    # set once a 500 is sent: the process may hold state from the failure
    failed = False
    # set once the worker has reported itself idle for this connection
    idle = False
    # what the request's head says, once read
    requestline = ""
    command = path = ""
    length: int | None = None

    def report_idle(self) -> None:
        """Tell the parent, once, that this worker takes the next connection."""
        if self.ctl is not None and not (self.idle or self.failed):
            self.idle = True
            self.ctl.send(_IDLE)

    def handle(self) -> None:
        try:
            try:
                if not self._read_head():
                    return  # the client closed before the blank line
            except _Refused as exc:
                self._send(exc.status, {"error": str(exc)})
                return
            if self.command == "GET":
                self._get()
            else:
                self._post()
        except TimeoutError as exc:  # a read or a write waited too long
            self.log_message("request timed out: %r", exc)

    def _readline(self, status: int, what: str) -> bytes | None:
        """The next line, None when the client closed before its end.

        _Refused with status when it is over _MAX_LINE."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(status, "%s over %d bytes" % (what, _MAX_LINE))
        return line if line.endswith(b"\n") else None

    def _read_head(self) -> bool:
        """Read the request line and the headers up to the blank line.

        False when the client closes first; _Refused when the head breaks
        a bound or is malformed."""
        line = self._readline(414, "request line")
        if line is None:
            return False
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Refused(400, "bad request line %r" % self.requestline)
        self.command, self.path = words[:2]
        for _ in range(_MAX_HEADERS + 1):
            line = self._readline(431, "header line")
            if line is None:
                return False
            if line in (b"\r\n", b"\n"):
                if self.command not in ("GET", "POST"):
                    raise _Refused(501, "unsupported method %s" % self.command)
                return True
            name, colon, value = line.partition(b":")
            if not colon:
                raise _Refused(400, "bad request: header line without a colon")
            if name.strip().lower() == b"content-length":
                if self.length is not None:
                    raise _Refused(400, "bad request: more than one Content-Length")
                try:
                    self.length = int(value)
                except ValueError:
                    raise _Refused(400, "bad request: Content-Length is not an integer") from None
                if self.length < 0:
                    raise _Refused(400, "bad request: negative Content-Length")
        raise _Refused(431, "more than %d header lines" % _MAX_HEADERS)

    def _send(self, status: int, obj: dict) -> None:
        if status == 500:
            self.failed = True
        body = json.dumps(obj).encode("utf-8")
        self.log_message('"%s" %d', self.requestline, status)
        head = "HTTP/1.0 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nDate: %s\r\n\r\n" % (
            status,
            _REASONS[status],
            len(body),
            time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime()),
        )
        # before the answer is written: a client may connect again as soon
        # as it has the answer, and a parent that still counted this worker
        # busy would fork a needless spare
        self.report_idle()
        self.wfile.write(head.encode("ascii"))
        self.wfile.write(body)

    def _get(self) -> None:
        if self.path == "/health":
            self._send(200, {"status": "ok"})
        else:
            self._send(404, {"error": "unknown endpoint %s" % self.path})

    def _post(self) -> None:
        if self.path != "/analyze":
            self._send(404, {"error": "unknown endpoint %s" % self.path})
            return
        length = self.length or 0
        # checked before reading: a huge length would be allocated up front
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": "request body over %d bytes" % MAX_BODY_BYTES})
            return
        try:
            data = self.rfile.read(length)
            if len(data) < length:
                raise ValueError("body ended after %d of %d bytes" % (len(data), length))
            payload = json.loads(data or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            for name, kind in _FIELD_TYPES.items():
                if payload.get(name) is not None and not isinstance(payload[name], kind):
                    raise ValueError("%s must be a %s" % (name, "boolean" if kind is bool else "string"))
        except ValueError as exc:  # json.JSONDecodeError included
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
            sys.stderr.write(
                "%s - - [%s] %s\n" % (self.client_address[0], time.strftime("%d/%b/%Y %H:%M:%S"), fmt % args)
            )


def _answer(handler, conn: socket.socket, addr) -> bool:
    """Answer the one request of a connection, close it, and report idle.

    Returns False when the worker must take no further connection."""
    try:
        answered = handler(conn, addr, None)
    except Exception:  # noqa: BLE001 - reported, and the worker exits
        # imported here: it loads linecache and tokenize, which no answer needs
        import traceback  # noqa: PLC0415

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


class _Worker:
    def __init__(self, pid: int, ctl: socket.socket, idle_since: float | None) -> None:
        self.pid = pid
        self.ctl = ctl  # the parent's end of the worker's socket pair
        self.idle_since = idle_since  # time.monotonic() of its last report, None while busy
        self.stopping = False


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
