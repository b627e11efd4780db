"""Embedded HTTP service exposing the analyzer.

POST /analyze with {"path": "..."} (or {"repo_url": "...", "ref": "..."})
returns the diagram and its traceability as JSON.  GET /health reports
liveness.

The server forks one child process per connection: the child parses the
request, analyzes, answers and exits, taking its index and caches with it,
so concurrent analyses share neither an interpreter lock nor memory, and an
analysis that dies cannot take the server down.  The parent only accepts
and forks; it starts no thread, because forking is safe only in a
single-threaded process, and it holds no index.  At most
``ForkingMixIn.max_children`` (40) children run at once; further
connections wait in the listen backlog.  A child gives up on a client
that sends or reads nothing for ``_Handler.timeout`` seconds, so an idle
connection neither holds a slot nor delays shutdown for longer.  POSIX
only, since it needs ``os.fork``.  SIGTERM stops the server like Ctrl-C:
it stops accepting, waits for the children still answering, and returns.
In-flight answers finish only when the parent alone is signalled; a
signal sent to the whole process group (Ctrl-C in a terminal, a
control-group stop) interrupts the children too, and they exit without
answering.
"""
from __future__ import annotations

import json
import shutil
import signal
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ForkingMixIn

from .analysis import AnalysisError, analyze_directory, fetch_repository
from .output import dfd_to_obj, traceability_to_obj

# A request carries only a path, or a repository URL and ref.
MAX_BODY_BYTES = 1024 * 1024

# The JSON type of each request field; null counts as absent.
_FIELD_TYPES = {"path": str, "repo_url": str, "ref": str, "paper_parity": bool}


class _Handler(BaseHTTPRequestHandler):
    verbose = False
    # seconds one socket read or write may wait; the analysis is not limited
    timeout = 60

    def _send(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
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


class _ForkingHTTPServer(ForkingMixIn, HTTPServer):
    """An HTTP server answering each connection in a forked child.

    server_close waits for the children still running (block_on_close)."""


def make_server(host: str = "127.0.0.1", port: int = 0, verbose: bool = False):
    handler = type("Handler", (_Handler,), {"verbose": verbose})
    return _ForkingHTTPServer((host, port), handler)


def serve(host: str, port: int, verbose: bool = False) -> None:
    server = make_server(host, port, verbose=verbose)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print("dfdscan service on http://%s:%d (POST /analyze)" % server.server_address[:2], flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
