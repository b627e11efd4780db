"""Tests for the embedded HTTP analysis service."""
import contextlib
import json
import os
import re
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from dfdscan import search, service
from dfdscan.analysis import analyze_directory
from dfdscan.output import dfd_to_obj, traceability_to_obj
from dfdscan.service import MAX_BODY_BYTES, _Handler

SRC = str(Path(__file__).resolve().parent.parent / "src")


def read_line(stream, timeout):
    """The first line of a pipe, or b"" when none arrives within timeout."""
    with selectors.DefaultSelector() as sel:
        sel.register(stream, selectors.EVENT_READ)
        return stream.readline() if sel.select(timeout) else b""


@contextlib.contextmanager
def shipped_server(tmpdir, handler_timeout=None, idle_seconds=None, verbose=False):
    """Run ``dfdscan serve --port 0`` in its own session; yield (proc, base URL).

    The server forks its worker processes, and forking is safe only in a
    single-threaded process, so it runs apart from pytest.  Its temporary
    checkouts go to tmpdir.  handler_timeout and idle_seconds, when given,
    replace the handler's socket timeout and the workers' idle time before
    the server starts; verbose adds ``--verbose``, whose log goes to the
    process's standard output after the banner."""
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # the banner must be flushed by the server
    argv = ["serve", "--port", "0"] + ["--verbose"] * verbose
    patches = []
    if handler_timeout is not None:
        patches.append("service._Handler.timeout = %r" % handler_timeout)
    if idle_seconds is not None:
        patches.append("service.IDLE_SECONDS = %r" % idle_seconds)
    if not patches:
        cmd = [sys.executable, "-m", "dfdscan.cli", *argv]
    else:
        cmd = [
            sys.executable,
            "-c",
            "import sys; from dfdscan import cli, service; %s; "
            "sys.exit(cli.main(%r))" % ("; ".join(patches), argv),
        ]
    with subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,  # a start-up traceback shows in the banner assertion
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            banner = read_line(proc.stdout, 10).decode("utf-8")
            port = re.fullmatch(r"dfdscan service on http://127\.0\.0\.1:(\d+) \(POST /analyze\)\n", banner)
            assert port, banner
            yield proc, "http://127.0.0.1:%s" % port.group(1)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


@pytest.fixture(scope="module")
def server_tmp(tmp_path_factory):
    """The temporary directory of the shared server (TMPDIR of the process)."""
    return tmp_path_factory.mktemp("server_tmp")


@pytest.fixture(scope="module")
def server_url(server_tmp):
    with shipped_server(server_tmp) as (proc, url):
        yield url
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def post(url, body, raw=False):
    data = body if raw else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def test_health(server_url):
    status, body = get(server_url + "/health")
    assert status == 200
    assert body == {"status": "ok"}


def test_unknown_get_endpoint(server_url):
    status, body = get(server_url + "/nope")
    assert status == 404
    assert "unknown endpoint" in body["error"]


def test_unknown_post_endpoint(server_url):
    status, body = post(server_url + "/other", {"path": "x"})
    assert status == 404
    assert "unknown endpoint" in body["error"]


def test_analyze_local_path(server_url, miniapp_path):
    status, body = post(server_url + "/analyze", {"path": str(miniapp_path)})
    assert status == 200
    assert set(body) == {
        "dfd",
        "traceability",
        "commit",
        "elapsed_seconds",
        "warnings",
        "extractor_failures",
    }
    assert body["commit"] is None
    assert body["elapsed_seconds"] > 0
    assert body["extractor_failures"] == []
    names = [n["name"] for n in body["dfd"]["nodes"]]
    assert names == sorted(names)
    assert len(names) == 6
    assert "notification_service" in body["traceability"]


def test_analyze_response_is_compact(server_url, miniapp_path):
    data = json.dumps({"path": str(miniapp_path)}).encode("utf-8")
    req = urllib.request.Request(server_url + "/analyze", data=data, method="POST")
    with urllib.request.urlopen(req, timeout=60) as resp:
        raw = resp.read()
    assert b"\n" not in raw  # no indentation: the C encoder serves it
    assert json.loads(raw)["extractor_failures"] == []


def test_analyze_rejects_malformed_json(server_url):
    status, body = post(server_url + "/analyze", b"{not json", raw=True)
    assert status == 400
    assert "bad request" in body["error"]


def test_analyze_rejects_non_object_body(server_url):
    status, body = post(server_url + "/analyze", [1, 2, 3])
    assert status == 400
    assert "bad request" in body["error"]


def post_headers_only(url, length):
    """POST /analyze announcing a body of the given length but sending none.

    Returns the status and JSON body, or fails when no response arrives
    within the socket timeout."""
    host, port = url.rsplit("/", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % length
        )
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except socket.timeout:
            pytest.fail("no response within 5 s: %r" % data)
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def test_analyze_rejects_negative_content_length(server_url):
    status, body = post_headers_only(server_url, -1)
    assert status == 400
    assert "negative Content-Length" in body["error"]


def test_analyze_rejects_oversized_body_unread(server_url):
    status, body = post_headers_only(server_url, 1 << 40)
    assert status == 413
    assert body["error"] == "request body over %d bytes" % MAX_BODY_BYTES
    status, body = post_headers_only(server_url, MAX_BODY_BYTES + 1)
    assert status == 413


def test_analyze_accepts_a_body_at_the_bound(server_url, miniapp_path):
    payload = json.dumps({"path": str(miniapp_path)}).encode("utf-8")
    payload += b" " * (MAX_BODY_BYTES - len(payload))
    status, body = post(server_url + "/analyze", payload, raw=True)
    assert status == 200
    assert len(body["dfd"]["nodes"]) == 6


def test_analyze_requires_exactly_one_source(server_url, miniapp_path):
    status, body = post(server_url + "/analyze", {})
    assert status == 400
    assert "exactly one" in body["error"]
    status, body = post(
        server_url + "/analyze",
        {"path": str(miniapp_path), "repo_url": "https://example.org/x.git"},
    )
    assert status == 400
    assert "exactly one" in body["error"]


@pytest.mark.parametrize(
    "body",
    [
        {"path": 5},
        {"path": ["a"]},
        {"repo_url": 5},
        {"repo_url": "file:///x", "ref": 5},
        {"path": "/no/such/dir", "paper_parity": "no"},
        {"path": "/no/such/dir", "paper_parity": 1},
    ],
    ids=["path-int", "path-list", "repo-url-int", "ref-int", "parity-str", "parity-int"],
)
def test_analyze_refuses_mistyped_fields(server_url, body):
    status, resp = post(server_url + "/analyze", body)
    assert status == 400
    assert "must be a" in resp["error"]


def test_analyze_takes_a_boolean_paper_parity(server_url, miniapp_path):
    for parity in (True, False, None):
        status, body = post(server_url + "/analyze", {"path": str(miniapp_path), "paper_parity": parity})
        assert status == 200
        assert len(body["dfd"]["nodes"]) == 6


def test_analyze_missing_directory(server_url, tmp_path):
    status, body = post(server_url + "/analyze", {"path": str(tmp_path / "gone")})
    assert status == 400
    assert "not a directory" in body["error"]


def test_concurrent_requests_stay_isolated(server_url, miniapp_path, tmp_path):
    other = tmp_path / "tiny"
    (other / "solo").mkdir(parents=True)
    (other / "docker-compose.yml").write_text(
        "services:\n  solo:\n    build: ./solo\n", encoding="utf-8"
    )

    results = {}

    def call(key, path):
        results[key] = post(server_url + "/analyze", {"path": str(path)})

    threads = [
        threading.Thread(target=call, args=("mini", miniapp_path)),
        threading.Thread(target=call, args=("tiny", other)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    status, body = results["mini"]
    assert status == 200
    assert len(body["dfd"]["nodes"]) == 6
    status, body = results["tiny"]
    assert status == 200
    assert [n["name"] for n in body["dfd"]["nodes"]] == ["solo"]


@pytest.mark.parametrize("parity", [False, True])
def test_an_answer_equals_an_in_process_analysis(server_url, miniapp_path, parity):
    status, body = post(server_url + "/analyze", {"path": str(miniapp_path), "paper_parity": parity})
    assert status == 200
    result = analyze_directory(miniapp_path, raw=parity)
    assert body["dfd"] == dfd_to_obj(result.dfd)
    assert body["traceability"] == traceability_to_obj(result.dfd)
    assert body["warnings"] == result.report.warnings


def test_the_shipped_server_answers_concurrently_and_stops_on_sigterm(miniapp_path, tmp_path):
    with shipped_server(tmp_path) as (proc, url):
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(post(url + "/analyze", {"path": str(miniapp_path)})))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert [status for status, _ in results] == [200, 200]
        assert results[0][1]["dfd"] == results[1][1]["dfd"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no forked child outlived the server


@pytest.mark.parametrize("group", [False, True], ids=["parent", "process-group"])
def test_an_idle_connection_delays_sigterm_by_at_most_the_socket_timeout(tmp_path, group):
    assert _Handler.timeout is not None  # the shipped server bounds idle clients too
    with shipped_server(tmp_path, handler_timeout=2) as (proc, url):
        host, port = url.rsplit("/", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as idle:
            # the child is forked and waits for a request line that never comes
            assert get(url + "/health") == (200, {"status": "ok"})
            if group:
                os.killpg(proc.pid, signal.SIGTERM)
            else:
                proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=2 + 5) == 0
            assert idle.recv(1) == b""  # the child closed the connection unanswered
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def test_analyze_repo_url_removes_its_checkout(server_url, git_repo, tmp_path, server_tmp):
    status, body = post(server_url + "/analyze", {"repo_url": "file://%s" % git_repo})
    assert status == 200
    assert len(body["commit"]) == 40
    assert [n["name"] for n in body["dfd"]["nodes"]] == ["solo"]
    status, body = post(server_url + "/analyze", {"repo_url": "file://%s/gone.git" % tmp_path})
    assert status == 400
    assert "git clone failed" in body["error"]
    assert list(server_tmp.iterdir()) == []


@pytest.mark.parametrize("field", ["ref", "repo_url"])
def test_analyze_refuses_option_like_git_values(server_url, git_repo, tmp_path, server_tmp, field):
    marker = tmp_path / "ran"
    body = {"repo_url": "file://%s" % git_repo, "ref": "main"}
    body[field] = "--upload-pack=touch %s;git-upload-pack" % marker
    status, resp = post(server_url + "/analyze", body)
    assert status == 400
    assert "must not start with '-'" in resp["error"]
    assert not marker.exists()  # git never ran the injected command
    assert list(server_tmp.iterdir()) == []


def children(pid):
    """The process ids of the children of pid, exited ones not yet reaped included."""
    with open("/proc/%d/task/%d/children" % (pid, pid), encoding="ascii") as fh:
        return [int(c) for c in fh.read().split()]


def eventually(check, seconds=5):
    """Whether check() turns true within seconds."""
    deadline = time.monotonic() + seconds
    while not check():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def test_a_reused_worker_neither_leaks_nor_serves_stale_state(miniapp_path, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(miniapp_path, copy)
    client = copy / "notification-service/src/main/java/com/acme/notification/client/AccountServiceClient.java"
    source = client.read_text(encoding="utf-8")
    workers = set()
    with shipped_server(tmp_path) as (proc, url):
        for visit in range(8):
            tree = Path(miniapp_path)
            if visit % 2:
                target = ("account-service", "auth-service")[visit // 2 % 2]
                client.write_text(source.replace('"account-service"', '"%s"' % target), encoding="utf-8")
                tree = copy
            status, body = post(url + "/analyze", {"path": str(tree)})
            assert status == 200
            del body["elapsed_seconds"]
            result = analyze_directory(tree)
            assert body == {
                "dfd": dfd_to_obj(result.dfd),
                "traceability": traceability_to_obj(result.dfd),
                "commit": None,
                "warnings": result.report.warnings,
                "extractor_failures": [],
            }
            alive = children(proc.pid)
            assert 1 <= len(alive) <= 3
            workers.update(alive)
        assert len(workers) <= 3  # eight answers came from at most three processes
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0


def test_a_reused_worker_sees_rewrites_deletions_and_escaping_symlinks(miniapp_path, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(miniapp_path, copy)
    secret = tmp_path / "outside" / "Secret.java"
    secret.parent.mkdir()
    secret.write_text("@EnableZuulProxy\nclass Secret {}\n", encoding="utf-8")
    client = copy / "notification-service/src/main/java/com/acme/notification/client/AccountServiceClient.java"
    app = copy / "auth-service/src/main/java/com/acme/auth/AuthApplication.java"

    def rewrite_keeping_size_and_mtime():
        before = os.stat(client)
        client.write_text(client.read_text(encoding="utf-8").replace("@FeignClient(", "//eignClient("), encoding="utf-8")
        os.utime(client, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(client).st_size == before.st_size

    def swap_for_escaping_symlink():
        app.unlink()
        app.symlink_to(secret)

    changes = [
        rewrite_keeping_size_and_mtime,
        (copy / "auth-service/src/main/java/com/acme/auth/UserService.java").unlink,
        swap_for_escaping_symlink,
    ]
    bodies = []
    with shipped_server(tmp_path, verbose=True) as (proc, url):
        for change in [None, *changes]:
            if change is not None:
                change()
            search._memo.clear()  # the answer of a cold index
            result = analyze_directory(copy)
            expected = {
                "dfd": dfd_to_obj(result.dfd),
                "traceability": traceability_to_obj(result.dfd),
                "commit": None,
                "warnings": result.report.warnings,
                "extractor_failures": [],
            }
            assert expected not in bodies
            for _ in range(3):  # so that a worker that saw the last state answers
                status, body = post(url + "/analyze", {"path": str(copy)})
                assert status == 200
                del body["elapsed_seconds"]
                assert body == expected
            bodies.append(expected)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        log = proc.stdout.read().decode("utf-8")
    assert bodies[-1]["warnings"] == ["skipped auth-service/src/main/java/com/acme/auth/AuthApplication.java: symlink outside root"]
    counts = [tuple(map(int, m)) for m in re.findall(r"indexed (\d+) files, (\d+) reused", log)]
    assert [n for n, _ in counts] == [18] * 3 + [18] * 3 + [17] * 3 + [16] * 3
    # after each change, a worker that had indexed the tree before answered
    # from its memo at least once
    assert all(any(reused for _, reused in counts[i : i + 3]) for i in (3, 6, 9))


def hold_connections(stack, url, count):
    """Open count connections that send nothing; each holds a worker."""
    host, port = url.rsplit("/", 1)[1].split(":")
    return [stack.enter_context(socket.create_connection((host, int(port)), timeout=5)) for _ in range(count)]


def test_idle_connections_do_not_stall_the_server(tmp_path):
    with shipped_server(tmp_path) as (proc, url):
        with contextlib.ExitStack() as stack:
            hold_connections(stack, url, 3)
            assert get(url + "/health") == (200, {"status": "ok"})
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def test_killed_workers_are_replaced(miniapp_path, tmp_path):
    with shipped_server(tmp_path) as (proc, url):
        with contextlib.ExitStack() as stack:
            hold_connections(stack, url, 2)
            assert get(url + "/health") == (200, {"status": "ok"})
            killed = children(proc.pid)
            assert len(killed) >= 3
            for pid in killed:
                os.kill(pid, signal.SIGKILL)
        status, body = post(url + "/analyze", {"path": str(miniapp_path)})
        assert status == 200
        assert len(body["dfd"]["nodes"]) == 6
        assert eventually(lambda: not set(killed) & set(children(proc.pid)))  # all reaped


def test_surplus_workers_retire_after_a_burst(miniapp_path, tmp_path):
    with shipped_server(tmp_path, idle_seconds=0.5) as (proc, url):
        request = json.dumps({"path": str(miniapp_path)}).encode("utf-8")
        with contextlib.ExitStack() as stack:
            burst = hold_connections(stack, url, 3)
            for sock in burst:  # each worker waits for its body, so all three are busy at once
                sock.sendall(b"POST /analyze HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(request))
            assert eventually(lambda: len(children(proc.pid)) == 4)  # three busy and one spare
            for sock in burst:
                sock.sendall(request)
            for sock in burst:
                with sock.makefile("rb") as answer:
                    assert answer.readline().startswith(b"HTTP/1.0 200 ")
        assert eventually(lambda: len(children(proc.pid)) == 1)
        assert get(url + "/health") == (200, {"status": "ok"})


def test_sigterm_lets_a_busy_worker_answer(miniapp_path, tmp_path):
    request = json.dumps({"path": str(miniapp_path)}).encode("utf-8")
    with shipped_server(tmp_path) as (proc, url):
        with contextlib.ExitStack() as stack:
            (busy,) = hold_connections(stack, url, 1)
            busy.sendall(b"POST /analyze HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(request))
            assert get(url + "/health") == (200, {"status": "ok"})  # the busy worker has its connection
            proc.send_signal(signal.SIGTERM)
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=0.5)  # the server waits for the answer
            busy.sendall(request)
            with busy.makefile("rb") as answer:
                assert answer.readline().startswith(b"HTTP/1.0 200 ")
        assert proc.wait(timeout=10) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def test_one_connection_gets_one_answer(server_url):
    host, port = server_url.rsplit("/", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n" * 2)
        data = b""
        while chunk := sock.recv(65536):  # the server closes after its answer
            data += chunk
    assert data.count(b"HTTP/1.") == 1
    assert data.startswith(b"HTTP/1.0 200 ")
    assert json.loads(data.partition(b"\r\n\r\n")[2]) == {"status": "ok"}


def test_a_worker_takes_no_connection_after_a_500(monkeypatch, miniapp_path):
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(service, "analyze_directory", fail)
    payload = json.dumps({"path": str(miniapp_path)}).encode("utf-8")
    for request, status, more in (
        (b"GET /health HTTP/1.0\r\n\r\n", b"200", True),
        (b"POST /analyze HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload), b"500", False),
    ):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            ours.sendall(request)
            assert service._answer(_Handler, theirs, ("local", 0)) is more
            with ours.makefile("rb") as answer:
                assert answer.readline().split()[1] == status


def test_a_handler_that_raises_ends_the_worker_and_prints_its_traceback(capsys):
    def crash(conn, addr, server):
        raise RuntimeError("handler crashed")

    ours, theirs = socket.socketpair()
    with ours, theirs:
        assert service._answer(crash, theirs, ("local", 0)) is False
        assert ours.recv(1) == b""  # the connection is closed unanswered
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: handler crashed\n")


def test_a_tree_over_its_budget_is_a_bad_request(monkeypatch, miniapp_path):
    monkeypatch.setattr(search, "MAX_TREE_FILES", 17)
    payload = json.dumps({"path": str(miniapp_path)}).encode("utf-8")
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.sendall(b"POST /analyze HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload))
        assert service._answer(_Handler, theirs, ("local", 0)) is True
        with ours.makefile("rb") as answer:
            assert answer.readline().split()[1] == b"400"
            body = json.loads(answer.read().partition(b"\r\n\r\n")[2])
    assert body == {"error": "%s holds more than 17 files; not indexed" % Path(miniapp_path).resolve()}


def answer_on_a_socket_pair(request):
    """Send request whole and close the sending side, then answer it through
    service._answer; returns what _answer returned and the bytes written."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.sendall(request)
        ours.shutdown(socket.SHUT_WR)
        more = service._answer(_Handler, theirs, ("local", 0))
        with ours.makefile("rb") as answer:
            return more, answer.read()


def status_and_body(data):
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def test_an_answer_is_http_1_0_with_three_headers():
    more, data = answer_on_a_socket_pair(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
    assert more is True
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *headers = head.decode("ascii").split("\r\n")
    assert status_line == "HTTP/1.0 200 OK"
    fields = dict(h.split(": ", 1) for h in headers)
    assert fields.keys() == {"Content-Type", "Content-Length", "Date"}
    assert fields["Content-Type"] == "application/json"
    assert int(fields["Content-Length"]) == len(body)
    assert re.fullmatch(r"[A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT", fields["Date"])
    assert json.loads(body) == {"status": "ok"}


LONG = b"a" * (64 * 1024)


@pytest.mark.parametrize(
    "request_bytes,status,error",
    [
        (b'POST /analyze HTTP/1.0\r\ncontent-length: 11\r\n\r\n{"path": 5}', 400, "path must be a string"),
        (b"POST /analyze HTTP/1.0\r\n\r\n", 400, "provide exactly one of 'path' or 'repo_url'"),
        (b"POST /analyze HTTP/1.0\r\nContent-Length: 9\r\n\r\n{}", 400, "body ended after 2 of 9 bytes"),
        (b"POST /analyze HTTP/1.0\r\nContent-Length: twelve\r\n\r\n", 400, "Content-Length is not an integer"),
        (b"POST /analyze HTTP/1.0\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}", 400, "more than one"),
        (b"GET /" + LONG + b" HTTP/1.0\r\n\r\n", 414, "request line over 65536 bytes"),
        (b"GET /health HTTP/1.0\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", 431, "more than 100 header lines"),
        (b"GET /health HTTP/1.0\r\nX-A: " + LONG + b"\r\n\r\n", 431, "header line over 65536 bytes"),
        (b"GET /health HTTP/1.0\r\nno colon here\r\n\r\n", 400, "header line without a colon"),
        (b"GET /health\r\n\r\n", 400, "bad request line"),
        (b"GET /health HTTP/2.0\r\n\r\n", 400, "bad request line"),
        (b"PUT /analyze HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", 501, "unsupported method PUT"),
    ],
    ids=[
        "lower-case-length",  # the body was read: its field is checked
        "no-length",  # an empty body
        "short-body",
        "length-not-int",
        "two-lengths",
        "long-request-line",
        "101-headers",
        "long-header",
        "no-colon",
        "no-version",
        "http-2",
        "put",
    ],
)
def test_a_refused_request_gets_a_json_error(request_bytes, status, error):
    more, data = answer_on_a_socket_pair(request_bytes)
    assert more is True
    got, body = status_and_body(data)
    assert got == status
    assert set(body) == {"error"} and error in body["error"]


def test_the_reader_takes_100_header_lines_and_lines_at_the_bound():
    header = b"X-A: " + b"a" * (64 * 1024 - len(b"X-A: \r\n")) + b"\r\n"
    request = b"GET /health HTTP/1.0\r\n" + header + b"X-B: c\r\n" * 99 + b"\r\n"
    status, body = status_and_body(answer_on_a_socket_pair(request)[1])
    assert (status, body) == (200, {"status": "ok"})


@pytest.mark.parametrize(
    "request_bytes",
    [b"", b"GET /hea", b"POST /analyze HTTP/1.0\r\nContent-Length: 2\r\n", b"POST /analyze HTTP/1.0\r\nContent-Le"],
    ids=["nothing", "mid-request-line", "mid-headers", "mid-header-line"],
)
def test_a_client_that_closes_before_the_blank_line_gets_no_answer(request_bytes):
    assert answer_on_a_socket_pair(request_bytes) == (True, b"")


def test_the_service_loads_neither_ssl_nor_email():
    modules = ("ssl", "_ssl", "email", "http.client", "http.server")
    probe = (
        "import sys; modules = %r; had = any(m in sys.modules for m in modules); "
        "import dfdscan.cli, dfdscan.service, dfdscan.rules; dfdscan.rules.load_rules(); "
        "print(had, sorted(m for m in modules if m in sys.modules))" % (modules,)
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    if done.stdout.split()[0] == "True":
        pytest.skip("this interpreter's site imports one of %s" % ", ".join(modules))
    assert done.stdout == "False []\n"
