"""Tests for the embedded HTTP analysis service."""
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from dfdscan.service import MAX_BODY_BYTES, make_server


@pytest.fixture(scope="module")
def server_url():
    server = make_server("127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield "http://%s:%d" % (host, port)
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


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


def test_analyze_repo_url_removes_its_checkout(server_url, git_repo, tmp_path, temp_root):
    status, body = post(server_url + "/analyze", {"repo_url": "file://%s" % git_repo})
    assert status == 200
    assert len(body["commit"]) == 40
    assert [n["name"] for n in body["dfd"]["nodes"]] == ["solo"]
    status, body = post(server_url + "/analyze", {"repo_url": "file://%s/gone.git" % tmp_path})
    assert status == 400
    assert "git clone failed" in body["error"]
    assert list(temp_root.iterdir()) == []


@pytest.mark.parametrize("field", ["ref", "repo_url"])
def test_analyze_refuses_option_like_git_values(server_url, git_repo, tmp_path, temp_root, field):
    marker = tmp_path / "ran"
    body = {"repo_url": "file://%s" % git_repo, "ref": "main"}
    body[field] = "--upload-pack=touch %s;git-upload-pack" % marker
    status, resp = post(server_url + "/analyze", body)
    assert status == 400
    assert "must not start with '-'" in resp["error"]
    assert not marker.exists()  # git never ran the injected command
    assert list(temp_root.iterdir()) == []
