"""Tests for the embedded HTTP analysis service."""
import json
import threading
import urllib.error
import urllib.request

import pytest

from dfdscan.service import make_server


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


def test_analyze_rejects_malformed_json(server_url):
    status, body = post(server_url + "/analyze", b"{not json", raw=True)
    assert status == 400
    assert "bad request" in body["error"]


def test_analyze_rejects_non_object_body(server_url):
    status, body = post(server_url + "/analyze", [1, 2, 3])
    assert status == 400
    assert "bad request" in body["error"]


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
