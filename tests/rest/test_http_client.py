"""Tests for the retrying HTTP client (transient vs permanent failures)."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.errors import HttpStatusError, TransportError
from repro.rest import http_binding
from repro.rest.http_binding import HttpClient


class _ScriptedServer:
    """Serves a scripted sequence of (status, body) responses."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def _respond(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b""
                outer.requests.append((self.command, self.path, raw))
                status, body = (
                    outer.script.pop(0) if outer.script else (200, {})
                )
                data = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST = _respond

            def log_message(self, fmt, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def scripted():
    servers = []

    def start(script):
        server = _ScriptedServer(script)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


class TestRetryPolicy:
    def test_5xx_retries_until_success(self, scripted, monkeypatch):
        monkeypatch.setattr(http_binding, "JITTER_SEED", 0)
        server = scripted([(503, {"error": "warming up"}),
                           (503, {"error": "still warming"}),
                           (200, {"ready": True})])
        sleeps = []
        client = HttpClient(server.url, sleep=sleeps.append)
        assert client.get("/status") == {"ready": True}
        assert len(sleeps) == 2 and client.retries == 2
        assert len(server.requests) == 3

    def test_backoff_grows_and_caps(self, scripted, monkeypatch):
        monkeypatch.setattr(http_binding, "MAX_ATTEMPTS", 5)
        monkeypatch.setattr(http_binding, "BACKOFF_BASE_S", 0.1)
        monkeypatch.setattr(http_binding, "BACKOFF_CAP_S", 0.25)
        monkeypatch.setattr(http_binding, "JITTER_SEED", 0)
        server = scripted([(503, {})] * 4 + [(200, {})])
        sleeps = []
        client = HttpClient(server.url, sleep=sleeps.append)
        client.get("/x")
        bases = [0.1, 0.2, 0.25, 0.25]  # doubling, then capped
        assert len(sleeps) == 4
        for slept, base in zip(sleeps, bases):
            assert base <= slept <= base * 1.5  # jitter adds at most 50%

    def test_4xx_fails_fast_without_retry(self, scripted):
        server = scripted([(404, {"error": "no such campaign"})])
        sleeps = []
        client = HttpClient(server.url, sleep=sleeps.append)
        with pytest.raises(HttpStatusError) as excinfo:
            client.get("/campaigns/nope")
        assert excinfo.value.status == 404
        assert "no such campaign" in str(excinfo.value)
        assert sleeps == [] and client.retries == 0
        assert len(server.requests) == 1

    def test_exhausted_retries_raise_transport_error(self, scripted, monkeypatch):
        monkeypatch.setattr(http_binding, "MAX_ATTEMPTS", 3)
        server = scripted([(500, {})] * 10)
        sleeps = []
        client = HttpClient(server.url, sleep=sleeps.append)
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.get("/flaky")
        assert len(sleeps) == 2 and client.retries == 2
        assert len(server.requests) == 3

    def test_connection_refused_is_transient(self, monkeypatch):
        monkeypatch.setattr(http_binding, "MAX_ATTEMPTS", 2)
        # allocate a port and close it so nothing is listening
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        client = HttpClient(f"http://127.0.0.1:{port}", sleep=sleeps.append)
        with pytest.raises(TransportError):
            client.get("/anything")
        assert len(sleeps) == 1

    def test_post_sends_json_body(self, scripted):
        server = scripted([(200, {"ok": True})])
        client = HttpClient(server.url, sleep=lambda s: None)
        assert client.post("/things", {"a": 1}) == {"ok": True}
        method, path, raw = server.requests[0]
        assert (method, path) == ("POST", "/things")
        assert json.loads(raw) == {"a": 1}


class TestConnectionReuse:
    """One kept-alive connection per calling thread, against the real
    binding (the scripted server above speaks HTTP/1.0)."""

    @pytest.fixture
    def connects(self, monkeypatch):
        """Thread idents, one per ``HTTPConnection.connect`` made."""
        import http.client

        made = []
        real = http.client.HTTPConnection.connect

        def counting(connection):
            made.append(threading.get_ident())
            real(connection)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
        return made

    @pytest.fixture
    def api(self, tmp_path):
        from repro.rest.api import build_campaign_api

        api = build_campaign_api(campaign_root=str(tmp_path))
        yield api
        api.campaigns.close()

    def test_many_rpcs_one_connect(self, api, connects):
        from repro.rest.http_binding import RestHttpServer

        server = RestHttpServer(api, port=0)
        server.start()
        try:
            client = HttpClient(server.url, sleep=lambda s: None)
            for _ in range(25):
                assert client.get("/campaigns") == []
                with pytest.raises(HttpStatusError):  # a 4xx keeps it open too
                    client.get("/campaigns/nope")
            assert len(connects) == 1
        finally:
            server.stop()

    def test_server_restart_costs_exactly_one_retry(
        self, api, connects, monkeypatch
    ):
        from repro.rest.http_binding import RestHttpServer

        monkeypatch.setattr(http_binding, "JITTER_SEED", 0)
        first = RestHttpServer(api, port=0)
        first.start()
        sleeps = []
        client = HttpClient(first.url, sleep=sleeps.append)
        assert client.get("/campaigns") == []
        first.stop()
        second = RestHttpServer(api, port=first.port)
        second.start()
        try:
            assert client.retries == 0
            assert client.get("/campaigns") == []  # no error surfaces
            assert len(sleeps) == 1
            assert client.retries == 1
            assert client.get("/campaigns") == []
            assert len(sleeps) == 1 and len(connects) == 2
        finally:
            second.stop()

    def test_two_threads_two_connections(self, api, connects):
        from repro.rest.http_binding import RestHttpServer

        server = RestHttpServer(api, port=0)
        server.start()
        try:
            client = HttpClient(server.url, sleep=lambda s: None)
            barrier = threading.Barrier(2)
            errors = []

            def caller():
                try:
                    for _ in range(10):
                        barrier.wait(timeout=10)
                        assert client.get("/campaigns") == []
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=caller) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert not errors
            assert len(connects) == 2 and len(set(connects)) == 2
        finally:
            server.stop()
