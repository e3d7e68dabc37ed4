"""The HTTP binding's protocol: persistent HTTP/1.1 connections.

A client that keeps its connection open pays for it once; HTTP/1.0 and
``Connection: close`` peers are answered and hung up on; a request that
is refused before its body was read cannot leave that body to be parsed
as the next request; idle connections are reaped and ``stop()`` ends the
rest.
"""

import http.client
import json
import socket
import threading
import time

import pytest

import repro.rest.api as rest_api
import repro.rest.http_binding as http_binding
from repro.core import deadline, packing
from repro.core.hardness import crossing_clash_instance, reversal_instance
from repro.core.oracle import SafetyOracle
from repro.core.problem import UpdateProblem
from repro.netlab.figure1 import build_figure1_scenario
from repro.rest.api import build_rest_api
from repro.rest.http_binding import AUTH_HEADER, RestHttpServer
from repro.topology.random_graphs import random_update_instance
from tests.core.test_time_limit import _PollClock

BODIES = [
    {"oldpath": [1, 2, 3, 4, 5, 6], "newpath": [1, 5, 4, 3, 2, 6],
     "scheduler": "greedy-slf"},
    {"oldpath": [1, 2, 3, 4, 5], "newpath": [1, 6, 3, 7, 5], "wp": 3,
     "scheduler": "combined:wpe+slf"},
    {"oldpath": [1, 2, 3, 4, 5, 6, 7], "newpath": [1, 4, 3, 2, 6, 5, 7],
     "scheduler": "peacock"},
]
JSON_HEADERS = {"Content-Type": "application/json"}


class CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


@pytest.fixture(scope="module")
def api(tmp_path_factory):
    scenario = build_figure1_scenario(algorithm="wayup", seed=0)
    scenario.prepare()
    return build_rest_api(
        scenario.ofctl_app,
        scenario.update_app,
        scenario.update_queue,
        flush=scenario.network.flush,
        campaign_root=str(tmp_path_factory.mktemp("campaigns")),
    )


def _serving(api, **options):
    server = RestHttpServer(api, port=0, **options)
    server.start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture(scope="module")
def server(api):
    yield from _serving(api)


@pytest.fixture(scope="module")
def tokened(api):
    yield from _serving(api, token="s3cret")


def _post(connection, body, headers=JSON_HEADERS):
    connection.request(
        "POST", "/schedule", body=json.dumps(body).encode(), headers=headers
    )
    reply = connection.getresponse()
    return reply, json.loads(reply.read())


def _timeless(body):
    return {key: value for key, value in body.items() if key != "wall_ms"}


class TestPersistentConnections:
    def test_fifty_requests_one_connect_same_bodies(self, api, server):
        connection = CountingConnection("127.0.0.1", server.port, timeout=10)
        for index in range(50):
            body = BODIES[index % len(BODIES)]
            reply, got = _post(connection, body)
            assert reply.status == 200 and not reply.will_close
            want = api.handle("POST", "/schedule", body).body
            assert _timeless(got) == _timeless(want)
            assert got["oracle"]  # every one of these touches an oracle
        assert connection.connects == 1
        connection.close()

    def test_connection_close_is_honoured(self, server):
        connection = CountingConnection("127.0.0.1", server.port, timeout=10)
        headers = {**JSON_HEADERS, "Connection": "close"}
        for _ in range(2):
            reply, got = _post(connection, BODIES[0], headers)
            assert reply.status == 200 and got["status"] == "ok"
            assert reply.will_close
        assert connection.connects == 2

    def test_http10_peer_is_answered_then_hung_up_on(self, server):
        payload = json.dumps(BODIES[0]).encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /schedule HTTP/1.0\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            reply = http.client.HTTPResponse(sock, method="POST")
            reply.begin()
            assert reply.status == 200 and reply.will_close
            assert json.loads(reply.read())["status"] == "ok"
            assert sock.recv(1) == b""  # the server closed its end

    def test_idle_connection_is_reaped(self, api, monkeypatch):
        monkeypatch.setattr(http_binding, "IDLE_TIMEOUT_S", 0.2)
        server = RestHttpServer(api, port=0)
        server.start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            reply, _ = _post(connection, BODIES[0])
            assert not reply.will_close
            (handler,) = server.server.handlers
            assert connection.sock.recv(1) == b""  # blocks until hung up on
            handler.join(timeout=5)
            assert not handler.is_alive() and not server.server.handlers
            connection.close()
        finally:
            server.stop()

    def test_stop_ends_open_connections(self, api):
        server = RestHttpServer(api, port=0)
        server.start()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        reply, _ = _post(connection, BODIES[0])
        assert not reply.will_close
        (handler,) = server.server.handlers
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 3
        assert not handler.is_alive() and not server.server.handlers
        with pytest.raises((http.client.HTTPException, OSError)):
            _post(connection, BODIES[0])
        connection.close()

    def test_no_reply_waits_for_a_delayed_ack(self, server):
        # headers and body in two small writes with Nagle on cost a
        # kept-alive client 40 ms on nearly every reply; the ten slowest
        # are left to the host's own hiccups
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        payload = json.dumps(BODIES[0]).encode()
        latencies = []
        for _ in range(200):
            started = time.perf_counter()
            connection.request("POST", "/schedule", body=payload, headers=JSON_HEADERS)
            connection.getresponse().read()
            latencies.append(time.perf_counter() - started)
        connection.close()
        assert sorted(latencies)[-10] < 0.020


class TestRefusalsCannotPoisonTheConnection:
    """Each refusal is sent over a raw socket with a second request glued
    on: the server must answer once and hang up, not parse the unread
    body (or what follows it) as a request."""

    FOLLOW_UP = b"GET /schedulers HTTP/1.1\r\nHost: x\r\n\r\n"

    @staticmethod
    def _exchange(port, request: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def _assert_one_reply(self, raw: bytes, status: int) -> None:
        assert raw.startswith(f"HTTP/1.1 {status} ".encode())
        assert raw.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in raw

    def test_401_with_a_body(self, tokened):
        body = b'{"oldpath": [1, 2], "newpath": [1, 2]}'
        raw = self._exchange(
            tokened.port,
            b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body + self.FOLLOW_UP,
        )
        self._assert_one_reply(raw, 401)

    def test_right_token_keeps_the_connection(self, tokened):
        connection = CountingConnection("127.0.0.1", tokened.port, timeout=10)
        for _ in range(3):
            reply, _ = _post(connection, BODIES[0], {**JSON_HEADERS, AUTH_HEADER: "s3cret"})
            assert reply.status == 200
        assert connection.connects == 1
        connection.close()

    @pytest.mark.parametrize("length", [b"banana", b"-5", b"1e3", b""])
    def test_bad_content_length_is_400(self, server, length):
        raw = self._exchange(
            server.port,
            b"POST /schedule HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + length + b"\r\n\r\n" + self.FOLLOW_UP,
        )
        self._assert_one_reply(raw, 400)

    def test_chunked_body_is_400(self, server):
        raw = self._exchange(
            server.port,
            b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
            + self.FOLLOW_UP,
        )
        self._assert_one_reply(raw, 400)

    def test_oversized_body_is_413_without_reading_it(self, server):
        raw = self._exchange(
            server.port,
            b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {http_binding.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            + self.FOLLOW_UP,
        )
        self._assert_one_reply(raw, 413)

    def test_non_json_body_is_400_and_the_connection_lives(self, server):
        connection = CountingConnection("127.0.0.1", server.port, timeout=10)
        connection.request("POST", "/schedule", body=b"{nope", headers=JSON_HEADERS)
        reply = connection.getresponse()
        reply.read()
        assert reply.status == 400 and not reply.will_close
        reply, got = _post(connection, BODIES[0])
        assert reply.status == 200 and got["status"] == "ok"
        assert connection.connects == 1
        connection.close()


def _schedule_body(problem, scheduler):
    body = {
        "oldpath": list(problem.old_path.nodes),
        "newpath": list(problem.new_path.nodes),
        "scheduler": scheduler,
        "verify": True,
    }
    if problem.waypoint is not None:
        body["wp"] = problem.waypoint
    return body


class TestRequestDeadline:
    """``POST /schedule`` is bounded on the handler thread that serves it:
    a body that would compute for seconds is answered 408 at the first
    poll past ``REQUEST_DEADLINE_S``, and the connection goes on serving."""

    @pytest.mark.parametrize(
        "scheduler, problem",
        [
            ("optimal:rlf", lambda: UpdateProblem(
                *random_update_instance(18, seed=3)[:2])),
            ("greedy-slf", lambda: reversal_instance(400)),
            ("peacock", lambda: reversal_instance(400)),
        ],
    )
    def test_hostile_body_is_408_and_the_connection_lives(
        self, api, server, monkeypatch, scheduler, problem
    ):
        """Under the ``deadline.time`` seam the clock is read only by polls
        (and once to arm the limit), so a clock that runs out after poll
        ``k`` stops the request at poll ``k + 1`` -- answered 408 by a
        handler thread, on a connection that serves on -- and at most
        ``_DEADLINE_POLL_EVERY`` packer probes run between two polls."""
        body = _schedule_body(problem(), scheduler)
        try_apply_watched = SafetyOracle.try_apply_watched

        def probe(*args, **kwargs):
            clock = deadline.time
            clock.since["probes"] += 1
            clock.most["probes"] = max(clock.most["probes"], clock.since["probes"])
            return try_apply_watched(*args, **kwargs)

        monkeypatch.setattr(SafetyOracle, "try_apply_watched", probe)
        counting = _PollClock(float("inf"))  # never runs out: counts the polls
        monkeypatch.setattr(deadline, "time", counting)
        assert api.handle("POST", "/schedule", body).status == 200
        polls = counting.reads
        assert polls > 2
        assert counting.most["probes"] <= packing._DEADLINE_POLL_EVERY

        serving_threads = []
        schedule_update = rest_api.schedule_update

        def spy(*args, **kwargs):
            serving_threads.append(threading.current_thread())
            return schedule_update(*args, **kwargs)

        monkeypatch.setattr(rest_api, "schedule_update", spy)
        connection = CountingConnection("127.0.0.1", server.port, timeout=30)
        connection.connect()
        for expires_after in (1, polls // 2, polls - 1):
            clock = _PollClock(expires_after)
            monkeypatch.setattr(deadline, "time", clock)
            reply, answer = _post(connection, body)
            assert reply.status == 408 and not reply.will_close
            assert answer == {"error": f"exceeded {rest_api.REQUEST_DEADLINE_S}s"}
            assert clock.reads == expires_after + 1
            assert clock.most["probes"] <= packing._DEADLINE_POLL_EVERY
        assert serving_threads and threading.main_thread() not in serving_threads
        reply, got = _post(connection, BODIES[0])
        assert reply.status == 200 and got["status"] == "ok"
        assert connection.connects == 1
        connection.close()

    def test_in_process_callers_are_bound_too(self, api, monkeypatch):
        # (the body computes for 0.03 s, too close to any real limit:
        # the fifth deadline poll reads a clock past it)
        monkeypatch.setattr(deadline, "time", _PollClock(4))
        monkeypatch.setattr(rest_api, "REQUEST_DEADLINE_S", 0.05)
        body = _schedule_body(crossing_clash_instance(24), "optimal:rlf")
        response = api.handle("POST", "/schedule", body)
        assert response.status == 408
        assert response.body == {"error": "exceeded 0.05s"}

    @pytest.mark.parametrize("path", ["/update", "/update/optimal:slf"])
    def test_update_is_bounded_too(self, api, server, monkeypatch, path):
        # ``POST /update`` computes its schedule on the handler thread,
        # holding the handler lock: the first deadline poll of that
        # computation reads a clock past the limit
        monkeypatch.setattr(rest_api, "REQUEST_DEADLINE_S", 0.05)
        body = {"oldpath": [1, 2, 9, 3, 4, 5, 12],
                "newpath": [1, 6, 2, 5, 3, 7, 8, 12], "wp": 3, "interval": 0}
        queue = api.update_queue
        before = len(queue.queue), len(queue.completed)
        connection = CountingConnection("127.0.0.1", server.port, timeout=10)
        with monkeypatch.context() as patch:
            patch.setattr(deadline, "time", _PollClock(0))
            connection.request(
                "POST", path, body=json.dumps(body).encode(), headers=JSON_HEADERS
            )
            reply = connection.getresponse()
            answer = json.loads(reply.read())
        assert reply.status == 408 and not reply.will_close
        assert answer == {"error": "exceeded 0.05s"}
        assert (len(queue.queue), len(queue.completed)) == before
        reply, got = _post(connection, BODIES[0])
        assert reply.status == 200 and got["status"] == "ok"
        assert connection.connects == 1
        connection.close()
