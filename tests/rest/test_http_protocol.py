"""The HTTP binding's wire protocol, spoken over raw sockets.

Pipelined requests, HTTP/1.0 keep-alive, the header limits, methods the
server does not serve, ``Expect: 100-continue``, malformed request lines
and a handler that raises: each is answered with a status line and a
JSON body, and the connection lives or ends as HTTP says it should.  The
last two classes count the socket calls a kept-alive ``POST /schedule``
costs the server, and drive one connection's receive loop over scripted
chunks to pin where an unended head is refused.
"""

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

import repro.rest.http_binding as http_binding
from repro.netlab.figure1 import build_figure1_scenario
from repro.rest.api import RestResponse, build_rest_api
from repro.rest.http_binding import RestHttpServer

BODY = json.dumps(
    {"oldpath": [1, 2, 3, 4, 5, 6], "newpath": [1, 5, 4, 3, 2, 6],
     "scheduler": "greedy-slf"}
).encode()


def _post(body: bytes = BODY, version: bytes = b"HTTP/1.1", extra: bytes = b"") -> bytes:
    return (
        b"POST /schedule " + version + b"\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n" + extra
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )


class _Replies:
    """Reads replies off a raw socket one at a time."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def _fill(self) -> bool:
        try:
            chunk = self.sock.recv(65536)
        except ConnectionResetError:  # the server hung up on unread bytes
            chunk = b""
        self.buffer += chunk
        return bool(chunk)

    def next(self) -> tuple[bytes, dict[str, str], bytes]:
        """(status line, headers, body) of the next reply."""
        while b"\r\n\r\n" not in self.buffer:
            assert self._fill(), f"closed mid-reply: {self.buffer[:200]!r}"
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            assert self._fill(), "closed mid-body"
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status.encode("latin-1"), headers, body

    def closed(self) -> bool:
        """True once the server has closed its end (nothing more comes)."""
        return not self.buffer and not self._fill()


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


@pytest.fixture(scope="module")
def server(api):
    server = RestHttpServer(api, port=0)
    server.start()
    yield server
    server.stop()


def _connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=10)


def _assert_schedule_ok(reply) -> None:
    status, headers, body = reply
    assert status == b"HTTP/1.1 200 OK" and headers["date"].endswith(" GMT")
    assert json.loads(body)["status"] == "ok"


class TestConnections:
    def test_two_requests_in_one_segment_are_answered_in_order(self, server):
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            sock.sendall(_post() + b"GET /schedulers HTTP/1.1\r\nHost: x\r\n\r\n")
            _assert_schedule_ok(replies.next())
            status, headers, body = replies.next()
            assert status == b"HTTP/1.1 200 OK" and "connection" not in headers
            assert "greedy-slf" in {entry["name"] for entry in json.loads(body)}
            sock.sendall(_post())  # and the connection still serves
            _assert_schedule_ok(replies.next())

    def test_http10_keep_alive_stays_open(self, server):
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            for _ in range(2):
                sock.sendall(_post(version=b"HTTP/1.0", extra=b"Connection: keep-alive\r\n"))
                reply = replies.next()
                _assert_schedule_ok(reply)
                assert reply[1].get("connection") != "close"

    def test_bare_http10_is_closed(self, server):
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            sock.sendall(_post(version=b"HTTP/1.0"))
            reply = replies.next()
            _assert_schedule_ok(reply)
            assert reply[1]["connection"] == "close" and replies.closed()

    @pytest.mark.parametrize(
        "extra",
        [b"X-Big: " + b"a" * 65_600 + b"\r\n",
         b"".join(b"X-H%d: 1\r\n" % index for index in range(101))],
        ids=["line-over-65536-bytes", "101-headers"],
    )
    @pytest.mark.parametrize("ended", [True, False], ids=["ended", "unended"])
    def test_header_limits_are_431_and_closed(self, server, extra, ended):
        # an unended head is refused as soon as it breaks a limit, not
        # buffered while it waits for its blank line
        request = _post(extra=extra) if ended else b"POST /x HTTP/1.1\r\n" + extra
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            sock.sendall(request)
            status, headers, _ = replies.next()
            assert status.startswith(b"HTTP/1.1 431 ")
            assert headers["connection"] == "close" and replies.closed()

    def test_put_is_501_and_closed(self, server):
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            sock.sendall(b"PUT /schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            status, headers, _ = replies.next()
            assert status.startswith(b"HTTP/1.1 501 ")
            assert headers["connection"] == "close" and replies.closed()


    def test_a_reply_after_stop_says_close(self):
        entered, release = threading.Event(), threading.Event()

        class Slow:
            def handle(self, method, path, body):
                entered.set()
                assert release.wait(10)
                return RestResponse(status=200, body={"path": path})

        server = RestHttpServer(Slow(), port=0)
        server.start()
        stopper = threading.Thread(target=server.stop)
        try:
            with _connect(server.port) as sock:
                sock.sendall(b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n")
                assert entered.wait(10)
                stopper.start()  # the request is now in flight
                deadline = time.monotonic() + 10
                while not server.server.stopping and time.monotonic() < deadline:
                    time.sleep(0.001)
                release.set()
                replies = _Replies(sock)
                status, headers, _ = replies.next()
                assert status == b"HTTP/1.1 200 OK"
                assert headers["connection"] == "close" and replies.closed()
            stopper.join(timeout=10)
            assert not stopper.is_alive()
        finally:
            release.set()
            server.stop()


class TestExpectContinue:
    def test_100_arrives_before_the_body_is_sent(self, server):
        head, body = _post(extra=b"Expect: 100-continue\r\n").split(b"\r\n\r\n", 1)
        with _connect(server.port) as sock:
            sock.settimeout(2)  # a buffered 100 would not arrive in time
            sock.sendall(head + b"\r\n\r\n")
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(10)
            sock.sendall(body)
            _assert_schedule_ok(_Replies(sock).next())


class TestEveryReplyIsJson:
    @pytest.mark.parametrize(
        "request_line", [b"GARBAGE", b"GET /x HTTP/2.0", b"GET /x", b"GET /x HTTP/1.1 extra"]
    )
    def test_malformed_request_line_is_400_and_closed(self, server, request_line):
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            sock.sendall(request_line + b"\r\nHost: x\r\n\r\n")
            status, headers, body = replies.next()
            assert status == b"HTTP/1.1 400 Bad Request"
            assert headers["content-type"] == "application/json"
            assert "error" in json.loads(body)
            assert headers["connection"] == "close" and replies.closed()

    def test_body_that_is_not_utf8_is_400_and_the_connection_lives(self, server):
        with _connect(server.port) as sock:
            replies = _Replies(sock)
            sock.sendall(_post(body=b"\xff\xfe\xfa"))
            status, headers, body = replies.next()
            assert status == b"HTTP/1.1 400 Bad Request" and "connection" not in headers
            assert json.loads(body) == {"error": "request body is not JSON"}
            sock.sendall(_post())
            _assert_schedule_ok(replies.next())

    def test_501_body_is_json(self, server):
        with _connect(server.port) as sock:
            sock.sendall(b"DELETE /schedule HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, body = _Replies(sock).next()
            assert status.startswith(b"HTTP/1.1 501 ")
            assert json.loads(body) == {"error": "unsupported method DELETE"}

    def test_an_escaping_exception_is_500_and_closed(self, capfd):
        class Broken:
            def handle(self, method, path, body):
                if path == "/boom":
                    raise KeyError("library bug")
                return RestResponse(status=200, body={"path": path})

        server = RestHttpServer(Broken(), port=0)
        server.start()
        try:
            with _connect(server.port) as sock:
                replies = _Replies(sock)
                sock.sendall(b"GET //ok HTTP/1.1\r\nHost: x\r\n\r\n")
                assert json.loads(replies.next()[2]) == {"path": "/ok"}
                sock.sendall(b"GET /boom HTTP/1.1\r\nHost: x\r\n\r\n")
                status, headers, body = replies.next()
                assert status == b"HTTP/1.1 500 Internal Server Error"
                assert json.loads(body) == {"error": "internal error: KeyError"}
                assert headers["connection"] == "close" and replies.closed()
        finally:
            server.stop()
        assert "KeyError: 'library bug'" in capfd.readouterr().err


class _CountingSocket:
    """An accepted socket that counts the server's receives and sends."""

    def __init__(self, sock: socket.socket, counts: dict[str, int]) -> None:
        self._sock = sock
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv(self, *args):
        self._counts["recv"] += 1
        return self._sock.recv(*args)

    def recv_into(self, *args):
        self._counts["recv"] += 1
        return self._sock.recv_into(*args)

    def send(self, *args):
        self._counts["send"] += 1
        return self._sock.send(*args)

    def sendall(self, *args):
        self._counts["send"] += 1
        return self._sock.sendall(*args)


class TestWorkCount:
    def test_kept_alive_schedule_costs_one_send_and_at_most_two_receives(
        self, api, monkeypatch
    ):
        counts = {"recv": 0, "send": 0}
        get_request = http_binding._Server.get_request

        def counting_get_request(self):
            sock, address = get_request(self)
            return _CountingSocket(sock, counts), address

        monkeypatch.setattr(http_binding._Server, "get_request", counting_get_request)
        server = RestHttpServer(api, port=0)
        server.start()
        try:
            with _connect(server.port) as sock:
                replies = _Replies(sock)
                requests = 20
                for _ in range(requests):
                    sock.sendall(_post())  # one segment per request
                    _assert_schedule_ok(replies.next())
                assert counts["send"] == requests
                # each request is read by one receive; the receive that
                # waits for the next request is the one more
                assert counts["recv"] <= requests + 1
        finally:
            server.stop()


class _ScriptedSocket:
    """Hands ``recv`` one scripted chunk a call (then ``b""``, the peer
    hanging up) and keeps what the server sends."""

    def __init__(self, *chunks: bytes) -> None:
        self.chunks = list(chunks)
        self.sent = b""

    def recv(self, size: int) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""

    def sendall(self, data: bytes) -> None:
        self.sent += data


class _PathEcho:
    def handle(self, method, path, body):
        return RestResponse(status=200, body={"path": path})


def _serve_one(*chunks: bytes) -> _ScriptedSocket:
    """One ``_Connection._serve_one`` over ``chunks``, with no thread or
    listening socket."""
    sock = _ScriptedSocket(*chunks)
    connection = object.__new__(http_binding._Connection)
    connection.request, connection.buffer = sock, bytearray()
    connection.server = SimpleNamespace(
        token=None, stopping=False, lock=threading.Lock(), api=_PathEcho()
    )
    connection._serve_one()
    return sock


def _head(headers: int) -> bytes:
    return b"GET /x HTTP/1.1\r\n" + b"".join(
        b"X-H%d: 1\r\n" % index for index in range(headers)
    )


class TestUnendedHeadLimit:
    """An unended head is refused as soon as it holds more header lines
    than :data:`MAX_HEADERS`, and not one line earlier."""

    def test_a_head_at_the_limit_waits_for_its_blank_line(self):
        sock = _serve_one(_head(http_binding.MAX_HEADERS), b"\r\n")
        assert sock.sent.startswith(b"HTTP/1.1 200 ")
        assert b'{"path": "/x"}' in sock.sent and not sock.chunks

    def test_one_header_more_is_a_431_before_the_blank_line(self):
        sock = _serve_one(_head(http_binding.MAX_HEADERS + 1), b"\r\n")
        assert sock.sent.startswith(b"HTTP/1.1 431 ")
        assert sock.chunks == [b"\r\n"]  # never read
