"""HTTP bindings: serve a router over localhost, and a retrying client.

The server side is how the original demo is driven (curl against the Ryu
WSGI app): :class:`RestHttpServer` binds 127.0.0.1 by default with only
the standard library and runs requests against the in-process router.
It also fronts the campaign fabric coordinator (``repro campaign
serve``).  Binding beyond localhost (``host="0.0.0.0"`` for
multi-machine fleets) requires a shared-secret ``token``: every request
must then carry it in the ``X-Repro-Auth`` header or is refused with a
401 before reaching the router.

A connection is served by one thread in one loop over the raw socket:
buffer up to the blank line, split request line and headers, take exactly
``Content-Length`` body bytes (any beyond wait for the next, pipelined
request), dispatch, and send head and body in one ``sendall`` (no reply
buffer; ``TCP_NODELAY``).  HTTP/1.1 and ``keep-alive`` HTTP/1.0
connections persist; ``Connection: close`` and bare HTTP/1.0 peers are
answered, then hung up on.  Replies carry JSON: 400 for a bad request
line, 414 / 431 past :data:`MAX_LINE_BYTES` or :data:`MAX_HEADERS`, 501
for methods but GET and POST, 500 (traceback to stderr) for an exception
out of the router.  ``Expect: 100-continue`` gets its 100 before the
body is read.  A request refused unread (those, 401, a bad or oversized
``Content-Length``) closes the connection, lest its body pass for the
next request.  Idle connections go after :data:`IDLE_TIMEOUT_S`;
:meth:`RestHttpServer.stop` ends the rest.  (``POST /schedule``'s
compute limit, 408, is :data:`repro.rest.api.REQUEST_DEADLINE_S`.)

The client side, :class:`HttpClient`, is what fabric workers (and any
other library-internal caller) use to talk to a server, over one
persistent connection per calling thread: connection errors
and 5xx responses get bounded exponential backoff with jitter -- the
server may be restarting, the network blipping -- while 4xx responses
(including an auth mismatch's 401) fail fast with
:class:`~repro.errors.HttpStatusError`, because a malformed request will
not get better by retrying.
"""

from __future__ import annotations

import email.utils
import functools
import http.client
import json
import random
import socket
import socketserver
import threading
import time
import traceback
import urllib.parse
from http import HTTPStatus

from repro.errors import HttpStatusError, TransportError, backoff
from repro.obs import trace as obs
from repro.rest.api import RestApi

#: Headers carrying the trace context across the HTTP boundary.
TRACE_HEADER = "X-Repro-Trace"
SPAN_HEADER = "X-Repro-Span"
#: Shared-secret header checked when the server was given a token.
AUTH_HEADER = "X-Repro-Auth"

#: Seconds a connection may sit without a byte arriving (between requests
#: or inside one) before the server drops it.  Fabric workers heartbeat
#: every 2 s, so theirs stay open.
IDLE_TIMEOUT_S = 30.0
#: Largest request body accepted (413 above).  A fabric submit carries one
#: cell's record, a few KiB.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Longest request or header line, CRLF included, and most header lines
#: one request may carry (414 / 431 above).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
#: :class:`HttpClient`'s tries per request, and the backoff between them
#: (``None``: jitter from an unseeded RNG).
MAX_ATTEMPTS = 5
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
JITTER_SEED = None

_REASONS = {status.value: status.phrase for status in HTTPStatus}


@functools.lru_cache(maxsize=1)  # formatted once a second
def _http_date(second: int) -> str:
    return email.utils.formatdate(second, usegmt=True)


class _Connection(socketserver.BaseRequestHandler):
    """Serves one connection, a request at a time, until it is to end."""

    def handle(self) -> None:
        self.request.settimeout(IDLE_TIMEOUT_S)
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        try:
            while self._serve_one():
                pass
        except OSError:  # idle too long, a body that never came, peer gone
            pass

    def _receive(self) -> bool:
        chunk = self.request.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def _serve_one(self) -> bool:
        """Answer one request; False once the connection is to end."""
        buffer, server = self.buffer, self.server
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            if buffer.count(b"\n") > MAX_HEADERS + 1 or (
                    len(buffer) >= MAX_LINE_BYTES
                    and max(map(len, buffer.split(b"\n"))) >= MAX_LINE_BYTES):
                end = len(buffer)  # past a limit already: refused below
                break
            if not self._receive():
                return False
        lines = buffer[:end].decode("latin-1").split("\r\n")
        del buffer[: end + 4]
        if len(lines) > MAX_HEADERS + 1 or max(map(len, lines)) > MAX_LINE_BYTES - 2:
            status = 414 if len(lines[0]) > MAX_LINE_BYTES - 2 else 431
            return self._refuse(status, "line too long or too many headers")
        words = lines[0].split()
        if len(words) != 3 or words[2][:7] != "HTTP/1." or not words[2][7:].isdigit():
            return self._refuse(400, f"bad request line {lines[0][:100]!r}")
        method, path, version = words
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers.setdefault(name.lower(), value.strip())  # first one wins
        connection = headers.get("connection", "").lower()
        keep = connection == "keep-alive" or (
            connection != "close" and version != "HTTP/1.0")
        if method not in ("GET", "POST"):
            return self._refuse(501, f"unsupported method {method}")
        if server.token is not None and headers.get(AUTH_HEADER.lower()) != server.token:
            # 401 is a 4xx: clients fast-fail instead of retrying --
            # a wrong secret will not get better with backoff
            return self._refuse(401, "missing or bad X-Repro-Auth")
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            length = -1
        if length < 0 or headers.get("transfer-encoding"):
            return self._refuse(400, "a body needs a non-negative Content-Length")
        if length > MAX_BODY_BYTES:
            return self._refuse(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if (length > len(buffer) and version != "HTTP/1.0"
                and headers.get("expect", "").lower() == "100-continue"):
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        while len(buffer) < length:
            if not self._receive():
                return False  # the body never arrived
        raw = buffer[:length]
        del buffer[:length]
        try:
            body = json.loads(raw) if raw else None
        except ValueError:  # not JSON, or not UTF-8
            return self._send(400, {"error": "request body is not JSON"}, keep)
        # adopt the caller's trace context: the handler's spans (e.g. the
        # coordinator's fabric.submit) join the worker's trace of the cell
        trace_id = headers.get(TRACE_HEADER.lower())
        ctx_token = obs.attach_context(
            {"trace": trace_id, "parent": headers.get(SPAN_HEADER.lower())}
            if trace_id else None
        )
        try:
            with server.lock:
                response = server.api.handle(method, path, body)
        except Exception as exc:  # a library bug: say so, then hang up
            traceback.print_exc()
            return self._refuse(500, f"internal error: {type(exc).__name__}")
        finally:
            obs.detach_context(ctx_token)
        return self._send(response.status, response.body, keep, response.content_type)

    def _refuse(self, status: int, message: str) -> bool:
        """Answer without reading (or trusting) the rest, then hang up."""
        return self._send(status, {"error": message}, False)

    def _send(
        self, status: int, payload, keep: bool, content_type: str | None = None
    ) -> bool:
        """Head and body in one ``sendall``; True if the connection stays."""
        if isinstance(payload, str) and content_type:
            data = payload.encode("utf-8")
        else:
            content_type = "application/json"
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        keep = keep and not self.server.stopping
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(data)}\r\n"
        ) + ("\r\n" if keep else "Connection: close\r\n\r\n")
        self.request.sendall(head.encode("latin-1") + data)
        return keep


class _Server(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """Knows its handler threads and their sockets, so they can be ended."""

    allow_reuse_address = True

    def __init__(self, address, api: RestApi, token: str | None) -> None:
        super().__init__(address, _Connection)
        self.api, self.token = api, token
        # one simulated network is not thread-safe; serialize requests
        self.lock = threading.Lock()
        self.handlers: dict[threading.Thread, socket.socket] = {}
        #: set by ``RestHttpServer.stop``: every reply is now the last one
        #: on its connection
        self.stopping = False

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        # registered by the accepting thread, so that nothing accepted
        # before shutdown() returned is missing when stop() looks
        self.handlers[thread] = request
        thread.start()

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            del self.handlers[threading.current_thread()]


class RestHttpServer:
    """An HTTP front-end for one RestApi (localhost by default).

    ``host`` widens the bind for multi-machine fleets; anything beyond
    loopback demands a shared-secret ``token`` so a campaign coordinator
    is never exposed unauthenticated.  ``allow_reuse_address`` is on, so
    a restarted coordinator can re-bind its old port while TIME_WAIT
    sockets linger -- crash recovery depends on it.
    """

    def __init__(
        self,
        api: RestApi,
        port: int = 8080,
        *,
        host: str = "127.0.0.1",
        token: str | None = None,
    ) -> None:
        if token is None and host not in ("127.0.0.1", "localhost", "::1"):
            raise ValueError(
                f"refusing to bind {host!r} without a --token shared secret"
            )
        self.api = api
        self.host = host
        self.server = _Server((host, port), api, token)
        self.port = self.server.server_address[1]
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Serve in a daemon thread; returns immediately."""
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, end the open connections, join their threads.

        Only the read side of a connection is shut down: a handler waiting
        for the next request sees end-of-file and returns, one in the
        middle of a request gets its reply out first and then hangs up.
        """
        # first, or a busy kept-alive connection is served for as long as
        # shutdown() waits for the accept loop to look up (0.5 s)
        self.server.stopping = True
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        for thread, connection in list(self.server.handlers.items()):
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the handler closed it in the meantime
            thread.join(timeout=5)

    @property
    def url(self) -> str:
        # 0.0.0.0 is a bind address, not a destination; loopback reaches
        # the server from this host either way
        host = "127.0.0.1" if self.host in ("0.0.0.0", "::") else self.host
        return f"http://{host}:{self.port}"


class HttpClient:
    """JSON-over-HTTP client with bounded retry for transient failures.

    ``request`` returns the decoded JSON body on any 2xx.  Connection
    errors, timeouts, and 5xx answers are tried :data:`MAX_ATTEMPTS`
    times in all, waiting :func:`~repro.errors.backoff` between tries
    (:data:`BACKOFF_BASE_S` doubling to :data:`BACKOFF_CAP_S`, jitter from
    an RNG seeded :data:`JITTER_SEED`), then raise
    :class:`~repro.errors.TransportError`.  4xx answers raise
    :class:`~repro.errors.HttpStatusError` immediately -- the request is
    wrong, not the weather.  ``retries`` counts the attempts this client
    made again after a transient failure; it lives on the client because
    clients run in worker processes, which serve no ``/metrics``.

    Each calling thread keeps one connection open across requests (a
    fabric worker's heartbeat thread shares the client with its main
    loop; neither waits for the other's I/O).  A kept connection the
    server has dropped in the meantime -- restart, idle timeout -- fails
    the next request on it; that closes it and is one attempt like any
    other transport failure, and the retry connects afresh.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 10.0,
        token: str | None = None,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.token = token
        self._rng = random.Random(JITTER_SEED)
        self._sleep = sleep
        self._parts = urllib.parse.urlsplit(self.base_url)
        self._connections = threading.local()
        self.retries = 0
        self._retries_lock = threading.Lock()

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body=None):
        return self.request("POST", path, body)

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it connects on first use and
        again after every ``close()``)."""
        connection = getattr(self._connections, "connection", None)
        if connection is None:
            factory = (
                http.client.HTTPSConnection
                if self._parts.scheme == "https"
                else http.client.HTTPConnection
            )
            connection = factory(self._parts.netloc, timeout=self.timeout_s)
            self._connections.connection = connection
        return connection

    def request(self, method: str, path: str, body=None):
        url = self.base_url + path
        target = self._parts.path + path
        data = None
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers[AUTH_HEADER] = self.token
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        context = obs.current_context()
        if context is not None:
            headers[TRACE_HEADER] = context["trace"]
            if context.get("parent"):
                headers[SPAN_HEADER] = context["parent"]
        connection = self._connection()
        last_error: str = ""
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                connection.request(
                    method.upper(), target, body=data, headers=headers
                )
                reply = connection.getresponse()
                payload = self._decode(reply.read())
            except (http.client.HTTPException, OSError) as exc:
                # refused, reset, timed out, or a kept connection the
                # server dropped: start the next attempt from a new one
                connection.close()
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                if 200 <= reply.status < 300:
                    return payload
                if 400 <= reply.status < 500:
                    detail = ""
                    if isinstance(payload, dict) and payload.get("error"):
                        detail = f": {payload['error']}"
                    raise HttpStatusError(
                        f"{method} {url} -> {reply.status}{detail}",
                        status=reply.status,
                        body=payload,
                    )
                last_error = f"HTTP {reply.status}"
            if attempt < MAX_ATTEMPTS:
                with self._retries_lock:
                    self.retries += 1
                self._sleep(backoff(attempt - 1, BACKOFF_BASE_S,
                                    BACKOFF_CAP_S, self._rng))
        raise TransportError(
            f"{method} {url} failed after {MAX_ATTEMPTS} attempts "
            f"({last_error})"
        )

    @staticmethod
    def _decode(raw: bytes):
        if not raw:
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return {"raw": raw.decode("utf-8", "replace")}
