"""HTTP bindings: serve a router over localhost, and a retrying client.

The server side is how the original demo is driven (curl against the Ryu
WSGI app): :class:`RestHttpServer` binds 127.0.0.1 by default with only
the standard library and runs requests against the in-process router.
It also fronts the campaign fabric coordinator (``repro campaign
serve``).  Binding beyond localhost (``host="0.0.0.0"`` for
multi-machine fleets) requires a shared-secret ``token``: every request
must then carry it in the ``X-Repro-Auth`` header or is refused with a
401 before reaching the router.

The server speaks HTTP/1.1 with persistent connections: a client that
keeps its connection open pays connect, accept and a handler thread once,
not per request.  HTTP/1.0 peers and ``Connection: close`` requests are
answered and then closed (the reply says ``Connection: close``).  Replies
are written through a :data:`REPLY_BUFFER_BYTES` buffer and flushed once,
so headers and body leave in one segment, and accepted sockets have
``TCP_NODELAY`` set, so a reply larger than the buffer is not held back by
Nagle's algorithm waiting for the client's delayed ACK.  A connection on
which nothing arrives for :data:`IDLE_TIMEOUT_S` is dropped, and
:meth:`RestHttpServer.stop` closes the ones still open, so no handler
thread outlives the server.  A request that is refused before its body
was read (401, bad or oversized ``Content-Length``) closes the connection:
the unread bytes must not be parsed as the next request.  (The compute
limit of ``POST /schedule``, 408, is :data:`repro.rest.api.REQUEST_DEADLINE_S`.)

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

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import HttpStatusError, TransportError
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
#: Reply buffer: headers + body up to this size leave in one ``send``.
REPLY_BUFFER_BYTES = 64 * 1024


def _make_handler(
    api: RestApi, token: str | None = None
) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT_S
        disable_nagle_algorithm = True
        wbufsize = REPLY_BUFFER_BYTES

        # one simulated network is not thread-safe; serialize requests
        _lock = threading.Lock()

        def _respond(self, method: str) -> None:
            if token is not None and self.headers.get(AUTH_HEADER) != token:
                # 401 is a 4xx: clients fast-fail instead of retrying --
                # a wrong secret will not get better with backoff
                self._refuse(401, "missing or bad X-Repro-Auth")
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0 or self.headers.get("Transfer-Encoding"):
                self._refuse(400, "a body needs a non-negative Content-Length")
                return
            if length > MAX_BODY_BYTES:
                self._refuse(413, f"body exceeds {MAX_BODY_BYTES} bytes")
                return
            try:
                raw = self.rfile.read(length) if length else b""
            except TimeoutError:
                self.close_connection = True  # the body never arrived
                return
            body = None
            if raw:
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError:
                    self._write(400, {"error": "request body is not JSON"})
                    return
            # adopt the caller's trace context so the handler's spans
            # (e.g. the coordinator's fabric.submit) join the worker-side
            # trace of the same cell
            context = None
            trace_id = self.headers.get(TRACE_HEADER)
            if trace_id:
                context = {
                    "trace": trace_id,
                    "parent": self.headers.get(SPAN_HEADER),
                }
            ctx_token = obs.attach_context(context)
            try:
                with self._lock:
                    response = api.handle(method, self.path, body)
            finally:
                obs.detach_context(ctx_token)
            self._write(
                response.status, response.body, response.content_type
            )

        def _refuse(self, status: int, message: str) -> None:
            """Answer without having read the body, then hang up."""
            self.close_connection = True
            self._write(status, {"error": message})

        def _write(
            self, status: int, payload, content_type: str | None = None
        ) -> None:
            if isinstance(payload, str) and content_type:
                data = payload.encode("utf-8")
            else:
                content_type = "application/json"
                data = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection or self.server.stopping:
                self.send_header("Connection", "close")  # also hangs up
            self.end_headers()
            self.wfile.write(data)  # flushed once, after the handler returns

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._respond("GET")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._respond("POST")

        def log_message(self, fmt: str, *args) -> None:  # quiet by default
            pass

    return Handler


class _Server(ThreadingHTTPServer):
    """Knows its handler threads and their sockets, so they can be ended."""

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
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
    is never exposed unauthenticated.  ``allow_reuse_address`` is on (the
    http.server default), so a restarted coordinator can re-bind its old
    port while TIME_WAIT sockets linger -- crash recovery depends on it.
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
        self.server = _Server((host, port), _make_handler(api, token))
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
    errors, timeouts, and 5xx answers are retried up to ``max_attempts``
    times with exponential backoff (``backoff_base_s`` doubling, capped
    at ``backoff_cap_s``) plus up to 50% deterministic-seedable jitter,
    then raise :class:`~repro.errors.TransportError`.  4xx answers raise
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
        max_attempts: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        timeout_s: float = 10.0,
        jitter_seed: int | None = None,
        token: str | None = None,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.timeout_s = float(timeout_s)
        self.token = token
        self._rng = random.Random(jitter_seed)
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
        for attempt in range(1, self.max_attempts + 1):
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
            if attempt < self.max_attempts:
                with self._retries_lock:
                    self.retries += 1
                self._sleep(self._backoff(attempt))
        raise TransportError(
            f"{method} {url} failed after {self.max_attempts} attempts "
            f"({last_error})"
        )

    def _backoff(self, attempt: int) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** (attempt - 1)),
        )
        return base * (1.0 + 0.5 * self._rng.random())

    @staticmethod
    def _decode(raw: bytes):
        if not raw:
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return {"raw": raw.decode("utf-8", "replace")}
