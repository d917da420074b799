"""Shared stdlib HTTP-service lifecycle.

Both the health exporter (:mod:`repro.obs.health.server`) and the
control-plane API (:mod:`repro.serve.http`) are the same machine: a
``ThreadingHTTPServer`` bound once, served from a daemon thread, shut
down by joining that thread and closing the listening socket.  Before
this module each server carried its own copy of that lifecycle, and the
copies could drift (port-0 resolution, double-close, bind-failure
reporting).  :class:`HttpService` is the single implementation:

* ``port=0`` binds an ephemeral port; :attr:`port` reads the *bound*
  port back after :meth:`start`;
* :meth:`start` is idempotent, bind failures raise the subclass's
  :attr:`error_class` with a uniform message;
* :meth:`close` is idempotent and safe from any thread: it stops the
  accept loop, joins the serving thread, and releases the socket, so
  tests never leak ports;
* the context-manager form (``with service: ...``) guarantees the
  close on every exit path.

Both answer from a :class:`RouteTable` the subclass declares, through
the one :class:`JsonRequestHandler`; a request no route matches gets
:data:`UNMATCHED`, so a metric label never carries request text.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple, Type

from ..errors import ObservabilityError


class Route(NamedTuple):
    """One endpoint, declared once.

    ``path`` is literal but for ``{name}`` segments (one path segment
    each) and is also the metric :attr:`label`.  ``answer(handler,
    service, match)`` sends the response and returns its status.  A
    control-plane view route also names its cache-key normalizer
    (``key``: parsed query -> canonical query) and the
    :class:`~repro.serve.cache.ServeView` method that builds it.
    """

    method: str
    path: str
    answer: Callable[..., int]
    key: Optional[Callable[[Dict[str, str]], str]] = None
    build: Optional[str] = None

    @property
    def label(self) -> str:
        return self.path


class Match(NamedTuple):
    route: Route
    path: str                  # without query or trailing slash
    args: Tuple[str, ...]      # the ``{name}`` segments, in order
    query: str


def parse_query(query: str) -> Dict[str, str]:
    """``a=1&b`` -> ``{"a": "1"}``; the last repeat wins, no decoding."""
    params = {}
    for part in query.split("&"):
        key, eq, value = part.partition("=")
        if eq:
            params[key] = value
    return params


def _no_endpoint(handler, service, match: Match) -> int:
    method = handler.command
    if method == "GET":
        return handler._send_json(404, {"error": f"no endpoint {match.path}"})
    return handler._send_json(405, {"error": f"no {method} {match.path}"})


#: What a request no route matches gets: 404 (405 for a method other
#: than GET), metered under the one fixed label ``*``.
UNMATCHED = Route("*", "*", _no_endpoint)


class RouteTable:
    """Routes in declaration order, matched by method and path."""

    def __init__(self, routes: Iterable[Route]) -> None:
        self.routes = tuple(routes)
        self._regexes = [re.compile("/".join(
            "([^/]+)" if seg.startswith("{") else re.escape(seg)
            for seg in route.path.split("/")
        )) for route in self.routes]
        methods: Dict[str, list] = {}
        for route in self.routes:
            methods.setdefault(route.path, []).append(route.method)
        #: The ``/`` index: each path once, with its methods unless GET.
        self.index = " ".join(
            path if verbs == ["GET"] else f"{path} ({'/'.join(verbs)})"
            for path, verbs in methods.items() if path != "/"
        )

    def match(self, method: str, target: str) -> Match:
        """Resolve a request target (``path[?query]``); never fails."""
        path, _, query = target.partition("?")
        path = path.rstrip("/") or "/"
        for route, regex in zip(self.routes, self._regexes):
            found = route.method == method and regex.fullmatch(path)
            if found:
                return Match(route, path, found.groups(), query)
        return Match(UNMATCHED, path, (), query)


class JsonRequestHandler(BaseHTTPRequestHandler):
    """The one request handler: routes, quiet logs, framed responses.

    GET and POST go to :meth:`HttpService.answer`.  ``protocol_version``
    is HTTP/1.1 so keep-alive works — every response therefore *must*
    carry an accurate ``Content-Length``, which :meth:`_send`
    guarantees (and returns the status it sent).
    """

    protocol_version = "HTTP/1.1"
    # Status+headers+body leave in one segment (the base handler
    # flushes per request): a buffered wfile plus TCP_NODELAY avoids
    # the Nagle/delayed-ACK stall a two-segment response can hit —
    # which would put a flat ~40 ms floor under the latency tail.
    wbufsize = -1
    disable_nagle_algorithm = True

    #: Largest request body accepted; anything bigger is refused
    #: unread (the connection is closed rather than the body drained,
    #: so a hostile client cannot make the server buffer a gigabyte).
    max_body_bytes = 1 << 20

    #: The body a route composed for the current request; the service
    #: writes it (see :meth:`HttpService.answer`).
    payload = b""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.server.service.answer(self)

    do_POST = do_GET

    # Machine-facing endpoints; request logging is noise.
    def log_message(self, fmt, *args):  # noqa: ARG002
        pass

    def _send_error_500(self, exc: BaseException) -> None:
        """Last-resort answer for an unexpected handler exception.

        Counts the crash on the bound server (``handler_errors`` plus
        the service's :meth:`~HttpService.on_handler_error`) and answers
        a framed 500, so a bug in one route neither kills the keep-alive
        connection silently nor hides from the metrics.
        """
        server = self.server
        server.handler_errors += 1
        server.service.on_handler_error(exc)
        try:
            self._send_json(
                500,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass

    def _send_bytes(
        self, status: int, content_type: str, payload: bytes
    ) -> int:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            # Tell keep-alive clients the truth (e.g. after a refused
            # oversized body the unread bytes make reuse unsafe).
            self.send_header("Connection", "close")
        self.end_headers()
        # Held back until the service has counted the request: see
        # HttpService.answer, which writes it.
        self.payload = payload
        return status

    def _send(self, status: int, content_type: str, body: str) -> int:
        return self._send_bytes(status, content_type, body.encode())

    def _send_json(self, status: int, doc: dict) -> int:
        return self._send(
            status, "application/json",
            json.dumps(doc, indent=2) + "\n",
        )

    def _read_json_body(self) -> dict:
        """The request body as a JSON object ({} when absent/malformed).

        Bodies larger than :attr:`max_body_bytes` are refused without
        reading: the connection is marked for close (keep-alive framing
        would otherwise desynchronize on the unread bytes) and the
        request proceeds as if no body arrived.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if length <= 0:
            return {}
        if length > self.max_body_bytes:
            self.close_connection = True
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {}
        return doc if isinstance(doc, dict) else {}


class _Server(ThreadingHTTPServer):
    """The threading server behind every :class:`HttpService`."""

    #: Listen backlog.  socketserver's default of 5 overflows when a
    #: client herd connects at once (the kernel drops the SYNs and the
    #: clients retry after a 1 s timeout); 1024 admits the whole herd.
    request_queue_size = 1024
    daemon_threads = True


class HttpService:
    """One ``ThreadingHTTPServer`` on a daemon thread, closed cleanly."""

    #: Raised on bind failure and when :attr:`port` is read while down.
    error_class: Type[Exception] = ObservabilityError
    #: Handler class bound to the server.
    handler_class: Type[BaseHTTPRequestHandler] = JsonRequestHandler
    #: Human name used in error messages, the thread name and the
    #: ``/`` index title.
    service_name: str = "http service"
    #: Every endpoint the service answers (subclass responsibility).
    routes: RouteTable = RouteTable(())

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def answer(self, handler: JsonRequestHandler) -> Tuple[Route, int]:
        """Answer from :attr:`routes`: (route, status).  :attr:`error_class`
        answers 400, other exceptions 500, as does a dropped connection.

        :meth:`on_answer` sees the status before any byte of the response
        reaches the client: the route only composes it (the headers stay
        in the buffered ``wfile``, the body on the handler), and the body
        is written after.  The response is flushed before this returns,
        so a caller timing the answer times the socket write too,
        whatever the body size.
        """
        match = self.routes.match(handler.command, handler.path)
        route = match.route
        handler.payload = b""
        try:
            status = route.answer(handler, self, match)
        except (BrokenPipeError, ConnectionResetError):
            self.on_answer(route, 500)
            return route, 500
        except self.error_class as exc:
            status = handler._send_json(400, {"error": str(exc)})
        except Exception as exc:
            handler._send_error_500(exc)
            status = 500
        self.on_answer(route, status)
        try:
            handler.wfile.write(handler.payload)
            handler.wfile.flush()
        except OSError:
            return route, 500
        return route, status

    def on_answer(self, route: Route, status: int) -> None:
        """Count an answered request, before its response is sent (none
        by default)."""

    def on_handler_error(self, exc: BaseException) -> None:
        """Count an unexpected handler exception (none by default)."""

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "HttpService":
        if self._server is not None:
            return self
        try:
            server = _Server(
                (self.host, self._requested_port), self.handler_class
            )
        except OSError as exc:
            raise self.error_class(
                f"cannot bind {self.service_name} on {self.host}:"
                f"{self._requested_port}: {exc}"
            ) from exc
        server.handler_errors = 0
        server.service = self
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-{self.service_name.replace(' ', '-')}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, join the thread, release the socket."""
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def __enter__(self) -> "HttpService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def handler_errors(self) -> int:
        """Unexpected handler exceptions answered with a 500 so far."""
        server = self._server
        return getattr(server, "handler_errors", 0) if server else 0

    # -- addressing ---------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise self.error_class(f"{self.service_name} is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def fetch_url(
    url: str, *, timeout_s: float = 5.0,
    error_class: Type[Exception] = ObservabilityError,
) -> Tuple[int, str]:
    """GET one endpoint; returns ``(status, body)`` without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise error_class(f"cannot reach {url}: {exc}") from exc


def post_url(
    url: str, doc: Optional[dict] = None, *, timeout_s: float = 5.0,
    error_class: Type[Exception] = ObservabilityError,
) -> Tuple[int, str]:
    """POST a JSON body; returns ``(status, body)`` without raising on 4xx/5xx."""
    payload = json.dumps(doc if doc is not None else {}).encode()
    req = urllib.request.Request(
        url, data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise error_class(f"cannot reach {url}: {exc}") from exc
