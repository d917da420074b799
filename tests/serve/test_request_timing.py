"""Metering order of a control-plane request, whatever the body size.

The handler's ``wfile`` is buffered (8 KiB), so a small body would sit in
the buffer until ``http.server`` flushes it after the request was
metered, while a large one is written through before.  The service
flushes inside the timed region, so for both sizes the response is
flushed before the plane times the request (``serve_request_seconds``);
and it counts the request (``serve_requests_total``) before any byte of
the response reaches the client, so a client never reads an answer the
counter has not seen.
"""

from __future__ import annotations

import io
import threading

import pytest

from repro.obs.health import fetch_url
from repro.obs.httpd import JsonRequestHandler
from repro.serve import ControlPlaneServer


class _RecordingFile:
    """A write file that logs its writes and flushes."""

    def __init__(self, raw, events: list) -> None:
        self._raw = raw
        self._events = events

    def write(self, data) -> int:
        self._events.append("write")
        return self._raw.write(data)

    def flush(self) -> None:
        self._events.append("flush")
        self._raw.flush()

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.mark.parametrize("route, big", [
    ("/v1/policy", False),
    ("/v1/jobs", True),
])
def test_response_is_flushed_before_the_request_is_metered(
    drained_plane, monkeypatch, route, big
):
    events: list = []
    metered_once = threading.Event()

    class Recording(JsonRequestHandler):
        def setup(self):
            super().setup()
            self.wfile = _RecordingFile(self.wfile, events)

    observe = drained_plane.observe_request

    def metered(endpoint, status, elapsed_s, view):
        events.append("observe")
        observe(endpoint, status, elapsed_s, view)
        metered_once.set()

    monkeypatch.setattr(drained_plane, "observe_request", metered)
    server = ControlPlaneServer(drained_plane, port=0)
    server.handler_class = Recording
    with server:
        status, body = fetch_url(server.url + route)
        # The client may hold the body before the server meters it.
        assert metered_once.wait(timeout=10.0)
    assert status == 200
    assert (len(body) > io.DEFAULT_BUFFER_SIZE) == big
    observed = events.index("observe")
    last_write = max(i for i, e in enumerate(events[:observed]) if e == "write")
    assert "flush" in events[last_write:observed]


class _CountingSocketWriter(io.RawIOBase):
    """The socket end of ``wfile``: snapshots the counter per send."""

    def __init__(self, sock, snapshot) -> None:
        self._sock = sock
        self._snapshot = snapshot

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self._snapshot()
        self._sock.sendall(data)
        return len(data)


def _requests_total(plane) -> float:
    return sum(
        value for name, value in plane.registry.counter_values().items()
        if name.startswith("serve_requests_total{")
    )


@pytest.mark.parametrize("route, big", [
    ("/v1/policy", False),
    ("/v1/jobs", True),
])
def test_request_is_counted_before_its_response_is_sent(
    drained_plane, route, big
):
    seen: list = []

    class Counting(JsonRequestHandler):
        def setup(self):
            super().setup()
            self.wfile = io.BufferedWriter(_CountingSocketWriter(
                self.connection,
                lambda: seen.append(_requests_total(drained_plane)),
            ))

    server = ControlPlaneServer(drained_plane, port=0)
    server.handler_class = Counting
    with server:
        before = _requests_total(drained_plane)
        status, body = fetch_url(server.url + route)
    assert status == 200
    assert (len(body) > io.DEFAULT_BUFFER_SIZE) == big
    # Every send of the response saw the request already counted.
    assert seen and seen == [before + 1] * len(seen)
