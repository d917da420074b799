"""The shared HttpService lifecycle (health exporter + control plane).

Regression suite for the factored-out base: both servers must keep the
exact semantics the health exporter always had — ephemeral ``port=0``
resolution, idempotent start/close, error class + message on bind
failure and on reading the port while down — now from one
implementation.  The error-path classes below pin the hardening
contract: hostile or broken requests never wedge the server, and an
unexpected handler exception answers a framed 500 that the metrics can
see.
"""

import json
import socket
import threading

import pytest

from repro.errors import HealthError, ServeError
from repro.obs.health import HealthMonitor, HealthServer, fetch_url
from repro.obs.httpd import HttpService, post_url
from repro.scheduler import SlurmSimulator, default_mix
from repro.serve import ControlPlane, ControlPlaneServer
from repro.units import days


@pytest.fixture(scope="module")
def plane():
    mix = default_mix(fleet_nodes=4)
    log = SlurmSimulator(mix).run(days(0.1), rng=0)
    return ControlPlane(log)


def make_health():
    return HealthServer(monitor=HealthMonitor(drift=False), port=0)


def make_plane_server(plane):
    return ControlPlaneServer(plane, port=0)


class TestSharedLifecycle:
    def test_both_servers_share_the_base(self, plane):
        assert issubclass(HealthServer, HttpService)
        assert issubclass(ControlPlaneServer, HttpService)
        assert HealthServer.error_class is HealthError
        assert ControlPlaneServer.error_class is ServeError

    @pytest.mark.parametrize("which", ["health", "plane"])
    def test_port0_resolves_and_serves(self, plane, which):
        server = (
            make_health() if which == "health" else make_plane_server(plane)
        )
        with server:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
            status, _body = fetch_url(server.url + "/")
            assert status in (200, 404, 503)

    @pytest.mark.parametrize("which", ["health", "plane"])
    def test_start_and_close_are_idempotent(self, plane, which):
        server = (
            make_health() if which == "health" else make_plane_server(plane)
        )
        server.start()
        port = server.port
        assert server.start() is server
        assert server.port == port, "second start must not rebind"
        assert server.running
        server.close()
        assert not server.running
        server.close()  # no-op, no raise

    @pytest.mark.parametrize("which", ["health", "plane"])
    def test_listen_backlog_admits_a_herd(self, plane, which):
        # socketserver's default backlog of 5 overflows under a herd
        # of simultaneous connects; the started server listens with 1024.
        server = (
            make_health() if which == "health" else make_plane_server(plane)
        )
        with server:
            assert server._server.request_queue_size == 1024
            assert server._server.daemon_threads

    def test_port_raises_own_error_class_when_down(self, plane):
        with pytest.raises(HealthError, match="not running"):
            _ = make_health().port
        with pytest.raises(ServeError, match="not running"):
            _ = make_plane_server(plane).port

    def test_bind_failure_raises_own_error_class(self, plane):
        with make_health() as busy:
            taken = busy.port
            with pytest.raises(HealthError, match="cannot bind"):
                HealthServer(
                    monitor=HealthMonitor(drift=False), port=taken
                ).start()
            with pytest.raises(ServeError, match="cannot bind"):
                ControlPlaneServer(plane, port=taken).start()

    def test_context_manager_releases_the_port(self, plane):
        server = make_plane_server(plane)
        with server:
            taken = server.port
        # The socket is free again: a new server can take the same port.
        rebound = ControlPlaneServer(plane, port=taken).start()
        try:
            assert rebound.port == taken
        finally:
            rebound.close()

    def test_close_from_handler_thread_is_safe(self, plane):
        # ControlPlane.close() may run on the serving thread (shutdown
        # endpoint); HttpService must not join the current thread.
        server = make_plane_server(plane)
        server.start()
        done = threading.Event()

        def closer():
            server.close()
            done.set()

        threading.Thread(target=closer).start()
        assert done.wait(timeout=10)
        assert not server.running


def raw_request(port: int, payload: bytes, *, timeout_s: float = 5.0):
    """Send raw bytes and return whatever the server answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


class TestErrorPaths:
    """Hostile and broken requests: the hardening contract."""

    def test_malformed_request_line_does_not_wedge(self, plane):
        with ControlPlaneServer(plane, port=0) as server:
            answer = raw_request(server.port, b"NOT A REQUEST\r\n\r\n")
            assert b"400" in answer
            # The server still answers the next, well-formed request.
            status, _body = fetch_url(server.url + "/")
            assert status == 200
            assert server.handler_errors == 0

    def test_unknown_route_is_404(self):
        with HealthServer(monitor=HealthMonitor(drift=False)) as server:
            status, body = fetch_url(server.url + "/nope")
            assert status == 404
            assert "no endpoint" in json.loads(body)["error"]
            assert server.handler_errors == 0

    def test_oversized_post_body_is_refused_unread(self, plane):
        with ControlPlaneServer(plane, port=0) as server:
            too_big = server.handler_class.max_body_bytes + 1
            header = (
                b"POST /v1/policy HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: " + str(too_big).encode() + b"\r\n\r\n"
            )
            # Send only the header + a sliver of the body: the server
            # must answer without waiting for (or buffering) the rest,
            # and close the connection to avoid keep-alive desync.
            answer = raw_request(server.port, header + b"{")
            assert answer, "server must answer, not hang"
            status = int(answer.split(b" ", 2)[1])
            # The refused body reads as {}: a no-op policy republish.
            assert status == 200
            assert b"connection: close" in answer.lower()
            status, _body = fetch_url(server.url + "/")
            assert status == 200

    def test_invalid_json_body_reads_as_empty(self, plane):
        with ControlPlaneServer(plane, port=0) as server:
            header = (
                b"POST /v1/policy HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            answer = raw_request(server.port, header)
            # Malformed JSON reads as {}: a no-op policy republish, not
            # a crash (and not a hang waiting for better bytes).
            assert int(answer.split(b" ", 2)[1]) == 200
            assert server.handler_errors == 0

    def test_handler_exception_answers_500_and_counts(self):
        monitor = HealthMonitor(drift=False)

        def boom():
            raise RuntimeError("boom")

        monitor.to_health_dict = boom
        with HealthServer(monitor=monitor) as server:
            status, body = fetch_url(server.url + "/health")
            assert status == 500
            assert "RuntimeError: boom" in json.loads(body)["error"]
            assert server.handler_errors == 1
            # The crash is metered into the registry the server exports.
            _status, text = fetch_url(server.url + "/metrics")
            assert "http_handler_errors_total 1" in text
            # The server keeps serving after the 500.
            status, _body = fetch_url(server.url + "/alerts")
            assert status == 200

    def test_plane_handler_exception_answers_500_and_counts(self, plane):
        with ControlPlaneServer(plane, port=0) as server:
            plane.refresh()          # publish a view to crash through
            view = plane.cache.view
            original = view.body
            view.body = lambda key: (_ for _ in ()).throw(
                RuntimeError("route boom")
            )
            try:
                status, body = fetch_url(server.url + "/v1/fleet/cap")
            finally:
                view.body = original
            assert status == 500
            assert "route boom" in json.loads(body)["error"]
            assert server.handler_errors == 1
            _status, text = fetch_url(server.url + "/metrics")
            assert "serve_handler_errors_total 1" in text
            # The crashed request stays metered, as a 500.
            assert (
                'serve_requests_total{endpoint="/v1/fleet/cap",'
                'status="500"} 1'
            ) in text

    def test_serve_error_stays_a_clean_400(self, plane):
        with ControlPlaneServer(plane, port=0) as server:
            status, body = post_url(
                server.url + "/v1/policy", {"objective": "nope"}
            )
            assert status == 400
            assert server.handler_errors == 0
