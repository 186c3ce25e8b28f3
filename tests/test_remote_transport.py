"""RemoteBackend on the wire, against chat-completions servers on 127.0.0.1.

The fixture server speaks HTTP/1.1 keep-alive, counts the connections it
accepts and records every request line, header set and body; it can also
write a raw reply verbatim, to frame one as a test needs. Proxy tests
point ``http_proxy``/``https_proxy`` at it; nothing leaves the loopback
interface.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from gazeshift.cli import main
from gazeshift.errors import BackendError
from gazeshift.reasoner.backends import API_KEY_ENV, RemoteBackend, RemoteConfig, build_request

PATH = "/v1/chat/completions"
TIMEOUT = 2.0  # generous per-read deadline; the replies here take well under 1 ms


def completion(text: str) -> bytes:
    return json.dumps({"choices": [{"index": 0, "message": {"role": "assistant",
                                                            "content": text}}]}).encode()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self._answer(body)

    def do_CONNECT(self):
        self._answer(b"")

    def _answer(self, body):
        server = self.server
        server.seen.append((self.command, self.path, dict(self.headers), body))
        status, payload = server.reply
        # Drop the connection without announcing it, as an idle timeout would;
        # decided before replying, since the test may reset the flag once it has the reply.
        self.close_connection = server.drop_after_reply
        if server.raw is not None:
            self.wfile.write(server.raw)
            return
        self.send_response(status)
        if status == 307:
            self.send_header("Location", PATH)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.connections = 0  # counted on the serving thread, before any handler runs
        self.seen = []
        self.reply = (200, completion("TARGET: 1"))
        self.drop_after_reply = False
        self.raw = None  # bytes written verbatim in place of the reply

    def verify_request(self, request, client_address):
        self.connections += 1
        return True

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        return thread

    def stop(self, thread: threading.Thread) -> None:
        self.shutdown()
        self.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def server():
    srv = LoopbackServer()
    thread = srv.start()
    yield srv
    srv.stop(thread)


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    """Each test starts from an environment that names no proxy."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def make_backend(endpoint: str, timeout: float = TIMEOUT) -> RemoteBackend:
    backend = RemoteBackend(RemoteConfig(endpoint=endpoint, model="m", timeout=timeout,
                                         api_key="secret"))
    backend.preflight()
    return backend


# -- keep-alive and the request on the wire ------------------------------------------------

def test_fifty_queries_share_one_connection(server):
    backend = make_backend(server.url + PATH)
    try:
        answers = [backend.query(f"prompt {i}", None, i) for i in range(50)]
    finally:
        backend.close()
    assert answers == ["TARGET: 1"] * 50
    assert len(server.seen) == 50
    assert server.connections == 1


def test_request_on_the_wire_is_build_requests_json(server):
    endpoint = server.url + PATH
    backend = make_backend(endpoint)
    try:
        backend.query("where should the robot look?", "frames/001.png", 0)
    finally:
        backend.close()
    [(method, path, headers, body)] = server.seen
    assert (method, path) == ("POST", PATH)
    expected = build_request(backend.config, "where should the robot look?", "frames/001.png")
    assert body == json.dumps(expected).encode("utf-8")
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"


def test_dropped_keep_alive_costs_one_query_then_reconnects(server):
    backend = make_backend(server.url + PATH)
    try:
        server.drop_after_reply = True
        assert backend.query("p", None, 0) == "TARGET: 1"
        server.drop_after_reply = False
        with pytest.raises(BackendError, match="transport failure"):
            backend.query("p", None, 1)
        assert backend.query("p", None, 2) == "TARGET: 1"
        assert backend.query("p", None, 3) == "TARGET: 1"
    finally:
        backend.close()
    assert server.connections == 2


# -- reply framing -------------------------------------------------------------------------

REPLY = completion("TARGET: 1")


def raw_reply(*headers: str, body: bytes = REPLY, status_line: str = "HTTP/1.1 200 OK") -> bytes:
    return "".join(f"{line}\r\n" for line in (status_line, *headers, "")).encode() + body


def chunked(body: bytes) -> bytes:
    """``body`` in two chunks, the first with an extension, then a trailer field."""
    return (b"%x;note=1\r\n%b\r\n%x\r\n%b\r\n" % (7, body[:7], len(body) - 7, body[7:])
            + b"0\r\nX-Trailer: t\r\n\r\n")


@pytest.mark.parametrize("raw", [
    raw_reply("Transfer-Encoding: chunked", body=chunked(REPLY)),
    b"HTTP/1.1 100 Continue\r\n\r\n" + raw_reply(f"Content-Length: {len(REPLY)}"),
], ids=["chunked", "100-continue"])
def test_framed_reply_keeps_the_connection(server, raw):
    server.raw = raw
    backend = make_backend(server.url + PATH)
    try:
        assert [backend.query("p", None, i) for i in range(3)] == ["TARGET: 1"] * 3
    finally:
        backend.close()
    assert server.connections == 1


@pytest.mark.parametrize("raw, server_closes", [
    (raw_reply("Content-Type: application/json"), True),
    (raw_reply("Connection: close", f"Content-Length: {len(REPLY)}"), False),
    (raw_reply(f"Content-Length: {len(REPLY)}", status_line="HTTP/1.0 200 OK"), False),
], ids=["to-close", "connection-close", "http-1.0"])
def test_reply_that_ends_the_connection_is_followed_by_a_reconnect(server, raw, server_closes):
    # Where the server keeps the connection open, only the client's own close reconnects.
    server.raw, server.drop_after_reply = raw, server_closes
    backend = make_backend(server.url + PATH)
    try:
        assert backend.query("p", None, 0) == "TARGET: 1"
        assert server.connections == 1
        assert backend.query("p", None, 1) == "TARGET: 1"
    finally:
        backend.close()
    assert server.connections == 2


@pytest.mark.parametrize("raw", [
    raw_reply("X-Long: " + "a" * 65536, f"Content-Length: {len(REPLY)}"),
    raw_reply(*[f"X-{i}: {i}" for i in range(101)], f"Content-Length: {len(REPLY)}"),
    raw_reply(f"Content-Length: {len(REPLY)}", status_line="HTTP/1.1 2OO OK"),
    raw_reply(f"Content-Length: {len(REPLY)}", status_line="ICY 200 OK"),
    raw_reply(f"Content-Length: {len(REPLY) + 10}"),
    raw_reply("Content-Length: -1"),
    raw_reply("Transfer-Encoding: chunked", body=b"zz\r\n" + REPLY),
    raw_reply("Transfer-Encoding: chunked", body=b"%x\r\n%b" % (len(REPLY), REPLY)),
    raw_reply("Content-Type: application/json", body=b"")[:-2],
], ids=["long-header-line", "101-headers", "status-not-digits", "not-http", "cut-body",
        "negative-length", "bad-chunk-size", "cut-chunked", "cut-headers"])
def test_broken_reply_is_a_transport_failure_and_the_next_query_reconnects(server, raw):
    server.raw, server.drop_after_reply = raw, True
    backend = make_backend(server.url + PATH)
    try:
        with pytest.raises(BackendError, match="transport failure"):
            backend.query("p", None, 0)
        server.raw, server.drop_after_reply = None, False
        assert backend.query("p", None, 1) == "TARGET: 1"
    finally:
        backend.close()
    assert server.connections == 2


def test_no_content_reply_has_no_body(server):
    # Without a length, a body would otherwise run until the server closes.
    server.raw = raw_reply(status_line="HTTP/1.1 204 No Content", body=b"")
    backend = make_backend(server.url + PATH)
    try:
        with pytest.raises(BackendError, match="malformed completion payload"):
            backend.query("p", None, 0)
        server.raw = None
        assert backend.query("p", None, 1) == "TARGET: 1"
    finally:
        backend.close()
    assert server.connections == 1


def test_server_stalling_mid_body_times_out(server):
    timeout = 0.3
    server.raw = raw_reply(f"Content-Length: {len(REPLY)}", body=REPLY[:10])
    backend = make_backend(server.url + PATH, timeout=timeout)
    t0 = time.monotonic()
    try:
        with pytest.raises(BackendError, match="transport failure: TimeoutError"):
            backend.query("p", None, 0)
    finally:
        backend.close()
    assert time.monotonic() - t0 < timeout + 1.0


def test_each_query_is_one_write(server, monkeypatch):
    writes = []
    real_create_connection = socket.create_connection

    class RecordingSocket(socket.socket):
        def sendall(self, data, *args):
            writes.append(bytes(data))
            return super().sendall(data, *args)

    def create_connection(*args, **kwargs):
        real = real_create_connection(*args, **kwargs)
        timeout = real.gettimeout()
        sock = RecordingSocket(fileno=real.detach())
        sock.settimeout(timeout)
        return sock

    monkeypatch.setattr(socket, "create_connection", create_connection)
    backend = make_backend(server.url + PATH)
    try:
        for i in range(3):
            assert backend.query(f"prompt {i}", "frames/001.png", i) == "TARGET: 1"
    finally:
        backend.close()
    assert len(writes) == 3
    for write, (_, _, _, body) in zip(writes, server.seen):
        assert write.startswith(f"POST {PATH} HTTP/1.1\r\n".encode())
        assert write.endswith(f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    assert server.connections == 1


# -- error mapping -------------------------------------------------------------------------

@pytest.mark.parametrize("status", [400, 500, 307])
def test_non_2xx_status_is_a_transport_failure(server, status):
    server.reply = (status, b'{"error": "no"}')
    backend = make_backend(server.url + PATH)
    try:
        with pytest.raises(BackendError, match=f"transport failure: HTTP {status}"):
            backend.query("p", None, 0)
        # The body was read, so the connection still serves the next query.
        server.reply = (200, completion("TARGET: 2"))
        assert backend.query("p", None, 1) == "TARGET: 2"
    finally:
        backend.close()
    assert len(server.seen) == 2  # a redirect is not followed
    assert server.connections == 1


@pytest.mark.parametrize("payload", [b"not json", b"\xff\xfe{\x00}\x00",
                                     b'{"id": "x"}', b'{"choices": []}', b"[1, 2]"])
def test_undecodable_or_misshapen_payload_is_malformed(server, payload):
    server.reply = (200, payload)
    backend = make_backend(server.url + PATH)
    try:
        with pytest.raises(BackendError, match="malformed completion payload"):
            backend.query("p", None, 0)
    finally:
        backend.close()


def test_silent_server_times_out():
    timeout = 0.3
    # The kernel completes the handshake from the backlog; nothing ever answers.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        backend = make_backend(f"http://127.0.0.1:{port}{PATH}", timeout=timeout)
        t0 = time.monotonic()
        try:
            with pytest.raises(BackendError, match="transport failure"):
                backend.query("p", None, 0)
        finally:
            backend.close()
        assert time.monotonic() - t0 < timeout + 1.0


@pytest.mark.parametrize("endpoint", ["e", "ftp://example.test/v1", "http:///v1",
                                      "http://example.test:port/v1"])
def test_endpoint_that_is_not_an_http_url_is_rejected(endpoint):
    with pytest.raises(BackendError, match="endpoint"):
        RemoteBackend(RemoteConfig(endpoint=endpoint, model="m"))


# -- proxies -------------------------------------------------------------------------------

def test_http_proxy_receives_the_absolute_target(server, monkeypatch):
    monkeypatch.setenv("http_proxy", server.url.replace("://", "://robot:pa%20ss@"))
    backend = make_backend("http://example.test" + PATH)
    try:
        assert backend.query("p", None, 0) == "TARGET: 1"
    finally:
        backend.close()
    [(method, path, headers, _)] = server.seen
    assert (method, path) == ("POST", "http://example.test" + PATH)
    assert headers["Host"] == "example.test"
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Proxy-Authorization"] == \
        "Basic " + base64.b64encode(b"robot:pa ss").decode("ascii")


def test_https_proxy_is_tunnelled_and_a_refusal_fails(server, monkeypatch):
    monkeypatch.setenv("https_proxy", server.url.replace("http://", "robot:pw@"))
    server.reply = (403, b"")
    backend = make_backend("https://example.test" + PATH)
    try:
        with pytest.raises(BackendError, match="transport failure"):
            backend.query("p", None, 0)
    finally:
        backend.close()
    [(method, path, headers, _)] = server.seen
    assert (method, path) == ("CONNECT", "example.test:443")
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"robot:pw").decode()


def test_no_proxy_bypasses_the_proxy(server, monkeypatch):
    proxy = LoopbackServer()
    thread = proxy.start()
    monkeypatch.setenv("http_proxy", proxy.url)
    monkeypatch.setenv("no_proxy", "example.test")
    # Resolve example.test to the direct server, without a name lookup.
    dialled = []
    real_create_connection = socket.create_connection

    def create_connection(address, *args, **kwargs):
        dialled.append(address)
        return real_create_connection(server.server_address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    backend = make_backend("http://example.test" + PATH)
    try:
        assert backend.query("p", None, 0) == "TARGET: 1"
    finally:
        backend.close()
        proxy.stop(thread)
    assert dialled == [("example.test", 80)]
    assert [(m, p) for m, p, _, _ in server.seen] == [("POST", PATH)]
    assert proxy.connections == 0


@pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080", "http://127.0.0.1:port"])
def test_proxy_that_is_not_an_http_url_is_rejected(monkeypatch, proxy):
    monkeypatch.setenv("https_proxy", proxy)
    with pytest.raises(BackendError, match="https proxy"):
        RemoteBackend(RemoteConfig(endpoint="https://example.test" + PATH, model="m"))


# -- one backend per replay run ------------------------------------------------------------

def _remote_config(tmp_path, server) -> str:
    path = tmp_path / "remote.json"
    path.write_text(json.dumps({"backend": {"endpoint": server.url + PATH, "model": "m"}}),
                    encoding="utf-8")
    return str(path)


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    method = getattr(RemoteBackend, name)

    def counted(self, *args):
        calls.append(name)
        return method(self, *args)

    monkeypatch.setattr(RemoteBackend, name, counted)
    return calls


def test_replay_preflights_once_and_closes_its_one_connection(server, tmp_path, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "secret")
    preflights = _count_calls(monkeypatch, "preflight")
    closes = _count_calls(monkeypatch, "close")
    assert main(["replay", "--backend", "remote", "--config", _remote_config(tmp_path, server),
                 "--out", str(tmp_path / "r")]) == 0
    assert len(preflights) == 1
    assert len(closes) == 1
    assert len(server.seen) == 70  # every cycle of the 12 bundled scenarios has candidates
    assert server.connections == 1


def test_remote_replay_loads_no_numpy(server, tmp_path):
    """A remote replay in a fresh interpreter runs without numpy or any model layer;
    it runs the lazy transport module, which the CLI import only registers."""
    import gazeshift

    probe = ("import sys, types; from gazeshift import cli; "
             "backends = sys.modules['gazeshift.reasoner.backends']; "
             "print(type(backends) is types.ModuleType); "
             "code = cli.main(['replay', '--backend', 'remote', '--config', sys.argv[1], "
             "'--out', sys.argv[2]]); "
             "print(code, 'numpy' in sys.modules, type(backends) is types.ModuleType)")
    package_root = str(Path(gazeshift.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, _remote_config(tmp_path, server), str(tmp_path / "r")],
        capture_output=True, text=True,
        env={**os.environ, API_KEY_ENV: "secret", "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False True")
    assert len(server.seen) == 70


def test_replay_closes_the_connection_when_the_run_fails(server, tmp_path, monkeypatch):
    from gazeshift.errors import DataError
    from gazeshift.reasoner import replay

    monkeypatch.setenv(API_KEY_ENV, "secret")
    closes = _count_calls(monkeypatch, "close")

    def failing_replay(scenarios, factory, log_path=None):
        factory(scenarios[0]).query("p", None, 0)
        raise DataError("replay failed midway")

    monkeypatch.setattr(replay, "replay_evaluate", failing_replay)
    assert main(["replay", "--backend", "remote", "--config", _remote_config(tmp_path, server),
                 "--out", str(tmp_path / "r")]) == 3
    assert len(closes) == 1
    assert len(server.seen) == 1
