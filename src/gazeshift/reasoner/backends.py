"""The remote backend: gaze-reasoning prompts answered by a chat-completions endpoint.

RemoteBackend talks to a chat-completions HTTP endpoint over one
kept-alive connection (standard library only): http.client opens the
connection, and the backend writes each request and reads each reply on it
itself, in one write and through one buffered reader.

The offline backends, ScriptedBackend and OracleBackend, live in
``reasoner.replay`` and are the same classes here. This module is a lazy
module (see the package docstring): it runs only when a remote replay, or
any other caller, first reads one of its attributes.

Every backend implements query(prompt, image_ref, cycle_index) -> text.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from urllib.parse import unquote, urlsplit

from ..config import parse_json, read_config
from ..errors import BackendError
from .replay import OracleBackend, ScriptedBackend  # noqa: F401  (re-exported)

API_KEY_ENV = "GAZESHIFT_API_KEY"
DEFAULT_TIMEOUT = 1.2  # seconds; must finish inside the 1.5 s cycle budget


@dataclass(frozen=True)
class RemoteConfig:
    """Connection settings for a chat-completions endpoint."""

    endpoint: str
    model: str
    timeout: float = DEFAULT_TIMEOUT
    api_key: str | None = None  # falls back to the GAZESHIFT_API_KEY env var
    max_tokens: int = 64

    def __post_init__(self):
        # Sent in every request: a refused one would hold every cycle of a replay that exits 0.
        if not self.model:
            raise ValueError("model must not be empty")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be at least 1, got {self.max_tokens}")

    @classmethod
    def from_dict(cls, doc) -> "RemoteConfig":
        return read_config(cls, doc, "backend")


def build_request(config: RemoteConfig, prompt: str, image_ref: str | None) -> dict:
    """The JSON body for one chat-completion call (golden-file testable)."""
    content = [{"type": "text", "text": prompt}]
    if image_ref is not None:
        content.append({"type": "image_url", "image_url": {"url": image_ref}})
    return {
        "model": config.model,
        "messages": [{"role": "user", "content": content}],
        "max_tokens": config.max_tokens,
        "temperature": 0,
    }


def _split_url(text: str, what: str, schemes=("http", "https")):
    """``(urlsplit(text), its port or None)``; BackendError unless it is a URL
    of one of ``schemes`` with a host and a valid port."""
    url = urlsplit(text)
    try:
        port = url.port
    except ValueError as exc:
        raise BackendError(f"{what} {text!r}: {exc}") from None
    if url.scheme not in schemes or not url.hostname:
        raise BackendError(f"{what} {text!r} is not an {' or '.join(schemes)} URL")
    return url, port


def _connection_for(endpoint: str, timeout: float):
    """``(connection, request target, proxy headers)`` for POSTs to ``endpoint``.

    The ``http_proxy``/``https_proxy``/``no_proxy`` environment is read here,
    once. Through an HTTP proxy the target is the absolute URL; an HTTPS
    endpoint behind a proxy is reached through a CONNECT tunnel. TLS verifies
    against the system CA store. ``timeout`` bounds the connect and each read.
    No socket opens until the first request.
    """
    # Imported here, not at module level: they take a tenth of the CLI's
    # import time, and only a remote backend needs them.
    import http.client
    import ssl
    from urllib.request import getproxies, proxy_bypass

    url, port = _split_url(endpoint, "endpoint")
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    proxy = None if proxy_bypass(url.netloc.rpartition("@")[2]) else getproxies().get(url.scheme)
    tls = {"context": ssl.create_default_context()} if url.scheme == "https" else {}
    connection_cls = http.client.HTTPSConnection if tls else http.client.HTTPConnection
    if proxy is None:
        return connection_cls(url.hostname, port, timeout=timeout, **tls), target, {}
    proxy_url, proxy_port = _split_url(proxy if "://" in proxy else f"http://{proxy}",
                                       f"{url.scheme} proxy", schemes=("http",))
    auth = {}
    if proxy_url.username is not None:
        credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
        auth["Proxy-Authorization"] = \
            "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")
    conn = connection_cls(proxy_url.hostname, proxy_port or 80, timeout=timeout, **tls)
    if tls:
        conn.set_tunnel(url.hostname, port, headers=auth)
        return conn, target, {}
    return conn, url._replace(fragment="").geturl(), auth


class ReplyError(Exception):
    """A reply the backend cannot read to its end: cut short, over a bound or malformed."""


# http.client's bounds on a reply: the bytes of one line, and the header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_BLANK = (b"\r\n", b"\n")


def _line(reader) -> bytes:
    """The next line of a reply, its line end included."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ReplyError(f"a line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ReplyError("connection closed before the reply ended")
    return line


def _exactly(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) != n:
        raise ReplyError(f"connection closed after {len(data)} of {n} body bytes")
    return data


def _chunked_body(reader) -> bytes:
    """A ``Transfer-Encoding: chunked`` body; its trailer fields are read and dropped."""
    chunks = []
    while True:
        size_line = _line(reader)
        try:
            size = int(size_line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise ReplyError(f"malformed chunk size line {size_line[:40]!r}")
        if size == 0:
            break
        chunks.append(_exactly(reader, size))
        if _line(reader) not in _BLANK:
            raise ReplyError("chunk data runs past its size")
    while _line(reader) not in _BLANK:
        pass
    return b"".join(chunks)


def _read_reply(reader) -> tuple:
    """``(status, reason, body, closes)`` of the next reply on ``reader``.

    Interim 1xx replies are skipped. The body is framed by chunked transfer
    coding, by Content-Length, or by the connection's close. ``closes`` is
    true when the connection carries no further request: the reply says
    ``Connection: close``, is HTTP/1.0 without keep-alive, or ran to close.
    """
    while True:
        line = _line(reader)
        version, status, reason = (line.split(None, 2) + [b"", b""])[:3]
        if not (version.startswith(b"HTTP/") and len(status) == 3 and status.isdigit()
                and status >= b"100"):
            raise ReplyError(f"malformed status line {line[:80]!r}")
        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            field = _line(reader)
            if field in _BLANK:
                break
            name, _, value = field.partition(b":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ReplyError(f"more than {_MAX_HEADERS} header lines")
        if status >= b"200":
            break
    connection = headers.get(b"connection", b"").lower()
    closes = b"close" in connection or version == b"HTTP/1.0" and b"keep-alive" not in connection
    if status in (b"204", b"304"):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _chunked_body(reader)
    elif b"content-length" in headers:
        length = headers[b"content-length"]
        if not length.isdigit():
            raise ReplyError(f"malformed Content-Length {length[:40]!r}")
        body = _exactly(reader, int(length))
    else:
        body = reader.read()
        closes = True
    return int(status), reason.strip().decode("latin-1"), body, closes


def _host_header(endpoint: str, target: str) -> str:
    """The Host value http.client writes: an absolute target's authority (through
    an HTTP proxy), else the endpoint's host, with its port unless the default."""
    if "://" in target:
        return urlsplit(target).netloc
    url = urlsplit(endpoint)
    host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
    default_port = 443 if url.scheme == "https" else 80
    return host if url.port in (None, default_port) else f"{host}:{url.port}"


def _request_head(target: str, fields: dict) -> bytes:
    """A POST of ``target`` with header ``fields``, through ``Content-Length: ``.

    BackendError unless the target and every value are printable ASCII and
    the target holds no space, as http.client required. A header's value is
    not shown: the Authorization value is a key.
    """
    if not (target.isascii() and target.isprintable()) or " " in target:
        raise BackendError(f"request target {target!r} holds a space, a control character "
                           "or non-ASCII text")
    for name, value in fields.items():
        if not (value.isascii() and value.isprintable()):
            raise BackendError(f"{name} header holds a control character or non-ASCII text")
    lines = [f"POST {target} HTTP/1.1", *(f"{name}: {value}" for name, value in fields.items())]
    return "\r\n".join([*lines, "Content-Length: "]).encode("ascii")


class RemoteBackend:
    """One chat-completion HTTP request per cycle, within a hard deadline.

    Every request goes over one kept-alive connection, opened on the first
    query. http.client only opens it: directly, through an HTTP proxy or a
    CONNECT tunnel, with TLS where the endpoint asks. The backend frames each
    exchange itself. The request head is built once, at preflight; a query
    writes head, Content-Length and body in one ``sendall`` and reads the
    reply through the one buffered reader kept with the connection. A reply
    that ends the connection (``Connection: close``, HTTP/1.0, a body that
    ran to close) closes it after the body, and the next query reconnects.
    A transport failure closes it too, so a connection the server dropped
    costs one failed query. ``close`` ends it.
    """

    def __init__(self, config: RemoteConfig):
        import http.client

        self.config = config
        self._conn, self._target, self._proxy_headers = _connection_for(
            config.endpoint, config.timeout)
        self._head = None  # request head through "Content-Length: ", built by preflight
        self._reader = None  # buffered reader of the open connection's socket
        self._transport_errors = (OSError, http.client.HTTPException, ReplyError)

    def _auth_token(self) -> str:
        token = self.config.api_key or os.environ.get(API_KEY_ENV)
        if not token:
            raise BackendError(
                f"no API key: set {API_KEY_ENV} or the api_key config field")
        return token

    def preflight(self) -> None:
        """Check deadline, credentials and headers without sending anything.

        The bearer token is resolved here, once, and the request head built
        for every later query.
        """
        timeout = self.config.timeout
        if timeout <= 0:
            raise BackendError("backend deadline is not positive; "
                               "requests would never be sent")
        if not timeout * 1e9 < 2 ** 63:  # a socket holds its timeout in int64 nanoseconds
            raise BackendError(f"backend timeout {timeout!r} s is longer than a socket "
                               "can wait")
        self._head = _request_head(self._target, {
            "Host": _host_header(self.config.endpoint, self._target),
            "Accept-Encoding": "identity",
            "Content-Type": "application/json",
            **self._proxy_headers,
            "Authorization": f"Bearer {self._auth_token()}",
        })

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        if self._head is None:
            self.preflight()
        body = json.dumps(build_request(self.config, prompt, image_ref)).encode("utf-8")
        conn = self._conn
        try:
            if conn.sock is None:
                conn.connect()
                self._reader = conn.sock.makefile("rb")
            conn.sock.sendall(b"%b%d\r\n\r\n%b" % (self._head, len(body), body))
            status, reason, data, closes = _read_reply(self._reader)
        except self._transport_errors as exc:
            self.close()
            raise BackendError(f"transport failure: {type(exc).__name__}: {exc}") from exc
        if closes:
            self.close()
        if not 200 <= status < 300:
            raise BackendError(f"transport failure: HTTP {status} {reason} "
                               f"from {self.config.endpoint}")
        try:
            return parse_json(data.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc

    def close(self) -> None:
        """Close the connection and its reader, which holds the socket's descriptor open."""
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._conn.close()
