"""Backends answering gaze-reasoning prompts.

ScriptedBackend replays canned responses from a scenario file (pure,
offline). OracleBackend answers from evaluation metadata with a
configurable delay — delay 1 is the always-correct reference, delay 3
lands outside the two-cycle correctness window and must score zero.
RemoteBackend talks to a chat-completions HTTP endpoint over one
kept-alive connection (standard library only).

Every backend implements query(prompt, image_ref, cycle_index) -> text.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from urllib.parse import unquote, urlsplit

from ..config import read_config
from ..errors import BackendError
from .pipeline import mark_scene
from .scenario import Scenario

API_KEY_ENV = "GAZESHIFT_API_KEY"
DEFAULT_TIMEOUT = 1.2  # seconds; must finish inside the 1.5 s cycle budget


class ScriptedBackend:
    """Replays the scenario's canned response for each cycle index."""

    def __init__(self, scenario: Scenario):
        self.responses = dict(scenario.responses)

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        try:
            return self.responses[cycle_index]
        except KeyError:
            raise BackendError(f"no canned response for cycle {cycle_index}") from None


class OracleBackend:
    """Answers the expected target exactly ``delay`` cycles after cue onset.

    On every other cycle it names some non-expected candidate (or an
    arbitrary one when the scenario has no evaluation metadata), so only
    the delayed answer can score. delay=1 models a perfect reasoner;
    delay=3 is the adversarial probe for the t0+1/t0+2 window.
    """

    def __init__(self, scenario: Scenario, delay: int = 1):
        if delay < 1:
            raise ValueError("delay must be at least 1")
        self.scenario = scenario
        self.delay = delay
        cue = scenario.cue_cycle()
        self._cue_index = cue.index if cue is not None else None
        self._expected = cue.expected_instance if cue is not None else None

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        cycle = self.scenario.cycles[cycle_index]
        marked = mark_scene(cycle)
        answer_cycle = (self._cue_index is not None and self._expected is not None
                        and cycle_index == self._cue_index + self.delay)
        if answer_cycle:
            return f"TARGET: {marked.mark_of(self._expected)}"
        for mark in sorted(marked.marks):
            if marked.marks[mark].instance_id != self._expected:
                return f"TARGET: {mark}"
        # Single-candidate scene where that candidate is the expected one:
        # nothing wrong to say, so say nothing parseable and force a hold.
        return "no alternative candidate"


@dataclass(frozen=True)
class RemoteConfig:
    """Connection settings for a chat-completions endpoint."""

    endpoint: str
    model: str
    timeout: float = DEFAULT_TIMEOUT
    api_key: str | None = None  # falls back to the GAZESHIFT_API_KEY env var
    max_tokens: int = 64

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


class RemoteBackend:
    """One chat-completion HTTP request per cycle, within a hard deadline.

    Every request goes over one kept-alive connection, opened on the first
    query. A transport failure closes it and the next query reconnects, so a
    connection the server dropped costs one failed query. ``close`` ends it.
    """

    def __init__(self, config: RemoteConfig):
        import http.client

        self.config = config
        self._conn, self._target, self._headers = _connection_for(
            config.endpoint, config.timeout)
        self._headers["Content-Type"] = "application/json"
        self._transport_errors = (OSError, http.client.HTTPException)

    def _auth_token(self) -> str:
        token = self.config.api_key or os.environ.get(API_KEY_ENV)
        if not token:
            raise BackendError(
                f"no API key: set {API_KEY_ENV} or the api_key config field")
        return token

    def preflight(self) -> None:
        """Check deadline and credentials without sending anything.

        The bearer token is resolved here, once, for every later query.
        """
        if self.config.timeout <= 0:
            raise BackendError("backend deadline is not positive; "
                               "requests would never be sent")
        self._headers["Authorization"] = f"Bearer {self._auth_token()}"

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        if "Authorization" not in self._headers:
            self.preflight()
        body = json.dumps(build_request(self.config, prompt, image_ref)).encode("utf-8")
        try:
            self._conn.request("POST", self._target, body, self._headers)
            resp = self._conn.getresponse()
            data = resp.read()
        except self._transport_errors as exc:
            self._conn.close()
            raise BackendError(f"transport failure: {type(exc).__name__}: {exc}") from exc
        if not 200 <= resp.status < 300:
            raise BackendError(f"transport failure: HTTP {resp.status} {resp.reason} "
                               f"from {self.config.endpoint}")
        try:
            return json.loads(data.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc

    def close(self) -> None:
        self._conn.close()
