"""Backends answering gaze-reasoning prompts.

ScriptedBackend replays canned responses from a scenario file (pure,
offline). OracleBackend answers from evaluation metadata with a
configurable delay — delay 1 is the always-correct reference, delay 3
lands outside the two-cycle correctness window and must score zero.
RemoteBackend talks to a chat-completions HTTP endpoint.

Every backend implements query(prompt, image_ref, cycle_index) -> text.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import requests

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


class RemoteBackend:
    """One chat-completion HTTP request per cycle, within a hard deadline."""

    def __init__(self, config: RemoteConfig):
        self.config = config

    def _auth_token(self) -> str:
        token = self.config.api_key or os.environ.get(API_KEY_ENV)
        if not token:
            raise BackendError(
                f"no API key: set {API_KEY_ENV} or the api_key config field")
        return token

    def preflight(self) -> None:
        """Check deadline and credentials without sending anything."""
        if self.config.timeout <= 0:
            raise BackendError("backend deadline is not positive; "
                               "requests would never be sent")
        self._auth_token()

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        self.preflight()
        token = self._auth_token()
        body = build_request(self.config, prompt, image_ref)
        try:
            resp = requests.post(
                self.config.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {token}"},
                timeout=self.config.timeout,
            )
            resp.raise_for_status()
            doc = resp.json()
            return doc["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
            raise BackendError(f"transport failure: {exc}") from exc
        except (KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc
