"""Text-completion providers behind one interface.

The remote backend speaks a minimal JSON completion protocol (POST
``{"model", "prompt", "max_tokens"}``, response ``{"text"}``) so any hosted
model can be adapted with a thin proxy. The scripted backend returns canned
responses keyed by prompt substrings, which keeps every end-to-end test
deterministic and offline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, RemoteServiceError, http_url, string_pairs
from .remote import Transport, post_json

PROVIDER_KINDS = ("scripted", "remote")
SCRIPTED_DEFAULT_RESPONSE = "UNKNOWN"


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    max_output_tokens: int = 128

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "scripted"
    endpoint: str | None = None
    model_name: str = "scripted"
    timeout: float = 30.0
    max_concurrency: int = 4
    script: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ConfigError(f"provider kind must be one of {PROVIDER_KINDS}, got {self.kind!r}")
        if self.kind == "remote":
            http_url(self.endpoint, "provider field 'endpoint'")
        if self.max_concurrency < 1:
            raise ConfigError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        # The socket layer would reject a bad timeout only at call time.
        timeout = self.timeout
        number = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
        if not (number and 0 < timeout < math.inf):
            raise ConfigError(f"provider timeout must be a finite number above 0, got {timeout!r}")
        # Accept a JSON-style mapping and keep its insertion order.
        script = tuple(self.script.items()) if isinstance(self.script, dict) else self.script
        object.__setattr__(self, "script", string_pairs(script, "provider field 'script'"))


class ScriptedClient:
    """Pure, deterministic provider: first matching script key wins."""

    def __init__(self, config: ProviderConfig):
        self.config = config

    def generate(self, request: CompletionRequest) -> str:
        for key, response in self.config.script:
            if key in request.prompt:
                return response
        return SCRIPTED_DEFAULT_RESPONSE


class RemoteClient:
    """HTTP completion client over one ``remote.Transport``.

    The transport bounds concurrency and retries what may succeed later; a
    2xx body that is not JSON or lacks a ``text`` string fails at once.
    """

    def __init__(self, config: ProviderConfig, sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self.transport = Transport(config.endpoint, config.timeout, config.max_concurrency, post_json, sleep)

    def generate(self, request: CompletionRequest) -> str:
        payload = {
            "model": self.config.model_name,
            "prompt": request.prompt,
            "max_tokens": request.max_output_tokens,
        }
        body, attempts = self.transport.call(payload)
        text = body.get("text")
        if not isinstance(text, str):
            raise RemoteServiceError(
                "completion response is missing a 'text' string", attempts=attempts
            )
        return text


CompletionClient = ScriptedClient | RemoteClient


def build_client(config: ProviderConfig) -> CompletionClient:
    if config.kind == "scripted":
        return ScriptedClient(config)
    return RemoteClient(config)
