"""Text-completion providers behind one interface.

The remote backend speaks a minimal JSON completion protocol (POST
``{"model", "prompt", "max_tokens"}``, response ``{"text"}``) so any hosted
model can be adapted with a thin proxy. The scripted backend returns canned
responses keyed by prompt substrings, which keeps every end-to-end test
deterministic and offline.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, RemoteServiceError
from .remote import post_json

logger = logging.getLogger(__name__)

PROVIDER_KINDS = ("scripted", "remote")
SCRIPTED_DEFAULT_RESPONSE = "UNKNOWN"

MAX_RETRIES = 3
BACKOFF_INITIAL_SECONDS = 1.0


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
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote provider requires an endpoint")
        if self.max_concurrency < 1:
            raise ConfigError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        # Accept a JSON-style mapping and keep its insertion order.
        script = self.script
        if isinstance(script, dict):
            script = tuple(script.items())
        object.__setattr__(
            self, "script", tuple((str(key), str(value)) for key, value in script)
        )


class ScriptedClient:
    """Pure, deterministic provider: first matching script key wins."""

    def __init__(self, config: ProviderConfig):
        self.config = config

    def generate(self, request: CompletionRequest) -> str:
        for key, response in self.config.script:
            if key in request.prompt:
                return response
        return SCRIPTED_DEFAULT_RESPONSE


def _retryable(status: int | None) -> bool:
    """Whether a failed call may succeed later: transport errors, 429 and 5xx."""
    return status is None or status == 429 or status >= 500


class RemoteClient:
    """HTTP completion client with retries and a shared concurrency bound.

    Calls that may succeed later (see ``_retryable``) are retried up to
    MAX_RETRIES times with exponential backoff (1s, 2s, 4s); any other 4xx,
    and a 2xx body that is not JSON or lacks a ``text`` string, fail at
    once. The final RemoteServiceError carries the attempt count.
    ``max_in_flight`` records the peak number of simultaneously outstanding
    requests, for instrumentation.
    """

    def __init__(self, config: ProviderConfig, sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self._sleep = sleep
        self._slots = threading.Semaphore(config.max_concurrency)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0

    def _post(self, payload: dict) -> dict:
        with self._slots:
            with self._lock:
                self._in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self._in_flight)
            try:
                return post_json(self.config.endpoint, payload, self.config.timeout)
            finally:
                with self._lock:
                    self._in_flight -= 1

    def generate(self, request: CompletionRequest) -> str:
        payload = {
            "model": self.config.model_name,
            "prompt": request.prompt,
            "max_tokens": request.max_output_tokens,
        }
        attempts = 0
        delay = BACKOFF_INITIAL_SECONDS
        while True:
            attempts += 1
            try:
                body = self._post(payload)
                break
            except RemoteServiceError as exc:
                if attempts > MAX_RETRIES or not _retryable(exc.status):
                    raise RemoteServiceError(
                        f"completion failed after {attempts} attempts: {exc}",
                        status=exc.status,
                        attempts=attempts,
                    ) from exc
                logger.warning(
                    "completion attempt %d failed (%s); retrying in %.1fs", attempts, exc, delay
                )
                self._sleep(delay)
                delay *= 2
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
