"""Exception types, and the checks of config values, shared across the package."""

from __future__ import annotations

import urllib.parse


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


def string_pairs(value, name: str) -> tuple[tuple[str, str], ...]:
    """A JSON list of two-item lists as a tuple of string pairs; else a ConfigError naming ``name``."""
    pairs = isinstance(value, (list, tuple)) and all(
        isinstance(item, (list, tuple)) and len(item) == 2 for item in value
    )
    if not pairs:
        raise ConfigError(f"{name} must be a list of pairs, got {value!r}")
    return tuple((str(first), str(second)) for first, second in value)


def http_url(value, name: str) -> str:
    """``value`` if it is an absolute http or https URL with a host; else a ConfigError naming ``name``."""
    if isinstance(value, str):
        try:
            parts = urllib.parse.urlsplit(value)
            parts.port  # raises ValueError for a port that is not a number in 0-65535
        except ValueError:  # or for a malformed IPv6 host
            parts = None
        if parts and parts.scheme in ("http", "https") and parts.hostname:
            return value
    raise ConfigError(f"{name} must be an absolute http or https URL, got {value!r}")


class GraphLoadError(ValueError):
    """A knowledge-graph input file could not be parsed or validated."""


class PromptTooLongError(ValueError):
    """A prompt exceeds the input token budget even with nothing left to drop."""


class RemoteServiceError(RuntimeError):
    """A remote embedding or completion call failed.

    Carries the HTTP status (None for transport-level failures) and the
    number of attempts made, so callers can decide whether to retry.
    """

    def __init__(self, message: str, *, status: int | None = None, attempts: int = 1):
        super().__init__(message)
        self.status = status
        self.attempts = attempts
