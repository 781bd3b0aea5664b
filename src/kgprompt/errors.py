"""Exception types, and the checks of config values and input text, shared across the package."""

from __future__ import annotations

import re
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
    """``value`` if it is an absolute http or https URL that HTTP can send; else a ConfigError naming ``name``.

    It has a host, no whitespace or control character, and an ASCII path and query (a host is sent IDNA-encoded).
    """
    if isinstance(value, str) and not re.search(r"[\x00-\x20\x7f]", value):
        try:
            parts = urllib.parse.urlsplit(value)
            parts.port  # raises ValueError for a port that is not a number in 0-65535
        except ValueError:  # or for a malformed IPv6 host
            parts = None
        if parts and parts.scheme in ("http", "https") and parts.hostname and (parts.path + parts.query).isascii():
            return value
    raise ConfigError(f"{name} must be an absolute http or https URL, got {value!r}")


def check_utf8(text: str, path, line: int = 1, error: type[Exception] = ConfigError) -> None:
    """``error`` naming ``path`` and the line when ``text``, from line ``line``, holds a surrogate.

    No UTF-8 file can hold a surrogate, and text read with ``surrogateescape``
    holds one for each byte that is not UTF-8.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line += text.count("\n", 0, exc.start)
        raise error(f"{path}:{line}: not valid UTF-8") from None


# A JSON escape, tried in this order: a surrogate pair, which ``json`` joins
# into one character; a lone surrogate (group 1); any other escape.
_JSON_ESCAPE = re.compile(
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)", re.DOTALL
)


def check_json_text(text: str, path, line: int = 1) -> None:
    """``check_utf8`` for JSON ``text``, which also must not escape a lone surrogate."""
    check_utf8(text, path, line)
    lone = next((match.start() for match in _JSON_ESCAPE.finditer(text) if match[1]), None)
    if lone is not None:
        line += text.count("\n", 0, lone)
        raise ConfigError(f"{path}:{line}: a \\u escape makes a lone surrogate, which is not Unicode text")


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
