"""Shared HTTP plumbing for the remote embedding and completion clients."""

from __future__ import annotations

import http.client
import itertools
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request

from .errors import RemoteServiceError

logger = logging.getLogger(__name__)

# Bearer token for remote services; read from the environment on every call
# and never persisted to any output file.
API_TOKEN_ENV = "KGPROMPT_API_TOKEN"

MAX_RETRIES = 3
BACKOFF_INITIAL_SECONDS = 1.0

# One opener for every request. Its handlers take the http and https proxies
# from the environment (read once, at import), speak HTTP and HTTPS, and turn a
# non-2xx reply into HTTPError; any other scheme fails as a URLError. urllib's
# default opener would also serve file:, ftp: and data: URLs, and follow
# redirects, turning a POST answered with 301, 302 or 303 into a bodiless GET.
_OPENER = urllib.request.OpenerDirector()
for _handler in (
    urllib.request.ProxyHandler(
        {scheme: url for scheme, url in urllib.request.getproxies().items() if scheme in ("http", "https")}
    ),
    urllib.request.HTTPHandler(),
    urllib.request.HTTPSHandler(),
    urllib.request.HTTPDefaultErrorHandler(),
    urllib.request.HTTPErrorProcessor(),
    urllib.request.UnknownHandler(),
):
    _OPENER.add_handler(_handler)


def post_json(url: str, payload: dict, timeout: float) -> dict:
    """POST a JSON payload and return the parsed JSON response.

    Raises RemoteServiceError on transport failures (status None), non-2xx
    responses (a redirect included: none is followed), or bodies that are
    not JSON objects.
    """
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
    try:
        with _OPENER.open(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise RemoteServiceError(f"{url} returned HTTP {exc.code}", status=exc.code) from exc
    except (OSError, http.client.HTTPException) as exc:
        raise RemoteServiceError(f"request to {url} failed: {exc}", status=None) from exc
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise RemoteServiceError(f"{url} returned a non-JSON body", status=status) from exc
    if not isinstance(body, dict):
        raise RemoteServiceError(
            f"{url} returned JSON of type {type(body).__name__}, expected object",
            status=status,
        )
    return body


def _retryable(status: int | None) -> bool:
    """Whether a failed call may succeed later: transport errors, 429 and 5xx."""
    return status is None or status == 429 or status >= 500


class Transport:
    """One remote service: endpoint, timeout, concurrency bound, retry policy and counters.

    A failure that may succeed later (see ``_retryable``) is retried up to
    MAX_RETRIES times with exponential backoff (1s, 2s, 4s), slept outside
    the bound; any other fails at once, and the final RemoteServiceError
    carries the attempt count. Each client passes its own module's
    ``post_json`` as ``post``, so a wrapper installed there sees every request.
    """

    def __init__(self, endpoint: str, timeout: float, max_concurrency: int, post=post_json, sleep=time.sleep):
        self.endpoint = endpoint
        self.timeout = timeout
        self._post = post
        self._sleep = sleep
        self._slots = threading.Semaphore(max_concurrency)
        self._lock = threading.Lock()
        self._in_flight = self.requests = self.retries = self.peak_in_flight = 0

    def call(self, payload: dict) -> tuple[dict, int]:
        """POST ``payload`` under the retry policy; the JSON body and the attempts made."""
        for attempts in itertools.count(1):
            with self._slots:
                with self._lock:
                    self.requests += 1
                    self.retries += attempts > 1
                    self._in_flight += 1
                    self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
                try:
                    return self._post(self.endpoint, payload, self.timeout), attempts
                except RemoteServiceError as exc:
                    error = exc
                finally:
                    with self._lock:
                        self._in_flight -= 1
            if attempts > MAX_RETRIES or not _retryable(error.status):
                message = f"{error} (attempts: {attempts})"
                raise RemoteServiceError(message, status=error.status, attempts=attempts) from error
            delay = BACKOFF_INITIAL_SECONDS * 2 ** (attempts - 1)
            logger.warning("attempt %d failed (%s); retrying in %.1fs", attempts, error, delay)
            self._sleep(delay)
