"""Unit-norm text embeddings: deterministic hashed bag-of-words, or remote.

The hashed baseline keeps the whole retrieval path runnable offline and
bit-reproducible; anything stronger (sentence encoders etc.) is reached
through the remote protocol: POST ``{"texts": [...]}`` to the configured
endpoint, response ``{"vectors": [[...], ...]}``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RemoteServiceError
from .remote import post_json
from .text import normalize_tokens

EMBEDDER_KINDS = ("hashed_bow", "remote")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class EmbedderConfig:
    kind: str = "hashed_bow"
    dimension: int = 256
    endpoint: str | None = None
    max_concurrency: int = 4

    def __post_init__(self):
        if self.kind not in EMBEDDER_KINDS:
            raise ConfigError(f"embedder kind must be one of {EMBEDDER_KINDS}, got {self.kind!r}")
        if self.dimension < 1:
            raise ConfigError(f"embedder dimension must be >= 1, got {self.dimension}")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote embedder requires an endpoint")
        if self.max_concurrency < 1:
            raise ConfigError(f"max_concurrency must be >= 1, got {self.max_concurrency}")


def fnv1a_64(token: str) -> int:
    """64-bit FNV-1a hash of the token's UTF-8 bytes."""
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _UINT64_MASK
    return value


def hashed_bow_vector(text: str, dimension: int) -> np.ndarray:
    """Hashed bag-of-words embedding, L2-normalized.

    Tokens are lowercased alphanumeric runs; each token increments the
    bucket ``fnv1a_64(token) % dimension`` by one. Empty token lists map to
    the all-zero vector, the degenerate-input sentinel.
    """
    vector = np.zeros(dimension, dtype=np.float64)
    tokens = normalize_tokens(text)
    for token in tokens:
        vector[fnv1a_64(token) % dimension] += 1.0
    norm = float(np.linalg.norm(vector))
    if norm > 0.0:
        vector /= norm
    return vector


class RemoteEmbedder:
    """Client for the remote embedding protocol.

    Bounds the number of concurrently in-flight batch requests to
    ``config.max_concurrency``; vectors with null, NaN or infinite components
    are rejected, and the rest re-normalized client-side so the unit-norm
    invariant holds regardless of what the server returns.
    """

    def __init__(self, config: EmbedderConfig, timeout: float = 30.0):
        self.config = config
        self.timeout = timeout
        self._slots = threading.Semaphore(config.max_concurrency)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        with self._slots:
            body = post_json(self.config.endpoint, {"texts": list(texts)}, self.timeout)
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise RemoteServiceError(
                f"embedding endpoint returned {0 if vectors is None else len(vectors)}"
                f" vectors for {len(texts)} texts"
            )
        out = []
        for raw in vectors:
            vector = np.asarray(raw, dtype=np.float64)
            if vector.shape != (self.config.dimension,):
                raise ConfigError(
                    f"embedding endpoint returned dimension {vector.shape}, "
                    f"configured dimension is {self.config.dimension}"
                )
            if not np.isfinite(vector).all():
                raise RemoteServiceError("embedding endpoint returned a null or non-finite component")
            norm = float(np.linalg.norm(vector))
            if norm > 0.0:
                vector = vector / norm
            out.append(vector)
        return out


_remote_clients: dict[EmbedderConfig, RemoteEmbedder] = {}
_remote_lock = threading.Lock()


def _remote_client(config: EmbedderConfig) -> RemoteEmbedder:
    # One shared client per config so the concurrency bound spans callers.
    with _remote_lock:
        client = _remote_clients.get(config)
        if client is None:
            client = RemoteEmbedder(config)
            _remote_clients[config] = client
        return client


def embed_batch(config: EmbedderConfig, texts: list[str]) -> list[np.ndarray]:
    """Embed texts in input order; one unit-norm (or all-zero) vector each."""
    if config.kind == "hashed_bow":
        return [hashed_bow_vector(text, config.dimension) for text in texts]
    return _remote_client(config).embed(texts)
