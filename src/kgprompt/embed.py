"""Unit-norm text embeddings: deterministic hashed bag-of-words, or remote.

The hashed baseline keeps the whole retrieval path runnable offline and
bit-reproducible; anything stronger (sentence encoders etc.) is reached
through the remote protocol: POST ``{"texts": [...]}`` to the configured
endpoint, response ``{"vectors": [[...], ...]}``.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RemoteServiceError, http_url
from .remote import Transport, post_json
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
        if self.kind == "remote":
            http_url(self.endpoint, "embedder field 'endpoint'")
        if self.max_concurrency < 1:
            raise ConfigError(f"max_concurrency must be >= 1, got {self.max_concurrency}")


def fnv1a_64(token: str) -> int:
    """64-bit FNV-1a hash of the token's UTF-8 bytes."""
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _UINT64_MASK
    return value


# Token hashes repeat across questions and facts; the cache fills at query
# time and is bounded, so it never grows with the corpus.
_token_hash = functools.lru_cache(maxsize=1 << 16)(fnv1a_64)


@functools.lru_cache(maxsize=1 << 16)
def part_buckets(text: str, dimension: int) -> tuple[int, ...]:
    """The bucket ``fnv1a_64(token) % dimension`` of each token of ``text``.

    Meant for the part texts a verbalized triple joins, which recur across
    candidates: the bucket counts of the joined text are the sums of its
    parts' counts (see ``verbalize``). The cache is keyed by ``(text,
    dimension)`` and holds no graph state, so a graph that renames an
    entity gets the new name's buckets. It keeps at most 65,536 entries,
    each a flat tuple of small ints, so it never grows with the corpus.
    """
    return tuple(_token_hash(token) % dimension for token in normalize_tokens(text))


def hashed_bow_sparse(text: str, dimension: int) -> dict[int, float]:
    """Nonzero buckets of the hashed bag-of-words embedding, ``{bucket: value}``.

    Tokens are lowercased alphanumeric runs; each token increments the
    bucket ``fnv1a_64(token) % dimension`` by one, and the counts are divided
    by their L2 norm. The norm is the square root of the integer sum of
    squared counts, which is exactly what ``np.linalg.norm`` computes on the
    integer-valued dense counts, so every value equals the dense vector's
    component bit for bit. Empty token lists map to ``{}``, the all-zero
    vector.
    """
    counts = Counter(_token_hash(token) % dimension for token in normalize_tokens(text))
    norm = math.sqrt(sum(count * count for count in counts.values()))
    return {bucket: count / norm for bucket, count in counts.items()}


def hashed_bow_vector(text: str, dimension: int) -> np.ndarray:
    """Hashed bag-of-words embedding, L2-normalized, as a dense array.

    The dense form of ``hashed_bow_sparse``: the all-zero vector for texts
    without tokens, the degenerate-input sentinel.
    """
    vector = np.zeros(dimension, dtype=np.float64)
    for bucket, value in hashed_bow_sparse(text, dimension).items():
        vector[bucket] = value
    return vector


class RemoteEmbedder:
    """Client for the remote embedding protocol over one ``remote.Transport``.

    The transport bounds concurrency and retries what may succeed later;
    vectors with null, NaN or infinite components are rejected at once, and
    the rest re-normalized client-side so the unit-norm invariant holds
    regardless of what the server returns.
    """

    def __init__(self, config: EmbedderConfig, timeout: float = 30.0, sleep=time.sleep):
        self.config = config
        self.transport = Transport(config.endpoint, timeout, config.max_concurrency, post_json, sleep)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        body, _ = self.transport.call({"texts": list(texts)})
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


def remote_embedder(config: EmbedderConfig) -> RemoteEmbedder:
    """The process's one client for ``config``, so its bound spans every caller."""
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
    return remote_embedder(config).embed(texts)
