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
# Seconds an embedding request may take; the provider's is its config's ``timeout``.
_TIMEOUT_S = 30.0


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


def fnv1a_64_lines(data: np.ndarray) -> np.ndarray:
    """The ``fnv1a_64`` of each string of ``data``, UTF-8 (uint8) that precedes each with a newline, as uint64s.

    Bytes before the first newline belong to no string. The strings are
    hashed together in numpy, one pass per byte position over the strings
    that long, and each hash equals ``fnv1a_64``'s bit for bit: a uint64
    product wraps modulo 2**64 as the masked one does.
    """
    starts = np.flatnonzero(data == ord("\n")) + 1
    lengths = np.diff(np.append(starts, len(data) + 1)) - 1
    hashes = np.full(len(starts), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for position in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > position)
        hashes[live] = (hashes[live] ^ data[starts[live] + position]) * prime
    return hashes


# Token hashes repeat across questions; the cache fills at query time and is
# bounded, so it never grows with the corpus.
_token_hash = functools.lru_cache(maxsize=1 << 16)(fnv1a_64)


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


# The types a JSON number or null parses to; a bool is not a number here.
_COMPONENT_TYPES = frozenset({int, float, type(None)})
# The smallest normal float: an x·x below it has lost bits to underflow.
_TINY = float(np.finfo(np.float64).tiny)


class RemoteEmbedder:
    """Client for the remote embedding protocol over one ``remote.Transport``.

    The transport bounds concurrency and retries what may succeed later;
    a vector that is not a list of JSON numbers (one with a string or a
    boolean component), or that has a null, NaN or infinite component, is
    rejected at once, and the rest re-normalized client-side so the unit-norm
    invariant holds regardless of what the server returns. A vector whose
    x·x overflows or underflows is first scaled by its largest component;
    any other is divided by its ``np.linalg.norm``, bit for bit. Each
    request times out after 30 s.
    """

    def __init__(self, config: EmbedderConfig, sleep=time.sleep):
        self.config = config
        self.transport = Transport(config.endpoint, _TIMEOUT_S, config.max_concurrency, post_json, sleep)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        body, _ = self.transport.call({"texts": list(texts)})
        vectors = body.get("vectors")
        if not isinstance(vectors, list):
            raise RemoteServiceError("embedding endpoint returned no list of vectors")
        if len(vectors) != len(texts):
            raise RemoteServiceError(f"embedding endpoint returned {len(vectors)} vectors for {len(texts)} texts")
        out = []
        for raw in vectors:
            if not isinstance(raw, list) or not _COMPONENT_TYPES.issuperset(map(type, raw)):
                raise RemoteServiceError("embedding endpoint returned a vector that is not a list of numbers")
            if len(raw) != self.config.dimension:
                raise ConfigError(
                    f"embedding endpoint returned dimension {len(raw)}, "
                    f"configured dimension is {self.config.dimension}"
                )
            try:
                vector = np.asarray(raw, dtype=np.float64)
                finite = np.isfinite(vector).all()
            except OverflowError:  # an int past the largest float
                finite = False
            if not finite:
                raise RemoteServiceError("embedding endpoint returned a null or non-finite component")
            with np.errstate(over="ignore"):  # an x·x past the largest float is rescaled below
                squares = float(vector.dot(vector))  # what np.linalg.norm takes the root of
            if not _TINY <= squares < math.inf and vector.any():
                # x·x overflowed or lost bits: scaled by its largest component, the vector's does neither.
                vector = vector / np.abs(vector).max()
                squares = float(vector.dot(vector))
            if squares > 0.0:
                vector = vector / math.sqrt(squares)
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
