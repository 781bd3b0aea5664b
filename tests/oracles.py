"""Independent brute-force implementations used to check the real code paths.

Deliberately written without numpy and without importing the production
embedding or ranking functions: own FNV-1a, own tokenizer, own cosine, own
sort. Kept separate so every consumer checks against the same oracle.
"""

from __future__ import annotations

import math
import re

_ORACLE_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def oracle_fnv1a(token: str) -> int:
    value = 14695981039346656037
    for byte in token.encode("utf-8"):
        value = ((value ^ byte) * 1099511628211) % (1 << 64)
    return value


def oracle_vector(text: str, dimension: int) -> list[float]:
    counts = [0.0] * dimension
    for token in _ORACLE_TOKEN.findall(text.lower()):
        counts[oracle_fnv1a(token) % dimension] += 1.0
    norm = math.sqrt(sum(component * component for component in counts))
    if norm == 0.0:
        return counts
    return [component / norm for component in counts]


def oracle_cosine(left: list[float], right: list[float]) -> float:
    """Dense dot product over every component, zeros included.

    math.fsum makes it the exactly rounded sum of the per-bucket products,
    the same well-defined value the production path promises.
    """
    return math.fsum(a * b for a, b in zip(left, right))


def oracle_rank(question: str, texts: list[str], dimension: int) -> list[int]:
    """Candidate indices sorted by cosine descending, ties by input index."""
    question_vector = oracle_vector(question, dimension)
    scores = [oracle_cosine(question_vector, oracle_vector(text, dimension)) for text in texts]
    return sorted(range(len(texts)), key=lambda index: (-scores[index], index))


def oracle_truncate(render, count: int, budget: int, token_counter=lambda text: len(text.split())):
    """Drop-one truncation: try every prefix length from ``count`` down.

    ``render(n)`` is the prompt holding the first ``n`` knowledge lines.
    Returns ``(n, text)`` for the longest prefix within ``budget`` tokens, or
    ``(None, tokens)`` with the token count of the knowledge-free prompt when
    even that is over budget.
    """
    for length in range(count, -1, -1):
        text = render(length)
        tokens = token_counter(text)
        if tokens <= budget:
            return length, text
    return None, tokens


def oracle_tokens(text: str) -> list[str]:
    return _ORACLE_TOKEN.findall(text.lower())


def oracle_link(entities, question: str) -> set[str]:
    """Brute-force entity linking: compare every surface at every position.

    ``entities`` are objects with ``id``, ``name`` and ``aliases``. Matches
    are accepted longest first, then by start, then by id; a match lying
    inside an accepted, strictly longer span is dropped.
    """
    words = oracle_tokens(question)
    matches = []
    for entity in entities:
        for surface in [entity.name, *entity.aliases]:
            pattern = oracle_tokens(surface or "")
            if not pattern:
                continue
            for start in range(len(words) - len(pattern) + 1):
                if words[start : start + len(pattern)] == pattern:
                    matches.append((len(pattern), start, entity.id))
    matches.sort(key=lambda match: (-match[0], match[1], match[2]))
    accepted = []
    for width, start, entity_id in matches:
        end = start + width
        if not any(s <= start and end <= e and width < e - s for s, e, _ in accepted):
            accepted.append((start, end, entity_id))
    return {entity_id for _, _, entity_id in accepted}
