"""Candidate-triple ranking and selection.

Three strategies: cosine similarity between question and verbalized triple
embeddings, seeded random ordering, and relation popularity. All of them
break ties by the candidate's position in the input list, so rankings (and
therefore prompts) are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .embed import EmbedderConfig, embed_batch, hashed_bow_sparse
from .kg import EntityId, KnowledgeGraph, Triple, relation_frequency
from .verbalize import verbalize


@dataclass(frozen=True)
class ScoredTriple:
    triple: Triple
    verbalized: str
    score: float
    rank: int


@dataclass(frozen=True)
class Similarity:
    """Rank by cosine similarity under the configured embedder."""

    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)


@dataclass(frozen=True)
class Random:
    """Rank by a seeded uniform random draw per candidate (64-bit seed)."""

    seed: int = 0


@dataclass(frozen=True)
class Popular:
    """Rank by how often the triple's relation occurs in the whole graph."""


RetrievalStrategy = Union[Similarity, Random, Popular]


SparseVector = dict[int, float]


def _nonzero(vector: np.ndarray) -> SparseVector:
    return {index: value for index, value in enumerate(vector.tolist()) if value}


def _cosine(question: SparseVector, candidate: SparseVector) -> float:
    # Vectors are unit-norm or all-zero, so the dot product is the cosine
    # and a zero vector on either side yields 0. fsum gives the exactly
    # rounded sum of the products, so the score does not depend on
    # accumulation order and stays bit-reproducible. Summing only the
    # buckets nonzero on both sides is exact too: every other product is
    # +-0.0, which leaves the exact sum unchanged, and fsum never returns
    # -0.0.
    return math.fsum(value * candidate[bucket] for bucket, value in question.items() if bucket in candidate)


def _similarity_scores(
    config: EmbedderConfig, question: str, verbalized: list[str]
) -> list[float]:
    if config.kind == "hashed_bow":
        question_vector = hashed_bow_sparse(question, config.dimension)
        vectors = (hashed_bow_sparse(text, config.dimension) for text in verbalized)
    else:
        dense = embed_batch(config, [question] + verbalized)
        question_vector = _nonzero(dense[0])
        vectors = map(_nonzero, dense[1:])
    return [_cosine(question_vector, vector) for vector in vectors]


def rank_candidates(
    strategy: RetrievalStrategy,
    question: str,
    candidates: Sequence[Triple],
    graph: KnowledgeGraph,
) -> list[ScoredTriple]:
    """Score and sort candidates descending; ties keep input order.

    Returns the full ranking with 1-based ranks and non-increasing scores.
    """
    verbalized = [verbalize(triple, graph).text for triple in candidates]
    if isinstance(strategy, Similarity):
        scores = _similarity_scores(strategy.embedder, question, verbalized)
    elif isinstance(strategy, Random):
        rng = np.random.default_rng(strategy.seed & 0xFFFFFFFFFFFFFFFF)
        scores = list(rng.random(len(candidates)))
    elif isinstance(strategy, Popular):
        frequency = relation_frequency(graph)
        scores = [float(frequency.get(triple.relation, 0)) for triple in candidates]
    else:
        raise TypeError(f"unknown retrieval strategy: {strategy!r}")

    order = sorted(range(len(candidates)), key=lambda index: (-scores[index], index))
    return [
        ScoredTriple(candidates[index], verbalized[index], float(scores[index]), rank)
        for rank, index in enumerate(order, start=1)
    ]


def top_k(ranked: Sequence[ScoredTriple], k: int) -> list[ScoredTriple]:
    """First ``min(k, n)`` elements of a ranking, ranks preserved."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return list(ranked[:k])


def answer_bearing(
    ranked: Sequence[ScoredTriple], answers: set[EntityId]
) -> int | None:
    """Rank of the first triple whose subject or entity-object is an answer."""
    for scored in ranked:
        if scored.triple.subject in answers:
            return scored.rank
        object_id = scored.triple.object_entity_id()
        if object_id is not None and object_id in answers:
            return scored.rank
    return None
