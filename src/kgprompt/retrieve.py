"""Candidate-triple ranking and selection.

Three strategies: cosine similarity between question and verbalized triple
embeddings, seeded random ordering, and relation popularity. All of them
break ties by the candidate's position in the input list, so rankings (and
therefore prompts) are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .embed import EmbedderConfig, embed_batch, hashed_bow_sparse, part_buckets
from .kg import EntityId, KnowledgeGraph, Triple, relation_frequency
from .verbalize import VerbalizedTriple, verbalize


class ScoredTriple(NamedTuple):
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


def _hashed_scores(dimension: int, question: str, verbalized: list[VerbalizedTriple]) -> list[float]:
    # A candidate's bucket counts are the sums of its parts' counts (see
    # ``verbalize``), so a part text is tokenized only when it is not in the
    # ``part_buckets`` cache, and ``count / norm`` is the value
    # ``hashed_bow_sparse`` gives the joined text, bit for bit: the counts
    # and their squared sum are integers. fsum is exactly rounded, so the
    # order of the shared buckets does not matter, and a candidate sharing
    # no bucket scores the 0.0 that fsum gives an empty sum.
    question_vector = hashed_bow_sparse(question, dimension)
    scores = []
    for _, subject, relation, object_text in verbalized:
        buckets = part_buckets(subject, dimension) + part_buckets(relation, dimension)
        buckets += part_buckets(object_text, dimension)
        distinct = set(buckets)
        shared = distinct.intersection(question_vector)
        if not shared:
            scores.append(0.0)
            continue
        if len(distinct) == len(buckets):  # every count is 1
            norm = math.sqrt(len(buckets))
        else:
            norm = math.sqrt(sum(buckets.count(bucket) ** 2 for bucket in distinct))
        products = [question_vector[bucket] * (buckets.count(bucket) / norm) for bucket in shared]
        scores.append(math.fsum(products))
    return scores


def _similarity_scores(
    config: EmbedderConfig, question: str, verbalized: list[VerbalizedTriple]
) -> list[float]:
    if config.kind == "hashed_bow":
        return _hashed_scores(config.dimension, question, verbalized)
    dense = embed_batch(config, [question] + [triple.text for triple in verbalized])
    question_vector = _nonzero(dense[0])
    return [_cosine(question_vector, _nonzero(vector)) for vector in dense[1:]]


def rank_candidates(
    strategy: RetrievalStrategy,
    question: str,
    candidates: Sequence[Triple],
    graph: KnowledgeGraph,
) -> list[ScoredTriple]:
    """Score and sort candidates descending; ties keep input order.

    Returns the full ranking with 1-based ranks and non-increasing scores.
    Each candidate is verbalized once. The hashed embedder counts its
    buckets from the cached token buckets of its three part texts
    (``embed.part_buckets``); the counts add up to those of the joined text
    (see ``verbalize``), so scores equal the cosine of ``hashed_bow_sparse``
    vectors of the question and ``.verbalized`` bit for bit. A remote
    embedder embeds the joined texts in one batch.
    """
    verbalized = [verbalize(triple, graph) for triple in candidates]
    if isinstance(strategy, Similarity):
        scores = _similarity_scores(strategy.embedder, question, verbalized)
    elif isinstance(strategy, Random):
        rng = np.random.default_rng(strategy.seed & 0xFFFFFFFFFFFFFFFF)
        scores = rng.random(len(candidates)).tolist()
    elif isinstance(strategy, Popular):
        frequency = relation_frequency(graph)
        scores = [float(frequency.get(triple.relation, 0)) for triple in candidates]
    else:
        raise TypeError(f"unknown retrieval strategy: {strategy!r}")

    # No score is NaN, and sorted stays stable with reverse=True, so equal
    # scores keep input order.
    order = sorted(range(len(candidates)), key=scores.__getitem__, reverse=True)
    return [
        ScoredTriple(candidates[index], verbalized[index].text, scores[index], rank)
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
