"""Candidate-triple ranking and selection.

Three strategies: cosine similarity between question and verbalized triple
embeddings, seeded random ordering, and relation popularity. All of them
break ties by the candidate's position in the input list, so rankings (and
therefore prompts) are bit-reproducible. Candidates are ranked as rows of
the graph's columnar store; only the facts a caller reads from the ranking
(normally the top k) are verbalized.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .embed import EmbedderConfig, embed_batch, hashed_bow_sparse, part_buckets
from .kg import EntityId, KnowledgeGraph, RowView, Triple, relation_frequency
from .verbalize import joined, verbalize


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


Parts = tuple[str, str, str]


def _hashed_scores(dimension: int, question: str, parts: Iterable[Parts]) -> list[float]:
    # A candidate's bucket counts are the sums of its parts' counts (see
    # ``verbalize``), so a part text is tokenized only when it is not in the
    # ``part_buckets`` cache, and ``count / norm`` is the value
    # ``hashed_bow_sparse`` gives the joined text, bit for bit: the counts
    # and their squared sum are integers. fsum is exactly rounded, so the
    # order of the shared buckets does not matter, and a candidate sharing
    # no bucket scores the 0.0 that fsum gives an empty sum.
    question_vector = hashed_bow_sparse(question, dimension)
    scores = []
    for subject, relation, object_text in parts:
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


def _similarity_scores(config: EmbedderConfig, question: str, parts: Iterable[Parts]) -> list[float]:
    """The cosine of each candidate, given as its (subject, relation, object) part texts."""
    if config.kind == "hashed_bow":
        return _hashed_scores(config.dimension, question, parts)
    # Vectors are unit-norm or all-zero, so the dot product is the cosine
    # and a zero vector on either side yields 0. fsum gives the exactly
    # rounded sum of the products, so the score does not depend on
    # accumulation order, and it never returns -0.0.
    dense = embed_batch(config, [question] + [joined(*candidate) for candidate in parts])
    question_vector = dense[0].tolist()
    return [math.fsum(map(operator.mul, question_vector, vector.tolist())) for vector in dense[1:]]


class Ranking(RowView):
    """A ranking of graph rows that makes its ``ScoredTriple``s only when read.

    ``rows`` and ``scores`` are in rank order. Reading a slice gathers its
    rows' ``Triple``s at once and verbalizes only those.
    """

    __slots__ = ("scores",)

    def __init__(self, graph: KnowledgeGraph, rows: np.ndarray, scores: np.ndarray):
        super().__init__(graph, rows)
        self.scores = scores

    def _read(self, index: slice) -> list[ScoredTriple]:
        triples = self.graph.triples_at(self.rows[index])
        ranks = range(1, len(self) + 1)[index]
        return [
            ScoredTriple(triple, verbalize(triple, self.graph).text, score, rank)
            for triple, score, rank in zip(triples, self.scores[index].tolist(), ranks)
        ]


def rank_candidates(
    strategy: RetrievalStrategy,
    question: str,
    candidates: Sequence[Triple],
    graph: KnowledgeGraph,
) -> Ranking:
    """Score and sort candidates descending; ties keep input order.

    ``candidates`` are triples of ``graph``, best a ``Neighborhood`` of it,
    whose rows are read as they are (see ``KnowledgeGraph.rows``). Returns
    the full ranking with 1-based ranks and non-increasing scores, as a
    ``Ranking`` that verbalizes a candidate only when it is read. Scoring
    reads each candidate's part texts from ``graph.part_texts`` by code and
    builds no ``Triple`` or text: the hashed embedder counts its buckets
    from the cached token buckets of the three parts
    (``embed.part_buckets``), which add up to those of the joined text (see
    ``verbalize``), so scores equal the cosine of ``hashed_bow_sparse``
    vectors of the question and ``.verbalized`` bit for bit. A remote
    embedder embeds the joined texts in one batch; ``Popular`` scores each
    relation code by its count in the whole graph.
    """
    rows = graph.rows(candidates)
    if isinstance(strategy, Similarity):
        texts = graph.part_texts
        parts = zip(
            texts.entities[graph.subjects[rows]].tolist(),
            texts.relations[graph.predicates[rows]].tolist(),
            texts.terms[graph.objects[rows]].tolist(),
        )
        scores = np.array(_similarity_scores(strategy.embedder, question, parts), dtype=np.float64)
    elif isinstance(strategy, Random):
        rng = np.random.default_rng(strategy.seed & 0xFFFFFFFFFFFFFFFF)
        scores = rng.random(len(rows))
    elif isinstance(strategy, Popular):
        frequency = relation_frequency(graph)
        by_relation = [frequency.get(relation_id, 0) for relation_id in graph.relation_ids]
        scores = np.array(by_relation, dtype=np.float64)[graph.predicates[rows]]
    else:
        raise TypeError(f"unknown retrieval strategy: {strategy!r}")

    # No score is NaN, and a stable sort of the negated scores keeps equal
    # scores in input order.
    order = np.argsort(-scores, kind="stable")
    return Ranking(graph, rows[order], scores[order])


def top_k(ranked: Sequence[ScoredTriple], k: int) -> list[ScoredTriple]:
    """First ``min(k, n)`` elements of a ranking, ranks preserved.

    A ``Ranking`` gathers those rows at once and verbalizes only them.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return list(ranked[:k])


def answer_bearing(ranked: Ranking, answers: set[EntityId]) -> int | None:
    """Rank of the first row whose subject or entity object is an answer.

    It is found from entity codes, without text or ``Triple``s.
    """
    graph = ranked.graph
    subjects = graph.subjects[ranked.rows]
    # A literal's entity code is -1, which no answer has.
    objects = graph.term_entities[graph.objects[ranked.rows]]
    hits = np.zeros(len(ranked.rows), dtype=bool)
    for answer in answers:
        code = graph.entity_codes.get(answer)
        if code is not None:
            hits |= subjects == code
            hits |= objects == code
    first = np.flatnonzero(hits)
    return int(first[0]) + 1 if first.size else None
