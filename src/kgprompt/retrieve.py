"""Candidate-triple ranking and selection.

Three strategies: cosine similarity between question and verbalized triple
embeddings, seeded random ordering, and relation popularity. All of them
break ties by the candidate's position in the input list, so rankings (and
therefore prompts) are bit-reproducible. Candidates are ranked as rows of
the graph's columnar store; only the facts a caller reads from the ranking
are verbalized (a prompt reads the ones it keeps, and at most one slice
more, of the top k). The hashed embedder scores a whole neighborhood at
once in numpy, from the part token codes of ``graph.text_index`` and a
bucket table kept on the graph per dimension, with the exact scores of the
joined texts. Row texts, tokens and answer hits come from the graph's methods.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .embed import EmbedderConfig, embed_batch, fnv1a_64_lines, hashed_bow_sparse
from .kg import EntityId, KnowledgeGraph, RowView, Triple, relation_frequency
from .verbalize import verbalize


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


def _bucket_table(graph: KnowledgeGraph, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct buckets of the vocabulary's tokens, ascending (uint64), and each token's slot among them.

    A token's bucket is ``fnv1a_64(token) % dimension``, hashed in numpy
    from the vocabulary's UTF-8 ``graph.text_index.part_vocabulary``
    (``fnv1a_64_lines``); the pair is built on first use and kept in
    ``graph.bucket_tables``.
    """
    table = graph.bucket_tables.get(dimension)
    if table is None:
        hashes = fnv1a_64_lines(graph.text_index.part_vocabulary)
        # A hash is below 2**64, so a larger dimension leaves it as it is.
        buckets = hashes % np.uint64(dimension) if dimension < 1 << 64 else hashes
        table = graph.bucket_tables[dimension] = np.unique(buckets, return_inverse=True)
    return table


def _hashed_scores(graph: KnowledgeGraph, rows: np.ndarray, question: str, dimension: int) -> np.ndarray:
    """The cosine of the ``hashed_bow_sparse`` vectors of ``question`` and each row's text, bit for bit.

    A row's bucket counts are the sums of its three parts' counts (see
    ``verbalize``), read from the tokens of ``graph.row_tokens`` through the
    bucket table. ``count / norm`` is the value ``hashed_bow_sparse`` gives
    the joined text: the counts and their squared sum are integers, exact in
    float64, and ``sqrt`` is correctly rounded. The cosine is the exactly
    rounded sum of the products over the shared buckets: ``bincount`` adds a
    row's one or two products to 0.0 in one rounding each, which is exact,
    and ``math.fsum`` adds three or more. A row sharing no bucket scores 0.0.
    """
    buckets, code_slots = _bucket_table(graph, dimension)
    width = len(buckets)
    # The question's value at each of the graph's buckets: one search places
    # those of its buckets that the graph has.
    sparse = hashed_bow_sparse(question, dimension)
    question_values = np.zeros(width)
    if width and sparse:
        wanted = np.fromiter(sparse, np.uint64, len(sparse))
        places = np.minimum(np.searchsorted(buckets, wanted), width - 1)
        found = buckets[places] == wanted
        question_values[places[found]] = np.fromiter(sparse.values(), np.float64, len(sparse))[found]

    count = len(rows)
    codes, owners = graph.row_tokens(rows)
    keys, counts = np.unique(owners * width + code_slots[codes], return_counts=True)
    owners, slots, counts = keys // width, keys % width, counts.astype(np.float64)
    norms = np.sqrt(np.bincount(owners, weights=counts * counts, minlength=count))

    shared = np.flatnonzero(question_values[slots])
    owners = owners[shared]
    products = question_values[slots[shared]] * (counts[shared] / norms[owners])
    # Empty weights give an int64 bincount.
    scores = np.bincount(owners, weights=products, minlength=count).astype(np.float64)
    sharing = np.bincount(owners, minlength=count)
    ends = np.cumsum(sharing)
    for row in np.flatnonzero(sharing > 2).tolist():
        scores[row] = math.fsum(products[ends[row] - sharing[row] : ends[row]].tolist())
    return scores


def _similarity_scores(config: EmbedderConfig, question: str, texts: Sequence[str]) -> list[float]:
    """The cosine of the embedded question and each candidate's text, all embedded in one ``embed_batch``."""
    # Vectors are unit-norm or all-zero, so the dot product is the cosine
    # and a zero vector on either side yields 0. fsum gives the exactly
    # rounded sum of the products, so the score does not depend on
    # accumulation order, and it never returns -0.0.
    dense = embed_batch(config, [question, *texts])
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
    builds no ``Triple``. The hashed embedder scores all
    candidates at once in numpy from the parts' tokens in
    ``graph.text_index`` (see ``_hashed_scores``), at any dimension: each
    score is the cosine of the ``hashed_bow_sparse`` vectors of the question
    and ``.verbalized``, bit for bit, and no dense vector is made. A graph not
    decoded from a snapshot tokenizes all of its part texts at its first
    hashed ranking. A remote embedder embeds the rows' texts,
    ``graph.row_texts``, in one batch; ``Popular`` scores each relation code
    by its count in the whole graph.
    """
    rows = graph.rows(candidates)
    if isinstance(strategy, Similarity) and strategy.embedder.kind == "hashed_bow":
        scores = _hashed_scores(graph, rows, question, strategy.embedder.dimension)
    elif isinstance(strategy, Similarity):
        scores = np.array(_similarity_scores(strategy.embedder, question, graph.row_texts(rows)), dtype=np.float64)
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


def top_k(ranked: Sequence[ScoredTriple], k: int) -> Sequence[ScoredTriple]:
    """First ``min(k, n)`` elements of a ranking, ranks preserved.

    Of a ``Ranking``, the ``Ranking`` of its first ``k`` rows, which
    verbalizes none of them until they are read; of any other sequence, a
    list.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if isinstance(ranked, Ranking):
        return Ranking(ranked.graph, ranked.rows[:k], ranked.scores[:k])
    return list(ranked[:k])


def answer_bearing(ranked: Ranking, answers: set[EntityId]) -> int | None:
    """Rank of the first row whose subject or entity object is an answer.

    It is the first hit of ``graph.touching``, found without text or ``Triple``s.
    """
    first = np.flatnonzero(ranked.graph.touching(ranked.rows, answers))
    return int(first[0]) + 1 if first.size else None
