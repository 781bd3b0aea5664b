import random

import numpy as np
import pytest

from oracles import oracle_cosine, oracle_rank, oracle_vector

from kgprompt import retrieve
from kgprompt.embed import EmbedderConfig
from kgprompt.kg import Entity, EntityRef, Literal, Relation, Triple, build_graph
from kgprompt.retrieve import (
    Popular,
    Random,
    ScoredTriple,
    Similarity,
    answer_bearing,
    rank_candidates,
    top_k,
)
from kgprompt.verbalize import verbalize

# ---------------------------------------------------------------------------
# Random fixture graphs
# ---------------------------------------------------------------------------

WORDS = [
    "harbor", "records", "silver", "night", "quiet", "amber", "static",
    "born", "city", "label", "genre", "folk", "jazz", "guitar", "spouse",
    "death", "place", "author", "of", "the",
]


def random_candidate_graph(rng: random.Random, max_candidates: int = 50):
    entity_count = rng.randint(1, 10)
    entities = [
        Entity(f"Q{i}", " ".join(rng.sample(WORDS, rng.randint(1, 3))))
        for i in range(entity_count)
    ]
    relations = [
        Relation(f"P{i}", " ".join(rng.sample(WORDS, rng.randint(1, 2))))
        for i in range(rng.randint(1, 5))
    ]
    triples, seen = [], set()
    for _ in range(rng.randint(0, max_candidates)):
        subject = rng.choice(entities).id
        relation = rng.choice(relations).id
        if rng.random() < 0.2:
            obj = Literal(str(rng.randint(0, 999)), rng.choice(("plain", "time", "quantity")))
        else:
            obj = EntityRef(rng.choice(entities).id)
        triple = Triple(subject, relation, obj)
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    graph = build_graph(entities, relations, triples)
    question = " ".join(rng.choices(WORDS, k=rng.randint(1, 10)))
    return graph, question


class TestSimilarityRanking:
    def test_alex_chilton_question(self, alex_graph):
        ranked = rank_candidates(
            Similarity(EmbedderConfig()),
            "Where did Alex Chilton die?",
            alex_graph.triples,
            alex_graph,
        )
        assert "Alex Chilton" in ranked[0].verbalized
        assert all(-1.0 <= scored.score <= 1.0 for scored in ranked)
        assert [scored.rank for scored in ranked] == [1, 2, 3, 4]

    def test_empty_candidates(self, alex_graph):
        assert rank_candidates(Similarity(EmbedderConfig()), "any", [], alex_graph) == []

    def test_matches_brute_force_oracle(self):
        rng = random.Random(4242)
        dimension = 256
        config = EmbedderConfig(dimension=dimension)
        for _ in range(40):
            graph, question = random_candidate_graph(rng, max_candidates=30)
            ranked = rank_candidates(Similarity(config), question, graph.triples, graph)
            texts = [verbalize(t, graph).text for t in graph.triples]
            expected = oracle_rank(question, texts, dimension)
            assert [scored.verbalized for scored in ranked] == [texts[i] for i in expected]

    def test_scores_non_increasing(self):
        rng = random.Random(11)
        config = EmbedderConfig(dimension=64)
        for _ in range(20):
            graph, question = random_candidate_graph(rng, max_candidates=25)
            ranked = rank_candidates(Similarity(config), question, graph.triples, graph)
            scores = [scored.score for scored in ranked]
            assert scores == sorted(scores, reverse=True)


def random_text(rng: random.Random) -> str:
    """Texts with repeated tokens, mixed case, digits and non-ASCII words;
    some are empty or punctuation-only and so have no tokens at all."""
    draw = rng.random()
    if draw < 0.08:
        return ""
    if draw < 0.16:
        return rng.choice(["!!!", "(, )", " -- ", "_", "?"])
    words = rng.choices(WORDS[:8] + ["Ünïcode", "42", "Harbor"], k=rng.randint(1, 12))
    return rng.choice([" ", ", ", "-"]).join(words)


class TestSparseCosine:
    @pytest.mark.parametrize("dimension", [1, 2, 7, 256])
    def test_hashed_scores_equal_dense_fsum_bit_for_bit(self, dimension):
        # Dimensions 1, 2 and 7 force bucket collisions between tokens.
        rng = random.Random(dimension)
        config = EmbedderConfig(dimension=dimension)
        for _ in range(80):
            question = random_text(rng)
            texts = [random_text(rng) for _ in range(rng.randint(0, 20))]
            scores = retrieve._similarity_scores(config, question, texts)
            question_vector = oracle_vector(question, dimension)
            expected = [oracle_cosine(question_vector, oracle_vector(text, dimension)) for text in texts]
            assert [score.hex() for score in scores] == [score.hex() for score in expected]
            order = sorted(range(len(texts)), key=lambda index: (-scores[index], index))
            assert order == oracle_rank(question, texts, dimension)

    def remote_scores(self, monkeypatch, vectors):
        """Scores of vectors[1:] against vectors[0] as a remote embedder returns them."""
        monkeypatch.setattr(retrieve, "embed_batch", lambda config, texts: [np.array(v) for v in vectors])
        config = EmbedderConfig(kind="remote", dimension=len(vectors[0]), endpoint="http://unused/embed")
        return retrieve._similarity_scores(config, "q", ["t"] * (len(vectors) - 1))

    @pytest.mark.parametrize("dimension", [1, 2, 7, 256])
    def test_remote_vectors_score_as_dense_fsum(self, dimension, monkeypatch):
        rng = random.Random(100 + dimension)

        def component():
            draw = rng.random()
            if draw < 0.3:
                return 0.0
            if draw < 0.45:
                return -0.0
            return rng.uniform(-1.0, 1.0)

        for _ in range(20):
            vectors = [[component() for _ in range(dimension)] for _ in range(12)]
            expected = [oracle_cosine(vectors[0], vector) for vector in vectors[1:]]
            scores = self.remote_scores(monkeypatch, vectors)
            assert [score.hex() for score in scores] == [score.hex() for score in expected]

    def test_zero_products_score_positive_zero(self, monkeypatch):
        vectors = [
            [0.5, -0.0, 0.0, 0.25],
            [-0.0, 0.75, -0.5, -0.0],  # every product is -0.0
            [0.5, 0.0, 0.0, -1.0],  # 0.25 - 0.25 cancels exactly
            [0.0, 0.0, 0.0, 0.0],
            [-0.5, 1.0, 1.0, 0.0],  # one nonzero product, negative
        ]
        expected = [oracle_cosine(vectors[0], vector) for vector in vectors[1:]]
        assert [score.hex() for score in expected] == ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p-2"]
        scores = self.remote_scores(monkeypatch, vectors)
        assert [score.hex() for score in scores] == [score.hex() for score in expected]


class TestRandomStrategy:
    def test_same_seed_identical(self, alex_graph):
        first = rank_candidates(Random(7), "q", alex_graph.triples, alex_graph)
        second = rank_candidates(Random(7), "q", alex_graph.triples, alex_graph)
        assert first == second

    def test_different_seeds_are_permutations(self):
        rng = random.Random(31)
        for _ in range(20):
            graph, question = random_candidate_graph(rng, max_candidates=20)
            first = rank_candidates(Random(1), question, graph.triples, graph)
            second = rank_candidates(Random(2), question, graph.triples, graph)
            assert sorted(s.verbalized for s in first) == sorted(s.verbalized for s in second)

    def test_no_fabricated_triples(self):
        rng = random.Random(77)
        for _ in range(20):
            graph, question = random_candidate_graph(rng, max_candidates=20)
            candidates = graph.triples[::2]
            for strategy in (Random(3), Popular()):
                ranked = rank_candidates(strategy, question, candidates, graph)
                assert {scored.triple for scored in ranked} <= set(candidates)
                assert len(ranked) == len(candidates)


def popularity_fixture():
    entities = [Entity(f"Q{i}", f"node {i}") for i in range(5)]
    relations = [Relation("P19", "born in"), Relation("P20", "died in")]
    triples = [
        Triple("Q0", "P19", EntityRef("Q1")),
        Triple("Q1", "P20", EntityRef("Q2")),
        Triple("Q2", "P19", EntityRef("Q3")),
        Triple("Q3", "P19", EntityRef("Q4")),
    ]
    return build_graph(entities, relations, triples)


class TestPopularStrategy:
    def test_frequency_ordering(self):
        graph = popularity_fixture()
        ranked = rank_candidates(Popular(), "whatever", graph.triples, graph)
        # P19 appears 3 times, P20 once: all P19 triples precede the P20 one
        assert [scored.triple.relation for scored in ranked] == ["P19", "P19", "P19", "P20"]
        assert [scored.score for scored in ranked] == [3.0, 3.0, 3.0, 1.0]

    def test_tie_break_is_candidate_order(self):
        graph = popularity_fixture()
        ranked = rank_candidates(Popular(), "whatever", graph.triples, graph)
        p19 = [scored.triple for scored in ranked if scored.triple.relation == "P19"]
        assert p19 == [graph.triples[0], graph.triples[2], graph.triples[3]]


class TestTopK:
    def make_ranked(self, count):
        return [
            ScoredTriple(Triple("A", "r", Literal(str(i))), f"t{i}", float(count - i), i + 1)
            for i in range(count)
        ]

    def test_k_zero(self):
        assert top_k(self.make_ranked(3), 0) == []

    def test_k_exceeds_length(self):
        ranked = self.make_ranked(4)
        assert top_k(ranked, 10) == ranked

    def test_k_one(self):
        ranked = self.make_ranked(3)
        assert top_k(ranked, 1) == [ranked[0]]

    def test_prefix_property(self):
        ranked = self.make_ranked(10)
        for small in range(len(ranked) + 1):
            for large in range(small, len(ranked) + 1):
                assert top_k(ranked, small) == top_k(ranked, large)[:small]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k(self.make_ranked(2), -1)


class TestAnswerBearing:
    def test_rank_one_hit(self, alex_graph):
        ranked = rank_candidates(
            Similarity(EmbedderConfig()),
            "Where did Alex Chilton die?",
            alex_graph.triples,
            alex_graph,
        )
        assert ranked[0].verbalized == "(Alex Chilton, place of death, New Orleans)"
        assert answer_bearing(ranked, {"Q34404"}) == 1

    def test_no_answers(self, alex_graph):
        ranked = rank_candidates(Random(0), "q", alex_graph.triples, alex_graph)
        assert answer_bearing(ranked, set()) is None

    def test_rank_three_hit(self):
        graph = popularity_fixture()
        ranked = rank_candidates(Popular(), "q", graph.triples, graph)
        # Q4 only occurs in the triple ranked third
        assert [s.triple.object_entity_id() for s in ranked].index("Q4") == 2
        assert answer_bearing(ranked, {"Q4"}) == 3

    def test_subject_side_hit(self):
        graph = popularity_fixture()
        ranked = rank_candidates(Popular(), "q", graph.triples, graph)
        assert answer_bearing(ranked, {"Q0"}) == 1
