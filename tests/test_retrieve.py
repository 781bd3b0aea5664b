import json
import random

import numpy as np
import pytest

from oracles import oracle_cosine, oracle_rank, oracle_sparse_cosine, oracle_sparse_vector, oracle_vector

from kgprompt import kg, retrieve
from kgprompt.embed import EmbedderConfig
from kgprompt.kg import (
    Entity,
    EntityRef,
    Literal,
    Relation,
    Triple,
    build_graph,
    link_entities,
    load_graph,
    neighborhood,
    relation_frequency,
)
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


def joined_text(parts: tuple[str, str, str]) -> str:
    return "({}, {}, {})".format(*parts)


def part_text_graph(parts: list[tuple[str, str, str]]):
    """A graph whose row i joins the texts of ``parts[i]``: an entity, a relation and a plain literal."""
    entities = [Entity(f"S{i}", subject) for i, (subject, _, _) in enumerate(parts)]
    relations = [Relation(f"R{i}", relation) for i, (_, relation, _) in enumerate(parts)]
    triples = [Triple(f"S{i}", f"R{i}", Literal(object_text)) for i, (_, _, object_text) in enumerate(parts)]
    return build_graph(entities, relations, triples)


def scores_by_row(ranked) -> list[float]:
    """A ranking's scores in row order."""
    scores = np.zeros(len(ranked))
    scores[ranked.rows] = ranked.scores
    return scores.tolist()


class TestSparseCosine:
    @pytest.mark.parametrize("dimension", [1, 2, 7, 256])
    def test_hashed_scores_equal_dense_fsum_bit_for_bit(self, dimension):
        # Dimensions 1, 2 and 7 force bucket collisions between tokens.
        rng = random.Random(dimension)
        config = EmbedderConfig(dimension=dimension)
        for _ in range(80):
            question = random_text(rng)
            parts = [(random_text(rng), random_text(rng), random_text(rng)) for _ in range(rng.randint(0, 20))]
            texts = [joined_text(candidate) for candidate in parts]
            graph = part_text_graph(parts)
            assert [verbalize(triple, graph).text for triple in graph.triples] == texts
            scores = scores_by_row(rank_candidates(Similarity(config), question, graph.triples, graph))
            question_vector = oracle_vector(question, dimension)
            expected = [oracle_cosine(question_vector, oracle_vector(text, dimension)) for text in texts]
            assert [score.hex() for score in scores] == [score.hex() for score in expected]
            order = sorted(range(len(texts)), key=lambda index: (-scores[index], index))
            assert order == oracle_rank(question, texts, dimension)

    def remote_scores(self, monkeypatch, vectors):
        """Scores of vectors[1:] against vectors[0] as a remote embedder returns them."""
        monkeypatch.setattr(retrieve, "embed_batch", lambda config, texts: [np.array(v) for v in vectors])
        config = EmbedderConfig(kind="remote", dimension=len(vectors[0]), endpoint="http://unused/embed")
        return retrieve._similarity_scores(config, "q", [("s", "r", "o")] * (len(vectors) - 1))

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


# Pieces whose lowercasing or tokenizing could differ between a part alone
# and the joined text: separators that are also the joiners, final and
# medial sigma, the dotted capital I (lowercases to two code points), sharp
# s, a ligature, a titlecase digraph, zero-width joiner, soft hyphen and a
# combining accent (all three case-ignorable separators), and digits.
ADVERSARIAL_PIECES = [
    "harbor", "Harbor", "ΟΔΟΣ", "ΣΟΦΙΑ", "ΟΔΟΣ\u200d", "\u200dΣΑ", "Σ", "İstanbul", "İ", "ı",
    "STRAẞE", "straße", "ﬁre", "ǅemal", "e\u0301", "soft\u00adhyphen", "42", "Ünïcode",
    ":", "_", "(", ", ", ")", "!!!", "time:", "a_b", "x:y",
]


def adversarial_text(rng: random.Random) -> str:
    """A part text from adversarial pieces; sometimes empty or tokenless."""
    if rng.random() < 0.1:
        return rng.choice(["", "(, )", ":", "_"])
    pieces = rng.choices(ADVERSARIAL_PIECES, k=rng.randint(1, 5))
    return rng.choice(["", " ", ", ", "_"]).join(pieces)


def adversarial_graph(rng: random.Random):
    entities = [
        Entity(
            f"Q{i}",
            None if rng.random() < 0.15 else adversarial_text(rng),
            tuple(adversarial_text(rng) for _ in range(rng.randint(0, 2))),
        )
        for i in range(rng.randint(1, 8))
    ]
    relations = [Relation(f"P{i}", adversarial_text(rng)) for i in range(rng.randint(1, 4))]
    triples, seen = [], set()
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.3:
            obj = Literal(adversarial_text(rng), rng.choice(("plain", "time", "quantity")))
        else:
            obj = EntityRef(rng.choice(entities).id)
        triple = Triple(rng.choice(entities).id, rng.choice(relations).id, obj)
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    return build_graph(entities, relations, triples)


def assert_oracle_ranking(ranked, question: str, graph, dimension: int) -> None:
    """The ranking, texts and scores are the oracle's over the joined texts."""
    texts = [verbalize(triple, graph).text for triple in graph.triples]
    question_vector = oracle_vector(question, dimension)
    expected = [oracle_cosine(question_vector, oracle_vector(text, dimension)) for text in texts]
    order = oracle_rank(question, texts, dimension)
    assert [scored.triple for scored in ranked] == [graph.triples[index] for index in order]
    assert [scored.verbalized for scored in ranked] == [texts[index] for index in order]
    assert [scored.score.hex() for scored in ranked] == [expected[index].hex() for index in order]
    assert [scored.rank for scored in ranked] == list(range(1, len(texts) + 1))


class TestPartScoring:
    @pytest.mark.parametrize("dimension", [1, 2, 7, 256])
    def test_adversarial_graphs_match_oracle(self, dimension):
        rng = random.Random(500 + dimension)
        config = EmbedderConfig(dimension=dimension)
        for _ in range(60):
            graph = adversarial_graph(rng)
            question = " ".join(adversarial_text(rng) for _ in range(rng.randint(1, 4)))
            ranked = rank_candidates(Similarity(config), question, graph.triples, graph)
            assert_oracle_ranking(ranked, question, graph, dimension)

    def test_renamed_entity_gets_its_new_buckets(self):
        # Part buckets are cached per text, never per graph: the same ids
        # under other names must score by the new names.
        relations = [Relation("P1", "located in")]
        triples = [Triple("Q1", "P1", EntityRef("Q2")), Triple("Q2", "P1", EntityRef("Q3"))]
        first = build_graph(
            [Entity("Q1", "amber harbor"), Entity("Q2", "quiet city"), Entity("Q3", "static")],
            relations,
            triples,
        )
        second = build_graph(
            [Entity("Q1", "silver night"), Entity("Q2", "quiet city"), Entity("Q3", "amber harbor")],
            relations,
            triples,
        )
        question = "where is amber harbor"
        config = EmbedderConfig()
        orders = []
        for graph in (first, second, first):
            ranked = rank_candidates(Similarity(config), question, graph.triples, graph)
            assert_oracle_ranking(ranked, question, graph, config.dimension)
            orders.append([scored.triple for scored in ranked])
        assert orders == [triples, triples[::-1], triples]
        # Each graph keeps its own bucket table, one per dimension.
        assert list(first.bucket_tables) == list(second.bucket_tables) == [config.dimension]
        assert first.bucket_tables[config.dimension] is not second.bucket_tables[config.dimension]


EDGE_GRAPH = (
    "Q1\tP1\tE:Q5\nQ1\tP2\tL:time:1999\nQ2\tP1\tE:Q3\nQ4\tP2\tL:quantity:42\n"
    "Q5\tP1\tL:plain:static\nQ3\tP2\tE:Q2\n",
    "Q1\tAmber Harbor\nQ2\t\nQ3\tΟΔΟΣ\nQ4\tnight Night NIGHT\nQ5\tSilver city\nQ6\tlonely\n",
    "P1\tborn in\nP2\tlocated in\n",
)
ALL = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def most_shared(shared, texts):
    return max(shared, default=0)


# (name, question, seeds, hops, dimension, what the case must show, from each
# candidate's count of buckets shared with the question and its text)
EDGE_CASES = [
    ("no shared bucket", "zebra", ALL, 1, 256, lambda shared, texts: texts and most_shared(shared, texts) == 0),
    ("tokenless question", "(, )!", ALL, 2, 256, lambda shared, texts: texts and most_shared(shared, texts) == 0),
    ("empty question", "", ALL, 1, 7, lambda shared, texts: texts and most_shared(shared, texts) == 0),
    ("empty neighborhood", "amber harbor", ["Q6"], 2, 256, lambda shared, texts: not texts),
    ("no seeds", "amber harbor", [], 1, 256, lambda shared, texts: not texts),
    ("dimension 1", "born city", ALL, 1, 1, lambda shared, texts: set(shared) == {1}),
    ("two shared buckets", "amber time", ["Q1"], 1, 256, lambda shared, texts: most_shared(shared, texts) == 2),
    ("three or more", "amber harbor born silver", ["Q1"], 1, 256, lambda shared, texts: most_shared(shared, texts) > 2),
    (
        "repeated token",
        "night",
        ["Q4"],
        1,
        256,
        lambda shared, texts: texts == ["(night Night NIGHT, located in, quantity: 42)"] and shared == [1],
    ),
    (
        "time and quantity literals",
        "time quantity",
        ["Q1", "Q4"],
        1,
        256,
        lambda shared, texts: sum(1 for count, text in zip(shared, texts) if count and ": " in text) == 2,
    ),
    (
        "unnamed entity",
        "where is q2",
        ["Q2"],
        1,
        256,
        lambda shared, texts: all(count and "Q2" in text for count, text in zip(shared, texts)),
    ),
    (
        "final sigma",
        "οδος",
        ["Q3"],
        1,
        256,
        lambda shared, texts: all(count and "ΟΔΟΣ" in text for count, text in zip(shared, texts)),
    ),
]


@pytest.fixture
def edge_graphs(tmp_path, monkeypatch):
    """The edge-case graph parsed, decoded from its snapshot, and built from the parsed one's parts."""
    for name, text in zip(("triples.tsv", "entities.tsv", "relations.tsv"), EDGE_GRAPH):
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = (tmp_path / "triples.tsv", tmp_path / "entities.tsv")
    parsed = load_graph(*paths)
    with monkeypatch.context() as patch:
        patch.setattr(kg, "_load_triples", lambda *args: pytest.fail("parsed the triples file again"))
        decoded = load_graph(*paths)
    built = build_graph(parsed.entities.values(), parsed.relations.values(), parsed.triples)
    return {"parsed": parsed, "decoded": decoded, "built": built}


class TestScorerEdgeCases:
    @pytest.mark.parametrize("case", EDGE_CASES, ids=[case[0] for case in EDGE_CASES])
    @pytest.mark.parametrize("kind", ["parsed", "decoded", "built"])
    def test_scores_equal_the_oracle_bit_for_bit(self, edge_graphs, kind, case):
        _, question, seeds, hops, dimension, shows = case
        graph = edge_graphs[kind]
        candidates = neighborhood(graph, seeds, hops)
        ranked = rank_candidates(Similarity(EmbedderConfig(dimension=dimension)), question, candidates, graph)
        assert ranked.scores.dtype == np.float64
        texts = [verbalize(triple, graph).text for triple in candidates]
        question_vector = oracle_vector(question, dimension)
        vectors = [oracle_vector(text, dimension) for text in texts]
        shared = [sum(1 for left, right in zip(question_vector, vector) if left and right) for vector in vectors]
        assert shows(shared, texts)
        expected = [oracle_cosine(question_vector, vector) for vector in vectors]
        order = oracle_rank(question, texts, dimension)
        materialized = list(ranked)
        assert [scored.triple for scored in materialized] == [candidates[index] for index in order]
        assert [scored.verbalized for scored in materialized] == [texts[index] for index in order]
        assert [scored.score.hex() for scored in materialized] == [expected[index].hex() for index in order]
        assert all(type(scored.score) is float for scored in materialized)

    def test_graph_without_tokens_scores_zero(self):
        graph = build_graph([Entity("Q1", "!!")], [Relation("P1", "--")], [Triple("Q1", "P1", Literal("(, )"))])
        assert graph.text_index.part_vocabulary.tobytes() == b""
        ranked = rank_candidates(Similarity(), "amber harbor", graph.triples, graph)
        assert ranked.scores.dtype == np.float64 and ranked.scores.tolist() == [0.0]


class TestAnyDimension:
    # Dimensions whose dense vector could not be allocated, one past every 64-bit hash, and small ones.
    @pytest.mark.parametrize("dimension", [2**40, 2**62, 2**64 + 5, 7, 1])
    def test_toy_rankings_match_the_sparse_oracle(self, toy_dir, dimension):
        graph = load_graph(toy_dir / "triples.tsv", toy_dir / "entities.tsv", toy_dir / "relations.tsv")
        examples = [json.loads(line) for line in (toy_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()]
        strategy = Similarity(EmbedderConfig(dimension=dimension))
        sharing = 0
        for example in examples:
            question = example["question"]
            seeds = example.get("question_entities") or link_entities(graph, question)
            candidates = neighborhood(graph, seeds, 2)
            texts = [verbalize(triple, graph).text for triple in candidates]
            question_vector = oracle_sparse_vector(question, dimension)
            expected = [oracle_sparse_cosine(question_vector, oracle_sparse_vector(text, dimension)) for text in texts]
            order = sorted(range(len(texts)), key=lambda index: (-expected[index], index))
            ranked = list(rank_candidates(strategy, question, candidates, graph))
            assert [scored.verbalized for scored in ranked] == [texts[index] for index in order]
            assert [scored.score.hex() for scored in ranked] == [expected[index].hex() for index in order]
            sharing += sum(score > 0 for score in expected)
        assert len(examples) == 25 and sharing > 25

    def test_question_sharing_no_bucket_or_graph_without_buckets_scores_zero(self):
        graph = build_graph([Entity("Q1", "amber")], [Relation("P1", "harbor")], [Triple("Q1", "P1", Literal("x"))])
        for question in ("", "quiet night"):
            ranked = rank_candidates(Similarity(EmbedderConfig(dimension=2**40)), question, graph.triples, graph)
            assert ranked.scores.tolist() == [0.0]
        empty = build_graph([Entity("Q1", "!!")], [Relation("P1", "--")], [Triple("Q1", "P1", Literal("(, )"))])
        ranked = rank_candidates(Similarity(EmbedderConfig(dimension=2**40)), "amber", empty.triples, empty)
        assert ranked.scores.tolist() == [0.0]


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


# ---------------------------------------------------------------------------
# Ranking by row codes
# ---------------------------------------------------------------------------

SHARED_NAMES = ["Harbor", "harbor", "ΟΔΟΣ", "İstanbul", "(, )", "_", "42"]


def code_path_graph(rng: random.Random):
    """A graph with unnamed entities, shared names, time and quantity
    literals, self-loops, tokenless parts and the adversarial pieces."""
    names = lambda: rng.choice(SHARED_NAMES) if rng.random() < 0.3 else adversarial_text(rng)  # noqa: E731
    entities = [
        Entity(f"Q{i}", None if rng.random() < 0.2 else names(), tuple(names() for _ in range(rng.randint(0, 1))))
        for i in range(rng.randint(1, 9))
    ]
    relations = [Relation(f"P{i}", names()) for i in range(rng.randint(1, 4))]
    triples = []
    for _ in range(rng.randint(0, 40)):
        subject = rng.choice(entities).id
        draw = rng.random()
        if draw < 0.15:
            obj = EntityRef(subject)  # a self-loop
        elif draw < 0.45:
            obj = Literal(names() or "0", rng.choice(("plain", "time", "quantity")))
        else:
            obj = EntityRef(rng.choice(entities).id)
        triples.append(Triple(subject, rng.choice(relations).id, obj))
    question = " ".join(names() for _ in range(rng.randint(1, 4)))
    return build_graph(entities, relations, triples), question


def neighborhoods(rng: random.Random, graph):
    """A few neighborhoods of ``graph``, at 1 and 2 hops."""
    ids = list(graph.entities)
    for _ in range(3):
        seeds = rng.sample(ids, rng.randint(1, min(3, len(ids))))
        for hops in (1, 2):
            yield seeds, neighborhood(graph, seeds, hops)


def brute_answer_bearing(ranked, answers):
    """The first rank whose subject or entity object is an answer, by a walk."""
    for scored in ranked:
        if scored.triple.subject in answers or scored.triple.object_entity_id() in answers - {None}:
            return scored.rank
    return None


def reference_ranking(scores, candidates, graph):
    """The ranking before scoring read row codes: one ``ScoredTriple`` per
    candidate, sorted by score descending with ties in input order."""
    order = sorted(range(len(candidates)), key=scores.__getitem__, reverse=True)
    return [
        ScoredTriple(candidates[index], verbalize(candidates[index], graph).text, scores[index], rank)
        for rank, index in enumerate(order, start=1)
    ]


class TestRankingByCodes:
    @pytest.mark.parametrize("dimension", [1, 7, 256])
    def test_neighborhood_ranking_matches_oracle(self, dimension):
        rng = random.Random(900 + dimension)
        config = EmbedderConfig(dimension=dimension)
        checked = 0
        for _ in range(40):
            graph, question = code_path_graph(rng)
            for _, candidates in neighborhoods(rng, graph):
                ranked = rank_candidates(Similarity(config), question, candidates, graph)
                texts = [verbalize(triple, graph).text for triple in candidates]
                question_vector = oracle_vector(question, dimension)
                expected = [oracle_cosine(question_vector, oracle_vector(text, dimension)) for text in texts]
                order = oracle_rank(question, texts, dimension)
                materialized = list(ranked)
                assert [scored.triple for scored in materialized] == [candidates[index] for index in order]
                assert [scored.verbalized for scored in materialized] == [texts[index] for index in order]
                assert [scored.score.hex() for scored in materialized] == [expected[index].hex() for index in order]
                assert [scored.rank for scored in materialized] == list(range(1, len(texts) + 1))
                # A plain list of the same triples is ranked the same way.
                assert rank_candidates(Similarity(config), question, list(candidates), graph) == materialized
                checked += len(texts)
        assert checked > 500

    def test_answer_bearing_matches_a_walk_over_the_ranking(self):
        rng = random.Random(911)
        for _ in range(60):
            graph, question = code_path_graph(rng)
            ids = list(graph.entities)
            for _, candidates in neighborhoods(rng, graph):
                for strategy in (Similarity(), Random(rng.randint(0, 99)), Popular()):
                    ranked = rank_candidates(strategy, question, candidates, graph)
                    materialized = list(ranked)
                    for answers in ({rng.choice(ids)}, set(rng.sample(ids, min(2, len(ids)))), {"missing"}, set()):
                        assert answer_bearing(ranked, answers) == brute_answer_bearing(materialized, answers)

    def test_answer_bearing_sides(self):
        entities = [Entity(f"Q{i}", f"node {i}") for i in range(5)] + [Entity("L", "loop")]
        relations = [Relation("P1", "rare"), Relation("P2", "common")]
        triples = [
            Triple("Q0", "P1", EntityRef("Q1")),
            Triple("Q2", "P2", EntityRef("Q3")),
            Triple("L", "P2", EntityRef("L")),
            Triple("Q4", "P2", Literal("1999", "time")),
            Triple("Q2", "P2", EntityRef("Q0")),
        ]
        graph = build_graph(entities, relations, triples)
        ranked = rank_candidates(Popular(), "q", neighborhood(graph, list(graph.entities), 1), graph)
        assert [scored.triple for scored in ranked] == [triples[index] for index in (1, 2, 3, 4, 0)]
        assert answer_bearing(ranked, {"Q2"}) == 1  # subject side
        assert answer_bearing(ranked, {"Q3"}) == 1  # object side
        assert answer_bearing(ranked, {"Q0"}) == 4  # object side before its subject row
        assert answer_bearing(ranked, {"L"}) == 2  # a self-loop
        assert answer_bearing(ranked, {"Q1", "Q4"}) == 3
        assert answer_bearing(ranked, {"1999", "missing"}) is None  # a literal value is no entity

    def test_first_literal_is_no_hit_for_the_last_entity(self):
        # The last entity has code E - 1 and the first literal object code E.
        entities = [Entity("Q0", "first"), Entity("Q1", "last")]
        triples = [Triple("Q0", "P1", Literal("x")), Triple("Q0", "P2", EntityRef("Q0"))]
        graph = build_graph(entities, [], triples)
        assert graph.objects.tolist() == [2, 0]
        for strategy in (Popular(), Random(3), Similarity()):
            ranked = rank_candidates(strategy, "first x", graph.triples, graph)
            assert answer_bearing(ranked, {"Q1"}) is None
            assert answer_bearing(ranked, {"Q0"}) == 1

    def test_remote_embedder_gets_the_verbalized_texts(self, monkeypatch):
        sent = []

        def fake_embed_batch(config, texts):
            sent.append(list(texts))
            return [np.ones(config.dimension) for _ in texts]

        monkeypatch.setattr(retrieve, "embed_batch", fake_embed_batch)
        config = EmbedderConfig(kind="remote", dimension=4, endpoint="http://unused/embed")
        rng = random.Random(923)
        for _ in range(30):
            graph, question = code_path_graph(rng)
            for _, candidates in neighborhoods(rng, graph):
                sent.clear()
                rank_candidates(Similarity(config), question, candidates, graph)
                assert sent == [[question] + [verbalize(triple, graph).text for triple in candidates]]

    def test_random_and_popular_rankings_are_unchanged(self):
        rng = random.Random(931)
        for _ in range(60):
            graph, question = code_path_graph(rng)
            frequency = relation_frequency(graph)
            for _, candidates in neighborhoods(rng, graph):
                seed = rng.getrandbits(64)
                draws = np.random.default_rng(seed).random(len(candidates)).tolist()
                popular = [float(frequency.get(triple.relation, 0)) for triple in candidates]
                for strategy, scores in ((Random(seed), draws), (Popular(), popular)):
                    expected = reference_ranking(scores, list(candidates), graph)
                    assert rank_candidates(strategy, question, candidates, graph) == expected

    def test_ranking_reads_like_a_list(self, alex_graph):
        ranked = rank_candidates(Popular(), "q", neighborhood(alex_graph, {"Q304461"}, 1), alex_graph)
        materialized = list(ranked)
        assert len(ranked) == len(materialized) == 4
        assert ranked[0] == materialized[0] and ranked[-1] == materialized[-1]
        assert ranked[1:3] == materialized[1:3]
        assert list(reversed(ranked)) == materialized[::-1]
        assert ranked == materialized and ranked == tuple(materialized)
        assert ranked != materialized[:-1]
        with pytest.raises(IndexError):
            ranked[4]
        assert rank_candidates(Popular(), "q", [], alex_graph) == []

    def test_candidates_must_be_triples_of_the_graph(self, alex_graph):
        with pytest.raises(KeyError):
            rank_candidates(Popular(), "q", [Triple("Q304461", "P20", Literal("nowhere"))], alex_graph)
