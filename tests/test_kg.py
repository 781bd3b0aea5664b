import random
import sys
import threading

import pytest

from kgprompt.errors import GraphLoadError
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

from oracles import oracle_link


def write_graph_files(tmp_path, triples_text, entities_text, relations_text=None):
    triples = tmp_path / "triples.tsv"
    entities = tmp_path / "entities.tsv"
    triples.write_text(triples_text, encoding="utf-8")
    entities.write_text(entities_text, encoding="utf-8")
    if relations_text is not None:
        (tmp_path / "relations.tsv").write_text(relations_text, encoding="utf-8")
    return triples, entities


class TestLoadGraph:
    def test_alex_chilton_fixture(self, alex_graph):
        assert len(alex_graph.triples) == 4
        assert len(neighborhood(alex_graph, {"Q304461"}, 1)) == 4
        assert alex_graph.entities["Q34404"].name == "New Orleans"
        assert alex_graph.relations["P20"].name == "place of death"
        assert alex_graph.triples[3].object == Literal("+2010-03-17", "time")

    def test_empty_triples_file(self, tmp_path):
        triples, entities = write_graph_files(tmp_path, "", "Q1\tAlpha\n")
        graph = load_graph(triples, entities)
        assert graph.triples == []
        assert neighborhood(graph, {"Q1"}, 1) == []

    def test_duplicate_triple_lines_deduplicated(self, tmp_path):
        line = "Q1\tP1\tE:Q2\n"
        triples, entities = write_graph_files(tmp_path, line + line, "Q1\tAlpha\nQ2\tBeta\n")
        graph = load_graph(triples, entities)
        assert len(graph.triples) == 1

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path,
            "# header comment\n\nQ1\tP1\tE:Q2\n",
            "# entities\nQ1\tAlpha\nQ2\tBeta\n",
        )
        graph = load_graph(triples, entities)
        assert len(graph.triples) == 1

    def test_malformed_triple_line_names_file_and_line(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path, "Q1\tP1\tE:Q2\nQ1\tP1\n", "Q1\tAlpha\nQ2\tBeta\n"
        )
        with pytest.raises(GraphLoadError) as excinfo:
            load_graph(triples, entities)
        assert "triples.tsv:2" in str(excinfo.value)

    def test_bad_object_prefix_rejected(self, tmp_path):
        triples, entities = write_graph_files(tmp_path, "Q1\tP1\tQ2\n", "Q1\tAlpha\nQ2\tBeta\n")
        with pytest.raises(GraphLoadError, match="E:' or 'L:"):
            load_graph(triples, entities)

    def test_bad_literal_datatype_rejected(self, tmp_path):
        triples, entities = write_graph_files(tmp_path, "Q1\tP1\tL:date:x\n", "Q1\tAlpha\n")
        with pytest.raises(GraphLoadError, match="datatype"):
            load_graph(triples, entities)

    def test_dangling_entity_reference_names_id(self, tmp_path):
        triples, entities = write_graph_files(tmp_path, "Q1\tP1\tE:Q9\n", "Q1\tAlpha\n")
        with pytest.raises(GraphLoadError, match="Q9"):
            load_graph(triples, entities)

    def test_relations_file_picked_up_by_convention(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path, "Q1\tP1\tE:Q2\n", "Q1\tAlpha\nQ2\tBeta\n", "P1\tknows\n"
        )
        graph = load_graph(triples, entities)
        assert graph.relations["P1"] == Relation("P1", "knows")

    def test_undeclared_relation_falls_back_to_id(self, tmp_path):
        triples, entities = write_graph_files(tmp_path, "Q1\tP9\tE:Q2\n", "Q1\tAlpha\nQ2\tBeta\n")
        graph = load_graph(triples, entities)
        assert graph.relations["P9"].name == "P9"

    def test_unnamed_entity_and_aliases(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path, "", "Q1\t\t\nQ2\tBeta\tB.|Beta|b2\n"
        )
        graph = load_graph(triples, entities)
        assert graph.entities["Q1"].name is None
        # canonical name and empty strings are filtered out of the alias list
        assert graph.entities["Q2"].aliases == ("B.", "b2")

    def test_deterministic_load(self, tmp_path, alex_dir):
        first = load_graph(alex_dir / "triples.tsv", alex_dir / "entities.tsv")
        second = load_graph(alex_dir / "triples.tsv", alex_dir / "entities.tsv")
        assert repr(first) == repr(second)
        assert first.triples == second.triples
        assert first.adjacency == second.adjacency


def chain_graph():
    # A -r-> B, B -r-> C
    return build_graph(
        [Entity("A", "Alpha"), Entity("B", "Beta"), Entity("C", "Gamma")],
        [Relation("r", "linked to")],
        [Triple("A", "r", EntityRef("B")), Triple("B", "r", EntityRef("C"))],
    )


class TestNeighborhood:
    def test_alex_chilton_one_hop(self, alex_graph):
        triples = neighborhood(alex_graph, {"Q304461"}, 1)
        assert triples == alex_graph.triples

    def test_empty_seeds(self, alex_graph):
        assert neighborhood(alex_graph, set(), 1) == []

    def test_chain_two_hops(self):
        graph = chain_graph()
        assert neighborhood(graph, {"A"}, 1) == [graph.triples[0]]
        assert neighborhood(graph, {"A"}, 2) == graph.triples

    def test_object_side_incidence(self):
        graph = chain_graph()
        # C only appears as an object; its 1-hop set is the B->C triple
        assert neighborhood(graph, {"C"}, 1) == [graph.triples[1]]

    def test_missing_seed_is_skipped(self, alex_graph, caplog):
        with caplog.at_level("WARNING"):
            triples = neighborhood(alex_graph, {"Q304461", "Q_MISSING"}, 1)
        assert len(triples) == 4
        assert "Q_MISSING" in caplog.text

    def test_invalid_hops_rejected(self, alex_graph):
        with pytest.raises(ValueError):
            neighborhood(alex_graph, {"Q304461"}, 3)

    def test_literals_never_expand(self, tmp_path):
        graph = build_graph(
            [Entity("A", "Alpha"), Entity("B", "Beta")],
            [Relation("r", "rel")],
            [Triple("A", "r", Literal("x")), Triple("B", "r", Literal("x"))],
        )
        # 2-hop from A must not leak B's triple through the shared literal
        assert neighborhood(graph, {"A"}, 2) == [graph.triples[0]]


def random_graph(rng: random.Random, max_triples: int = 30):
    entity_count = rng.randint(1, 12)
    entities = [Entity(f"Q{i}", f"node {i}") for i in range(entity_count)]
    relations = [Relation(f"P{i}", f"rel {i}") for i in range(rng.randint(1, 4))]
    triples = []
    seen = set()
    for _ in range(rng.randint(0, max_triples)):
        subject = rng.choice(entities).id
        relation = rng.choice(relations).id
        if rng.random() < 0.25:
            obj = Literal(f"v{rng.randint(0, 99)}", rng.choice(("plain", "time", "quantity")))
        else:
            obj = EntityRef(rng.choice(entities).id)
        triple = Triple(subject, relation, obj)
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    return build_graph(entities, relations, triples)


class TestGraphProperties:
    def test_two_hop_superset_and_ordering(self):
        rng = random.Random(20240823)
        for _ in range(60):
            graph = random_graph(rng)
            entity_ids = list(graph.entities)
            for _ in range(5):
                seeds = set(rng.sample(entity_ids, rng.randint(0, min(3, len(entity_ids)))))
                one_hop = neighborhood(graph, seeds, 1)
                two_hop = neighborhood(graph, seeds, 2)
                assert set(one_hop) <= set(two_hop)
                for result in (one_hop, two_hop):
                    indices = [graph.triples.index(t) for t in result]
                    assert indices == sorted(indices)
                    assert len(set(indices)) == len(indices)

    def test_relation_frequency_sums_to_triple_count(self):
        rng = random.Random(7)
        for _ in range(25):
            graph = random_graph(rng)
            assert sum(relation_frequency(graph).values()) == len(graph.triples)


class TestRelationFrequency:
    def test_alex_chilton_each_relation_once(self, alex_graph):
        assert relation_frequency(alex_graph) == {"P20": 1, "P1196": 1, "P509": 1, "P570": 1}

    def test_empty_graph(self):
        graph = build_graph([], [], [])
        assert relation_frequency(graph) == {}

    def test_hand_counted_fixture(self):
        graph = build_graph(
            [Entity(f"Q{i}", f"n{i}") for i in range(4)],
            [Relation("P19", "born in"), Relation("P20", "died in")],
            [
                Triple("Q0", "P19", EntityRef("Q1")),
                Triple("Q1", "P19", EntityRef("Q2")),
                Triple("Q2", "P19", EntityRef("Q3")),
                Triple("Q3", "P20", EntityRef("Q0")),
            ],
        )
        assert relation_frequency(graph) == {"P19": 3, "P20": 1}


class TestLinkEntities:
    def test_lady_susan(self):
        graph = build_graph(
            [Entity("Q1", "Lady Susan"), Entity("Q2", "Jane Austen")],
            [],
            [],
        )
        assert link_entities(graph, "Who is the author of Lady Susan?") == {"Q1"}

    def test_empty_graph(self):
        graph = build_graph([], [], [])
        assert link_entities(graph, "anything at all") == set()

    def test_longest_match_suppresses_nested(self):
        graph = build_graph(
            [Entity("Q1", "New York"), Entity("Q2", "York")],
            [],
            [],
        )
        assert link_entities(graph, "flights to New York") == {"Q1"}

    def test_nested_match_found_elsewhere(self):
        graph = build_graph(
            [Entity("Q1", "New York"), Entity("Q2", "York")],
            [],
            [],
        )
        assert link_entities(graph, "from York to New York") == {"Q1", "Q2"}

    def test_alias_matches(self):
        graph = build_graph([Entity("Q1", "William Shakespeare", ("The Bard",))], [], [])
        assert link_entities(graph, "poems by the bard!") == {"Q1"}

    def test_normalization_insensitive(self):
        graph = build_graph([Entity("Q1", "New Orleans")], [], [])
        assert link_entities(graph, "NEW-ORLEANS  jazz") == {"Q1"}

    def test_adding_unrelated_entity_keeps_matches(self):
        base = [Entity("Q1", "Lady Susan")]
        question = "Who is the author of Lady Susan?"
        with_extra = base + [Entity("Q9", "Completely Unrelated")]
        first = link_entities(build_graph(base, [], []), question)
        second = link_entities(build_graph(with_extra, [], []), question)
        assert first <= second

    def test_result_is_subset_of_graph_ids(self):
        rng = random.Random(99)
        words = ["red", "blue", "green", "fox", "river", "stone"]
        for _ in range(30):
            entities = [
                Entity(f"Q{i}", " ".join(rng.sample(words, rng.randint(1, 2))))
                for i in range(rng.randint(0, 6))
            ]
            graph = build_graph(entities, [], [])
            question = " ".join(rng.choices(words, k=8))
            assert link_entities(graph, question) <= set(graph.entities)


# Surface variants: case and punctuation twins, non-ASCII letters, and
# surfaces that normalize to nothing.
LINK_WORDS = ["new", "york", "lady", "susan", "café", "straße", "東京", "ñandú", "x"]
LINK_NOISE = ["!!!", "--", "_", "", "   "]


def random_surface(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(LINK_NOISE)
    words = rng.choices(LINK_WORDS, k=rng.randint(1, 4))
    words = [word.upper() if rng.random() < 0.3 else word for word in words]
    return rng.choice([" ", "-", "_", ". ", "  "]).join(words) + rng.choice(["", "!", "?", "."])


def random_linking_case(rng: random.Random):
    entities = []
    for i in range(rng.randint(0, 10)):
        name = None if rng.random() < 0.1 else random_surface(rng)
        aliases = [random_surface(rng) for _ in range(rng.randint(0, 3))]
        if name and rng.random() < 0.3:
            aliases.append(name.upper() + "!")  # alias normalizing equal to the name
        if entities and rng.random() < 0.3:
            other = rng.choice(entities)  # a surface shared with another entity
            aliases.append(rng.choice([other.name or "x", *other.aliases]))
        entities.append(Entity(f"Q{rng.randint(0, 99)}-{i}", name, tuple(aliases)))
    pieces = []
    for _ in range(rng.randint(0, 5)):
        if entities and rng.random() < 0.6:
            entity = rng.choice(entities)
            pieces.append(rng.choice([entity.name or "", *entity.aliases, ""]))
        else:
            pieces.append(random_surface(rng))
    return entities, rng.choice([" ", ", ", " and ", "-"]).join(pieces)


class TestLinkerMatchesOracle:
    def test_random_graphs_and_questions(self):
        rng = random.Random(20261017)
        linked_any = 0
        for _ in range(300):
            entities, question = random_linking_case(rng)
            graph = build_graph(entities, [], [])
            for asked in (question, question.upper(), "who is " + question + "?"):
                expected = oracle_link(entities, asked)
                assert link_entities(graph, asked) == expected, (entities, asked)
                linked_any += bool(expected)
        assert linked_any > 300

    def test_shared_surface_links_every_entity(self):
        entities = [Entity("Q2", "Paris"), Entity("Q1", "Other", ("PARIS!",)), Entity("Q3", "!!!")]
        graph = build_graph(entities, [], [])
        assert link_entities(graph, "paris, !!!") == {"Q1", "Q2"}
        assert graph.surface_index.entries["paris"] == ("Q2", "Q1")
        assert "" not in graph.surface_index.entries

    def test_equal_width_overlaps_both_kept(self):
        graph = build_graph([Entity("A", "new york"), Entity("B", "york café")], [], [])
        assert link_entities(graph, "New York Café") == {"A", "B"}


def linking_graph(size: int = 3000):
    rng = random.Random(5)
    entities = [
        Entity(f"Q{i}", f"{rng.choice(LINK_WORDS)} {i}", (f"alias {i} {rng.choice(LINK_WORDS)}",))
        for i in range(size)
    ]
    relations = [Relation(f"P{i}", f"rel {i}") for i in range(7)]
    triples = [
        Triple(f"Q{i}", f"P{i % 7 * i % 5}", EntityRef(f"Q{(i * 31) % size}")) for i in range(size)
    ]
    return build_graph(entities, relations, triples)


class TestDerivedViewSafety:
    def test_concurrent_first_links_match_single_threaded(self):
        questions = [f"is new 12 the same as alias 7 york or café {n}?" for n in range(40)]
        single = linking_graph()
        expected = [link_entities(single, question) for question in questions]
        graph = linking_graph()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(slot):
            barrier.wait(timeout=60)
            results[slot] = [link_entities(graph, question) for question in questions]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the first index build too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4

    def test_relation_frequency_result_does_not_alias_the_cache(self):
        graph = linking_graph(50)
        first = relation_frequency(graph)
        expected = dict(first)
        first["P0"] = -1
        first["bogus"] = 99
        first.clear()
        assert relation_frequency(graph) == expected
        assert sum(expected.values()) == len(graph.triples)
