import codecs
import dataclasses
import os
import random
import sys
import tempfile
import threading
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest

from kgprompt import kg, pipeline
from kgprompt.errors import GraphLoadError
from kgprompt.kg import (
    Entity,
    EntityRef,
    KnowledgeGraph,
    Literal,
    Relation,
    Triple,
    build_graph,
    link_entities,
    load_graph,
    neighborhood,
    relation_frequency,
    snapshot_path,
)
from kgprompt.retrieve import Similarity, rank_candidates
from kgprompt.verbalize import verbalize

from oracles import csr_adjacency, oracle_link, oracle_load
from oracles import oracle_neighborhood


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

    @pytest.mark.parametrize(
        "name, line, message",
        [
            ("triples.tsv", "Q1\tP1\n", "expected 3 tab-separated columns, got 2"),
            ("triples.tsv", "Q1\tP1\tE:Q2\tx\n", "expected 3 tab-separated columns, got 4"),
            ("entities.tsv", "Q3\n", "expected 2 or 3 tab-separated columns, got 1"),
            ("entities.tsv", "Q3\tGamma\tG\tx\n", "expected 2 or 3 tab-separated columns, got 4"),
            ("relations.tsv", "P2\n", "expected 2 tab-separated columns, got 1"),
            ("relations.tsv", "P2\tsees\tx\n", "expected 2 tab-separated columns, got 3"),
        ],
    )
    def test_column_count_message_names_file_line_and_counts(self, tmp_path, name, line, message):
        texts = {"triples.tsv": "Q1\tP1\tE:Q2\n", "entities.tsv": "Q1\tAlpha\nQ2\tBeta\n", "relations.tsv": "P1\tk\n"}
        texts[name] = f"# comment\n\n{texts[name]}{line}"
        write_graph_files(tmp_path, texts["triples.tsv"], texts["entities.tsv"], texts["relations.tsv"])
        number = texts[name].count("\n")
        assert load_failure(tmp_path / "triples.tsv", tmp_path / "entities.tsv") == f"{tmp_path / name}:{number}: {message}"

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

    @pytest.mark.parametrize("name", ["triples.tsv", "entities.tsv", "relations.tsv"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, name, ending):
        # Far past the first chunk a text reader decodes, and past a # comment and a blank line.
        count = 3000
        triples = "".join(f"Q{n % 7}\tP{n % 5}\tL:plain:value {n}{ending}" for n in range(count))
        entities = "".join(f"Q{n}\tName {n}{ending}" for n in range(count))
        relations = "".join(f"P{n}\trelation {n}{ending}" for n in range(count))
        texts = {"triples.tsv": triples, "entities.tsv": entities, "relations.tsv": relations}
        lines = f"# comment{ending}{ending}{texts[name]}".split(ending)
        lines[2900] = lines[2900].replace(" ", " caf\udce9 ", 1)  # a lone 0xE9 byte
        texts[name] = ending.join(lines)
        for file, text in texts.items():
            (tmp_path / file).write_bytes(text.encode("utf-8", "surrogateescape"))
        assert load_failure(tmp_path / "triples.tsv", tmp_path / "entities.tsv") == (
            f"{tmp_path / name}:2901: not valid UTF-8"
        )
        assert snapshot_files(tmp_path) == {}

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
        assert csr_adjacency(first) == csr_adjacency(second)


class TestGraphValueTypes:
    def test_self_loop_listed_once(self):
        graph = build_graph(
            [Entity("A", "Alpha"), Entity("B", "Beta")],
            [],
            [Triple("A", "r", EntityRef("A")), Triple("A", "r", EntityRef("B"))],
        )
        assert csr_adjacency(graph) == {"A": [0, 1], "B": [1]}
        assert neighborhood(graph, {"A"}, 1) == graph.triples

    def test_values_hashable_and_immutable(self):
        def make():
            return [EntityRef("Q1"), Literal("x", "time"), Triple("Q1", "P1", EntityRef("Q2"))]

        for value, twin, field in zip(make(), make(), ["entity_id", "value", "subject"]):
            assert hash(value) == hash(twin)
            assert len({value, twin}) == 1
            with pytest.raises(AttributeError):
                setattr(value, field, "changed")
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_entity_and_relation_are_named_tuples(self):
        entity = Entity("Q1", "Alpha", ("A.",))
        assert entity == ("Q1", "Alpha", ("A.",))
        assert Entity("Q2") == ("Q2", None, ())
        assert Relation("P1", "knows") == ("P1", "knows")
        assert hash(entity) == hash(Entity("Q1", "Alpha", ("A.",)))
        for value, field in ((entity, "name"), (Relation("P1", "knows"), "name")):
            with pytest.raises(AttributeError):
                setattr(value, field, "changed")

    def test_literal_defaults_to_plain(self):
        assert Literal("x").datatype == "plain"
        assert Literal("x") == Literal("x", "plain")
        assert Triple("Q1", "P1", Literal("x")).object_entity_id() is None
        assert Triple("Q1", "P1", EntityRef("Q2")).object_entity_id() == "Q2"

    def test_verbalize_tells_object_kinds_apart(self):
        # a literal whose value is an entity id renders as written, never as that entity's name
        graph = build_graph(
            [Entity("Q1", "Alpha"), Entity("Q2", "Beta")],
            [Relation("P1", "knows")],
            [Triple("Q1", "P1", EntityRef("Q2")), Triple("Q1", "P1", Literal("Q2"))],
        )
        texts = [verbalize(triple, graph).text for triple in graph.triples]
        assert texts == ["(Alpha, knows, Beta)", "(Alpha, knows, Q2)"]
        assert [isinstance(t.object, EntityRef) for t in graph.triples] == [True, False]
        assert [isinstance(t.object, Literal) for t in graph.triples] == [False, True]


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

    def test_random_cases_through_a_snapshot_hit(self, tmp_path, monkeypatch):
        rng = random.Random(20261017)
        linked_any = 0
        for _ in range(300):
            entities, question = random_linking_case(rng)
            rows = "".join(f"{e.id}\t{e.name or ''}\t{'|'.join(e.aliases)}\n" for e in entities)
            paths = write_graph_files(tmp_path, "", rows)
            parsed = load_graph(*paths)  # a miss: parsed, and the snapshot written
            decoded = load_decoded(monkeypatch, *paths)
            for asked in (question, question.upper(), "who is " + question + "?"):
                expected = oracle_link(list(parsed.entities.values()), asked)
                assert link_entities(decoded, asked) == expected, (rows, asked)
                assert link_entities(parsed, asked) == expected, (rows, asked)
                linked_any += bool(expected)
        assert linked_any > 300

    def test_shared_surface_links_every_entity(self):
        entities = [Entity("Q2", "Paris"), Entity("Q1", "Other", ("PARIS!",)), Entity("Q3", "!!!")]
        graph = build_graph(entities, [], [])
        assert link_entities(graph, "paris, !!!") == {"Q1", "Q2"}
        paris, empty = graph.surface_index.lookup(["paris", ""])
        assert graph.entity_ids[paris].tolist() == ["Q2", "Q1"]
        assert empty == []

    def test_equal_width_overlaps_both_kept(self):
        graph = build_graph([Entity("A", "new york"), Entity("B", "york café")], [], [])
        assert link_entities(graph, "New York Café") == {"A", "B"}


# Surfaces a search by 16-byte key prefixes must tell apart: keys equal in
# their first 16 bytes (one of exactly 16), multi-byte UTF-8 keys (one over 16
# bytes), one key that three entities share, and keys of 1, 2 and 5 tokens.
SURFACE_ENTITIES = [
    Entity("Q5", "abcdefghijklmnop qrs"),
    Entity("Q4", "abcdefghijklmnop", ("abcdefghijklmnop qrt",)),
    Entity("Q3", "Paris", ("abcdefghijklmnopq",)),
    Entity("Q1", "Café crème", ("東京大学 東京", "paris")),
    Entity("Q2", "PARIS!", ("café",)),
    Entity("Q6", "東京", ("a b c d e",)),
]
SURFACE_QUESTIONS = [
    "abcdefghijklmnop qrs",
    "abcdefghijklmnop qrt?",
    "abcdefghijklmnop qr",
    "abcdefghijklmnop",
    "abcdefghijklmnopq abcdefghijklmnopqr",
    "Is Paris in France?",
    "a café crème in 東京",
    "東京大学 東京 and café",
    "A-B-C-D-E, then a b c d",
    "abcdefghijklmno",
]


def table_rows(index) -> list[tuple[bytes, int]]:
    """Each row of a ``SurfaceIndex`` in table order: its key's bytes and its entity code."""
    keys = [index.keys[start + 1 : end].tobytes() for start, end in zip(index.bounds[:-1], index.bounds[1:])]
    return list(zip(keys, index.entities.tolist()))


class TestSurfaceTable:
    def graphs(self, tmp_path, monkeypatch):
        """SURFACE_ENTITIES built, parsed from files, and decoded from their snapshot."""
        rows = "".join(f"{e.id}\t{e.name}\t{'|'.join(e.aliases)}\n" for e in SURFACE_ENTITIES)
        paths = write_graph_files(tmp_path, "", rows)
        return build_graph(SURFACE_ENTITIES, [], []), load_graph(*paths), load_decoded(monkeypatch, *paths)

    def test_links_as_the_oracle_when_built_parsed_and_decoded(self, tmp_path, monkeypatch):
        linked = set()
        for graph in self.graphs(tmp_path, monkeypatch):
            for question in SURFACE_QUESTIONS:
                expected = oracle_link(SURFACE_ENTITIES, question)
                assert link_entities(graph, question) == expected, question
                linked |= expected
        assert linked == {entity.id for entity in SURFACE_ENTITIES}

    def test_keys_in_prefix_order_with_ties_in_entity_order(self, tmp_path, monkeypatch):
        # Within the run of the 16-byte prefix "abcdefghijklmnop" the keys are in entity-code order, not byte order.
        table = [
            ("a b c d e", "Q6"),
            ("abcdefghijklmnop qrs", "Q5"),
            ("abcdefghijklmnop", "Q4"),
            ("abcdefghijklmnop qrt", "Q4"),
            ("abcdefghijklmnopq", "Q3"),
            ("café", "Q2"),
            ("café crème", "Q1"),
            ("paris", "Q3"),
            ("paris", "Q1"),
            ("paris", "Q2"),
            ("東京", "Q6"),
            ("東京大学 東京", "Q1"),
        ]
        for graph in self.graphs(tmp_path, monkeypatch):
            index = graph.surface_index
            assert [(key, graph.entity_ids[code]) for key, code in table_rows(index)] == [
                (key.encode(), entity_id) for key, entity_id in table
            ]
            assert index.in_order()
            paris, long_key, prefix_only = index.lookup(["paris", "abcdefghijklmnop qrt", "abcdefghijklmnop q"])
            assert graph.entity_ids[paris].tolist() == ["Q3", "Q1", "Q2"]
            assert (graph.entity_ids[long_key].tolist(), prefix_only) == (["Q4"], [])
            assert index.widths == (5, 2, 1)

    def test_a_long_run_of_one_prefix_links_as_the_oracle(self, tmp_path, monkeypatch):
        # 20,002 keys start with the 16 bytes "sharedprefix0000": one is those bytes alone, one is 21
        # bytes long, and two entities share a 22-byte key with 19,999 others of that length.
        entities = [Entity(f"Q{number}", f"Sharedprefix0000 {number:05d}") for number in range(20_000)]
        entities += [Entity("R1", "sharedprefix0000"), Entity("R2", "SHAREDPREFIX0000 00042", ("sharedprefix0000 0004",))]
        questions = [
            "Who is Sharedprefix0000 00042?",
            "sharedprefix0000 19999 and sharedprefix0000",
            "sharedprefix0000 0004 2",
            "sharedprefix0000 20000, sharedprefix0000 0000, sharedprefix0000 000000",
        ]
        rows = "".join(f"{e.id}\t{e.name}\t{'|'.join(e.aliases)}\n" for e in entities)
        paths = write_graph_files(tmp_path, "", rows)
        expected = [oracle_link(entities, question) for question in questions]
        assert expected == [{"Q42", "R2"}, {"Q19999", "R1"}, {"R2"}, {"R1"}]
        for graph in (load_graph(*paths), load_decoded(monkeypatch, *paths)):
            assert [link_entities(graph, question) for question in questions] == expected
            shared, short, prefix = graph.surface_index.lookup(["sharedprefix0000 00042", "sharedprefix0000 0004", "sharedprefix0000"])
            assert [graph.entity_ids[codes].tolist() for codes in (shared, short, prefix)] == [["Q42", "R2"], ["R2"], ["R1"]]

    @pytest.mark.parametrize(
        "keys, entities, ordered",
        [
            ("", [], True),
            ("\na\nb", [1, 0], True),
            ("\nb\na", [0, 1], False),
            ("\nabcdefghij\nabcdefgha", [0, 0], False),  # the second word falls
            ("\ncafe\ncafé", [0, 0], True),
            ("\ncafé\ncafe", [0, 0], False),
            ("\nparis\nparis", [0, 0], True),
            ("\nparis\nparis", [0, 1], True),
            ("\nparis\nparis", [1, 0], False),
            # Keys tied in their first 16 bytes are ordered by entity code alone.
            ("\nabcdefghijklmnop\nabcdefghijklmnopq", [1, 0], False),
            ("\nabcdefghijklmnopq\nabcdefghijklmnop", [0, 1], True),
            ("\nabcdefghijklmnopa\nabcdefghijklmnopz", [1, 0], False),
            ("\nabcdefghijklmnopz\nabcdefghijklmnopa", [0, 1], True),
            ("\nabcdefghijklmnopq\nabcdefghijklmnopq", [0, 1], True),
            ("\nabcdefghijklmnopq\nabcdefghijklmnopq", [1, 0], False),
            ("\nabcdefghijklmnoa\nabcdefghijklmnoz", [1, 0], True),  # the second word rises
        ],
    )
    def test_order_check(self, keys, entities, ordered):
        index = kg.SurfaceIndex(np.frombuffer(keys.encode(), np.uint8), np.array(entities, dtype=np.int32))
        assert index.in_order() is ordered

    def test_table_order_is_the_key_prefixes_then_the_entity_codes(self, tmp_path):
        rng = random.Random(20261020)
        words = ["abcdefgh", "abcdefghijklmnop", "café", "cafe", "東京", "x", "ñandú", "z"]
        for _ in range(200):
            names = [" ".join(rng.choices(words, k=rng.randint(1, 4))) for _ in range(rng.randint(0, 30))]
            # The words are normalized already, so each name is its own key; aliases add ties within an entity.
            surfaces = [[name, *rng.choices(names, k=rng.randint(0, 2))] for name in names]
            rows = "".join(f"Q{code}\t{keys[0]}\t{'|'.join(keys[1:])}\n" for code, keys in enumerate(surfaces))
            graph = load_graph(*write_graph_files(tmp_path, "", rows))
            pairs = [(key.encode(), code) for code, keys in enumerate(surfaces) for key in dict.fromkeys(keys)]
            expected = sorted(range(len(pairs)), key=lambda i: (pairs[i][0][:16], pairs[i][1]))
            assert table_rows(graph.surface_index) == [pairs[i] for i in expected], rows
            assert graph.surface_index.in_order()

    def test_a_shared_long_prefix_links_as_the_oracle_and_a_hit_compares_no_keys(self, tmp_path, monkeypatch):
        size = 3000
        # Every alias starts with the same 16 bytes, and code i's numbered alias sorts before code i - 1's.
        entities = [
            Entity(f"Q{i}", f"entity {i}", (f"sharedprefix0000 {size - i:04d}", f"sharedprefix0000 group {i % 7}"))
            for i in range(size)
        ]
        rows = "".join(f"{e.id}\t{e.name}\t{'|'.join(e.aliases)}\n" for e in entities)
        paths = write_graph_files(tmp_path, "", rows)
        parsed = load_graph(*paths)
        keys_read = []
        rows_of = kg.SurfaceIndex._rows_of

        def counted_rows_of(index, *args):
            keys_read.append(args)
            return rows_of(index, *args)

        with monkeypatch.context() as patch:
            patch.setattr(kg.SurfaceIndex, "_rows_of", counted_rows_of)
            decoded = load_decoded(monkeypatch, *paths)
        assert keys_read == []  # the order check compares no full keys
        questions = [
            "is sharedprefix0000 0001 like sharedprefix0000 3000 or sharedprefix0000 1500?",
            "sharedprefix0000 group 3, then entity 12 and sharedprefix0000 2999",
            "sharedprefix0000 9999 sharedprefix0000 group sharedprefix0000",
            "entity 7 sharedprefix0000 group 6 sharedprefix0000 0042",
        ]
        linked = 0
        for question in questions:
            expected = oracle_link(entities, question)
            for graph in (build_graph(entities, [], []), parsed, decoded):
                assert link_entities(graph, question) == expected, question
            linked += len(expected)
        assert linked > 2 * size // 7


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


LITERAL_VALUES = ["2010", "12:30:00", "a:b:c", "x y", "Q1", "+1976-03-17T00:00:00Z", "x, y: z"]
BAD_OBJECTS = ["X:Q1", "Q1", "E:", "L:plain", "L:plain:", "L:date:x", "L::x"]


def pad(rng: random.Random, column: str) -> str:
    return rng.choice(["", "", " ", "  "]) + column + rng.choice(["", "", " "])


def random_graph_files(rng: random.Random, tmp_path, lines: int = 200):
    """Random TSV graph files with the quirks the loader must absorb.

    Duplicate and re-padded lines, comments and blank lines, CRLF endings,
    leading byte-order marks, literals whose value holds ':' or ', ',
    self-loops, relations that are never declared, and unnamed entities.
    Returns the three paths; the relations path is None when no relations
    file was written.
    """
    ids = [f"Q{i}" for i in range(rng.randint(2, 30))]

    def write(path, rows):
        text = "".join(row + rng.choice(["\n", "\r\n"]) for row in rows)
        path.write_bytes(rng.choice([b"", codecs.BOM_UTF8]) + text.encode("utf-8"))
        return path

    entity_rows = []
    for entity_id in ids:
        name = "" if rng.random() < 0.15 else f"name {entity_id}"
        aliases = rng.choices([name, f"alias {entity_id}", "shared", "", " x "], k=rng.randint(0, 4))
        columns = [pad(rng, entity_id), pad(rng, name)]
        if aliases or rng.random() < 0.5:
            columns.append("|".join(aliases))
        entity_rows.append("\t".join(columns))
    entities = write(tmp_path / "entities.tsv", ["# entities", *entity_rows])

    relations = None
    (tmp_path / "relations.tsv").unlink(missing_ok=True)
    if rng.random() < 0.7:
        declared = [f"P{i}\trelation {i}" for i in range(rng.randint(0, 5))]
        relations = write(tmp_path / "relations.tsv", [pad(rng, row) for row in declared])

    triple_rows = []
    while len(triple_rows) < lines:
        roll = rng.random()
        if roll < 0.05:
            triple_rows.append(rng.choice(["# comment", "  # indented\tcomment", "", "   "]))
            continue
        if roll < 0.15 and triple_rows:
            triple_rows.append(rng.choice(triple_rows))
            continue
        subject = rng.choice(ids)
        if roll < 0.25:
            token = f"E:{subject}"  # self-loop
        elif roll < 0.45:
            token = f"L:{rng.choice(['plain', 'time', 'quantity'])}:{rng.choice(LITERAL_VALUES)}"
        else:
            token = f"E:{rng.choice(ids)}"
        relation = f"P{rng.randint(0, 7)}"
        triple_rows.append("\t".join(pad(rng, column) for column in (subject, relation, token)))
    triples = write(tmp_path / "triples.tsv", triple_rows)
    return triples, entities, relations


def plain_triple(triple: Triple) -> tuple:
    obj = triple.object
    if isinstance(obj, EntityRef):
        return triple.subject, triple.relation, ("E", obj.entity_id)
    assert isinstance(obj, Literal)
    return triple.subject, triple.relation, ("L", obj.datatype, obj.value)


def assert_graph_matches_oracle(graph, expected):
    triples, adjacency, entities, relations = expected
    assert [plain_triple(triple) for triple in graph.triples] == triples
    assert csr_adjacency(graph) == adjacency
    assert [(e.id, e.name, e.aliases) for e in graph.entities.values()] == [
        (entity_id, *entity) for entity_id, entity in entities.items()
    ]
    assert [(r.id, r.name) for r in graph.relations.values()] == list(relations.items())


def load_decoded(monkeypatch, *paths) -> KnowledgeGraph:
    """``load_graph(*paths)``, failing if it parses the triples file instead of decoding its snapshot."""

    def parse_forbidden(*args):
        raise AssertionError("parsed the triples file; expected a snapshot hit")

    with monkeypatch.context() as patch:
        patch.setattr(kg, "_load_triples", parse_forbidden)
        return load_graph(*paths)


def typed(values: list) -> list:
    """Each value with its type, and the same for the elements of a tuple or list, all the way down."""
    return [(type(value), typed(value) if isinstance(value, (tuple, list)) else value) for value in values]


def assert_same_array(actual: np.ndarray, expected: np.ndarray, name: str) -> None:
    assert actual.dtype == expected.dtype, name
    assert typed(actual.tolist()) == typed(expected.tolist()), name


def assert_same_store(parsed: KnowledgeGraph, decoded: KnowledgeGraph) -> None:
    """Every field and derived view equal.

    Mappings (dicts and the entities view) compare in the same order, arrays
    in value, dtype and element type, and both down to the type of each
    element of an ``Entity``, term or index entry. The entities' alias
    texts compare as their UTF-8 and its bounds, and the literal values and
    datatype codes as the arrays they are. The text index is compared member
    by member, so a decoded index that drifts from the derived one fails
    here, and so is the surface table built from it.
    """
    for field in dataclasses.fields(KnowledgeGraph):
        expected, actual = getattr(parsed, field.name), getattr(decoded, field.name)
        if isinstance(expected, Mapping):
            assert type(actual) is type(expected), field.name
            assert typed(list(actual.items())) == typed(list(expected.items())), field.name
        else:
            assert_same_array(actual, expected, field.name)
    for name in ("alias_blob", "alias_bounds"):
        assert_same_array(getattr(decoded.entities, name), getattr(parsed.entities, name), f"entities.{name}")
    assert typed(decoded.triples_at(slice(None))) == typed(parsed.triples_at(slice(None)))
    assert_same_array(decoded.part_texts, parsed.part_texts, "part_texts")
    for name, expected in parsed.text_index._asdict().items():
        assert_same_array(getattr(decoded.text_index, name), expected, f"text_index.{name}")
    index, expected_index = decoded.surface_index, parsed.surface_index
    for name in ("keys", "bounds", "entities", "prefixes"):
        assert_same_array(getattr(index, name), getattr(expected_index, name), f"surface_index.{name}")
    assert index.widths == expected_index.widths


def load_failure(*paths) -> str:
    with pytest.raises(GraphLoadError) as excinfo:
        load_graph(*paths)
    return str(excinfo.value)


def oracle_failure(*paths) -> str:
    with pytest.raises(ValueError) as excinfo:
        oracle_load(*paths)
    return str(excinfo.value)


class TestLoaderMatchesOracle:
    def test_random_graph_files(self, tmp_path, monkeypatch):
        rng = random.Random(20261018)
        self_loops = undeclared = unnamed = duplicates = 0
        for _ in range(25):
            paths = random_graph_files(rng, tmp_path)
            expected = oracle_load(*paths)
            snapshot_path(paths[0]).unlink(missing_ok=True)
            graph = load_graph(*paths)  # a miss: parsed, and the snapshot written
            decoded = load_decoded(monkeypatch, *paths)
            assert_graph_matches_oracle(graph, expected)
            assert_graph_matches_oracle(decoded, expected)
            assert_same_store(graph, decoded)
            self_loops += sum(t.subject == t.object_entity_id() for t in graph.triples)
            undeclared += sum(r.id == r.name for r in graph.relations.values())
            unnamed += sum(e.name is None for e in graph.entities.values())
            data = [line for line in paths[0].read_text("utf-8-sig").splitlines() if line.strip()[:1] not in ("", "#")]
            duplicates += len(data) - len(graph.triples)
        assert min(self_loops, undeclared, unnamed, duplicates) > 0

    def test_random_bad_objects_fail_at_the_oracles_line(self, tmp_path):
        rng = random.Random(20261019)
        for _ in range(40):
            triples, entities, relations = random_graph_files(rng, tmp_path, lines=60)
            rows = triples.read_bytes().decode("utf-8").split("\n")
            bad = rng.choice([*BAD_OBJECTS, "E:Q999"])
            for position in sorted(rng.sample(range(len(rows) - 1), 3)):
                rows[position] = f"Q0\tP0\t{pad(rng, bad)}\r"
            triples.write_bytes("\n".join(rows).encode("utf-8"))
            expected = oracle_failure(triples, entities, relations)
            actual = load_failure(triples, entities)
            if bad == "E:Q999":
                assert actual.endswith(f": {expected}")
            else:
                assert f"{expected}:" in actual

    def test_repeated_bad_object_reported_at_first_line(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path,
            "Q1\tP1\tE:Q2\n# note\nQ1\tP2\tL:date:x\nQ2\tP1\tL:date:x\nQ2\tP2\t L:date:x\n",
            "Q1\tAlpha\nQ2\tBeta\n",
        )
        assert oracle_failure(triples, entities) == "triples.tsv:3"
        assert "triples.tsv:3: unknown literal datatype 'date'" in load_failure(triples, entities)

    def test_good_object_seen_earlier_does_not_hide_a_bad_one(self, tmp_path):
        for bad in ["L:time:", "L:time", "E:", "time:2010"]:
            triples, entities = write_graph_files(
                tmp_path,
                f"Q1\tP1\tL:time:2010\nQ1\tP1\tE:Q2\nQ2\tP1\t L:time:2010 \nQ2\tP1\t{bad}\n",
                "Q1\tAlpha\nQ2\tBeta\n",
            )
            assert oracle_failure(triples, entities) == "triples.tsv:4"
            assert "triples.tsv:4:" in load_failure(triples, entities)


def fresh(text: str) -> str:
    """An equal string that is a distinct object (for ids of two or more characters)."""
    copy = text.encode("utf-8").decode("utf-8")
    assert copy == text and (copy is not text or len(text) < 2)
    return copy


def key_objects(mapping: dict) -> dict:
    """Each key of ``mapping`` mapped to itself, to recover the key object."""
    return {key: key for key in mapping}


def assert_ids_interned(graph: KnowledgeGraph) -> int:
    """Check that every id a graph holds is the very object keying its dict; the triples checked."""
    entity_keys = key_objects(graph.entities)
    relation_keys = key_objects(graph.relations)
    for triple in graph.triples:
        assert triple.subject is entity_keys[triple.subject]
        assert triple.relation is relation_keys[triple.relation]
        if isinstance(triple.object, EntityRef):
            assert triple.object.entity_id is entity_keys[triple.object.entity_id]
    for entity_id in csr_adjacency(graph):
        assert entity_id is entity_keys[entity_id]
    for entity_id, entity in graph.entities.items():
        assert entity.id is entity_id and entity_id is entity_keys[entity_id]
    for relation_id, relation in graph.relations.items():
        assert relation.id is relation_id
        if relation.name == relation_id:  # undeclared: named by the id itself
            assert relation.name is relation_id
    assert all(entity_id is entity_keys[entity_id] for entity_id in graph.entities.codes)
    assert all(entity_id is entity_keys[entity_id] for entity_id in graph.entity_ids.tolist())
    return len(graph.triples)


class TestInternedIds:
    def test_triple_ids_are_the_graphs_keys(self, tmp_path, monkeypatch):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(25):
            paths = random_graph_files(rng, tmp_path)
            snapshot_path(paths[0]).unlink(missing_ok=True)
            checked += assert_ids_interned(load_graph(*paths))
            checked += assert_ids_interned(load_decoded(monkeypatch, *paths))
        assert checked > 2000

    def test_undeclared_relation_is_one_shared_object(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path,
            "Q1\tP9\tE:Q2\nQ2\t P9 \tL:plain:x\n Q1\tP9\tE:Q1\nQ2\tP1\tE:Q1\n",
            "Q1\tAlpha\nQ2\tBeta\n",
            "P1\tknows\n",
        )
        graph = load_graph(triples, entities)
        undeclared = [triple.relation for triple in graph.triples if triple.relation == "P9"]
        assert len(undeclared) == 3
        relation = graph.relations["P9"]
        assert relation == Relation("P9", "P9")
        for value in undeclared:
            assert value is relation.id is relation.name is key_objects(graph.relations)["P9"]

    def test_caller_made_triples_with_distinct_strings_build_the_same_graph(self, tmp_path):
        rng = random.Random(20261020)
        for _ in range(10):
            loaded = load_graph(*random_graph_files(rng, tmp_path))
            entities = [
                Entity(fresh(e.id), e.name and fresh(e.name), tuple(map(fresh, e.aliases)))
                for e in loaded.entities.values()
            ]
            # Undeclared relations are named by their id; build_graph adds them back.
            declared = [r for r in loaded.relations.values() if r.id != r.name]
            relations = [Relation(fresh(r.id), fresh(r.name)) for r in declared]
            triples = [
                Triple(
                    fresh(t.subject),
                    fresh(t.relation),
                    EntityRef(fresh(t.object.entity_id)) if isinstance(t.object, EntityRef) else t.object,
                )
                for t in loaded.triples * 2  # the repeats are dropped as duplicates
            ]
            built = build_graph(entities, relations, triples)
            assert built.triples[0].subject is not loaded.triples[0].subject
            assert built == loaded
            seeds = sorted(loaded.entities)[:3]
            assert neighborhood(built, seeds, 2) == neighborhood(loaded, seeds, 2)

    def test_parsed_decoded_and_built_graphs_are_one_store(self, tmp_path, monkeypatch):
        # P1 is declared with its own id as its name; P9 is undeclared.
        triples, entities = write_graph_files(
            tmp_path,
            "Q1\tP1\tE:Q2\nQ2\tP9\tL:time:1999\nQ1\tP2\tE:Q1\nQ2\tP1\tE:Q1\n",
            "Q1\tAlpha\tA|Al\nQ2\t\n",
            "P1\tP1\nP2\tknows\n",
        )
        parsed = load_graph(triples, entities)
        decoded = load_decoded(monkeypatch, triples, entities)
        built = build_graph(
            [
                Entity(fresh(e.id), e.name and fresh(e.name), tuple(map(fresh, e.aliases)))
                for e in parsed.entities.values()
            ],
            [Relation(fresh("P1"), fresh("P1")), Relation(fresh("P2"), fresh("knows"))],
            [
                Triple(
                    fresh(t.subject),
                    fresh(t.relation),
                    EntityRef(fresh(t.object.entity_id)) if isinstance(t.object, EntityRef) else t.object,
                )
                for t in parsed.triples
            ],
        )
        for graph in (parsed, decoded, built):
            assert assert_ids_interned(graph) == 4
            assert graph.relations["P1"] == Relation("P1", "P1")
        assert_same_store(parsed, decoded)
        assert_same_store(parsed, built)
        assert_same_store(decoded, built)


class TestLiteralsAndAliases:
    def test_every_literal_datatype_reads_the_same_on_every_path(self, tmp_path, monkeypatch):
        paths = write_graph_files(
            tmp_path,
            "Q1\tP1\tL:plain:a:b\nQ1\tP1\tL:time:+1999-01-02\nQ2\tP1\tL:quantity:7 kg\n"
            "Q2\tP1\tE:Q1\nQ2\tP2\tL:plain:Ünïcode 東京\nQ1\tP2\tL:time:a:b\n",
            "Q1\tAlpha\tA|Al\nQ2\tBeta\n",
            "P1\tknows\nP2\tsees\n",
        )
        parsed = load_graph(*paths)
        decoded = load_decoded(monkeypatch, *paths)
        built = build_graph(parsed.entities.values(), parsed.relations.values(), parsed.triples)
        expected = [
            Literal("a:b"),
            Literal("+1999-01-02", "time"),
            Literal("7 kg", "quantity"),
            EntityRef("Q1"),
            Literal("Ünïcode 東京"),
            Literal("a:b", "time"),
        ]
        texts = ["a:b", "time: +1999-01-02", "quantity: 7 kg", "Ünïcode 東京", "time: a:b"]
        for graph in (parsed, decoded, built):
            assert graph.objects.tolist() == [2, 3, 4, 0, 5, 6]  # Q1 is entity 0; literal n is 2 + n
            assert [triple.object for triple in graph.triples] == expected
            assert graph.part_texts[4:].tolist() == texts
            assert graph.literal_datatypes.dtype == np.uint8
            assert graph.literal_datatypes.tolist() == [0, 1, 2, 0, 1]
        assert_same_store(parsed, decoded)
        assert_same_store(parsed, built)

    def test_build_graph_refuses_what_the_files_cannot_hold(self):
        with pytest.raises(GraphLoadError, match="entity Q1: an alias holds '[|]'$"):
            build_graph([Entity("Q1", "Alpha", ("A|B",))], [], [])
        with pytest.raises(GraphLoadError, match="unknown literal datatype 'date'$"):
            build_graph([Entity("Q1")], [], [Triple("Q1", "P1", Literal("x", "date"))])
        # Empty aliases name nothing, and the loader drops them too.
        graph = build_graph([Entity("Q1", "Alpha", ("", "A", "")), Entity("Q2", None, ("",))], [], [])
        assert graph.entities.alias_blob.tobytes() == b"\nA\n"
        assert list(graph.entities.values()) == [Entity("Q1", "Alpha", ("A",)), Entity("Q2")]


def rewrite_snapshot(path, change) -> None:
    """Apply ``change`` to the members of the snapshot at ``path`` and write them back."""
    members = {name: array.copy() for name, array in kg._unpack(path.read_bytes()).items()}
    change(members)
    path.write_bytes(kg._pack(members))


def flip_middle_third(path) -> None:
    data = path.read_bytes()
    third = len(data) // 3
    path.write_bytes(data[:third] + bytes(byte ^ 0xFF for byte in data[third : 2 * third]) + data[2 * third :])


def flip_a_literal_digit(path) -> None:
    """Turn the stored literal "1999" into "0999": still well formed, so only the CRC tells."""
    data = bytearray(path.read_bytes())
    data[data.index(b"1999")] ^= 0x01
    path.write_bytes(bytes(data))


def reverse_surface_keys(members) -> None:
    """Store the surface keys in reverse: SNAPSHOT_GRAPH's are distinct, so they fall."""
    keys = members["surface_keys"].tobytes().split(b"\n")[1:]
    members["surface_keys"] = np.frombuffer(b"".join(b"\n" + key for key in reversed(keys)), np.uint8)


def save_bare_array(path) -> None:
    with path.open("wb") as file:
        np.save(file, np.arange(3))


def edit_member_table(path, change) -> None:
    """Apply ``change`` to the rows of the snapshot's member table, each [name, dtype, offset, length] as bytes.

    The snapshot is written back with its body as it was, at an aligned
    offset after the new table, so its checksum still matches.
    """
    data = path.read_bytes()
    start = len(kg._SNAPSHOT_FORMAT) + 1 + 32
    end = data.index(b"\n\n", start) + 2
    crc, *rows = data[start : end - 2].split(b"\n")
    rows = [row.split(b" ") for row in rows]
    change(rows)
    head = data[:start] + b"\n".join([crc, *map(b" ".join, rows)]) + b"\n\n"
    path.write_bytes(head + bytes(-len(head) % 8) + data[end + -end % 8 :])


# Ways a snapshot can be unusable although its file is there: each is logged
# as a warning, and the load parses the TSV files and rewrites the snapshot.
DAMAGED_SNAPSHOTS = {
    "flipped bytes": flip_middle_third,
    "flipped data byte": flip_a_literal_digit,
    "truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "empty": lambda path: path.write_bytes(b""),
    "not an archive": lambda path: path.write_bytes(b"not a snapshot\n"),
    "a bare array": save_bare_array,
    "missing member": lambda path: rewrite_snapshot(path, lambda members: members.pop("incident")),
    "pickled member": lambda path: rewrite_snapshot(
        path, lambda members: members.update(subjects=members["subjects"].astype(object))
    ),
    "wrong dtype": lambda path: rewrite_snapshot(
        path, lambda members: members.update(offsets=members["offsets"].astype(np.int32))
    ),
    "subject out of range": lambda path: rewrite_snapshot(
        path, lambda members: members["subjects"].__setitem__(0, 2)
    ),
    # SNAPSHOT_GRAPH has E = 2 entities and L = 2 literals, so object codes stop below E + L = 4.
    "object code out of range": lambda path: rewrite_snapshot(
        path, lambda members: members["objects"].__setitem__(0, 4)
    ),
    "literal count": lambda path: rewrite_snapshot(
        path, lambda members: members.update(literal_datatypes=members["literal_datatypes"][:-1])
    ),
    "entity count": lambda path: rewrite_snapshot(
        path, lambda members: members.update(entity_names=members["entity_names"][:-5])
    ),
    "offsets": lambda path: rewrite_snapshot(path, lambda members: members["offsets"].__setitem__(-1, 99)),
    "not utf-8": lambda path: rewrite_snapshot(
        path, lambda members: members["entity_ids"].__setitem__(-1, 0xFF)
    ),
    # The alias member is "\nA|Al\n": its last byte is the newline before Q2's empty text.
    "alias texts not utf-8": lambda path: rewrite_snapshot(
        path, lambda members: members["entity_aliases"].__setitem__(-2, 0xFF)
    ),
    "missing surface keys": lambda path: rewrite_snapshot(path, lambda members: members.pop("surface_keys")),
    "missing surface entities": lambda path: rewrite_snapshot(
        path, lambda members: members.pop("surface_entities")
    ),
    "surface keys of wrong dtype": lambda path: rewrite_snapshot(
        path, lambda members: members.update(surface_keys=members["surface_keys"].astype(np.int32))
    ),
    "surface entities of wrong dtype": lambda path: rewrite_snapshot(
        path, lambda members: members.update(surface_entities=members["surface_entities"].astype(np.int64))
    ),
    "surface count": lambda path: rewrite_snapshot(
        path, lambda members: members.update(surface_entities=members["surface_entities"][:-1])
    ),
    "surface entity out of range": lambda path: rewrite_snapshot(
        path, lambda members: members["surface_entities"].__setitem__(-1, 2)
    ),
    "negative surface entity": lambda path: rewrite_snapshot(
        path, lambda members: members["surface_entities"].__setitem__(0, -1)
    ),
    "surface keys out of order": lambda path: rewrite_snapshot(path, reverse_surface_keys),
    "surface keys not utf-8": lambda path: rewrite_snapshot(
        path, lambda members: members["surface_keys"].__setitem__(-1, 0xFF)
    ),
    "missing part tokens": lambda path: rewrite_snapshot(path, lambda members: members.pop("part_tokens")),
    "part offsets of wrong dtype": lambda path: rewrite_snapshot(
        path, lambda members: members.update(part_offsets=members["part_offsets"].astype(np.int32))
    ),
    "part count": lambda path: rewrite_snapshot(
        path, lambda members: members.update(part_offsets=members["part_offsets"][:-1])
    ),
    "part offsets decrease": lambda path: rewrite_snapshot(
        path, lambda members: members["part_offsets"].__setitem__(2, 0)
    ),
    "part token out of range": lambda path: rewrite_snapshot(
        path, lambda members: members["part_tokens"].__setitem__(-1, members["part_vocabulary"].tolist().count(10))
    ),
    "part vocabulary not utf-8": lambda path: rewrite_snapshot(
        path, lambda members: members["part_vocabulary"].__setitem__(-1, 0xFF)
    ),
    # The member table and the body's checksum; the table's rows run from entity_ids (row 0) to part_tokens.
    "body cut short": lambda path: path.write_bytes(path.read_bytes()[:-3]),
    "member table overruns the file": lambda path: edit_member_table(
        path, lambda rows: rows[-1].__setitem__(3, b"%d" % (int(rows[-1][3]) + 8))
    ),
    "misnamed member": lambda path: edit_member_table(path, lambda rows: rows[0].__setitem__(0, b"entity_keys")),
    "misstated dtype": lambda path: edit_member_table(path, lambda rows: rows[10].__setitem__(1, b"<u8")),
    "unaligned offset": lambda path: edit_member_table(
        path, lambda rows: rows[1].__setitem__(2, b"%d" % (int(rows[1][2]) + 4))
    ),
}
# What the reader finds first in each way the member table and checksum can be damaged.
TABLE_DAMAGE = {
    "flipped data byte": "body checksum",
    "body cut short": "part_tokens past the end of the file",
    "member table overruns the file": "part_tokens past the end of the file",
    "misnamed member": "entity_ids: name or dtype",
    "misstated dtype": "offsets: name or dtype",
    "unaligned offset": "entity_names: alignment",
    "missing member": "member count",
    "empty": "no format line or member table",
}
SNAPSHOT_GRAPH = (
    "Q1\tP1\tE:Q2\nQ2\tP9\tL:time:1999\nQ1\tP9\tL:plain:a:b\nQ1\tP1\tE:Q1\n",
    "Q1\tAlpha\tA|Al\nQ2\t\n",
    "P1\tknows\n",
)
SOURCE_FILES = ["entities.tsv", "relations.tsv", "triples.tsv"]


def snapshot_files(directory) -> dict:
    """Each snapshot or temporary snapshot file in ``directory``, with its bytes."""
    return {path.name: path.read_bytes() for path in directory.glob(".*.kgprompt.npz*")}


class TestSnapshot:
    def test_sits_beside_the_triples_file_without_pickles(self, tmp_path, monkeypatch):
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        graph = load_graph(triples, entities)
        path = snapshot_path(triples)
        assert path == tmp_path / ".triples.tsv.kgprompt.npz"
        assert sorted(os.listdir(tmp_path)) == [path.name, *SOURCE_FILES]
        snapshot = kg._unpack(path.read_bytes())
        assert all(snapshot[name].dtype != object for name in snapshot)
        decoded = load_decoded(monkeypatch, triples, entities)
        assert_same_store(graph, decoded)
        assert assert_ids_interned(decoded) == 4

    def test_key_covers_each_source_and_an_absent_relations_file(self):
        key = kg._source_key
        assert key((b"t", b"e", None)) != key((b"t", b"e", b""))
        assert key((b"ab", b"c", None)) != key((b"a", b"bc", None))
        assert key((b"t", b"e", b"r")) == key((b"t", b"e", b"r"))

    @pytest.mark.parametrize("damage", DAMAGED_SNAPSHOTS)
    def test_unusable_snapshot_is_parsed_again_and_rewritten(self, tmp_path, monkeypatch, caplog, damage):
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        parsed = load_graph(triples, entities)
        DAMAGED_SNAPSHOTS[damage](snapshot_path(triples))
        caplog.clear()
        with caplog.at_level("WARNING", logger="kgprompt.kg"):
            assert_same_store(parsed, load_graph(triples, entities))
        assert "graph snapshot" in caplog.text and "unusable" in caplog.text
        assert_same_store(parsed, load_decoded(monkeypatch, triples, entities))

    @pytest.mark.parametrize("damage", TABLE_DAMAGE)
    def test_table_and_checksum_damage_is_named(self, tmp_path, caplog, damage):
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        load_graph(triples, entities)
        DAMAGED_SNAPSHOTS[damage](snapshot_path(triples))
        with caplog.at_level("WARNING", logger="kgprompt.kg"):
            load_graph(triples, entities)
        assert f"is unusable ({TABLE_DAMAGE[damage]});" in caplog.text

    def test_format_7_npz_is_a_plain_miss_and_rewritten_in_place(self, tmp_path, monkeypatch, caplog):
        paths = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        parsed = load_graph(*paths)
        path = snapshot_path(paths[0])
        members = dict(kg._unpack(path.read_bytes()))
        # What format 7 wrote: the same members in an .npz, under that format's key.
        with monkeypatch.context() as patch:
            patch.setattr(kg, "_SNAPSHOT_FORMAT", b"kgprompt graph snapshot 7")
            sources = (*paths, tmp_path / "relations.tsv")
            members["key"] = np.frombuffer(kg._source_key([source.read_bytes() for source in sources]), np.uint8)
        with path.open("wb") as file:
            np.savez(file, **members)
        assert path.read_bytes()[:2] == b"PK"
        caplog.clear()
        with caplog.at_level("DEBUG", logger="kgprompt.kg"):
            assert_same_store(parsed, load_graph(*paths))
        assert not [record for record in caplog.records if record.levelname == "WARNING"]
        assert "holds other sources" in caplog.text
        assert sorted(os.listdir(tmp_path)) == [path.name, *SOURCE_FILES]
        assert path.read_bytes().startswith(b"kgprompt graph snapshot 8\n")
        assert_same_store(parsed, load_decoded(monkeypatch, *paths))

    def test_snapshot_of_other_files_is_parsed_again_and_rewritten(self, tmp_path, monkeypatch, caplog):
        other = tmp_path / "other"
        other.mkdir()
        load_graph(*write_graph_files(other, "Q1\tP1\tE:Q1\n", "Q1\tAlpha\n"))
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        snapshot_path(triples).write_bytes(snapshot_path(other / "triples.tsv").read_bytes())
        with caplog.at_level("DEBUG", logger="kgprompt.kg"):
            graph = load_graph(triples, entities)
        assert not [record for record in caplog.records if record.levelname == "WARNING"]
        assert "holds other sources" in caplog.text
        assert len(graph.triples) == 4
        assert_same_store(graph, load_decoded(monkeypatch, triples, entities))

    # The members each older format lacked, and those it held otherwise: format 1 stored no surface
    # pairs, format 2 no part tokens, and format 3 coded objects by term, each term's entity code (-1
    # for a literal) in ``term_entities``. SNAPSHOT_GRAPH's terms are E:Q2, L:time:1999, L:plain:a:b, E:Q1.
    # Format 4 stored what format 5 stores, but kept a leading byte-order mark as data. Format 5 has
    # format 6's members, but the surface pairs in entity order, not key order. Format 6 has format 7's
    # members, but the surface pairs in the full byte order of their keys.
    OLDER_FORMATS = {
        1: (("surface_keys", "surface_entities", "part_vocabulary", "part_offsets", "part_tokens"), {}),
        2: (("part_vocabulary", "part_offsets", "part_tokens"), {}),
        3: ((), {"term_entities": [1, -1, -1, 0], "objects": [0, 1, 2, 3]}),
        4: ((), {}),
        5: ((), {}),
        6: ((), {}),
    }

    @pytest.mark.parametrize("version", OLDER_FORMATS)
    def test_older_format_snapshot_is_parsed_again_without_a_warning(self, tmp_path, monkeypatch, caplog, version):
        paths = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        parsed = load_graph(*paths)
        path = snapshot_path(paths[0])
        sources = (*paths, tmp_path / "relations.tsv")
        # What the older format stored: fewer members, under that format's key.
        with monkeypatch.context() as patch:
            patch.setattr(kg, "_SNAPSHOT_FORMAT", f"kgprompt graph snapshot {version}".encode())
            old_key = kg._source_key([source.read_bytes() for source in sources])

        lacked, held = self.OLDER_FORMATS[version]

        def older_format(members):
            for name in lacked:
                del members[name]
            for name, codes in held.items():
                members[name] = np.array(codes, dtype=np.int32)
            members["key"] = np.frombuffer(old_key, dtype=np.uint8)

        rewrite_snapshot(path, older_format)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="kgprompt.kg"):
            assert_same_store(parsed, load_graph(*paths))
        assert not [record for record in caplog.records if record.levelname == "WARNING"]
        assert "holds other sources" in caplog.text
        snapshot = kg._unpack(path.read_bytes())
        assert set(lacked) <= set(snapshot) and "term_entities" not in snapshot
        assert snapshot["key"].tobytes() != old_key
        assert snapshot["key"].tobytes() == kg._source_key([source.read_bytes() for source in sources])
        assert snapshot["objects"].tolist() == [1, 2, 3, 0]  # format 4: literal n is E + n
        assert snapshot["surface_entities"].tolist() == [0, 0, 0]
        assert snapshot["surface_keys"].tobytes() == b"\na\nal\nalpha"  # in key prefix order
        # Alpha | Q2 | knows | P9 | time: 1999 | a:b
        assert snapshot["part_offsets"].tolist() == [0, 1, 2, 3, 4, 6, 8]
        assert_same_store(parsed, load_decoded(monkeypatch, *paths))

    @pytest.mark.parametrize(
        "edit",
        [
            ("triples.tsv", "E:Q2", "E:Q1"),
            ("entities.tsv", "Alpha", "Alphb"),
            ("relations.tsv", "knows", "known"),
            ("relations.tsv", None, None),
        ],
    )
    def test_edited_source_is_parsed_again_even_with_its_size_and_mtime(self, tmp_path, edit):
        name, old, new = edit
        paths = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        first = load_graph(*paths)
        source = tmp_path / name
        if old is None:
            source.unlink()
        else:
            stat = source.stat()
            source.write_text(source.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert (source.stat().st_size, source.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        graph = load_graph(*paths)
        relations = tmp_path / "relations.tsv"
        assert_graph_matches_oracle(graph, oracle_load(*paths, relations if relations.exists() else None))
        assert graph != first

    def test_read_only_directory_still_loads(self, tmp_path, monkeypatch):
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        expected = oracle_load(triples, entities, tmp_path / "relations.tsv")
        tmp_path.chmod(0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                # A superuser may write anyway: fail as the directory fails for everyone else.
                def read_only(*args, **kwargs):
                    raise PermissionError(13, "Permission denied", str(tmp_path))

                monkeypatch.setattr(tempfile, "mkstemp", read_only)
            graphs = [load_graph(triples, entities) for _ in range(2)]
        finally:
            tmp_path.chmod(0o755)
        for graph in graphs:
            assert_graph_matches_oracle(graph, expected)
            # No snapshot to write, so nothing tokenized.
            assert "text_index" not in graph.__dict__ and "part_texts" not in graph.__dict__
        assert sorted(os.listdir(tmp_path)) == SOURCE_FILES

    def test_failed_write_leaves_no_file_behind(self, tmp_path, monkeypatch, caplog):
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)

        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with caplog.at_level("DEBUG", logger="kgprompt.kg"):
            graph = load_graph(triples, entities)
        assert len(graph.triples) == 4
        assert "cannot write graph snapshot" in caplog.text
        assert sorted(os.listdir(tmp_path)) == SOURCE_FILES

    @pytest.mark.parametrize("stale", [False, True])
    @pytest.mark.parametrize(
        "triples_text, entities_text",
        [(f"Q1\tP1\t{bad}\n", "Q1\tAlpha\n") for bad in [*BAD_OBJECTS, "E:Q8"]]
        + [("Q1\tP1\n", "Q1\tAlpha\n"), ("Q8\tP1\tE:Q1\n", "Q1\tAlpha\n"), ("", "Q1\tA\nQ1\tB\n")],
    )
    def test_no_snapshot_of_files_that_fail_to_load(self, tmp_path, stale, triples_text, entities_text):
        triples, entities = write_graph_files(tmp_path, *SNAPSHOT_GRAPH[:2])
        if stale:
            load_graph(triples, entities)
        before = snapshot_files(tmp_path)
        write_graph_files(tmp_path, triples_text, entities_text)
        with pytest.raises(GraphLoadError):
            load_graph(triples, entities)
        assert snapshot_files(tmp_path) == before
        assert len(before) == stale


class TestByteOrderMark:
    @pytest.mark.parametrize("name", SOURCE_FILES)
    def test_leading_mark_is_not_data(self, tmp_path, monkeypatch, name):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        for directory in (plain, marked):
            directory.mkdir()
            write_graph_files(directory, *SNAPSHOT_GRAPH)
        path = marked / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        expected = load_graph(plain / "triples.tsv", plain / "entities.tsv")
        assert_same_store(expected, load_graph(marked / "triples.tsv", marked / "entities.tsv"))
        assert_same_store(expected, load_decoded(monkeypatch, marked / "triples.tsv", marked / "entities.tsv"))

    def test_mark_anywhere_else_is_data(self, tmp_path):
        mark = "\ufeff"
        triples, entities = write_graph_files(
            tmp_path,
            f"{mark}Q1\tP1\tL:plain:{mark}x\n{mark}Q2\tP1\tE:Q1\n",
            f"{mark}{mark}Q2\tBeta\nQ1\t{mark}Alpha\n",
        )
        graph = load_graph(triples, entities)
        assert list(graph.entities) == [f"{mark}Q2", "Q1"]
        assert graph.entities["Q1"].name == f"{mark}Alpha"
        assert graph.triples == [
            Triple("Q1", "P1", Literal(f"{mark}x")),
            Triple(f"{mark}Q2", "P1", EntityRef("Q1")),
        ]


def oracle_triple(plain: tuple) -> Triple:
    """An ``oracle_load`` triple as a ``Triple``."""
    subject, relation, obj = plain
    return Triple(subject, relation, EntityRef(obj[1]) if obj[0] == "E" else Literal(obj[2], obj[1]))


def oracle_graph(expected) -> KnowledgeGraph:
    """The graph ``build_graph`` makes of ``oracle_load``'s parts, every relation declared."""
    triples, _adjacency, entities, relations = expected
    return build_graph(
        [Entity(entity_id, name, aliases) for entity_id, (name, aliases) in entities.items()],
        [Relation(*item) for item in relations.items()],
        map(oracle_triple, triples),
    )


class TestTriplesAt:
    def test_rows_read_as_the_oracle_reads_them(self, tmp_path, monkeypatch):
        rng = random.Random(20261026)
        entity_rows = literal_rows = 0
        for _ in range(12):
            paths = random_graph_files(rng, tmp_path, lines=rng.choice([0, 1, 60, 200]))
            expected = oracle_load(*paths)
            triples = list(map(oracle_triple, expected[0]))
            count = len(triples)
            on_entity = [row for row, triple in enumerate(triples) if isinstance(triple.object, EntityRef)]
            on_literal = [row for row, triple in enumerate(triples) if isinstance(triple.object, Literal)]
            entity_rows += len(on_entity)
            literal_rows += len(on_literal)
            index_arrays = [
                rng.sample(range(count), count),
                rng.sample(range(count), rng.randint(0, count)),
                rng.choices(range(count), k=rng.randint(0, 40)) if count else [],  # rows repeated
                [],
                rng.sample(on_entity, len(on_entity)),
                rng.sample(on_literal, len(on_literal)),
            ]
            start, stop = sorted(rng.choices(range(count + 1), k=2))
            slices = [slice(None), slice(start, stop), slice(stop, start), slice(None, None, 3), slice(None, None, -1)]
            snapshot_path(paths[0]).unlink(missing_ok=True)
            parsed = load_graph(*paths)
            decoded = load_decoded(monkeypatch, *paths)
            for graph in (parsed, decoded, oracle_graph(expected)):
                for rows in [np.array(rows, dtype=np.int64) for rows in index_arrays] + slices:
                    read = graph.triples_at(rows)
                    assert type(read) is list
                    assert typed(read) == typed([triples[row] for row in np.arange(count)[rows].tolist()])
        assert min(entity_rows, literal_rows) > 100


def oracle_touching(triples: list, rows: list[int], entity_ids: set) -> list[bool]:
    """Whether the subject or entity object of each of ``oracle_load``'s ``triples[row]`` is one of ``entity_ids``."""
    return [
        triples[row][0] in entity_ids or (triples[row][2][0] == "E" and triples[row][2][1] in entity_ids)
        for row in rows
    ]


class TestRowTextsAndTouching:
    def test_rows_read_as_verbalize_and_the_oracle_read_them(self, tmp_path, monkeypatch):
        assert "entity_codes" not in {field.name for field in dataclasses.fields(KnowledgeGraph)}
        rng = random.Random(20261027)
        seen = Counter()
        for _ in range(12):
            paths = random_graph_files(rng, tmp_path, lines=rng.choice([0, 1, 60, 200]))
            expected = oracle_load(*paths)
            triples, entities = expected[0], expected[2]
            count = len(triples)
            index_arrays = [
                rng.sample(range(count), count),
                rng.choices(range(count), k=rng.randint(0, 40)) if count else [],  # rows repeated
                [],
            ]
            some = rng.sample(sorted(entities), min(len(entities), 3))
            id_sets = [set(), set(some[:1]), {*some, "Q999"}, {"Q999", "nope", ""}, set(LITERAL_VALUES)]
            snapshot_path(paths[0]).unlink(missing_ok=True)
            parsed = load_graph(*paths)
            decoded = load_decoded(monkeypatch, *paths)
            for graph in (parsed, decoded, oracle_graph(expected)):
                assert graph.entities.ids is graph.entity_ids and not hasattr(graph, "entity_codes")
                for rows in index_arrays:
                    array = np.array(rows, dtype=np.int64)
                    read = graph.triples_at(array)
                    texts = graph.row_texts(array)
                    assert texts == [verbalize(triple, graph).text for triple in read]
                    for ids in id_sets:
                        mask = graph.touching(array, ids)
                        assert mask.dtype == bool and mask.tolist() == oracle_touching(triples, rows, ids)
                        seen["self-loop hits"] += sum(
                            hit and triple.subject == triple.object_entity_id() for hit, triple in zip(mask.tolist(), read)
                        )
                        seen["literal rows asked"] += sum(isinstance(triple.object, Literal) for triple in read) * bool(ids)
                    seen["unnamed"] += sum(entities[triple.subject][0] is None for triple in read)
                    seen.update(triple.object.datatype for triple in read if isinstance(triple.object, Literal))
                    seen["', ' and ':' in a value"] += sum(
                        isinstance(triple.object, Literal) and ", " in triple.object.value and ":" in triple.object.value
                        for triple in read
                    )
        assert len(seen) == 7 and min(seen.values()) > 20, seen


class TestNeighborhoodMatchesOracle:
    def test_random_graph_files(self, tmp_path, caplog):
        rng = random.Random(20261021)
        reached = self_loops = literals = 0
        for round_ in range(40):
            lines = rng.choice([0, 1, 5, 60, 200])
            paths = random_graph_files(rng, tmp_path, lines=lines)
            graph = load_graph(*paths)
            triples = oracle_load(*paths)[0]
            entity_keys = key_objects(graph.entities)
            assert relation_frequency(graph) == Counter(relation for _, relation, _ in triples)
            for _ in range(6):
                seeds = rng.sample(sorted(graph.entities), min(len(graph.entities), rng.randint(0, 3)))
                seeds += rng.sample(["Q999", "nope", ""], rng.randint(0, 1))
                for hops in (1, 2):
                    result = neighborhood(graph, seeds, hops)
                    expected = oracle_neighborhood(triples, seeds, hops)
                    assert [plain_triple(triple) for triple in result] == expected, (round_, seeds, hops)
                    for triple in result:
                        assert triple.subject is entity_keys[triple.subject]
                    reached += bool(result)
                    self_loops += sum(t.subject == t.object_entity_id() for t in result)
                    literals += sum(isinstance(t.object, Literal) for t in result)
        assert min(reached, self_loops, literals) > 50

    def test_empty_graphs(self):
        for graph in (build_graph([], [], []), build_graph([Entity("Q1", "Alpha")], [], [])):
            for hops in (1, 2):
                assert neighborhood(graph, {"Q1", "Q2"}, hops) == []
            assert relation_frequency(graph) == {}


class TestColumnarStore:
    def test_padded_tokens_are_one_term_and_one_triple(self, tmp_path, monkeypatch):
        paths = write_graph_files(
            tmp_path,
            "Q1\tP1\tE:Q2\nQ1\tP1\t E:Q2 \nQ1\tP2\tE:Q2 \nQ2\tP1\tL:plain:x\nQ2\tP1\tL:plain:x  \n",
            "Q1\tAlpha\nQ2\tBeta\n",
        )
        parsed = load_graph(*paths)
        decoded = load_decoded(monkeypatch, *paths)
        built = build_graph(parsed.entities.values(), parsed.relations.values(), parsed.triples)
        for graph in (parsed, decoded, built):
            # An entity object holds its entity code, below E = 2; the one literal is coded E + 0.
            assert graph.objects.dtype == np.int32 and graph.objects.tolist() == [1, 1, 2]
            assert graph.literal_values.tolist() == ["x"]
            assert graph.triples == [
                Triple("Q1", "P1", EntityRef("Q2")),
                Triple("Q1", "P2", EntityRef("Q2")),
                Triple("Q2", "P1", Literal("x")),
            ]

    def test_caller_made_ids_are_interned_too(self):
        entities = [Entity("Q1", "Alpha"), Entity("Q2", "Beta")]
        triples = [
            Triple(fresh("Q1"), fresh("P1"), EntityRef(fresh("Q2"))),
            Triple(fresh("Q2"), fresh("P1"), EntityRef(fresh("Q2"))),
        ]
        graph = build_graph(entities, [], triples)
        entity_keys, relation_keys = key_objects(graph.entities), key_objects(graph.relations)
        for triple in neighborhood(graph, ["Q1"], 2):
            assert triple.subject is entity_keys[triple.subject]
            assert triple.relation is relation_keys[triple.relation]
            assert triple.object.entity_id is entity_keys[triple.object.entity_id]

    def test_incidence_is_csr_of_ascending_rows(self):
        graph = build_graph(
            [Entity("A"), Entity("B"), Entity("C")],
            [],
            [
                Triple("B", "r", EntityRef("A")),
                Triple("A", "r", EntityRef("A")),
                Triple("C", "r", Literal("A")),
                Triple("A", "r", EntityRef("C")),
            ],
        )
        assert graph.offsets.tolist() == [0, 3, 4, 6]
        assert graph.incident.tolist() == [0, 1, 3, 0, 2, 3]
        assert csr_adjacency(graph) == {"A": [0, 1, 3], "B": [0], "C": [2, 3]}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Q1\tP1\tE:Q8\nQ9\tP1\tE:Q1\n", "unknown object entity: Q8"),
            ("Q9\tP1\tE:Q1\nQ1\tP1\tE:Q8\n", "unknown subject entity: Q9"),
            ("Q9\tP1\tE:Q8\n", "unknown subject entity: Q9"),
            ("Q1\tP1\tL:plain:Q8\nQ1\tP1\tE:Q1\nQ1\tP1\t E:Q7\n", "unknown object entity: Q7"),
        ],
    )
    def test_unknown_entity_names_the_first_offending_triple(self, tmp_path, text, message):
        triples, entities = write_graph_files(tmp_path, text, "Q1\tAlpha\n")
        assert load_failure(triples, entities).endswith(message)

    def test_unknown_entity_is_raised_after_the_whole_file_parses(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path, "Q9\tP1\tE:Q1\nQ1\tP1\tE:Q8\nQ1\tP1\tX:bad\n", "Q1\tAlpha\n"
        )
        assert "triples.tsv:3: object must start with" in load_failure(triples, entities)

    def test_build_graph_checks_triples_like_the_loader(self):
        entities = [Entity("Q1", "Alpha")]
        triples = [Triple("Q1", "P1", EntityRef("Q8")), Triple("Q9", "P1", EntityRef("Q1"))]
        with pytest.raises(GraphLoadError, match="unknown object entity: Q8$"):
            build_graph(entities, [], triples)
        with pytest.raises(GraphLoadError, match="duplicate entity id: Q1$"):
            build_graph(entities * 2, [], triples)

    @pytest.mark.parametrize(
        "entities_text, relations_text, message",
        [
            ("Q1\tAlpha\nQ1\tBeta\n", "P1\tknows\n", "duplicate entity id: Q1"),
            ("Q1\tAlpha\n", "P1\tknows\nP1\tsees\n", "duplicate relation id: P1"),
        ],
    )
    def test_duplicate_id_is_reported_before_an_unknown_entity(
        self, tmp_path, entities_text, relations_text, message
    ):
        # Q8 and Q9 get entity codes too: the code table is as long as the declared ids with Q1 twice.
        text = "Q9\tP1\tE:Q1\nQ1\tP1\tE:Q8\n"
        triples, entities = write_graph_files(tmp_path, text, entities_text, relations_text)
        assert load_failure(triples, entities).endswith(message)
        declared = [Entity(*line.split("\t")) for line in entities_text.splitlines()]
        relations = [Relation(*line.split("\t")) for line in relations_text.splitlines()]
        with pytest.raises(GraphLoadError, match=f"{message}$"):
            build_graph(declared, relations, [Triple("Q9", "P1", EntityRef("Q1"))])

    def test_undeclared_relations_follow_declared_ones_in_first_use_order(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path,
            "Q1\tP9\tE:Q1\nQ1\tP1\tE:Q1\nQ1\tP5\tE:Q1\nQ1\tP9\tL:plain:x\n",
            "Q1\tAlpha\n",
            "P2\tunused\nP1\tknows\n",
        )
        graph = load_graph(triples, entities)
        assert list(graph.relations) == ["P2", "P1", "P9", "P5"]
        assert graph.relation_ids.tolist() == ["P2", "P1", "P9", "P5"]
        assert relation_frequency(graph) == {"P9": 2, "P1": 1, "P5": 1}

    def test_equality_compares_parts_and_triples_in_order(self):
        entities = [Entity("A", "Alpha"), Entity("B", "Beta")]
        first, second = Triple("A", "r", EntityRef("B")), Triple("B", "r", Literal("x"))
        graph = build_graph(entities, [], [first, second])
        assert graph == build_graph(entities[::-1], [], [first, second, first])
        assert graph != build_graph(entities, [], [second, first])
        assert graph != build_graph(entities, [Relation("r", "rel")], [first, second])
        assert graph != build_graph([*entities, Entity("C")], [], [first, second])
        assert graph != "graph"
        assert "triples" not in graph.__dict__


class TestNoFullMaterialization:
    @pytest.mark.parametrize("method", ["kaping", "popular_knowledge"])
    def test_pipeline_run_builds_no_triples_or_adjacency_view(self, toy_dir, tmp_path, monkeypatch, method):
        loaded = []

        def load_and_keep(*paths):
            loaded.append(load_graph(*paths))
            return loaded[-1]

        monkeypatch.setattr(pipeline, "load_graph", load_and_keep)
        config = pipeline.load_config(toy_dir / "config.json")
        result = pipeline.run(dataclasses.replace(config, method=method, output_dir=str(tmp_path)))
        assert result["report"]["overall"]["count"] > 0
        [graph] = loaded
        assert "triples" not in graph.__dict__
        # The check can see a view that was built.
        assert ("relation_counts" in graph.__dict__) == (method == "popular_knowledge")


class TestSnapshotHitBuildsOnlyWhatIsRead:
    def count_made(self, patch, made: Counter) -> None:
        """Count each ``Entity``, ``EntityRef``, ``Literal`` and alias tuple made.

        Named tuples are counted through ``__new__`` or ``_make``, alias
        tuples as the splits of ``kg._alias_tuple``.
        """
        split = kg._alias_tuple

        def counted_split(text):
            made["aliases"] += 1
            return split(text)

        patch.setattr(kg, "_alias_tuple", counted_split)
        for cls in (Entity, EntityRef, Literal):
            new, make = cls.__new__, cls._make

            def counted_new(klass, *args, _new=new, **kwargs):
                made[klass.__name__] += 1
                return _new(klass, *args, **kwargs)

            def counted_make(klass, iterable, _make=make):
                made[klass.__name__] += 1
                return _make(iterable)

            patch.setattr(cls, "__new__", counted_new)
            patch.setattr(cls, "_make", classmethod(counted_make))

    def test_load_makes_no_entity_reference_term_or_index(self, tmp_path, monkeypatch):
        paths = write_graph_files(tmp_path, *SNAPSHOT_GRAPH)
        parsed = load_graph(*paths)
        made = Counter()
        with monkeypatch.context() as patch:
            self.count_made(patch, made)
            graph = load_decoded(monkeypatch, *paths)
            assert made == Counter()
            for view in ("part_texts", "triples"):
                assert view not in graph.__dict__, view
            # The aliases are kept as the stored texts, the literals as values and datatype codes.
            assert graph.entities.alias_blob.tobytes() == b"\nA|Al\n"
            assert graph.literal_values.tolist() == ["1999", "a:b"] and graph.literal_datatypes.tolist() == [1, 0]
            # The hit holds the stored text index, split by nothing yet, and its key-ordered surface table.
            assert "text_index" in graph.__dict__ and "surface_index" in graph.__dict__
            # The index is built from the stored surface pairs, not by tokenizing the names again.
            patch.setattr(kg, "normalize_text", lambda text: pytest.fail("tokenized the surfaces on a hit"))
            assert link_entities(graph, "Where is Al?") == {"Q1"}
            assert graph.part_texts.tolist() == ["Alpha", "Q2", "knows", "P9", "time: 1999", "a:b"]
            assert made == Counter()  # linking and part texts read entities and literals by code
            assert "surface_index" in graph.__dict__
            # No token text is split before the first hashed ranking, which hashes the stored vocabulary.
            assert "bucket_tables" not in graph.__dict__
            patch.setattr(kg, "normalize_tokens", lambda text: pytest.fail("tokenized a part text on a hit"))
            ranked = rank_candidates(Similarity(), "alpha knows", neighborhood(graph, ["Q1"], 1), graph)
            assert ranked.rows.tolist() == [3, 0, 2] and ranked.scores[0] > 0  # (Alpha, knows, Alpha) first
            assert graph.text_index.part_vocabulary.tobytes() == b"\nalpha\nq2\nknows\np9\ntime\n1999\na\nb"
            assert list(graph.bucket_tables) == [Similarity().embedder.dimension]
            assert made == Counter()
            entity = graph.entities["Q1"]
            assert made == Counter({"Entity": 1, "aliases": 1})  # only the entity read splits its aliases
            [triple] = graph.triples_at(np.array([0]))
            assert made == Counter({"Entity": 1, "aliases": 1, "EntityRef": 1})
            [literal_triple] = graph.triples_at(np.array([1]))
            assert made == Counter({"Entity": 1, "aliases": 1, "EntityRef": 1, "Literal": 1})
        assert entity == Entity("Q1", "Alpha", ("A", "Al")) and triple.object == EntityRef("Q2")
        assert literal_triple == Triple("Q2", "P9", Literal("1999", "time"))
        assert_same_store(parsed, graph)

    def test_a_link_decodes_no_alias_text_and_a_read_decodes_only_its_own(self, tmp_path, monkeypatch):
        rows = "".join(f"Q{i}\tName {i}\tAlias {i}|Other {i}\n" for i in range(50))
        paths = write_graph_files(tmp_path, "Q7\tP1\tE:Q3\n", rows)
        load_graph(*paths)
        graph = load_decoded(monkeypatch, *paths)
        read = []

        class ReadSpy(np.ndarray):
            """The alias texts' UTF-8, recording the bytes of each part of it read, or of all of it."""

            def __getitem__(self, index):
                part = np.asarray(self)[index]
                read.append(part.tobytes())
                return part

            def tobytes(self, *args):
                data = np.asarray(self).tobytes(*args)
                read.append(data)
                return data

        graph.entities.alias_blob = graph.entities.alias_blob.view(ReadSpy)
        assert link_entities(graph, "Is Alias 7 Other 3?") == {"Q7", "Q3"}
        assert read == []
        # The table is arrays: no dict, list or str per surface.
        index = graph.surface_index
        assert {type(value) for value in vars(index).values()} == {np.ndarray, tuple}
        assert len(index.prefixes) == 150 and index.widths == (2,)
        assert graph.entities["Q7"] == Entity("Q7", "Name 7", ("Alias 7", "Other 7"))
        assert read == [b"Alias 7|Other 7"]
        [triple] = graph.triples_at(np.array([0]))
        assert verbalize(triple, graph).text == "(Name 7, P1, Name 3)"
        assert read == [b"Alias 7|Other 7"]
        # Nothing is kept: a second read decodes its text again.
        assert graph.entities["Q49"] == Entity("Q49", "Name 49", ("Alias 49", "Other 49"))
        assert graph.entities["Q7"] == Entity("Q7", "Name 7", ("Alias 7", "Other 7"))
        assert read == [b"Alias 7|Other 7", b"Alias 49|Other 49", b"Alias 7|Other 7"]

    @pytest.mark.parametrize("method", ["kaping", "popular_knowledge"])
    def test_only_hashed_ranking_reads_the_part_tokens(self, toy_dir, tmp_path, monkeypatch, method):
        config = pipeline.load_config(toy_dir / "config.json")
        load_graph(config.triples_path, config.entities_path, config.relations_path)  # the snapshot is written
        loaded = []

        def load_and_keep(*paths):
            loaded.append(load_decoded(monkeypatch, *paths))
            return loaded[-1]

        monkeypatch.setattr(pipeline, "load_graph", load_and_keep)
        pipeline.run(dataclasses.replace(config, method=method, output_dir=str(tmp_path)))
        [graph] = loaded
        assert ("bucket_tables" in graph.__dict__) == (method == "kaping")


class TestEntitiesView:
    def test_reads_like_the_dict_of_its_entities(self):
        entities = [Entity("Q2", "Beta", ("B",)), Entity("Q1"), Entity("Q3", "Gamma")]
        graph = build_graph(entities, [], [])
        view = graph.entities
        expected = {entity.id: entity for entity in entities}
        assert view == expected and expected == view
        assert view != {**expected, "Q4": Entity("Q4")} and view != dict(list(expected.items())[:2])
        assert repr(view) == repr(expected)
        assert list(view) == ["Q2", "Q1", "Q3"] and len(view) == 3
        assert list(view.values()) == entities and list(view.items()) == list(expected.items())
        assert view["Q1"] == Entity("Q1") and view.get("Q9") is None and view.get("Q3").name == "Gamma"
        assert "Q2" in view and "Q9" not in view
        with pytest.raises(KeyError):
            view["Q9"]
        with pytest.raises(TypeError):
            view["Q1"] = Entity("Q1", "Alpha")


class TestNeighborhoodView:
    def test_reads_like_the_list_of_its_triples(self, alex_graph):
        view = neighborhood(alex_graph, {"Q304461"}, 1)
        expected = list(view)
        assert len(view) == len(expected) == 4
        assert view == expected and expected == view and view == tuple(expected)
        assert view != expected[:-1]
        assert [view[i] for i in range(4)] == expected
        assert view[-1] == expected[-1] and view[1:3] == expected[1:3]
        assert list(reversed(view)) == expected[::-1]
        assert expected[2] in view and view.index(expected[2]) == 2
        with pytest.raises(IndexError):
            view[4]

    def test_builds_no_triples_view_and_reads_part_texts(self):
        graph = build_graph(
            [Entity("Q1", "Alpha"), Entity("Q2")],
            [Relation("P1", "born")],
            [
                Triple("Q1", "P1", EntityRef("Q2")),
                Triple("Q2", "P9", Literal("1999", "time")),
                Triple("Q2", "P1", Literal("7", "quantity")),
                Triple("Q1", "P1", Literal("x")),
            ],
        )
        view = neighborhood(graph, {"Q2"}, 1)
        assert list(view.rows) == [0, 1, 2]
        assert "triples" not in graph.__dict__
        texts = graph.part_texts
        assert list(texts[:2]) == ["Alpha", "Q2"]
        assert list(texts[2:4]) == ["born", "P9"]
        assert list(texts[graph.row_parts(np.arange(4))[8:]]) == ["Q2", "time: 1999", "quantity: 7", "x"]
        assert [verbalize(triple, graph).text for triple in view] == [
            "(Alpha, born, Q2)",
            "(Q2, P9, time: 1999)",
            "(Q2, born, quantity: 7)",
        ]
        assert "triples" not in graph.__dict__
        assert list(graph.rows(graph.triples[::-1])) == [3, 2, 1, 0]
        assert graph.rows(view) is view.rows


class TestNeighborhoodConcurrency:
    def test_concurrent_first_neighborhoods_match_single_threaded(self):
        seed_sets = [[f"Q{(n * 37) % 3000}", f"Q{(n * 101) % 3000}"] for n in range(40)]
        single = linking_graph()
        expected = [neighborhood(single, seeds, hops) for seeds in seed_sets for hops in (1, 2)]
        graph = linking_graph()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(slot):
            barrier.wait(timeout=60)
            results[slot] = [neighborhood(graph, seeds, hops) for seeds in seed_sets for hops in (1, 2)]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(expected)
        assert results == [expected] * 4

    def test_concurrent_first_links_and_alias_reads_on_a_hit_match_single_threaded(self, tmp_path, monkeypatch):
        rows = "".join(f"Q{i}\tName {i % 700}\tAlias {i}|Other {i % 50}\n" for i in range(3000))
        paths = write_graph_files(tmp_path, "", rows)
        parsed = load_graph(*paths)
        questions = [f"Is Name {n} the Other {n % 50} or Alias {n * 7}?" for n in range(40)]
        expected = [link_entities(parsed, question) for question in questions]
        entities = list(parsed.entities.values())
        graph = load_decoded(monkeypatch, *paths)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(slot):
            barrier.wait(timeout=60)
            linked = [link_entities(graph, question) for question in questions]
            read = [graph.entities[entity.id] for entity in entities[slot::3]]
            results[slot] = (linked, read == entities[slot::3])

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(expected)
        assert results == [(expected, True)] * 4
