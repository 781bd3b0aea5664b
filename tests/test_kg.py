import dataclasses
import random
import sys
import threading
from collections import Counter

import pytest

from kgprompt import pipeline
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


LITERAL_VALUES = ["2010", "12:30:00", "a:b:c", "x y", "Q1", "+1976-03-17T00:00:00Z"]
BAD_OBJECTS = ["X:Q1", "Q1", "E:", "L:plain", "L:plain:", "L:date:x", "L::x"]


def pad(rng: random.Random, column: str) -> str:
    return rng.choice(["", "", " ", "  "]) + column + rng.choice(["", "", " "])


def random_graph_files(rng: random.Random, tmp_path, lines: int = 200):
    """Random TSV graph files with the quirks the loader must absorb.

    Duplicate and re-padded lines, comments and blank lines, CRLF endings,
    literals whose value holds ':', self-loops, relations that are never
    declared, and unnamed entities. Returns the three paths; the relations
    path is None when no relations file was written.
    """
    ids = [f"Q{i}" for i in range(rng.randint(2, 30))]

    def write(path, rows):
        text = "".join(row + rng.choice(["\n", "\r\n"]) for row in rows)
        path.write_bytes(text.encode("utf-8"))
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


def load_failure(*paths) -> str:
    with pytest.raises(GraphLoadError) as excinfo:
        load_graph(*paths)
    return str(excinfo.value)


def oracle_failure(*paths) -> str:
    with pytest.raises(ValueError) as excinfo:
        oracle_load(*paths)
    return str(excinfo.value)


class TestLoaderMatchesOracle:
    def test_random_graph_files(self, tmp_path):
        rng = random.Random(20261018)
        self_loops = undeclared = unnamed = duplicates = 0
        for _ in range(25):
            paths = random_graph_files(rng, tmp_path)
            graph = load_graph(*paths)
            assert_graph_matches_oracle(graph, oracle_load(*paths))
            self_loops += sum(t.subject == t.object_entity_id() for t in graph.triples)
            undeclared += sum(r.id == r.name for r in graph.relations.values())
            unnamed += sum(e.name is None for e in graph.entities.values())
            data = [line for line in paths[0].read_text().splitlines() if line.strip()[:1] not in ("", "#")]
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


class TestInternedIds:
    def test_triple_ids_are_the_graphs_keys(self, tmp_path):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(25):
            graph = load_graph(*random_graph_files(rng, tmp_path))
            entity_keys = key_objects(graph.entities)
            relation_keys = key_objects(graph.relations)
            for triple in graph.triples:
                assert triple.subject is entity_keys[triple.subject]
                assert triple.relation is relation_keys[triple.relation]
                if isinstance(triple.object, EntityRef):
                    assert triple.object.entity_id is entity_keys[triple.object.entity_id]
                checked += 1
            for entity_id in csr_adjacency(graph):
                assert entity_id is entity_keys[entity_id]
        assert checked > 1000

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
                seeds = rng.sample(sorted(graph.entities), rng.randint(0, 3))
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
    def test_padded_tokens_are_one_term_and_one_triple(self, tmp_path):
        triples, entities = write_graph_files(
            tmp_path,
            "Q1\tP1\tE:Q2\nQ1\tP1\t E:Q2 \nQ1\tP2\tE:Q2 \nQ2\tP1\tL:plain:x\nQ2\tP1\tL:plain:x  \n",
            "Q1\tAlpha\nQ2\tBeta\n",
        )
        graph = load_graph(triples, entities)
        assert graph.terms.tolist() == [EntityRef("Q2"), Literal("x")]
        assert graph.term_entities.tolist() == [1, -1]
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
        assert list(texts.entities) == ["Alpha", "Q2"]
        assert list(texts.relations) == ["born", "P9"]
        assert list(texts.terms[graph.objects]) == ["Q2", "time: 1999", "quantity: 7", "x"]
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
