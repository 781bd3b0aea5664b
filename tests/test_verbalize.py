import random

from kgprompt.kg import Entity, EntityRef, Literal, Relation, Triple, build_graph
from kgprompt.verbalize import verbalize


def test_entity_object():
    graph = build_graph(
        [Entity("Q1", "Lady Susan"), Entity("Q2", "Jane Austen")],
        [Relation("P50", "written by")],
        [Triple("Q1", "P50", EntityRef("Q2"))],
    )
    assert verbalize(graph.triples[0], graph).text == "(Lady Susan, written by, Jane Austen)"


def test_time_literal(alex_graph):
    date_triple = alex_graph.triples[3]
    rendered = verbalize(date_triple, alex_graph)
    assert rendered.text == "(Alex Chilton, date of death, time: +2010-03-17)"
    assert rendered[1:] == ("Alex Chilton", "date of death", "time: +2010-03-17")


def test_quantity_literal():
    graph = build_graph(
        [Entity("Q1", "Mount Doom")],
        [Relation("P2044", "elevation")],
        [Triple("Q1", "P2044", Literal("1476", "quantity"))],
    )
    assert verbalize(graph.triples[0], graph).text == "(Mount Doom, elevation, quantity: 1476)"


def test_plain_literal():
    graph = build_graph(
        [Entity("Q1", "Thing")],
        [Relation("P1", "motto")],
        [Triple("Q1", "P1", Literal("onward"))],
    )
    assert verbalize(graph.triples[0], graph).text == "(Thing, motto, onward)"


def test_unnamed_entity_renders_raw_id(caplog):
    graph = build_graph(
        [Entity("Q1"), Entity("Q2", "Beta")],
        [Relation("P1", "linked to")],
        [Triple("Q1", "P1", EntityRef("Q2"))],
    )
    with caplog.at_level("WARNING"):
        rendered = verbalize(graph.triples[0], graph)
    assert rendered.text == "(Q1, linked to, Beta)"
    assert rendered.subject == "Q1"
    assert "Q1" in caplog.text


def test_pure_function(alex_graph):
    triple = alex_graph.triples[0]
    rendered = verbalize(triple, alex_graph)
    assert rendered == verbalize(triple, alex_graph)
    assert rendered.text == f"({rendered.subject}, {rendered.relation}, {rendered.object})"
    assert rendered.subject == alex_graph.entities[triple.subject].name
    assert rendered.relation == alex_graph.relations[triple.relation].name


def test_shape_with_comma_free_names():
    rng = random.Random(5)
    words = ["amber", "static", "harbor", "violet", "quartz", "delta"]
    for index in range(40):
        subject_name = " ".join(rng.sample(words, rng.randint(1, 3)))
        object_name = " ".join(rng.sample(words, rng.randint(1, 3)))
        relation_name = rng.choice(["made", "borders", "ruled by"])
        graph = build_graph(
            [Entity("S", subject_name), Entity("O", object_name)],
            [Relation("R", relation_name)],
            [Triple("S", "R", EntityRef("O"))],
        )
        text = verbalize(graph.triples[0], graph).text
        assert text.startswith("(") and text.endswith(")")
        assert text.count(", ") == 2
        assert text == f"({subject_name}, {relation_name}, {object_name})"
