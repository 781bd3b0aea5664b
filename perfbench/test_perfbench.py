"""Tests of the benchmark's own parts: generator, stub service, spans.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import gen
import run
import spans
from kgprompt.embed import hashed_bow_vector
from kgprompt.kg import load_graph
from kgprompt.remote import post_json

SMALL = gen.Scale(entities=400, triples=2_000, relations=12, questions=25, relation_named_entities=5)


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_generator_same_seed_gives_identical_files(tmp_path):
    first = gen.generate(SMALL, 7, tmp_path / "a", gold_entities=True)
    second = gen.generate(SMALL, 7, tmp_path / "b", gold_entities=True)
    gen.generate(SMALL, 8, tmp_path / "c", gold_entities=True)

    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["triples.tsv"] != _files(tmp_path / "c")["triples.tsv"]


def test_generator_writes_a_loadable_graph_with_gold_questions(tmp_path):
    gold = gen.generate(SMALL, 3, tmp_path, gold_entities=False)
    graph = load_graph(tmp_path / "triples.tsv", tmp_path / "entities.tsv")
    records = [json.loads(line) for line in (tmp_path / "dataset.jsonl").read_text().splitlines()]

    assert len(graph.triples) == SMALL.triples
    assert len(graph.entities) == SMALL.entities
    assert len(records) == len(gold) == SMALL.questions
    assert all("question_entities" not in record for record in records)
    edges = {(t.subject, t.relation, t.object_entity_id()) for t in graph.triples}
    for item, record in zip(gold, records):
        assert (item.subject, item.relation, item.object) in edges
        assert record["answer_entities"] == [item.object]
        assert item.surface in record["question"]


@pytest.fixture()
def stub(tmp_path, monkeypatch):
    for name, value in run.NO_PROXY.items():
        monkeypatch.setenv(name, value)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"(A, r, B)": "The r of A is B."}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.ROOT / "src"), str(run.HERE)]), **run.NO_PROXY)
    service = run.Stub(script, env, delays={"/embed": 0.0, "/complete": 0.2})
    try:
        yield service
    finally:
        service.close()
    assert service.process.poll() is not None


def test_stub_counts_requests_texts_bytes_and_concurrency(stub):
    embed_payload = {"texts": ["alpha beta", "gamma", ""]}
    body = post_json(f"{stub.url}/embed", embed_payload, 10)
    assert body["vectors"] == [hashed_bow_vector(text, run.DIMENSION).tolist() for text in embed_payload["texts"]]

    prompts = [{"model": "m", "prompt": f"fact (A, r, B) #{i}", "max_tokens": 8} for i in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        answers = list(pool.map(lambda payload: post_json(f"{stub.url}/complete", payload, 10), prompts))
    assert [answer["text"] for answer in answers] == ["The r of A is B."] * 4
    assert post_json(f"{stub.url}/complete", {"prompt": "nothing"}, 10)["text"] == "UNKNOWN"

    stats = stub.stats()
    sent = [embed_payload, *prompts, {"prompt": "nothing"}]
    assert stats["requests"] == {"/embed": 1, "/complete": 5}
    assert stats["texts"] == 3
    assert stats["bytes_in"] == sum(len(json.dumps(payload).encode("utf-8")) for payload in sent)
    assert stats["bytes_out"] > 0
    assert stats["peak_active"] >= 2

    stub.reset()
    assert stub.stats() == {"requests": {"/embed": 0, "/complete": 0}, "texts": 0, "bytes_in": 0, "bytes_out": 0, "peak_active": 0}


def test_self_time_is_duration_minus_direct_children():
    spans_ = [
        spans.Span(1, None, "root", "q1", 0.0, 10.0),
        spans.Span(2, 1, "child", "q1", 1.0, 3.0),
        spans.Span(3, 1, "child", "q1", 4.0, 7.0),
        spans.Span(4, 3, "leaf", "q1", 5.0, 5.5),
    ]
    assert spans.self_times(spans_) == {1: 5.0, 2: 2.0, 3: 2.5, 4: 0.5}


def test_tracer_nests_spans_per_thread_and_carries_the_example():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    class Example:
        id = "q7"

    leaf = tracer.wrap("leaf", lambda: None)

    def middle(example):
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle, example_arg="example")
    middle(Example())
    worker = threading.Thread(target=leaf)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()

    (outer,) = [span for span in tracer.spans if span.name == "middle"]
    inner = [span for span in tracer.spans if span.name == "leaf" and span.parent == outer.id]
    (alone,) = [span for span in tracer.spans if span.name == "leaf" and span.parent is None]
    assert len(inner) == 2 and all(span.example == "q7" for span in inner)
    assert alone.example is None
    # clock ticks: middle 0..5, leaves 1..2 and 3..4, so middle's own time is 3
    assert (outer.start, outer.end) == (0.0, 5.0)
    assert spans.self_times(tracer.spans)[outer.id] == 3.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 21)]
    assert spans.percentile(values, 0.50) == 10.0
    assert spans.percentile(values, 0.95) == 19.0
    assert spans.percentile([], 0.5) == 0.0


def test_benchmark_json_names_every_reported_metric():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
