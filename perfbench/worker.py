"""One repetition of a benchmark workload, in a fresh process.

``python3 worker.py JOB MODE OUT_DIR`` reads the job file written by
``run.py`` and prints one JSON object on its last line of output.

MODE ``run`` times set-up (load graph, load dataset, filter) and then one
``kgprompt.pipeline.run`` with tracing off; ``traced`` does the same with
every layer's call site wrapped in spans and also reports the per-layer
metrics; ``oracle`` checks a sample of the kaping rankings in OUT_DIR's
predictions against the brute-force ``oracle_rank`` of ``tests/oracles.py``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import kgprompt
from kgprompt import kg, pipeline
from kgprompt.verbalize import verbalize

import spans

ROOT = Path(__file__).resolve().parents[1]
FAILURE_FLAGS = {"example_failed", "generation_failed"}
ORACLE_SAMPLE = 8


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def timed_run(job: dict, out_dir: Path, traced: bool) -> dict:
    config = pipeline.config_from_dict(dict(job["config"], output_dir=str(out_dir)))

    gc.collect()
    start = time.perf_counter()
    graph = kg.load_graph(config.triples_path, config.entities_path, config.relations_path)
    examples = pipeline.filter_unnamed(pipeline.load_dataset(config.dataset_path), graph)
    setup_s = time.perf_counter() - start
    del graph, examples
    gc.collect()

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    cpu_start = time.process_time()
    start = time.perf_counter()
    result = pipeline.run(config)
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    predictions = Path(result["predictions_path"])
    records = pipeline.read_records(predictions)
    overall = result["report"]["overall"]
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "examples": len(records),
        "failed": sum(bool(FAILURE_FLAGS & set(record["flags"])) for record in records),
        "accuracy": overall.get("accuracy", 0.0),
        "mrr": overall.get("mrr", 0.0),
        "predictions_sha256": _sha256(predictions),
        "report_sha256": _sha256(Path(result["report_path"])),
    }
    if tracer is not None:
        tracer.write(Path(job["trace_path"]))
        out["layers"] = spans.layer_metrics(tracer.spans, job["gold_subjects"], job["stub_delays"])
    return out


def oracle_check(job: dict, out_dir: Path) -> dict:
    """Compare sampled rankings in the predictions with the oracle's.

    With the hashed embedder the included facts must be the oracle's top
    facts in rank order, and the first answer-bearing rank must match. A
    remote embedder's vectors are re-normalized by the client, which moves
    cosines by an ulp and reorders exact ties, so there the included facts
    must carry the oracle's top scores in order, within 1e-12.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import oracle_rank, oracle_vector

    config = pipeline.config_from_dict(job["config"])
    dimension = config.embedder.dimension
    graph = kg.load_graph(config.triples_path, config.entities_path, config.relations_path)
    examples = {example.id: example for example in pipeline.load_dataset(config.dataset_path)}
    records = pipeline.read_records(out_dir / pipeline.PREDICTIONS_FILENAME)
    sample = records[:: max(1, len(records) // ORACLE_SAMPLE)][:ORACLE_SAMPLE]
    mismatches = []
    for record in sample:
        example = examples[record["id"]]
        candidates = kg.neighborhood(graph, example.question_entities, config.hops)
        texts = [verbalize(triple, graph).text for triple in candidates]
        included = [fact["text"] for fact in record["included_triples"]]
        ranks = [fact["rank"] for fact in record["included_triples"]]
        if config.embedder.kind == "hashed_bow":
            order = oracle_rank(example.question, texts, dimension)
            answers = set(example.answer_entities)
            first_hit = next(
                (
                    rank
                    for rank, index in enumerate(order, 1)
                    if {candidates[index].subject, candidates[index].object_entity_id()} & answers
                ),
                None,
            )
            ok = included == [texts[index] for index in order[: len(included)]]
            ok = ok and record["retrieval"]["first_hit_rank"] == first_hit
        else:
            question = oracle_vector(example.question, dimension)
            score = {
                text: math.fsum(q * v for q, v in zip(question, oracle_vector(text, dimension))) for text in texts
            }
            best = sorted(score.values(), reverse=True)[: len(included)]
            ok = len(best) == len(included) and all(
                abs(score.get(text, math.inf) - expected) <= 1e-12 for text, expected in zip(included, best)
            )
        if not ok or ranks != list(range(1, len(included) + 1)):
            mismatches.append(record["id"])
    return {"checked": len(sample), "mismatches": mismatches}


def main(argv: list[str]) -> None:
    job_path, mode, out_dir = argv
    package = Path(kgprompt.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise SystemExit(f"kgprompt was imported from {package}, not from {ROOT / 'src'}")
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if mode == "oracle":
        out = oracle_check(job, Path(out_dir))
    elif mode in ("run", "traced"):
        out = timed_run(job, Path(out_dir), traced=mode == "traced")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
