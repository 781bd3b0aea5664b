"""Seeded benchmark of the kgprompt pipeline.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates a synthetic
graph and question set from the seed, then repeats ``pipeline.run`` over it,
each repetition in a fresh worker process, until S seconds have passed and
at least three repetitions are done. With ``--trace 0`` it reports the
end-to-end metrics as medians over the repetitions; with ``--trace 1`` it
alternates untraced and traced repetitions (at least one of each) and
reports the per-layer metrics of the traced ones, plus the tracing
overhead. Every run checks its outputs: all repetitions must write
byte-identical predictions and reports, sampled kaping rankings must equal
the brute-force oracle in ``tests/oracles.py``, and no example may fail.
The last line of output is one JSON object; ``--workload all`` runs every
workload in turn and prefixes each metric with its workload's name.

Workloads (all use ``max_concurrency`` 2 and the graph scale of
``gen.Scale``: 20k entities, 100k triples, 60 relations, skew 0.5):

- ``linked_popular``: raw questions, so kgprompt links them by scanning
  every entity; ``popular_knowledge`` recounts relation frequencies over the
  whole graph per question. Both grow with graph size, not with the
  question.
- ``gold_kaping_2hop``: gold question entities bypass linking; ``kaping``
  over two hops (k=100, 256-token budget) makes similarity ranking
  (verbalize, hashed embedding, cosine) and prompt truncation dominate, and
  overlapping neighborhoods make per-graph memoization visible.
- ``remote_kaping``: gold entities, one hop, remote embedder and remote
  completion provider against a local stub with fixed delays, so the HTTP
  client path dominates and the CPU layers idle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKER_TIMEOUT_S = 90
MIN_REPS = 3
DIMENSION = 256
STUB_DELAYS = {"/embed": 0.005, "/complete": 0.020}
# The stub is local: never route its requests through a configured proxy.
LOCAL = urllib.request.build_opener(urllib.request.ProxyHandler({}))
NO_PROXY = {"NO_PROXY": "127.0.0.1", "no_proxy": "127.0.0.1"}


@dataclass(frozen=True)
class Workload:
    scale: gen.Scale
    gold_entities: bool
    remote: bool
    config: dict


WORKLOADS = {
    "linked_popular": Workload(
        gen.Scale(questions=40),
        gold_entities=False,
        remote=False,
        config={"method": "popular_knowledge", "hops": 1, "k": 10, "prompt": {"max_input_tokens": 1024}},
    ),
    "gold_kaping_2hop": Workload(
        gen.Scale(questions=120),
        gold_entities=True,
        remote=False,
        config={"method": "kaping", "hops": 2, "k": 100, "prompt": {"max_input_tokens": 256}},
    ),
    "remote_kaping": Workload(
        gen.Scale(questions=200),
        gold_entities=True,
        remote=True,
        config={"method": "kaping", "hops": 1, "k": 10, "prompt": {"max_input_tokens": 1024}},
    ),
}

# End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END = {"examples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _layer(prefix: str, unit: str, better: str, *stats: str) -> dict[str, tuple[str, str]]:
    return {f"{prefix}.{stat}": (unit, better) for stat in stats}


# Metrics of the traced run: name -> (unit, better). Accuracy, MRR, the
# failed share and the remote call counts are reported here rather than as
# end-to-end metrics: every change must keep them exactly (outputs are
# byte-identical), the remote counts are 0 on the scripted workloads, and
# accuracy and MRR of 40 linked questions vary by more than any useful bound
# from one seed to the next.
PER_LAYER = {
    "kg.load_graph.s": ("s", "lower"),
    **_layer("kg.link_entities", "count", "lower", "calls"),
    **_layer("kg.link_entities", "ms", "lower", "p50_ms", "p95_ms"),
    **_layer("kg.link_entities", "s", "lower", "total_s"),
    "kg.link_entities.hit_share": ("ratio", "higher"),
    "kg.link_entities.linked_mean": ("count", "lower"),
    "kg.relation_frequency.calls": ("count", "lower"),
    "kg.relation_frequency.total_s": ("s", "lower"),
    **_layer("kg.neighborhood", "ms", "lower", "p50_ms", "p95_ms"),
    **_layer("kg.neighborhood", "count", "lower", "candidates_mean", "candidates_p95"),
    "verbalize.calls_per_candidate": ("ratio", "lower"),
    "embed.embed_batch.calls": ("count", "lower"),
    **_layer("embed.embed_batch", "ms", "lower", "p50_ms", "p95_ms"),
    "embed.embed_batch.total_s": ("s", "lower"),
    "embed.texts_per_candidate": ("ratio", "lower"),
    **_layer("retrieve.rank_candidates", "ms", "lower", "p50_ms", "p95_ms"),
    "retrieve.rank_candidates.self_s": ("s", "lower"),
    **_layer("prompts.render_prompt", "ms", "lower", "p50_ms", "p95_ms"),
    "prompts.renders_per_prompt": ("ratio", "lower"),
    "prompts.truncated_share": ("ratio", "lower"),
    "prompts.facts_dropped_mean": ("count", "lower"),
    **_layer("llm.generate", "count", "lower", "calls", "failures"),
    **_layer("llm.generate", "ms", "lower", "p50_ms", "p95_ms"),
    **_layer("remote.post_json", "count", "lower", "calls", "errors"),
    **_layer("remote.post_json", "ms", "lower", "p50_ms", "p95_ms"),
    "remote.overhead_ms": ("ms", "lower"),
    "remote.bytes_per_example": ("B/example", "lower"),
    "remote.peak_in_flight": ("count", "higher"),
    "remote_calls_per_example": ("calls/example", "lower"),
    "embedded_texts_per_example": ("texts/example", "lower"),
    "metrics.score_generation.total_s": ("s", "lower"),
    **_layer("pipeline.run_example", "ms", "lower", "p50_ms", "p95_ms"),
    "pipeline.run_example.self_s": ("s", "lower"),
    "pipeline.cpu_s": ("s", "lower"),
    "pipeline.cpu_util": ("ratio", "higher"),
    "accuracy": ("ratio", "higher"),
    "mrr": ("ratio", "higher"),
    "failed_share": ("ratio", "lower"),
    "trace.examples_per_s": ("1/s", "higher"),
    "trace.untraced_examples_per_s": ("1/s", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}
# Further figures a user sees, printed with tracing off but not bounded.
PRINTED = ("accuracy", "mrr", "failed_share", "remote_calls_per_example", "embedded_texts_per_example")


class Stub:
    """The stub remote service, in its own process, for one benchmark run."""

    def __init__(self, script_path: Path, env: dict, delays: dict[str, float] = STUB_DELAYS):
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "stub.py"),
                f"--script={script_path}",
                f"--dimension={DIMENSION}",
                f"--embed-delay={delays['/embed']}",
                f"--complete-delay={delays['/complete']}",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("stub service did not start")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with LOCAL.open(self.url + path, data=data, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._call("/reset", data=b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def run_config(workload: Workload, seed: int, data: Path, stub: Stub | None) -> dict:
    config = {
        **workload.config,
        "seed": seed,
        "triples_path": str(data / "triples.tsv"),
        "entities_path": str(data / "entities.tsv"),
        "relations_path": str(data / "relations.tsv"),
        "dataset_path": str(data / "dataset.jsonl"),
    }
    if stub is None:
        script = json.loads((data / "script.json").read_text(encoding="utf-8"))
        config["embedder"] = {"kind": "hashed_bow", "dimension": DIMENSION, "max_concurrency": 2}
        config["provider"] = {"kind": "scripted", "model_name": "perfbench", "max_concurrency": 2, "script": script}
    else:
        config["embedder"] = {
            "kind": "remote",
            "dimension": DIMENSION,
            "endpoint": f"{stub.url}/embed",
            "max_concurrency": 2,
        }
        config["provider"] = {
            "kind": "remote",
            "model_name": "perfbench",
            "endpoint": f"{stub.url}/complete",
            "max_concurrency": 2,
        }
    return config


def run_worker(job_path: Path, mode: str, out_dir: Path, env: dict) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), mode, str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"worker {mode} exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def per_example(stats: dict | None, examples: int) -> dict[str, float]:
    if stats is None:
        return {
            "remote_calls_per_example": 0.0,
            "embedded_texts_per_example": 0.0,
            "remote.bytes_per_example": 0.0,
            "remote.peak_in_flight": 0.0,
        }
    return {
        "remote_calls_per_example": sum(stats["requests"].values()) / examples,
        "embedded_texts_per_example": stats["texts"] / examples,
        "remote.bytes_per_example": (stats["bytes_in"] + stats["bytes_out"]) / examples,
        "remote.peak_in_flight": float(stats["peak_active"]),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: Path, env: dict) -> tuple[list[dict], dict]:
    """Repetitions of one workload (alternately traced when ``trace``) and the oracle check."""
    workload = WORKLOADS[name]
    data = run_dir / "data"
    gold = gen.generate(workload.scale, seed, data, workload.gold_entities)
    stub = Stub(data / "script.json", env) if workload.remote else None
    try:
        trace_path = WORK_DIR / "traces" / f"{name}-seed{seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        job = {
            "config": run_config(workload, seed, data, stub),
            "gold_subjects": {item.id: item.subject for item in gold},
            "stub_delays": STUB_DELAYS,
            "trace_path": str(trace_path),
        }
        job_path = run_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")

        reps: list[dict] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(reps) < (2 if trace else MIN_REPS):
            traced = trace and len(reps) % 2 == 1
            if stub is not None:
                stub.reset()
            rep = run_worker(job_path, "traced" if traced else "run", run_dir / f"rep{len(reps)}", env)
            rep["traced"] = traced
            rep["remote"] = per_example(stub.stats() if stub else None, rep["examples"])
            reps.append(rep)
        oracle = {"checked": 0, "mismatches": []}
        if workload.config["method"] == "kaping":
            oracle = run_worker(job_path, "oracle", run_dir / "rep0", env)
        return reps, oracle
    finally:
        if stub is not None:
            stub.close()


def median(reps: list[dict], value) -> float:
    return statistics.median(value(rep) for rep in reps)


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Measure one workload, print its figures, and return its result object."""
    run_dir = WORK_DIR / f"{name}-seed{seed}-{os.getpid()}"
    try:
        reps, oracle = measure(name, seed, seconds, trace, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    first = reps[0]
    identical = all(
        (rep["predictions_sha256"], rep["report_sha256"]) == (first["predictions_sha256"], first["report_sha256"])
        for rep in reps
    )
    attempted = sum(rep["examples"] for rep in reps)
    failed = sum(rep["failed"] if identical else rep["examples"] for rep in reps) + len(oracle["mismatches"])

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    untraced_eps = median(untraced, lambda rep: rep["examples"] / rep["run_s"])
    found = {
        "examples_per_s": untraced_eps,
        "setup_s": median(untraced, lambda rep: rep["setup_s"]),
        "peak_rss_mb": median(untraced, lambda rep: rep["peak_rss_mb"]),
        "accuracy": first["accuracy"],
        "mrr": first["mrr"],
        "failed_share": failed / attempted,
        "pipeline.cpu_s": median(untraced, lambda rep: rep["cpu_s"]),
        "pipeline.cpu_util": median(untraced, lambda rep: rep["cpu_s"] / rep["run_s"]),
        "trace.untraced_examples_per_s": untraced_eps,
        **first["remote"],
    }
    if traced:
        traced_eps = median(traced, lambda rep: rep["examples"] / rep["run_s"])
        found.update({metric: median(traced, lambda rep: rep["layers"][metric]) for metric in traced[0]["layers"]})
        found.update({metric: median(traced, lambda rep: rep["remote"][metric]) for metric in first["remote"]})
        found["trace.examples_per_s"] = traced_eps
        found["trace.overhead_share"] = 1.0 - traced_eps / untraced_eps

    print(f"== workload {name} seed {seed}: {len(reps)} repetitions ({len(traced)} traced), {attempted} examples")
    for number, rep in enumerate(reps):
        print(
            f"repetition {number}{' traced' if rep['traced'] else ''}: setup {rep['setup_s']:.3f} s,"
            f" run {rep['run_s']:.3f} s, {rep['examples'] / rep['run_s']:.3f} examples/s,"
            f" peak rss {rep['peak_rss_mb']:.1f} MB"
        )
    print(f"predictions.jsonl sha256 {first['predictions_sha256']}")
    print(f"report.json sha256 {first['report_sha256']}")
    print(f"identical outputs across repetitions: {identical}")
    print(f"oracle rankings matching: {oracle['checked'] - len(oracle['mismatches'])}/{oracle['checked']}")
    units = {**END_TO_END, **{metric: unit for metric, (unit, _) in PER_LAYER.items()}}
    for metric in PER_LAYER if trace else [*END_TO_END, *PRINTED]:
        print(f"{metric} {found[metric]:.6g} {units[metric]}")
    return {
        "correct": identical and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": found[metric], "unit": units[metric]} for metric in (PER_LAYER if trace else END_TO_END)
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the kgprompt pipeline.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for required in (ROOT / "src" / "kgprompt" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} not found; run from a kgprompt checkout", file=sys.stderr)
            return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]), **NO_PROXY)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
    else:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env) for name in WORKLOADS}
        result = {
            "correct": all(part["correct"] for part in results.values()),
            "attempted": sum(part["attempted"] for part in results.values()),
            "failed": sum(part["failed"] for part in results.values()),
            "metrics": {
                f"{name}.{metric}": value for name, part in results.items() for metric, value in part["metrics"].items()
            },
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
