"""Pinned outputs: the sha256 of each run's ``predictions.jsonl`` and ``report.json``.

A change that is meant to keep outputs byte-identical must leave every
digest here as it is. Each configuration runs once cold (the graph parsed
and its snapshot written) and once warm (decoded from the snapshot), and
both runs must write the pinned bytes. The toy graph's snapshot file is
pinned too, by format tag, so the stored bytes change only with the tag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from kgprompt.embed import EmbedderConfig
from kgprompt.kg import _SNAPSHOT_FORMAT, load_graph, snapshot_path
from kgprompt.llm import ProviderConfig
from kgprompt.pipeline import config_from_dict, load_config, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded graph generator, imported as a library)

TOY_FILES = ("config.json", "dataset.jsonl", "entities.tsv", "relations.tsv", "triples.tsv")

# (predictions.jsonl, report.json) by toy method; generated_knowledge, whose template the toy
# config does not set, runs with GENERATED_KNOWLEDGE_TEMPLATE.
GENERATED_KNOWLEDGE_TEMPLATE = "Facts about: {question}"
TOY_DIGESTS = {
    "no_knowledge": (
        "d8c7eabd658e1ac3affe0ee1165dfbff37c93e663f57a6f7e59ff7f0c75d648f",
        "6c9e132b3555bc099b97e1f27c4cf7afe6d47b7d4f73625cfb41b7d550bf58ee",
    ),
    "random_knowledge": (
        "2bd221b68e3fdbf26c24d3dc2887d484672000a64505340639a8a0f78db26525",
        "1d8c9420dec5bbd797486992d061b6c48020b2b19f802df42891a48c6fa581b0",
    ),
    "popular_knowledge": (
        "c9612af61796a11990c9d742a29b3d4d29b4c9835bb63c050c4c3054a4ab1ce8",
        "373f3b09269d393afce621f659c829f881dc7a91bf4c1ef512777966a230b277",
    ),
    "kaping": (
        "2ecdc3c263b32d4067206aad3ac22957e14986efb79d2de099a9b6faa252f91a",
        "de4ee02b673c095c40154c7bea8eaecaf937accedf358e05fe2e197f52346157",
    ),
    "generated_knowledge": (
        "8f8aeea3967d674856d0d4579b1cec57af4710c9d3b7143cb8ee333e1f7b9e80",
        "6c9e132b3555bc099b97e1f27c4cf7afe6d47b7d4f73625cfb41b7d550bf58ee",
    ),
}
# The toy kaping run with a remote embedder (dimension 8) and a remote provider, both the
# ``http_service`` fake's. No record holds an endpoint, so the fake's port does not enter them.
REMOTE_KAPING_DIGESTS = (
    "bcbe89459d26e9891e7b4168c760c7aed5232b129ca4bc8d1d9b3431230f6074",
    "de2896cf6a4a2cfe4aead5634168655ad5c60ef986499037b518362c076c98db",
)
# The sha256 of the toy graph's snapshot file, by snapshot format: a change to the stored bytes
# must come with a new format tag.
SNAPSHOT_DIGESTS = {
    b"kgprompt graph snapshot 8": "8510e54a59eabd4b90a70610b1ed57241ef0144862858f49122b4c20c1d38928",
}

# Two benchmark workloads' configurations on a small graph of the benchmark's generator.
SMALL_SCALE = gen.Scale(entities=2_000, triples=10_000, questions=40)
SMALL_SEED = 7
WORKLOADS = {
    "linked_popular": (False, {"method": "popular_knowledge", "hops": 1, "k": 10, "prompt": {"max_input_tokens": 1024}}),
    "gold_kaping_2hop": (True, {"method": "kaping", "hops": 2, "k": 100, "prompt": {"max_input_tokens": 256}}),
}
WORKLOAD_DIGESTS = {
    "linked_popular": (
        "fd3bfe78e1c6581a692b515f3b956d5aa8ade82b16f3e0dc32b245da6f29fde6",
        "dbefbc946ae1bfae11df2183bd18a80dcd88f1ddf75119235de77a28a3fb6ce0",
    ),
    "gold_kaping_2hop": (
        "61f1cfef330d4087292217f1e0359ceb1970e11e6c8c556f87665193e594a9cb",
        "c25dca0a63947b081ae3af4918b65f1b2b9764700058fbacc1ee8b7b34544fcd",
    ),
}


def digests(out: Path) -> tuple[str, str]:
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("predictions.jsonl", "report.json"))


def cold_and_warm(config, snapshot: Path, out: Path) -> list[tuple[str, str]]:
    """The digests of a run that parses the graph, then of one that decodes its snapshot."""
    snapshot.unlink(missing_ok=True)
    found = []
    for name in ("cold", "warm"):
        run(dataclasses.replace(config, output_dir=str(out / name)))
        assert snapshot.is_file()
        found.append(digests(out / name))
    return found


@pytest.fixture(scope="module")
def toy_copy(toy_dir, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("toy")
    for name in TOY_FILES:
        shutil.copyfile(toy_dir / name, directory / name)
    return directory


@pytest.mark.parametrize("method", TOY_DIGESTS)
def test_toy_outputs_are_pinned(toy_copy, tmp_path, method):
    config = dataclasses.replace(
        load_config(toy_copy / "config.json"), method=method, generated_knowledge_template=GENERATED_KNOWLEDGE_TEMPLATE
    )
    snapshot = snapshot_path(config.triples_path)
    assert cold_and_warm(config, snapshot, tmp_path) == [TOY_DIGESTS[method]] * 2


def test_toy_outputs_with_remote_services_are_pinned(toy_copy, tmp_path, http_service):
    config = dataclasses.replace(
        load_config(toy_copy / "config.json"),
        embedder=EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}/embed"),
        provider=ProviderConfig(kind="remote", endpoint=f"{http_service.url}/complete"),
    )
    snapshot = snapshot_path(config.triples_path)
    assert cold_and_warm(config, snapshot, tmp_path) == [REMOTE_KAPING_DIGESTS] * 2


def test_toy_snapshot_bytes_are_pinned(toy_copy):
    config = load_config(toy_copy / "config.json")
    snapshot = snapshot_path(config.triples_path)
    snapshot.unlink(missing_ok=True)
    load_graph(config.triples_path, config.entities_path, config.relations_path)
    assert hashlib.sha256(snapshot.read_bytes()).hexdigest() == SNAPSHOT_DIGESTS[_SNAPSHOT_FORMAT]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_outputs_are_pinned(tmp_path, workload):
    gold_entities, fields = WORKLOADS[workload]
    data = tmp_path / "data"
    gen.generate(SMALL_SCALE, SMALL_SEED, data, gold_entities)
    script = json.loads((data / "script.json").read_text(encoding="utf-8"))
    config = config_from_dict(
        {
            **fields,
            "seed": SMALL_SEED,
            "triples_path": str(data / "triples.tsv"),
            "entities_path": str(data / "entities.tsv"),
            "relations_path": str(data / "relations.tsv"),
            "dataset_path": str(data / "dataset.jsonl"),
            "embedder": {"kind": "hashed_bow", "dimension": 256, "max_concurrency": 2},
            "provider": {"kind": "scripted", "model_name": "perfbench", "max_concurrency": 2, "script": script},
        }
    )
    snapshot = snapshot_path(config.triples_path)
    assert cold_and_warm(config, snapshot, tmp_path / "out") == [WORKLOAD_DIGESTS[workload]] * 2
