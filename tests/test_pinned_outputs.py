"""Pinned outputs: the sha256 of each run's ``predictions.jsonl`` and ``report.json``.

A change that is meant to keep outputs byte-identical must leave every
digest here as it is. Each configuration runs once cold (the graph parsed
and its snapshot written) and once warm (decoded from the snapshot), and
both runs must write the pinned bytes. The toy graph's snapshot file is
pinned too, by format tag, so the stored bytes change only with the tag.

The warm run must find the snapshot file the cold run left, not a rewrite
of it, so a snapshot that no longer decodes fails here rather than passing
on a re-parse. ``kgprompt retrieve``'s printed JSON is pinned the same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from kgprompt.cli import main
from kgprompt.embed import EmbedderConfig
from kgprompt.kg import _SNAPSHOT_FORMAT, load_graph, snapshot_path
from kgprompt.llm import ProviderConfig
from kgprompt.pipeline import config_from_dict, load_config, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded graph generator, imported as a library)
import stub  # noqa: E402  (the benchmark's local embedding and completion service, imported as a library)

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
# The toy kaping run on a copy in which every named entity also answers to "<name> one" and
# "<name> two", after its own aliases: answers with two or more aliases, in their stored order.
MANY_ALIASES_DIGESTS = (
    "d3cf5fb753eba177f84db85f1959a53ace1068631e94bd7f9512997043ce98cb",
    "de4ee02b673c095c40154c7bea8eaecaf937accedf358e05fe2e197f52346157",
)
# The sha256 of ``kgprompt retrieve``'s printed JSON for every toy question under each method below,
# in turn: linking, the candidate count and the listed facts.
RETRIEVE_METHODS = ("kaping", "random_knowledge", "popular_knowledge")
RETRIEVE_DIGEST = "3c48141c097f0b5ff9dbdc3c35cd0b9f7c687e474c74b514ec6e51f92a8df90c"
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
# The remote_kaping workload's configuration on the same small graph, against the benchmark's
# stub service with no reply delay.
REMOTE_WORKLOAD_FIELDS = {"method": "kaping", "hops": 1, "k": 10, "prompt": {"max_input_tokens": 1024}}
REMOTE_WORKLOAD_DIGESTS = (
    "024e46133f287bd387caa4bca34740ecf54c0e93090d38df0968b168f09bc07b",
    "87bed1db24e5076b866375c8d1524c8098f99d3c3ef08b0135abeefe50a269ea",
)


def digests(out: Path) -> tuple[str, str]:
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("predictions.jsonl", "report.json"))


def cold_and_warm(config, snapshot: Path, out: Path) -> list[tuple[str, str]]:
    """The digests of a run that parses the graph, then of one that decodes its snapshot."""
    snapshot.unlink(missing_ok=True)
    found = []
    inodes = []
    for name in ("cold", "warm"):
        run(dataclasses.replace(config, output_dir=str(out / name)))
        assert snapshot.is_file()
        inodes.append(snapshot.stat().st_ino)
        found.append(digests(out / name))
    # A rewrite replaces the file, so the same inode shows the warm run decoded the snapshot.
    assert inodes[0] == inodes[1], "the warm run was not a snapshot hit"
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


def test_toy_outputs_with_many_aliases_are_pinned(toy_dir, tmp_path):
    directory = tmp_path / "toy"
    directory.mkdir()
    for name in TOY_FILES:
        shutil.copyfile(toy_dir / name, directory / name)
    header, *rows = (toy_dir / "entities.tsv").read_text(encoding="utf-8").splitlines()
    lines = [header]
    for row in rows:
        entity_id, name, *aliases = row.split("\t")
        lines.append("\t".join((entity_id, name, "|".join([*aliases, f"{name} one", f"{name} two"]))))
    (directory / "entities.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = load_config(directory / "config.json")
    snapshot = snapshot_path(config.triples_path)
    assert cold_and_warm(config, snapshot, tmp_path / "out") == [MANY_ALIASES_DIGESTS] * 2


def test_toy_retrieve_output_is_pinned(toy_copy, capsys):
    config_path = str(toy_copy / "config.json")
    snapshot = snapshot_path(load_config(config_path).triples_path)
    questions = [json.loads(line)["question"] for line in (toy_copy / "dataset.jsonl").read_text().splitlines()]
    calls = [("--method", method, "--question", question) for method in RETRIEVE_METHODS for question in questions]

    def retrieve(call) -> str:
        assert main(["retrieve", "--config", config_path, *call]) == 0
        return capsys.readouterr().out

    cold = []
    for call in calls:
        snapshot.unlink(missing_ok=True)
        cold.append(retrieve(call))
    warm = []
    for call in calls:
        inode = snapshot.stat().st_ino
        warm.append(retrieve(call))
        # A rewrite replaces the file, so the same inode shows the call decoded the snapshot.
        assert snapshot.stat().st_ino == inode
    assert warm == cold
    assert hashlib.sha256("".join(cold).encode("utf-8")).hexdigest() == RETRIEVE_DIGEST


@pytest.fixture()
def small_gold_graph(tmp_path) -> Path:
    """The directory of the small graph with gold question entities, as the remote workload reads it."""
    data = tmp_path / "data"
    gen.generate(SMALL_SCALE, SMALL_SEED, data, True)
    return data


@pytest.fixture()
def stub_url(small_gold_graph):
    """The URL of the benchmark's stub service for the small graph's script, with no reply delay."""
    script = json.loads((small_gold_graph / "script.json").read_text(encoding="utf-8"))
    delays = {"/embed": 0.0, "/complete": 0.0}
    server = ThreadingHTTPServer(("127.0.0.1", 0), stub.make_handler(stub.Counters(delays), script, 256, delays))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_remote_workload_outputs_are_pinned(small_gold_graph, stub_url, tmp_path):
    data = small_gold_graph
    config = config_from_dict(
        {
            **REMOTE_WORKLOAD_FIELDS,
            "seed": SMALL_SEED,
            "triples_path": str(data / "triples.tsv"),
            "entities_path": str(data / "entities.tsv"),
            "relations_path": str(data / "relations.tsv"),
            "dataset_path": str(data / "dataset.jsonl"),
            "embedder": {"kind": "remote", "dimension": 256, "endpoint": f"{stub_url}/embed", "max_concurrency": 2},
            "provider": {"kind": "remote", "model_name": "perfbench", "endpoint": f"{stub_url}/complete", "max_concurrency": 2},
        }
    )
    snapshot = snapshot_path(config.triples_path)
    assert cold_and_warm(config, snapshot, tmp_path / "out") == [REMOTE_WORKLOAD_DIGESTS] * 2
