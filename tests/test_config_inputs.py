"""Outside values on their one way in: config JSON, CLI overrides, stored records.

Every override flag is declared once in ``cli.OVERRIDES`` by the field path
it sets, and flags and JSON both reach a ``RunConfig`` through
``pipeline.update_config``; an ill-typed value, in a config or in a
per-example record, is an ``error:`` exit rather than a traceback.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgprompt import cli, pipeline
from kgprompt.errors import ConfigError
from kgprompt.pipeline import RunConfig, config_from_dict, load_config

PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# A value of each override's field type that differs from BASE_CONFIG's and
# passes that field's own checks: field path -> (flag argument, parsed value).
SAMPLES = {
    "method": ("popular_knowledge", "popular_knowledge"),
    "k": ("7", 7),
    "hops": ("2", 2),
    "seed": ("99", 99),
    "prompt.ordering": ("shuffled", "shuffled"),
    "prompt.question_template": ("please", "please"),
    "prompt.knowledge_instruction": ("might_be", "might_be"),
    "prompt.custom_instruction": ("Use these facts.", "Use these facts."),
    "prompt.max_input_tokens": ("512", 512),
    "prompt.max_output_tokens": ("64", 64),
    "triples_path": ("/elsewhere/triples.tsv", "/elsewhere/triples.tsv"),
    "entities_path": ("/elsewhere/entities.tsv", "/elsewhere/entities.tsv"),
    "relations_path": ("/elsewhere/relations.tsv", "/elsewhere/relations.tsv"),
    "dataset_path": ("/elsewhere/dataset.jsonl", "/elsewhere/dataset.jsonl"),
    "output_dir": ("/elsewhere/out", "/elsewhere/out"),
    "generated_knowledge_template": ("Facts about {question}:", "Facts about {question}:"),
    "embedder.kind": ("hashed_bow", "hashed_bow"),
    "embedder.dimension": ("64", 64),
    "embedder.endpoint": ("http://127.0.0.1:9/other-embed", "http://127.0.0.1:9/other-embed"),
    "provider.kind": ("scripted", "scripted"),
    "provider.endpoint": ("http://127.0.0.1:9/other", "http://127.0.0.1:9/other"),
    "provider.model_name": ("other-model", "other-model"),
    "provider.timeout": ("2.5", 2.5),
    "provider.max_concurrency": ("3", 3),
}

BASE_CONFIG = {
    "method": "kaping",
    "embedder": {"kind": "remote", "endpoint": "http://127.0.0.1:9/embed"},
    "provider": {"kind": "remote", "endpoint": "http://127.0.0.1:9/complete"},
    "triples_path": "triples.tsv",
    "entities_path": "entities.tsv",
    "dataset_path": "dataset.jsonl",
    "output_dir": "out",
}

RUN_FLAGS = [(flag, path) for flag, path, _options in cli.OVERRIDES]
RETRIEVE_FLAGS = [(flag, path) for flag, path in RUN_FLAGS if flag in cli.RETRIEVE_OVERRIDES]


def nested(path: str, value) -> dict:
    section, _, name = path.rpartition(".")
    return {section: {name: value}} if section else {name: value}


def replaced(config: RunConfig, path: str, value) -> RunConfig:
    section, _, name = path.rpartition(".")
    if section:
        return dataclasses.replace(
            config, **{section: dataclasses.replace(getattr(config, section), **{name: value})}
        )
    return dataclasses.replace(config, **{name: value})


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def parsed_config(monkeypatch, capsys, command: str, config_path: str, *flags: str) -> RunConfig:
    """The RunConfig that ``kgprompt COMMAND`` builds, caught before it loads or runs anything."""
    seen = []

    def capture(config, *_args):
        seen.append(config)
        raise ConfigError("captured")

    monkeypatch.setattr(pipeline, "run", capture)
    monkeypatch.setattr(pipeline, "strategy_for", capture)
    extra = ["--question", "q?"] if command == "retrieve" else []
    assert cli.main([command, "--config", config_path, *extra, *flags]) == 1
    assert capsys.readouterr().err == "error: captured\n"
    (config,) = seen
    return config


def assert_error_exit(capsys, argv: list[str], fragment: str) -> None:
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert fragment in captured.err


class TestOverrideTable:
    @pytest.mark.parametrize("flag, path", RUN_FLAGS)
    def test_field_path_names_a_real_field(self, flag, path):
        owner = RunConfig()
        *sections, name = path.split(".")
        for section in sections:
            owner = getattr(owner, section)
            assert dataclasses.is_dataclass(owner), flag
        assert name in {f.name for f in dataclasses.fields(owner)}, flag
        assert not dataclasses.is_dataclass(getattr(owner, name)), flag

    def test_every_flag_has_a_sample(self):
        assert sorted(path for _flag, path in RUN_FLAGS) == sorted(SAMPLES)
        assert len(RUN_FLAGS) == len({flag for flag, _path in RUN_FLAGS}) == 24

    def test_retrieve_takes_its_four_flags_from_the_table(self):
        assert [flag for flag, _path in RETRIEVE_FLAGS] == ["--method", "--k", "--hops", "--seed"]

    @pytest.mark.parametrize("flag, path", RUN_FLAGS)
    def test_run_flag_sets_exactly_its_field(self, flag, path, tmp_path, monkeypatch, capsys):
        config_path = write_json(tmp_path / "config.json", BASE_CONFIG)
        base = load_config(config_path)
        argument, value = SAMPLES[path]
        config = parsed_config(monkeypatch, capsys, "run", config_path, flag, argument)
        assert config != base
        assert config == replaced(base, path, value)

    @pytest.mark.parametrize("flag, path", RETRIEVE_FLAGS)
    def test_retrieve_flag_sets_exactly_its_field(self, flag, path, tmp_path, monkeypatch, capsys):
        config_path = write_json(tmp_path / "config.json", BASE_CONFIG)
        base = load_config(config_path)
        argument, value = SAMPLES[path]
        config = parsed_config(monkeypatch, capsys, "retrieve", config_path, flag, argument)
        assert config == replaced(base, path, value) != base

    def test_no_flags_leave_the_config_as_loaded(self, tmp_path, monkeypatch, capsys):
        config_path = write_json(tmp_path / "config.json", BASE_CONFIG)
        assert parsed_config(monkeypatch, capsys, "run", config_path) == load_config(config_path)

    def test_json_config_and_equivalent_flags_give_equal_configs(self, tmp_path, monkeypatch, capsys):
        merged = json.loads(json.dumps(BASE_CONFIG))
        flags = []
        for flag, path in RUN_FLAGS:
            argument, value = SAMPLES[path]
            flags += [flag, argument]
            for key, entry in nested(path, value).items():
                if isinstance(entry, dict):
                    merged.setdefault(key, {}).update(entry)
                else:
                    merged[key] = entry
        from_json = load_config(write_json(tmp_path / "full.json", merged))
        config_path = write_json(tmp_path / "config.json", BASE_CONFIG)
        assert parsed_config(monkeypatch, capsys, "run", config_path, *flags) == from_json


class TestIllTypedConfigValues:
    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"k": "5"}, "config field 'k' must be an integer, got '5'"),
            ({"k": True}, "config field 'k' must be an integer, got True"),
            ({"hops": "1"}, "config field 'hops' must be an integer, got '1'"),
            ({"prompt": {"max_input_tokens": "100"}}, "prompt field 'max_input_tokens' must be an integer"),
            ({"embedder": {"dimension": "8"}}, "embedder field 'dimension' must be an integer"),
            ({"provider": {"timeout": "2"}}, "provider field 'timeout' must be a number"),
            ({"method": 3}, "config field 'method' must be a string"),
            ({"relations_path": 3}, "config field 'relations_path' must be a string or null"),
            ({"prompt": {"fewshot_demos": 5}}, "prompt field 'fewshot_demos'"),
            ({"prompt": {"fewshot_demos": [["q"]]}}, "prompt field 'fewshot_demos'"),
            ({"provider": {"script": 5}}, "provider field 'script'"),
            ({"provider": {"script": [["a"]]}}, "provider field 'script'"),
            ({"prompt": 3}, "config section 'prompt' must be an object"),
            ({"prompt": {"flavour": "x"}}, "unknown prompt field(s): flavour"),
        ],
    )
    def test_run_exits_1_naming_the_field(self, data, fragment, tmp_path, capsys):
        config_path = write_json(tmp_path / "config.json", data)
        assert_error_exit(capsys, ["run", "--config", config_path], fragment)

    def test_timeout_takes_an_int_and_null_fields_take_null(self):
        config = config_from_dict({"relations_path": None, "provider": {"timeout": 5}})
        assert config.relations_path is None
        assert config.provider.timeout == 5


class TestEndpoints:
    @pytest.mark.parametrize("section", ["embedder", "provider"])
    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:9/complete", "ftp://x/complete", "file:///etc/hosts", "http:///complete", "http://x:port/complete"],
    )
    def test_run_exits_1_before_loading_the_graph(self, section, endpoint, toy_dir, tmp_path, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(pipeline, "load_graph", lambda *paths: loads.append(paths))
        argv = ["run", "--config", str(toy_dir / "config.json"), "--out", str(tmp_path)]
        argv += [f"--{section}-kind", "remote", f"--{section}-endpoint", endpoint]
        fragment = f"{section} field 'endpoint' must be an absolute http or https URL, got {endpoint!r}"
        assert_error_exit(capsys, argv, fragment)
        assert loads == []


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "command, line, fragment",
        [
            ("report", "[1]", "expected a JSON object"),
            ("score", "[1]", "expected a JSON object"),
            ("report", "{}", "missing field 'scores.accuracy'"),
            ("score", "{}", "missing field 'answers'"),
            ("report", '{"scores": {"accuracy": "x", "em": 0, "f1": 0}}', "field 'scores.accuracy' must be"),
            ("score", '{"scores": {"accuracy": "x", "em": 0, "f1": 0}}', "missing field 'answers'"),
            ("report", '{"scores": {"accuracy": 1, "em": 0, "f1": 0}, "retrieval": 3}', "missing field 'retrieval.mrr'"),
            ("report", '{"scores": {"accuracy": 1, "em": 0, "f1": 0}, "category": 3}', "field 'category' must be"),
            ("score", '{"answers": [{"name": "x"}], "generation": "x"}', "field 'answers' must be a list of"),
            ("score", '{"answers": [], "generation": 3}', "field 'generation' must be a string or null"),
            # the report of the rescored records reads these
            ("score", '{"answers": [], "generation": null, "category": 3}', "field 'category' must be"),
        ],
    )
    def test_command_exits_1_naming_line_and_field(self, command, line, fragment, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        option = "--in" if command == "report" else "--examples"
        assert_error_exit(capsys, [command, option, str(path)], f"error: {path}:2: {fragment}")


@pytest.mark.parametrize("name", ["linked_popular", "gold_kaping_2hop", "remote_kaping"])
def test_perfbench_job_config_loads(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    bench = importlib.import_module("run")
    workload = bench.WORKLOADS[name]
    (tmp_path / "script.json").write_text(json.dumps({"(a, r, b)": "The r of a is b."}))
    stub = SimpleNamespace(url="http://127.0.0.1:9") if workload.remote else None
    # Jobs reach the worker as JSON, which loads them as ``worker.py`` does.
    job = json.loads(json.dumps(bench.run_config(workload, 3, tmp_path, stub)))
    config = config_from_dict(dict(job, output_dir=str(tmp_path / "out")))
    assert config_from_dict(job) == dataclasses.replace(config, output_dir="")
    assert (config.method, config.k, config.hops, config.seed) == (
        workload.config["method"],
        workload.config["k"],
        workload.config["hops"],
        3,
    )
    assert config.prompt.max_input_tokens == workload.config["prompt"]["max_input_tokens"]
    assert config.embedder.kind == ("remote" if workload.remote else "hashed_bow")
    assert config.provider.max_concurrency == 2
    if not workload.remote:
        assert config.provider.script == (("(a, r, b)", "The r of a is b."),)
