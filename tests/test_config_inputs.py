"""Outside values on their one way in: config JSON, CLI overrides, stored records.

Every override flag is declared once in ``cli.OVERRIDES`` by the field path
it sets, and flags and JSON both reach a ``RunConfig`` through
``pipeline.update_config``; an ill-typed value, in a config or in a
per-example record, is an ``error:`` exit rather than a traceback.
"""

from __future__ import annotations

import codecs
import dataclasses
import importlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgprompt import cli, pipeline
from kgprompt.errors import ConfigError, check_json_text
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

# BASE_CONFIG with the custom instruction chosen, the one instruction that
# takes custom_instruction text.
CUSTOM_BASE_CONFIG = {
    **BASE_CONFIG,
    "prompt": {"knowledge_instruction": "custom", "custom_instruction": "Base facts."},
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
        base_config = CUSTOM_BASE_CONFIG if path == "prompt.custom_instruction" else BASE_CONFIG
        config_path = write_json(tmp_path / "config.json", base_config)
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
        merged = json.loads(json.dumps(CUSTOM_BASE_CONFIG))
        flags = []
        for flag, path in RUN_FLAGS:
            if path == "prompt.knowledge_instruction":
                continue  # it stays custom, so that custom_instruction may be set
            argument, value = SAMPLES[path]
            flags += [flag, argument]
            for key, entry in nested(path, value).items():
                if isinstance(entry, dict):
                    merged.setdefault(key, {}).update(entry)
                else:
                    merged[key] = entry
        from_json = load_config(write_json(tmp_path / "full.json", merged))
        config_path = write_json(tmp_path / "config.json", CUSTOM_BASE_CONFIG)
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
            ({"prompt": {"custom_instruction": "x"}}, "prompt.custom_instruction would be ignored"),
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
        [
            "localhost:9/complete",
            "ftp://x/complete",
            "file:///etc/hosts",
            "http:///complete",
            "http://x:port/complete",
            # HTTP cannot send these: each request would fail, and be retried, as a transport error.
            "http://127.0.0.1:9/em bed",
            "http://127.0.0.1:9/complete\n",
            "http://127.0.0.1:9/café",
            "http://127.0.0.1:9/complete?q=é",
        ],
    )
    def test_run_exits_1_before_loading_the_graph(self, section, endpoint, toy_dir, tmp_path, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(pipeline, "load_graph", lambda *paths: loads.append(paths))
        argv = ["run", "--config", str(toy_dir / "config.json"), "--out", str(tmp_path)]
        argv += [f"--{section}-kind", "remote", f"--{section}-endpoint", endpoint]
        fragment = f"{section} field 'endpoint' must be an absolute http or https URL, got {endpoint!r}"
        assert_error_exit(capsys, argv, fragment)
        assert loads == []

    @pytest.mark.parametrize("section", ["embedder", "provider"])
    def test_non_ascii_host_is_taken(self, section, toy_dir, monkeypatch, capsys):
        # HTTP sends a non-ASCII host IDNA-encoded.
        endpoint = "http://café.example/x"
        flags = [f"--{section}-kind", "remote", f"--{section}-endpoint", endpoint]
        config = parsed_config(monkeypatch, capsys, "run", str(toy_dir / "config.json"), *flags)
        assert getattr(config, section).endpoint == endpoint


class TestIgnoredCustomInstruction:
    def test_run_exits_1_before_loading_the_graph(self, toy_dir, tmp_path, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(pipeline, "load_graph", lambda *paths: loads.append(paths))
        argv = ["run", "--config", str(toy_dir / "config.json"), "--out", str(tmp_path)]
        argv += ["--custom-instruction", "ZZZ facts"]
        fragment = "prompt.custom_instruction would be ignored: knowledge_instruction is 'meaningful'"
        assert_error_exit(capsys, argv, fragment)
        assert loads == []
        assert list(tmp_path.iterdir()) == []

    def test_custom_instruction_with_custom_is_taken(self, toy_dir, monkeypatch, capsys):
        flags = ["--instruction", "custom", "--custom-instruction", "ZZZ facts"]
        config = parsed_config(monkeypatch, capsys, "run", str(toy_dir / "config.json"), *flags)
        assert config.prompt.instruction_text() == "ZZZ facts"


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

    @pytest.mark.parametrize("command", ["report", "score"])
    def test_integer_past_the_int_string_limit_exits_1_naming_the_line(self, command, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for this.
        path = tmp_path / "records.jsonl"
        huge = json.dumps(record_with("scores.accuracy", 1)).replace('"accuracy": 1', '"accuracy": 1' + "0" * 5000)
        path.write_text(json.dumps(record_with("scores.f1", 0.5)) + "\n" + huge + "\n", encoding="utf-8")
        option = "--in" if command == "report" else "--examples"
        assert_error_exit(capsys, [command, option, str(path)], f"error: {path}:2: invalid JSON: ")


def record_with(path: str, value) -> dict:
    """A record that ``report`` and ``score`` both take, with ``value`` at the dotted ``path``."""
    record = {
        "answers": [],
        "generation": None,
        "scores": {"accuracy": 1, "em": 1, "f1": 1.0},
        "retrieval": {"mrr": 1.0, "top_k_hits": {"1": 1, "10": 1, "30": 1}},
    }
    *parents, name = path.split(".")
    section = record
    for parent in parents:
        section = section[parent]
    section[name] = value
    return record


class TestScoresOutOfRange:
    @pytest.mark.parametrize(
        "command, path, value, shown",
        [
            ("report", "scores.f1", math.nan, "nan"),
            ("report", "scores.accuracy", math.inf, "inf"),
            ("report", "scores.em", -math.inf, "-inf"),
            ("report", "retrieval.mrr", math.inf, "inf"),
            pytest.param("report", "retrieval.mrr", 10**400, "1" + "0" * 400, id="report-mrr-10**400"),
            ("report", "retrieval.top_k_hits.10", math.nan, "nan"),
            ("score", "retrieval.mrr", math.nan, "nan"),
            ("score", "retrieval.top_k_hits.30", -math.inf, "-inf"),
            ("report", "scores.f1", 1.5, "1.5"),
            ("report", "retrieval.mrr", 1e308, "1e+308"),  # a mean of two would overflow
            ("score", "retrieval.mrr", -0.25, "-0.25"),
        ],
    )
    def test_command_exits_1_naming_line_and_field(self, command, path, value, shown, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        # json.dumps writes NaN and Infinity, as Python's json.loads reads them.
        lines = [json.dumps(record_with("scores.f1", 0.5)), json.dumps(record_with(path, value))]
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        option = "--in" if command == "report" else "--examples"
        fragment = f"error: {records}:2: field {path!r} must be a number from 0 to 1, got {shown}\n"
        assert_error_exit(capsys, [command, option, str(records)], fragment)

    def test_scores_at_the_bounds_are_taken(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        lines = [record_with("retrieval.mrr", 0), record_with("retrieval.mrr", 1.0)]
        records.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        assert cli.main(["report", "--in", str(records)]) == 0
        assert json.loads(capsys.readouterr().out)["overall"]["mrr"] == 0.5

    def test_writers_refuse_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline.report_text({"overall": {"f1": math.nan}})
        with pytest.raises(ValueError):
            pipeline.write_records(tmp_path / "records.jsonl", [{"scores": {"f1": math.inf}}])


TOY_FILES = ("config.json", "dataset.jsonl", "entities.tsv", "relations.tsv", "triples.tsv")


def toy_copy(toy_dir, tmp_path) -> str:
    """The path of a copy of the toy config, beside copies of the data files it names."""
    for name in TOY_FILES:
        shutil.copyfile(toy_dir / name, tmp_path / name)
    return str(tmp_path / "config.json")


def spoil(path: Path, marker: str, raw: bytes) -> int:
    """Put the bytes ``raw`` in place of the last ``marker`` in ``path``; the line they are on."""
    data = path.read_bytes()
    at = data.rindex(marker.encode("utf-8"))
    path.write_bytes(data[:at] + raw + data[at + len(marker) :])
    return data.count(b"\n", 0, at) + 1


# Where to spoil each input: in its last TSV field, or inside the last JSON string.
SPOILED = {name: ("\t", b"\t\xe9") if name.endswith(".tsv") else ('"', b'\xe9"') for name in TOY_FILES}


class TestByteOrderMark:
    """A UTF-8 byte-order mark that starts an input file is not data; anywhere else it is."""

    def test_run_on_marked_inputs_writes_the_same_files(self, toy_dir, tmp_path, capsys):
        config = toy_copy(toy_dir, tmp_path)
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / "plain")]) == 0
        for name in TOY_FILES:
            path = tmp_path / name
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / "marked")]) == 0
        capsys.readouterr()
        for name in ("predictions.jsonl", "report.json"):
            assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_mark_after_the_first_is_data(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(codecs.BOM_UTF8 * 2 + b"{}\n")
        with pytest.raises(ConfigError) as excinfo:
            pipeline.read_records(path)
        assert str(excinfo.value).startswith(f"{path}:1: invalid JSON")


class TestTextThatIsNotUnicode:
    """Input bytes that are not UTF-8, or a JSON escape of a lone surrogate, are an error exit naming the line.

    Either used to end the run with a traceback: bytes when they were read,
    and a lone surrogate when ``write_records`` wrote it, after every example
    had run.
    """

    @pytest.mark.parametrize("name", TOY_FILES)
    def test_bytes_not_utf8_in_a_run_input(self, name, toy_dir, tmp_path, capsys):
        config = toy_copy(toy_dir, tmp_path)
        line = spoil(tmp_path / name, *SPOILED[name])
        assert line > 1
        argv = ["run", "--config", config, "--out", str(tmp_path / "out")]
        assert_error_exit(capsys, argv, f"error: {tmp_path / name}:{line}: not valid UTF-8\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["config.json", "dataset.jsonl"])
    def test_lone_surrogate_in_a_run_input(self, name, toy_dir, tmp_path, capsys):
        config = toy_copy(toy_dir, tmp_path)
        line = spoil(tmp_path / name, '"', b'\\ud800"')
        argv = ["run", "--config", config, "--out", str(tmp_path / "out")]
        fragment = f"error: {tmp_path / name}:{line}: a \\u escape makes a lone surrogate"
        assert_error_exit(capsys, argv, fragment)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["report", "score"])
    @pytest.mark.parametrize("spoiled", [b'"\xe9"', b'"\\udc00"'])
    def test_records(self, command, spoiled, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        lines = [json.dumps(record_with("generation", text)).encode() for text in ("a", "SPOILED")]
        path.write_bytes(b"\r\n".join(lines).replace(b'"SPOILED"', spoiled))
        fragment = "not valid UTF-8" if b"\xe9" in spoiled else "a \\u escape makes a lone surrogate"
        option = "--in" if command == "report" else "--examples"
        assert_error_exit(capsys, [command, option, str(path)], f"error: {path}:2: {fragment}")

    def test_surrogate_pairs_and_escaped_backslashes_are_taken(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        texts = ["\U0001f600", "\\ud800", "\\\U0001f600"]
        path.write_text("".join(json.dumps(record_with("generation", text)) + "\n" for text in texts))
        assert r'"\ud83d\ude00"' in path.read_text() and r'"\\ud800"' in path.read_text()
        assert cli.main(["report", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall"]["count"] == 3

    def test_escapes_are_read_as_json_reads_them(self):
        rng = random.Random(20261019)
        pieces = [r"\ud83d", r"\ude00", r"\uD800", r"\uDFFF", r"\\", r"\n", r"\"", "a", "u", "d800", "\u00e9"]
        lone = 0
        for _ in range(3000):
            text = json.dumps({"k": ""})[:-2] + "".join(rng.choices(pieces, k=rng.randint(0, 6))) + '"}'
            try:
                json.loads(text)["k"].encode("utf-8")
                expected = False
            except UnicodeEncodeError:
                expected = True
            try:
                check_json_text(text, "p")
                found = False
            except ConfigError as exc:
                assert str(exc).startswith("p:1: ")
                found = True
            assert found == expected, text
            lone += expected
        assert 500 < lone < 2500

    def test_a_real_run_prints_no_traceback(self, toy_dir, tmp_path):
        config = toy_copy(toy_dir, tmp_path)
        line = spoil(tmp_path / "entities.tsv", *SPOILED["entities.tsv"])
        source = Path(pipeline.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "kgprompt.cli", "run", "--config", config, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(source)},
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == f"error: {tmp_path / 'entities.tsv'}:{line}: not valid UTF-8\n"


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
