import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kgprompt import cli, remote
from kgprompt.cli import main
from kgprompt.kg import load_graph, neighborhood
from kgprompt.retrieve import Random, rank_candidates


@pytest.fixture()
def toy_config_path(toy_dir):
    return str(toy_dir / "config.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_toy_run_writes_outputs(self, toy_config_path, tmp_path, capsys):
        code, out, _err = run_cli(
            capsys, "run", "--config", toy_config_path, "--out", str(tmp_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["overall"]["count"] == 25
        assert (tmp_path / "predictions.jsonl").exists()
        assert (tmp_path / "report.json").exists()

    def test_method_override_changes_results(self, toy_config_path, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--config",
            toy_config_path,
            "--method",
            "no_knowledge",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["overall"]["accuracy"] < 1.0
        assert "mrr" not in report["overall"]

    def test_k_and_template_overrides(self, toy_config_path, tmp_path, capsys):
        code, _out, _ = run_cli(
            capsys,
            "run",
            "--config",
            toy_config_path,
            "--k",
            "1",
            "--template",
            "please",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        first = json.loads((tmp_path / "predictions.jsonl").read_text().splitlines()[0])
        assert len(first["included_triples"]) == 1
        assert "Please answer the following question:" in first["prompt"]

    def test_missing_config_is_error_exit(self, tmp_path, capsys):
        code, _out, err = run_cli(capsys, "run", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error:" in err

    def test_unknown_config_field_is_error_exit(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"mystery_knob": true}')
        code, _out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 1
        assert "mystery_knob" in err

    def test_invalid_method_override(self, toy_config_path, tmp_path, capsys):
        code, _out, err = run_cli(
            capsys,
            "run",
            "--config",
            toy_config_path,
            "--method",
            "telepathy",
            "--out",
            str(tmp_path),
        )
        assert code == 1
        assert "method" in err

    def test_text_flag_that_is_not_utf8_is_an_error_exit(self, toy_config_path, tmp_path, capsys):
        # Python decodes argv bytes that are not UTF-8 to lone surrogates.
        text = ["--instruction", "custom", "--custom-instruction", "x\udce9"]
        code, out, err = run_cli(capsys, "run", "--config", toy_config_path, *text, "--out", str(tmp_path / "out"))
        assert (code, out, err) == (1, "", "error: argument --custom-instruction: not valid UTF-8\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_that_is_not_utf8_runs(self, toy_config_path, tmp_path, capfd):
        # capfd's stderr, like a process's, escapes the path's lone surrogate instead of raising.
        out_dir = tmp_path / "out\udce9"
        code, out, _err = run_cli(capfd, "run", "--config", toy_config_path, "--out", str(out_dir))
        assert code == 0
        assert json.loads(out)["overall"]["count"] == 25
        assert len((out_dir / "predictions.jsonl").read_text().splitlines()) == 25

    def test_failure_gate_exits_1_after_writing_outputs(
        self, toy_config_path, http_service, tmp_path, capsys
    ):
        # An unknown path answers 404, which fails at once: no retry, no backoff.
        failing = ["--provider-kind", "remote", "--provider-endpoint", f"{http_service.url}/missing"]
        results = {}
        for name, gate in (("plain", ["--max-failure-rate", "1"]), ("gated", ["--max-failure-rate", "0.5"])):
            out_dir = tmp_path / name
            code, out, err = run_cli(
                capsys, "run", "--config", toy_config_path, *failing, *gate, "--out", str(out_dir)
            )
            assert json.loads(out)["overall"]["count"] == 25
            lines = (out_dir / "predictions.jsonl").read_text().splitlines()
            assert all("generation_failed" in json.loads(line)["flags"] for line in lines)
            results[name] = (code, err, (out_dir / "report.json").read_text())
        assert results["plain"][0] == 0
        assert results["gated"][0] == 1
        assert results["gated"][1].endswith(
            "error: 25 of 25 examples failed, above --max-failure-rate 0.5\n"
        )
        assert results["gated"][2] == results["plain"][2]
        assert http_service.state.requests == 50

    def test_completion_with_a_lone_surrogate_fails_its_example(self, toy_config_path, http_service, tmp_path, capsys):
        failing = ["--provider-kind", "remote", "--provider-endpoint", f"{http_service.url}/lone_surrogate"]
        argv = ["run", "--config", toy_config_path, *failing, "--max-failure-rate", "1", "--out", str(tmp_path)]
        code, out, _err = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["overall"]["count"] == 25
        records = [json.loads(line) for line in (tmp_path / "predictions.jsonl").read_text().splitlines()]
        assert len(records) == 25
        assert all(record["flags"] == ["generation_failed"] and record["generation"] is None for record in records)

    def test_failure_gate_is_on_by_default(self, toy_config_path, http_service, tmp_path, capsys):
        failing = ["--provider-kind", "remote", "--provider-endpoint", f"{http_service.url}/missing"]
        code, _out, err = run_cli(capsys, "run", "--config", toy_config_path, *failing, "--out", str(tmp_path))
        assert code == 1
        assert err.endswith("error: 25 of 25 examples failed, above --max-failure-rate 0.5\n")
        assert (tmp_path / "predictions.jsonl").exists() and (tmp_path / "report.json").exists()

    def test_failure_gate_passes_at_its_limit(self, toy_config_path, tmp_path, capsys):
        code, _out, err = run_cli(
            capsys, "run", "--config", toy_config_path, "--max-failure-rate", "0", "--out", str(tmp_path)
        )
        assert code == 0
        assert "error" not in err

    @pytest.mark.parametrize("limit", ["-0.1", "1.5", "nan"])
    def test_failure_gate_out_of_range_is_error_exit(self, toy_config_path, tmp_path, limit, capsys):
        gate = ["--max-failure-rate", limit]
        code, out, err = run_cli(capsys, "run", "--config", toy_config_path, *gate, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: --max-failure-rate must be between 0 and 1")
        assert not (tmp_path / "predictions.jsonl").exists()

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_timeout_is_error_exit_before_the_run(self, toy_config_path, tmp_path, timeout, capsys):
        code, out, err = run_cli(
            capsys, "run", "--config", toy_config_path, "--timeout", timeout, "--out", str(tmp_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: provider timeout must be a finite number above 0, got")
        assert not (tmp_path / "predictions.jsonl").exists()


class TestRetrieveCommand:
    def test_single_question_debug(self, toy_config_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "retrieve",
            "--config",
            toy_config_path,
            "--question",
            "What is the place of birth of Mara Ellison?",
            "--k",
            "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["linked_entities"] == ["Q101"]
        assert payload["results"][0]["rank"] == 1
        assert "Harbor City" in payload["results"][0]["text"]
        assert len(payload["results"]) == 3

    def test_lists_the_facts_run_injects(self, toy_config_path, tmp_path, capsys):
        # Without --k, retrieve lists the configured k facts (k=2 in the toy config).
        assert run_cli(capsys, "run", "--config", toy_config_path, "--out", str(tmp_path))[0] == 0
        records = [json.loads(line) for line in (tmp_path / "predictions.jsonl").read_text().splitlines()]
        record = next(record for record in records if record["id"] == "toy-001")
        code, out, _ = run_cli(
            capsys, "retrieve", "--config", toy_config_path, "--question", record["question"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["linked_entities"] == ["Q101"]
        assert len(record["included_triples"]) == 2
        assert payload["results"] == record["included_triples"]

    @pytest.fixture()
    def remote_config(self, toy_dir, tmp_path):
        """Write the toy config with a remote embedder at the given endpoint."""

        def write(endpoint: str, dimension: int) -> str:
            config = json.loads((toy_dir / "config.json").read_text())
            config["embedder"] = {"kind": "remote", "dimension": dimension, "endpoint": endpoint}
            for name in ("triples_path", "entities_path", "relations_path", "dataset_path"):
                config[name] = str(toy_dir / config[name])
            path = tmp_path / "remote.json"
            path.write_text(json.dumps(config))
            return str(path)

        return write

    def test_unreachable_embedder_is_error_exit(self, remote_config, capsys, monkeypatch):
        # Transport errors are retried; back off by 0 s so the test does not wait 7 s.
        monkeypatch.setattr(remote, "BACKOFF_INITIAL_SECONDS", 0.0)
        code, out, err = run_cli(
            capsys,
            "retrieve",
            "--config",
            remote_config("http://127.0.0.1:1/embed", 256),
            "--question",
            "What is the place of birth of Mara Ellison?",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: request to http://127.0.0.1:1/embed failed")
        assert err.endswith("(attempts: 4)\n")
        assert "Traceback" not in err

    def test_non_finite_embedding_is_error_exit(self, remote_config, http_service, capsys):
        http_service.state.embed_dimension = 8
        code, out, err = run_cli(
            capsys,
            "retrieve",
            "--config",
            remote_config(f"{http_service.url}/embed_nonfinite", 8),
            "--question",
            "What is the place of birth of Mara Ellison?",
        )
        assert code == 1
        assert out == ""
        assert err == "error: embedding endpoint returned a null or non-finite component\n"

    @pytest.mark.parametrize("component", ["xy", {"a": 1}, True])
    def test_embedding_component_that_is_not_a_number_is_error_exit(
        self, remote_config, http_service, capsys, component
    ):
        http_service.state.embed_dimension = 8
        http_service.state.nonfinite_component = component
        code, out, err = run_cli(
            capsys,
            "retrieve",
            "--config",
            remote_config(f"{http_service.url}/embed_nonfinite", 8),
            "--question",
            "What is the place of birth of Mara Ellison?",
        )
        assert code == 1
        assert out == ""
        assert err == "error: embedding endpoint returned a vector that is not a list of numbers\n"

    # A number or boolean has no length, and a string has one as a list does: none is a list of vectors.
    @pytest.mark.parametrize("field", [5, True, 1.5, "ab", {}, None])
    def test_embedding_vectors_field_that_is_not_a_list_is_error_exit(
        self, remote_config, http_service, capsys, field
    ):
        http_service.state.vectors_field = field
        code, out, err = run_cli(
            capsys,
            "retrieve",
            "--config",
            remote_config(f"{http_service.url}/embed_vectors_field", 8),
            "--question",
            "What is the place of birth of Mara Ellison?",
        )
        assert code == 1
        assert out == ""
        assert err == "error: embedding endpoint returned no list of vectors\n"
        assert http_service.state.requests == 1  # bad data is never retried

    def test_random_ranks_with_the_run_seed(self, toy_config_path, toy_dir, capsys):
        question = "What is the place of birth of Mara Ellison?"
        code, out, _ = run_cli(
            capsys,
            "retrieve",
            "--config",
            toy_config_path,
            "--question",
            question,
            "--method",
            "random_knowledge",
            "--seed",
            "5",
            "--k",
            "100",
        )
        assert code == 0
        payload = json.loads(out)
        graph = load_graph(toy_dir / "triples.tsv", toy_dir / "entities.tsv", toy_dir / "relations.tsv")
        candidates = neighborhood(graph, payload["linked_entities"], 1)
        expected = rank_candidates(Random(5), question, candidates, graph)
        assert payload["candidates"] == len(candidates) > 1
        assert [(result["text"], result["score"]) for result in payload["results"]] == [
            (scored.verbalized, scored.score) for scored in expected
        ]

    def test_no_knowledge_has_no_retrieval_strategy(self, toy_config_path, capsys, monkeypatch):
        # The method is checked before the graph is loaded.
        monkeypatch.setattr(cli, "load_graph", None)
        code, out, err = run_cli(
            capsys,
            "retrieve",
            "--config",
            toy_config_path,
            "--question",
            "What is the place of birth of Mara Ellison?",
            "--method",
            "no_knowledge",
        )
        assert code == 1
        assert out == ""
        assert "error: method 'no_knowledge' has no retrieval strategy" in err

    def test_question_that_is_not_utf8_is_an_error_exit(self, toy_config_path, capsys, monkeypatch):
        # The question is checked before the graph is loaded.
        monkeypatch.setattr(cli, "load_graph", None)
        code, out, err = run_cli(capsys, "retrieve", "--config", toy_config_path, "--question", "who\udce9?")
        assert (code, out, err) == (1, "", "error: argument --question: not valid UTF-8\n")


class TestScoreAndReportCommands:
    @pytest.fixture()
    def predictions(self, toy_config_path, tmp_path, capsys):
        run_cli(capsys, "run", "--config", toy_config_path, "--out", str(tmp_path))
        return tmp_path / "predictions.jsonl"

    def test_report_matches_run_report(self, predictions, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "report", "--in", str(predictions))
        assert code == 0
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert json.loads(out) == on_disk

    def test_score_recomputes_same_metrics(self, predictions, capsys):
        code, out, _ = run_cli(capsys, "score", "--examples", str(predictions))
        assert code == 0
        report = json.loads(out)
        assert report["overall"]["accuracy"] == 1.0

    def test_score_detects_tampered_generation(self, predictions, tmp_path, capsys):
        records = [json.loads(line) for line in predictions.read_text().splitlines()]
        records[0]["generation"] = "something entirely unrelated"
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out, _ = run_cli(
            capsys, "score", "--examples", str(tampered), "--out", str(tmp_path / "rescored.jsonl")
        )
        assert code == 0
        report = json.loads(out)
        assert report["overall"]["accuracy"] == pytest.approx(24 / 25)
        rescored = [
            json.loads(line)
            for line in (tmp_path / "rescored.jsonl").read_text().splitlines()
        ]
        assert rescored[0]["scores"]["accuracy"] == 0

    def test_report_missing_file_errors(self, tmp_path, capsys):
        code, _out, err = run_cli(capsys, "report", "--in", str(tmp_path / "none.jsonl"))
        assert code == 1
        assert "error:" in err


# A fresh process that links and ranks on a snapshot hit, then reports whether ``numpy.ma`` was imported.
WARM_RUN_AND_RETRIEVE = """
import sys
from kgprompt import kg
from kgprompt.cli import main

def parse_forbidden(*args):
    raise AssertionError("parsed the triples file; expected a snapshot hit")

kg._load_triples = parse_forbidden
config, out = sys.argv[1:]
assert main(["run", "--config", config, "--out", out]) == 0
assert main(["retrieve", "--config", config, "--question", "Where was Mara Ellison born?"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_warm_run_and_retrieve_leave_numpy_ma_unimported(toy_dir, tmp_path):
    # A bare ``np.unique(x)`` imports numpy.ma on its first call, which took
    # milliseconds in a fresh process; ``np.bincount`` and ``np.unique`` with
    # ``return_inverse`` or ``return_counts`` import nothing.
    for name in ("config.json", "dataset.jsonl", "entities.tsv", "relations.tsv", "triples.tsv"):
        shutil.copyfile(toy_dir / name, tmp_path / name)
    load_graph(tmp_path / "triples.tsv", tmp_path / "entities.tsv")  # the snapshot is written
    source = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", WARM_RUN_AND_RETRIEVE, str(tmp_path / "config.json"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert '"linked_entities": [\n    "Q101"\n  ]' in result.stdout
    assert result.stdout.splitlines()[-1] == "False"
