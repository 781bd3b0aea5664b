import json

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

    def test_failure_gate_exits_1_after_writing_outputs(
        self, toy_config_path, http_service, tmp_path, capsys
    ):
        # An unknown path answers 404, which fails at once: no retry, no backoff.
        failing = ["--provider-kind", "remote", "--provider-endpoint", f"{http_service.url}/missing"]
        results = {}
        for name, gate in (("plain", []), ("gated", ["--max-failure-rate", "0.5"])):
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
