import dataclasses
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from kgprompt import pipeline, prompts, retrieve
from kgprompt.embed import EmbedderConfig, remote_embedder
from kgprompt.errors import ConfigError
from kgprompt.kg import Entity, EntityRef, Relation, Triple, build_graph, load_graph, neighborhood
from kgprompt.llm import ProviderConfig, RemoteClient, build_client
from kgprompt.pipeline import (
    QaExample,
    RunConfig,
    config_from_dict,
    derive_seed,
    filter_unnamed,
    load_config,
    load_dataset,
    run,
    run_example,
)
from kgprompt.retrieve import Random, rank_candidates
from kgprompt.verbalize import verbalize

ALEX_QUESTION = "Where did Alex Chilton die?"
ALEX_RESPONSE = (
    "Alex Chilton died on March 17, 2010 in New Orleans, Louisiana"
    " due to a myocardial infarction."
)
ALEX_SCRIPT = {"(Alex Chilton, place of death, New Orleans)": ALEX_RESPONSE}


def alex_example():
    return QaExample(
        id="case-alex-chilton",
        question=ALEX_QUESTION,
        question_entities=("Q304461",),
        answer_entities=("Q34404",),
        category="place",
    )


def base_config(**overrides):
    defaults = dict(method="kaping", k=10, hops=1, provider=ProviderConfig(script=ALEX_SCRIPT))
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestFilterUnnamed:
    def graph(self):
        return build_graph(
            [Entity("Q1", "Named"), Entity("Q2"), Entity("Q3", "Other")], [], []
        )

    def example(self, example_id, answer_ids):
        return QaExample(id=example_id, question="q?", answer_entities=tuple(answer_ids))

    def test_sole_unnamed_answer_removed(self):
        kept = filter_unnamed([self.example("e1", ["Q2"])], self.graph())
        assert kept == []

    def test_all_named_unchanged(self):
        examples = [self.example("e1", ["Q1"]), self.example("e2", ["Q3"])]
        assert filter_unnamed(examples, self.graph()) == examples

    def test_middle_example_removed_in_order(self):
        examples = [
            self.example("e1", ["Q1"]),
            self.example("e2", ["Q2"]),
            self.example("e3", ["Q3"]),
        ]
        kept = filter_unnamed(examples, self.graph())
        assert [example.id for example in kept] == ["e1", "e3"]

    def test_mixed_answers_kept_when_any_named(self):
        kept = filter_unnamed([self.example("e1", ["Q2", "Q1"])], self.graph())
        assert len(kept) == 1

    def test_answer_missing_from_graph_counts_as_unnamed(self):
        kept = filter_unnamed([self.example("e1", ["Q999"])], self.graph())
        assert kept == []


class TestRunExample:
    def test_kaping_case_study(self, alex_graph, alex_dir):
        config = base_config()
        record = run_example(config, alex_example(), alex_graph, build_client(config.provider))
        assert record["generation"] == ALEX_RESPONSE
        assert record["scores"]["accuracy"] == 1
        assert record["retrieval"]["first_hit_rank"] == 1
        assert record["retrieval"]["mrr"] == 1.0
        assert record["prompt"] == (alex_dir / "golden_prompt.txt").read_text(encoding="utf-8")
        assert len(record["included_triples"]) == 4
        assert record["flags"] == []

    def test_no_knowledge_scores_zero(self, alex_graph):
        config = base_config(method="no_knowledge")
        record = run_example(config, alex_example(), alex_graph, build_client(config.provider))
        assert record["generation"] == "UNKNOWN"
        assert record["scores"]["accuracy"] == 0
        assert record["retrieval"] is None
        assert record["prompt"] == f"Question: {ALEX_QUESTION} Answer:"
        assert "(" not in record["prompt"]

    def test_knowledge_change_flips_answer(self, alex_updated_dir, alex_graph):
        updated_graph = load_graph(
            alex_updated_dir / "triples.tsv", alex_updated_dir / "entities.tsv"
        )
        script = {
            "(Alex Chilton, place of death, Los Angeles)": (
                "Alex Chilton died in Los Angeles, California on September 1, 2000"
                " from pancreatic cancer."
            )
        }
        config = base_config(provider=ProviderConfig(script=script))
        example = dataclasses.replace(alex_example(), answer_entities=("Q65",))
        record = run_example(config, example, updated_graph, build_client(config.provider))
        assert "Los Angeles" in record["generation"]
        assert record["scores"]["accuracy"] == 1
        baseline = run_example(
            base_config(), alex_example(), alex_graph, build_client(ProviderConfig(script=ALEX_SCRIPT))
        )
        assert record["prompt"] != baseline["prompt"]

    def test_empty_candidates_degrade_to_no_knowledge(self, alex_graph):
        config = base_config()
        example = dataclasses.replace(alex_example(), question_entities=("Q34404",))
        # New Orleans is only the object of one triple: candidates exist there,
        # so use an isolated entity instead.
        graph = build_graph(
            [Entity("Q304461", "Alex Chilton"), Entity("Q34404", "New Orleans")], [], []
        )
        record = run_example(config, alex_example(), graph, build_client(config.provider))
        assert record["flags"] == ["empty_candidates"]
        assert record["prompt"] == f"Question: {ALEX_QUESTION} Answer:"
        assert record["retrieval"]["mrr"] == 0.0
        assert record["included_triples"] == []

    def test_question_entity_linking_fallback(self, alex_graph):
        config = base_config()
        example = dataclasses.replace(alex_example(), question_entities=None)
        record = run_example(config, example, alex_graph, build_client(config.provider))
        # "Alex Chilton" is linked from the question surface form
        assert record["scores"]["accuracy"] == 1
        assert len(record["included_triples"]) == 4

    def test_generated_knowledge_two_calls(self, alex_graph):
        template = "List facts about: {question}"
        script = {
            f"List facts about: {ALEX_QUESTION}": (
                "Alex Chilton was a musician.\nAlex Chilton died in New Orleans."
            ),
            "Alex Chilton was a musician.": "He died in New Orleans.",
        }
        config = base_config(
            method="generated_knowledge",
            generated_knowledge_template=template,
            provider=ProviderConfig(script=script),
        )
        record = run_example(config, alex_example(), alex_graph, build_client(config.provider))
        assert record["knowledge_lines"] == [
            "Alex Chilton was a musician.",
            "Alex Chilton died in New Orleans.",
        ]
        assert record["generation"] == "He died in New Orleans."
        assert record["scores"]["accuracy"] == 1
        assert record["retrieval"] is None
        assert record["included_triples"] == []

    def test_provider_failure_is_flagged(self, alex_graph, http_service):
        provider = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/always_500")
        config = base_config(provider=provider)
        client = RemoteClient(provider, sleep=lambda _s: None)
        record = run_example(config, alex_example(), alex_graph, client)
        assert record["flags"] == ["generation_failed"]
        assert record["generation"] is None
        assert record["scores"] == {"accuracy": 0, "em": 0, "f1": 0.0}
        # retrieval still happened before the provider was asked
        assert record["retrieval"]["first_hit_rank"] == 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(13, "toy-001") == derive_seed(13, "toy-001")

    def test_varies_by_example_and_run_seed(self):
        assert derive_seed(13, "toy-001") != derive_seed(13, "toy-002")
        assert derive_seed(13, "toy-001") != derive_seed(14, "toy-001")


class TestConfig:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict({"mystery": 1})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ConfigError, match="prompt"):
            config_from_dict({"prompt": {"flavour": "x"}})

    def test_bad_method_named(self):
        with pytest.raises(ConfigError, match="method"):
            config_from_dict({"method": "telepathy"})

    def test_generated_knowledge_requires_template(self):
        with pytest.raises(ConfigError, match="generated_knowledge_template"):
            config_from_dict({"method": "generated_knowledge"})

    def test_relative_paths_resolved_against_config_dir(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"triples_path": "graph/triples.tsv"}))
        config = load_config(config_path)
        assert config.triples_path == str(tmp_path / "graph" / "triples.tsv")

    def test_toy_config_loads(self, toy_dir):
        config = load_config(toy_dir / "config.json")
        assert config.method == "kaping"
        assert config.k == 2
        assert config.provider.kind == "scripted"
        assert len(config.provider.script) == 50

    def test_run_requires_paths(self):
        with pytest.raises(ConfigError, match="triples_path"):
            run(base_config())


class TestDataset:
    def test_load_dataset_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "e1", "question": "q?", "answer_entities": ["Q1"]}\n'
            '{"id": "e2", "question": "r?", "question_entities": [], '
            '"answer_entities": ["Q2"], "category": "geo"}\n'
        )
        examples = load_dataset(path)
        assert examples[0].question_entities is None
        assert examples[1].question_entities == ()
        assert examples[1].category == "geo"

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "e1", "question": "q?"}\n')
        with pytest.raises(ConfigError, match="answer_entities"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigError, match=":1"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"answer_entities": "Q42"', "field 'answer_entities' must be a list of strings"),
            ('"answer_entities": null', "field 'answer_entities' must be a list of strings"),
            ('"answer_entities": ["Q1", 42]', "field 'answer_entities' must be a list of strings"),
            ('"answer_entities": ["Q1"], "question_entities": "Q7"', "field 'question_entities' must be"),
            ('"answer_entities": ["Q1"], "question_entities": [["Q7"]]', "field 'question_entities' must be"),
            ('"answer_entities": ["Q1"], "question": 7', "field 'question' must be a string"),
        ],
    )
    def test_ill_typed_field_names_line_and_field(self, tmp_path, fields, message):
        path = tmp_path / "data.jsonl"
        good = '{"id": "e1", "question": "q?", "answer_entities": ["Q1"]}'
        path.write_text(f'{good}\n\n{{"id": "e2", "question": "r?", {fields}}}\n')
        with pytest.raises(ConfigError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value).startswith(f"{path}:3: {message}")

    def test_integer_past_the_int_string_limit_names_the_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = '{"id": "e1", "question": "q?", "answer_entities": ["Q1"]}'
        path.write_text(f'{good}\n{{"id": "e2", "question": "r?", "answer_entities": ["Q1"], "n": 1{"0" * 5000}}}\n')
        with pytest.raises(ConfigError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value).startswith(f"{path}:2: invalid JSON: ")

    @pytest.mark.parametrize("category", ["5", "true", '["geo"]', '{"name": "geo"}'])
    def test_category_that_is_not_a_string_names_line_and_field(self, tmp_path, category):
        path = tmp_path / "data.jsonl"
        good = '{"id": "e1", "question": "q?", "answer_entities": ["Q1"], "category": "place"}'
        path.write_text(f'{good}\n{{"id": "e2", "question": "r?", "answer_entities": ["Q2"], "category": {category}}}\n')
        with pytest.raises(ConfigError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}:2: field 'category' must be a string or null"

    def test_null_and_missing_category_accepted(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "e1", "question": "q?", "answer_entities": ["Q1"], "category": null}\n'
            '{"id": "e2", "question": "r?", "answer_entities": ["Q2"]}\n'
        )
        assert [example.category for example in load_dataset(path)] == [None, None]

    @pytest.mark.parametrize("first, second", [('"e1"', '"e1"'), ("1", '"1"'), ('"1"', "1"), ("7", "7")])
    def test_duplicate_id_names_both_lines(self, tmp_path, first, second):
        path = tmp_path / "data.jsonl"
        path.write_text(
            f'{{"id": {first}, "question": "q?", "answer_entities": ["Q1"]}}\n'
            '{"id": "other", "question": "r?", "answer_entities": ["Q1"]}\n\n'
            f'{{"id": {second}, "question": "s?", "answer_entities": ["Q1"]}}\n'
        )
        with pytest.raises(ConfigError) as excinfo:
            load_dataset(path)
        expected_id = first.strip('"')
        assert str(excinfo.value) == f"{path}:4: field 'id' repeats {expected_id!r} from line 1"

    @pytest.mark.parametrize("value", ["null", "true", "1.5", "[1, 2]", "{}"])
    def test_id_neither_string_nor_integer_names_its_line(self, tmp_path, value):
        # Line 4 holds the id that ``str`` would have made of line 1's.
        path = tmp_path / "data.jsonl"
        path.write_text(
            f'{{"id": {value}, "question": "q?", "answer_entities": ["Q1"]}}\n'
            '{"id": "other", "question": "r?", "answer_entities": ["Q1"]}\n\n'
            f'{{"id": {json.dumps(str(json.loads(value)))}, "question": "s?", "answer_entities": ["Q1"]}}\n'
        )
        with pytest.raises(ConfigError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}:1: field 'id' must be a string or an integer"

    def test_numeric_category_fails_before_any_example_runs(self, alex_dir, tmp_path):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            (alex_dir / "dataset.jsonl").read_text().rstrip("\n")
            + '\n{"id": "late", "question": "q?", "answer_entities": ["Q1"], "category": 5}\n'
        )
        config = base_config(
            triples_path=str(alex_dir / "triples.tsv"),
            entities_path=str(alex_dir / "entities.tsv"),
            dataset_path=str(dataset),
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError, match="field 'category' must be a string or null"):
            run(config)
        assert not (tmp_path / "out").exists()

    def test_non_object_line_is_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('["e1", "q?", ["Q1"]]\n')
        with pytest.raises(ConfigError, match=r":1: expected a JSON object"):
            load_dataset(path)


class TestRun:
    def alex_run_config(self, alex_dir, out_dir, **overrides):
        settings = dict(
            triples_path=str(alex_dir / "triples.tsv"),
            entities_path=str(alex_dir / "entities.tsv"),
            dataset_path=str(alex_dir / "dataset.jsonl"),
            output_dir=str(out_dir),
        )
        settings.update(overrides)
        return base_config(**settings)

    def test_empty_dataset(self, alex_dir, tmp_path):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("")
        config = self.alex_run_config(alex_dir, tmp_path / "out", dataset_path=str(dataset))
        result = run(config)
        assert (tmp_path / "out" / "predictions.jsonl").read_text() == ""
        assert result["report"]["overall"]["count"] == 0

    def test_case_study_accuracy_one(self, alex_dir, tmp_path):
        result = run(self.alex_run_config(alex_dir, tmp_path / "out"))
        assert result["report"]["overall"]["accuracy"] == 1.0
        assert result["report"]["overall"]["mrr"] == 1.0
        report_on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report_on_disk == result["report"]

    def test_non_finite_remote_vectors_fail_the_example_not_the_json(
        self, alex_dir, tmp_path, http_service
    ):
        http_service.state.nonfinite_component = None
        embedder = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_nonfinite"
        )
        run(self.alex_run_config(alex_dir, tmp_path / "out", embedder=embedder))

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        lines = (tmp_path / "out" / "predictions.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert [record["flags"] for record in records] == [["example_failed"]]
        json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)

    def test_seven_of_ten_accuracy(self, tmp_path):
        entities = [Entity(f"Q{i}", f"City {i}") for i in range(10)]
        entities.append(Entity("S", "Hub"))
        lines_e = "".join(f"{e.id}\t{e.name}\n" for e in entities)
        lines_t = "".join(f"S\tP1\tE:Q{i}\n" for i in range(10))
        (tmp_path / "entities.tsv").write_text(lines_e)
        (tmp_path / "triples.tsv").write_text(lines_t)
        dataset_rows = [
            {"id": f"e{i}", "question": f"Which city is linked {i}?",
             "question_entities": ["S"], "answer_entities": [f"Q{i}"]}
            for i in range(10)
        ]
        (tmp_path / "data.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in dataset_rows)
        )
        # script answers exactly 7 questions correctly by question substring
        script = {f"Which city is linked {i}?": f"City {i}" for i in range(7)}
        config = base_config(
            method="no_knowledge",
            provider=ProviderConfig(script=script),
            triples_path=str(tmp_path / "triples.tsv"),
            entities_path=str(tmp_path / "entities.tsv"),
            dataset_path=str(tmp_path / "data.jsonl"),
            output_dir=str(tmp_path / "out"),
        )
        result = run(config)
        assert result["report"]["overall"]["accuracy"] == pytest.approx(0.7)

    def test_records_in_dataset_order_with_concurrency(self, toy_dir, tmp_path, http_service, monkeypatch):
        # Two provider slots give two workers; the first example waits until
        # the second has finished, so examples complete out of dataset order.
        provider = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/complete", max_concurrency=2)
        config = dataclasses.replace(load_config(toy_dir / "config.json"), provider=provider, output_dir=str(tmp_path))
        completed = []
        second_done = threading.Event()

        def first_waits_for_second(config, example, graph, client):
            if example.id == "toy-001":
                second_done.wait(timeout=5)
            record = run_example(config, example, graph, client)
            completed.append(example.id)
            if example.id == "toy-002":
                second_done.set()
            return record

        monkeypatch.setattr(pipeline, "run_example", first_waits_for_second)
        run(config)
        records = [
            json.loads(line)
            for line in (tmp_path / "predictions.jsonl").read_text().splitlines()
        ]
        assert completed.index("toy-002") < completed.index("toy-001")
        assert [record["id"] for record in records] == [f"toy-{i:03d}" for i in range(1, 26)]

    @pytest.mark.parametrize(
        "method, provider_bound, embedder_bound, workers",
        [
            ("kaping", None, None, 1),  # the toy config's scripted provider
            ("kaping", 3, None, 3),  # hashed embedder
            ("kaping", 2, 3, 5),
            ("no_knowledge", 2, 3, 2),  # calls no embedder
        ],
    )
    def test_pool_has_one_worker_per_remote_slot(
        self, toy_dir, tmp_path, http_service, monkeypatch, method, provider_bound, embedder_bound, workers
    ):
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", recording_pool)
        config = dataclasses.replace(load_config(toy_dir / "config.json"), method=method, output_dir=str(tmp_path))
        assert config.provider.max_concurrency == 4
        if provider_bound:
            endpoint = f"{http_service.url}/complete"
            provider = ProviderConfig(kind="remote", endpoint=endpoint, max_concurrency=provider_bound)
            config = dataclasses.replace(config, provider=provider)
        if embedder_bound:
            endpoint = f"{http_service.url}/embed"
            embedder = EmbedderConfig(kind="remote", dimension=8, endpoint=endpoint, max_concurrency=embedder_bound)
            config = dataclasses.replace(config, embedder=embedder)
        run(config)
        assert sizes == [workers]

    def test_remote_pool_keeps_both_services_busy(self, toy_dir, tmp_path, http_service, monkeypatch, caplog):
        http_service.state.delay = 0.02
        http_service.state.embed_dimension = 8
        clients = []

        def capture_client(provider):
            clients.append(build_client(provider))
            return clients[-1]

        monkeypatch.setattr(pipeline, "build_client", capture_client)
        caplog.set_level(logging.INFO, logger="kgprompt.pipeline")
        base = load_config(toy_dir / "config.json")
        outputs = []
        for bound in (2, 1):
            http_service.state.max_paths_active = 0
            embedder = EmbedderConfig(
                kind="remote", dimension=8, endpoint=f"{http_service.url}/embed", max_concurrency=bound
            )
            provider = ProviderConfig(
                kind="remote", endpoint=f"{http_service.url}/complete", max_concurrency=bound
            )
            out = tmp_path / f"bound{bound}"
            run(dataclasses.replace(base, embedder=embedder, provider=provider, output_dir=str(out)))
            for transport in (clients[-1].transport, remote_embedder(embedder).transport):
                assert (transport.requests, transport.retries) == (25, 0)
                assert 1 <= transport.peak_in_flight <= bound
                assert (
                    f"{transport.endpoint}: 25 requests, 0 retries, peak {transport.peak_in_flight} in flight"
                    in caplog.messages
                )
            outputs.append([(out / name).read_bytes() for name in ("predictions.jsonl", "report.json")])
        # With one slot per service, an /embed and a /complete were in flight together.
        assert http_service.state.max_paths_active == 2
        assert outputs[0] == outputs[1]

    def test_each_run_logs_its_own_remote_requests(self, toy_dir, tmp_path, http_service, caplog):
        # The embedder's client is shared by every run of the process with
        # the same config; the log still counts one run's requests.
        http_service.state.embed_dimension = 8
        caplog.set_level(logging.INFO, logger="kgprompt.pipeline")
        embedder = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}/embed")
        provider = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/complete")
        base = dataclasses.replace(load_config(toy_dir / "config.json"), embedder=embedder, provider=provider)
        for name in ("a", "b"):
            caplog.clear()
            run(dataclasses.replace(base, output_dir=str(tmp_path / name)))
            logged = [message for message in caplog.messages if " requests, " in message]
            assert len(logged) == 2
            assert all(": 25 requests, 0 retries, peak " in message for message in logged)
        assert remote_embedder(embedder).transport.requests == 50

    def test_each_run_logs_its_own_peak_in_flight(self, toy_dir, tmp_path, http_service, caplog):
        # The embedder's shared client restarts its peak at each run.
        http_service.state.delay = 0.02
        caplog.set_level(logging.INFO, logger="kgprompt.pipeline")
        embedder = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}/embed")
        provider = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/complete")
        base = dataclasses.replace(load_config(toy_dir / "config.json"), embedder=embedder, provider=provider)
        run(dataclasses.replace(base, output_dir=str(tmp_path / "all")))
        assert remote_embedder(embedder).transport.peak_in_flight > 1
        one = tmp_path / "one.jsonl"
        one.write_text(Path(base.dataset_path).read_text().splitlines()[0] + "\n")
        caplog.clear()
        run(dataclasses.replace(base, dataset_path=str(one), output_dir=str(tmp_path / "one")))
        assert f"{http_service.url}/embed: 1 requests, 0 retries, peak 1 in flight" in caplog.messages

    def test_prompt_shape_invariants(self, toy_dir, tmp_path):
        base = load_config(toy_dir / "config.json")
        for method, out in (("kaping", "a"), ("no_knowledge", "b")):
            config = dataclasses.replace(base, method=method, output_dir=str(tmp_path / out))
            run(config)
        for line in (tmp_path / "a" / "predictions.jsonl").read_text().splitlines():
            record = json.loads(line)
            knowledge_lines = [
                prompt_line
                for prompt_line in record["prompt"].split("\n")
                if prompt_line.startswith("(")
            ]
            assert len(knowledge_lines) == len(record["included_triples"])
        for line in (tmp_path / "b" / "predictions.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert not any(
                prompt_line.startswith("(") for prompt_line in record["prompt"].split("\n")
            )

    def test_report_matches_recount_from_jsonl(self, toy_dir, tmp_path):
        config = dataclasses.replace(load_config(toy_dir / "config.json"), output_dir=str(tmp_path))
        result = run(config)
        records = [
            json.loads(line)
            for line in (tmp_path / "predictions.jsonl").read_text().splitlines()
        ]
        recounted = sum(record["scores"]["accuracy"] for record in records) / len(records)
        assert result["report"]["overall"]["accuracy"] == pytest.approx(recounted, abs=1e-12)

    def test_filtered_examples_not_in_output(self, alex_dir, tmp_path):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            (alex_dir / "dataset.jsonl").read_text()
            + '{"id": "unnamed", "question": "who?", "question_entities": [],'
            ' "answer_entities": ["Q_NOWHERE"]}\n'
        )
        config = self.alex_run_config(alex_dir, tmp_path / "out", dataset_path=str(dataset))
        result = run(config)
        assert result["report"]["overall"]["count"] == 1


class TestRetrievalWorkBound:
    def counted_run(self, config, monkeypatch):
        """Run ``config``; the graph, the neighborhood sizes, the ``verbalize`` calls by example id, and the result."""
        loaded = []
        calls = threading.local()
        per_example = {}
        candidates = []

        def load_and_keep(*paths):
            loaded.append(load_graph(*paths))
            return loaded[-1]

        def counting_verbalize(triple, graph):
            calls.count += 1
            return verbalize(triple, graph)

        def counting_run_example(*args, **kwargs):
            calls.count = 0
            record = run_example(*args, **kwargs)
            per_example[record["id"]] = calls.count
            return record

        def sized_neighborhood(*args, **kwargs):
            result = neighborhood(*args, **kwargs)
            candidates.append(len(result))
            return result

        monkeypatch.setattr(pipeline, "load_graph", load_and_keep)
        monkeypatch.setattr(pipeline, "run_example", counting_run_example)
        monkeypatch.setattr(pipeline, "neighborhood", sized_neighborhood)
        monkeypatch.setattr(retrieve, "verbalize", counting_verbalize)
        result = run(config)
        [graph] = loaded
        return graph, candidates, per_example, result

    def test_kaping_verbalizes_at_most_k_facts_per_example(self, toy_dir, tmp_path, monkeypatch):
        config = dataclasses.replace(load_config(toy_dir / "config.json"), output_dir=str(tmp_path))
        graph, candidates, per_example, result = self.counted_run(config, monkeypatch)
        assert len(per_example) == len(result["records"]) == 25
        # Every example has more candidates than k, so the bound is the point.
        assert min(candidates) > config.k
        assert max(per_example.values()) <= config.k
        assert all(len(record["included_triples"]) <= config.k for record in result["records"])
        assert "triples" not in graph.__dict__

    def test_kaping_verbalizes_the_kept_facts_and_at_most_one_slice_more(self, toy_dir, tmp_path, monkeypatch):
        # Two hops and k=100 offer every candidate; the budget keeps only some.
        config = load_config(toy_dir / "config.json")
        prompt = dataclasses.replace(config.prompt, max_input_tokens=80)
        config = dataclasses.replace(config, hops=2, k=100, prompt=prompt, output_dir=str(tmp_path))
        graph, candidates, per_example, result = self.counted_run(config, monkeypatch)
        assert len(per_example) == len(result["records"]) == 25
        for record in result["records"]:
            kept = len(record["included_triples"])
            assert record["truncated"] and 0 < kept < min(candidates)
            assert kept <= per_example[record["id"]] <= kept + prompts._SLICE
        assert sum(per_example.values()) < sum(candidates) / 2

    def test_unnamed_entity_warns_only_when_its_fact_is_verbalized(self, caplog):
        graph = build_graph(
            [Entity("Q1", "Alex Chilton"), Entity("Q2", "New Orleans"), Entity("Q9")],
            [Relation("P20", "place of death"), Relation("P1", "sibling")],
            [Triple("Q1", "P20", EntityRef("Q2")), Triple("Q1", "P1", EntityRef("Q9"))],
        )
        config = RunConfig(k=1)
        with caplog.at_level(logging.WARNING, logger="kgprompt.verbalize"):
            step = pipeline.retrieve_facts(config, graph, "Alex Chilton place of death", ("Q1",), 0)
        assert [scored.verbalized for scored in step.top] == ["(Alex Chilton, place of death, New Orleans)"]
        assert len(step.ranked) == 2
        assert not caplog.records
        with caplog.at_level(logging.WARNING, logger="kgprompt.verbalize"):
            assert step.ranked[1].verbalized == "(Alex Chilton, sibling, Q9)"
        assert [record.getMessage() for record in caplog.records] == ["entity Q9 has no name; rendering raw id"]


class TestRetrieveFacts:
    def test_links_when_no_entities_are_given(self, alex_graph):
        config = base_config(k=2)
        step = pipeline.retrieve_facts(config, alex_graph, ALEX_QUESTION, None, 0)
        assert step.entities == ("Q304461",)
        assert len(step.ranked) == 4
        assert [scored.rank for scored in step.top] == [1, 2]
        assert step.top == list(step.ranked)[:2]
        assert step.top[0].verbalized == "(Alex Chilton, place of death, New Orleans)"

    def test_gold_entities_and_seed(self, alex_graph):
        config = base_config(method="random_knowledge", k=3)
        step = pipeline.retrieve_facts(config, alex_graph, "unrelated words", ("Q304461",), 5)
        assert step.entities == ("Q304461",)
        expected = rank_candidates(Random(5), "unrelated words", neighborhood(alex_graph, ["Q304461"], 1), alex_graph)
        assert step.top == list(expected)[:3]

    def test_method_without_strategy_is_rejected(self, alex_graph):
        with pytest.raises(ConfigError, match="no retrieval strategy"):
            pipeline.retrieve_facts(base_config(method="no_knowledge"), alex_graph, ALEX_QUESTION, None, 0)
