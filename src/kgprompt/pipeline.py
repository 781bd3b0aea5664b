"""End-to-end runs: load data, answer every example, score, and report.

Five methods share one flow. ``no_knowledge`` renders the bare question.
The triple methods (``kaping``, ``random_knowledge``, ``popular_knowledge``)
collect the hop-bounded neighborhood of the question entities, rank it with
their strategy, keep the top k, and render the knowledge prompt; retrieval
metrics come from the full ranking. ``generated_knowledge`` first asks the
provider itself for facts, then answers with those lines injected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, RemoteServiceError
from .embed import EmbedderConfig
from .kg import KnowledgeGraph, link_entities, load_graph, neighborhood
from .llm import CompletionClient, CompletionRequest, ProviderConfig, build_client
from .metrics import (
    AnswerEntity,
    AnswerSet,
    GenScores,
    RetrievalScores,
    aggregate,
    score_generation,
    score_retrieval,
)
from .prompts import PromptSpec, render_prompt, render_prompt_from_lines
from .retrieve import Popular, Random, ScoredTriple, Similarity, answer_bearing, rank_candidates, top_k

logger = logging.getLogger(__name__)

METHODS = (
    "no_knowledge",
    "random_knowledge",
    "popular_knowledge",
    "generated_knowledge",
    "kaping",
)
TRIPLE_METHODS = ("random_knowledge", "popular_knowledge", "kaping")

PREDICTIONS_FILENAME = "predictions.jsonl"
REPORT_FILENAME = "report.json"


@dataclass(frozen=True)
class QaExample:
    id: str
    question: str
    question_entities: tuple[str, ...] | None = None
    answer_entities: tuple[str, ...] = ()
    category: str | None = None

    def __post_init__(self):
        if not self.question:
            raise ConfigError(f"example {self.id!r}: question must be non-empty")
        if self.question_entities is not None:
            object.__setattr__(self, "question_entities", tuple(self.question_entities))
        object.__setattr__(self, "answer_entities", tuple(self.answer_entities))


@dataclass(frozen=True)
class RunConfig:
    method: str = "kaping"
    k: int = 10
    hops: int = 1
    seed: int = 0
    prompt: PromptSpec = field(default_factory=PromptSpec)
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    generated_knowledge_template: str | None = None
    triples_path: str = ""
    entities_path: str = ""
    relations_path: str | None = None
    dataset_path: str = ""
    output_dir: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if self.hops not in (1, 2):
            raise ConfigError(f"hops must be 1 or 2, got {self.hops}")
        if self.method == "generated_knowledge" and not self.generated_knowledge_template:
            raise ConfigError(
                "generated_knowledge_template is required when method=generated_knowledge"
            )


def _build_section(cls, data, context: str):
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ConfigError(f"config section {context!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown {context} field(s): {', '.join(unknown)}")
    return cls(**data)


def config_from_dict(data: dict, base_dir: str | Path | None = None) -> RunConfig:
    """Build a RunConfig from a JSON-style dict, naming any bad field.

    Relative paths are resolved against ``base_dir`` (normally the config
    file's directory) so bundled configs stay relocatable.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    data = dict(data)
    for section, cls in (("prompt", PromptSpec), ("embedder", EmbedderConfig), ("provider", ProviderConfig)):
        if section in data:
            data[section] = _build_section(cls, data[section], section)
    config = _build_section(RunConfig, data, "config")
    if base_dir is not None:
        base = Path(base_dir)
        resolved = {}
        for name in ("triples_path", "entities_path", "relations_path", "dataset_path", "output_dir"):
            value = getattr(config, name)
            if value and not Path(value).is_absolute():
                resolved[name] = str(base / value)
        if resolved:
            config = dataclasses.replace(config, **resolved)
    return config


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data, base_dir=path.parent)


def load_dataset(path: str | Path) -> list[QaExample]:
    """Read QA examples from JSONL, one object per line."""
    path = Path(path)
    examples = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{number}: invalid JSON: {exc}") from exc
            for required in ("id", "question", "answer_entities"):
                if required not in record:
                    raise ConfigError(f"{path}:{number}: missing field {required!r}")
            question_entities = record.get("question_entities")
            examples.append(
                QaExample(
                    id=str(record["id"]),
                    question=record["question"],
                    question_entities=None
                    if question_entities is None
                    else tuple(question_entities),
                    answer_entities=tuple(record["answer_entities"]),
                    category=record.get("category"),
                )
            )
    return examples


def filter_unnamed(examples: list[QaExample], graph: KnowledgeGraph) -> list[QaExample]:
    """Drop examples whose answer entities are all unnamed, keeping order."""
    kept = []
    for example in examples:
        if any(graph.entity_name(entity_id) for entity_id in example.answer_entities):
            kept.append(example)
        else:
            logger.info("filtering example %s: no named answer entity", example.id)
    return kept


def answer_set_for(example: QaExample, graph: KnowledgeGraph) -> AnswerSet:
    entities = []
    for entity_id in example.answer_entities:
        entity = graph.entities.get(entity_id)
        if entity is not None and entity.name:
            entities.append(AnswerEntity(entity.name, entity.aliases))
    return AnswerSet(tuple(entities))


def derive_seed(run_seed: int, example_id: str) -> int:
    """Stable per-example random substream for the Random strategy."""
    digest = hashlib.blake2b(f"{run_seed}:{example_id}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _strategy_for(config: RunConfig, example: QaExample):
    if config.method == "kaping":
        return Similarity(config.embedder)
    if config.method == "random_knowledge":
        return Random(derive_seed(config.seed, example.id))
    if config.method == "popular_knowledge":
        return Popular()
    raise ValueError(f"no retrieval strategy for method {config.method}")


def _record(
    config: RunConfig,
    example: QaExample,
    answers: AnswerSet,
    *,
    flags: list[str],
    prompt: str = "",
    included: Sequence[ScoredTriple] = (),
    knowledge_lines: Sequence[str] = (),
    truncated: bool = False,
    generation: str | None = None,
    retrieval: RetrievalScores | None = None,
) -> dict:
    """The JSONL-ready record of one example; the defaults are a failed one."""
    gen_scores = score_generation(generation, answers) if generation is not None else GenScores(0, 0, 0.0)
    return {
        "id": example.id,
        "question": example.question,
        "category": example.category,
        "method": config.method,
        "flags": sorted(flags),
        "prompt": prompt,
        "included_triples": [
            {"rank": scored.rank, "score": scored.score, "text": scored.verbalized}
            for scored in included
        ],
        "knowledge_lines": list(knowledge_lines),
        "truncated": truncated,
        "generation": generation,
        "answers": [
            {"name": entity.name, "aliases": list(entity.aliases)} for entity in answers.entities
        ],
        "scores": {"accuracy": gen_scores.accuracy, "em": gen_scores.em, "f1": gen_scores.f1},
        "retrieval": None
        if retrieval is None
        else {
            "first_hit_rank": retrieval.first_hit_rank,
            "mrr": retrieval.mrr,
            "top_k_hits": dict(retrieval.top_k_hits),
        },
    }


def run_example(
    config: RunConfig,
    example: QaExample,
    graph: KnowledgeGraph,
    client: CompletionClient,
) -> dict:
    """Answer and score a single example; returns the JSONL-ready record."""
    spec = config.prompt
    flags: list[str] = []
    answers = answer_set_for(example, graph)
    knowledge_lines: list[str] = []
    retrieval: RetrievalScores | None = None
    included: tuple[ScoredTriple, ...] = ()
    truncated = False
    generation: str | None = None

    if example.question_entities is not None:
        question_entities = example.question_entities
    else:
        question_entities = tuple(sorted(link_entities(graph, example.question)))

    if config.method in TRIPLE_METHODS:
        candidates = neighborhood(graph, question_entities, config.hops)
        ranked = rank_candidates(_strategy_for(config, example), example.question, candidates, graph)
        retrieval = score_retrieval(answer_bearing(ranked, set(example.answer_entities)))
        if not candidates:
            flags.append("empty_candidates")
        rendered = render_prompt(spec, top_k(ranked, config.k), example.question)
        prompt_text, included, truncated = rendered.text, rendered.included_triples, rendered.truncated
    elif config.method == "generated_knowledge":
        elicitation = config.generated_knowledge_template.replace("{question}", example.question)
        try:
            raw = client.generate(CompletionRequest(elicitation, spec.max_output_tokens))
            knowledge_lines = [line.strip() for line in raw.splitlines() if line.strip()]
        except RemoteServiceError as exc:
            logger.error("example %s: knowledge elicitation failed: %s", example.id, exc)
            flags.append("generation_failed")
        if not knowledge_lines and "generation_failed" not in flags:
            flags.append("empty_candidates")
        prompt_text, knowledge_lines, truncated = render_prompt_from_lines(
            spec, knowledge_lines, example.question
        )
    else:  # no_knowledge
        rendered = render_prompt(spec, (), example.question)
        prompt_text, truncated = rendered.text, rendered.truncated

    if "generation_failed" not in flags:
        try:
            generation = client.generate(CompletionRequest(prompt_text, spec.max_output_tokens))
        except RemoteServiceError as exc:
            logger.error("example %s: generation failed: %s", example.id, exc)
            flags.append("generation_failed")

    return _record(
        config,
        example,
        answers,
        flags=flags,
        prompt=prompt_text,
        included=included,
        knowledge_lines=knowledge_lines,
        truncated=truncated,
        generation=generation,
        retrieval=retrieval,
    )


def _failure_record(config: RunConfig, example: QaExample, graph: KnowledgeGraph) -> dict:
    return _record(config, example, answer_set_for(example, graph), flags=["example_failed"])


def scores_from_record(record: dict) -> tuple[GenScores, RetrievalScores | None, str | None]:
    """Rebuild the aggregation inputs from a per-example JSONL record."""
    scores = record["scores"]
    gen = GenScores(int(scores["accuracy"]), int(scores["em"]), float(scores["f1"]))
    retrieval = record.get("retrieval")
    retrieval_scores = None
    if retrieval is not None:
        retrieval_scores = RetrievalScores(
            float(retrieval["mrr"]),
            {int(k): int(v) for k, v in retrieval["top_k_hits"].items()},
            retrieval.get("first_hit_rank"),
        )
    return gen, retrieval_scores, record.get("category")


def aggregate_records(records: list[dict]) -> dict:
    return aggregate(scores_from_record(record) for record in records)


def rescore_record(record: dict) -> dict:
    """Recompute generation scores from the stored generation and answers."""
    answers = AnswerSet(
        tuple(
            AnswerEntity(entry["name"], tuple(entry.get("aliases", ())))
            for entry in record.get("answers", [])
        )
    )
    generation = record.get("generation")
    gen = score_generation(generation, answers) if generation is not None else GenScores(0, 0, 0.0)
    updated = dict(record)
    updated["scores"] = {"accuracy": gen.accuracy, "em": gen.em, "f1": gen.f1}
    return updated


def read_records(path: str | Path) -> list[dict]:
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{number}: invalid JSON: {exc}") from exc
    return records


def run(config: RunConfig) -> dict:
    """Execute a full run and write predictions.jsonl plus report.json.

    Examples are processed with at most ``provider.max_concurrency`` workers
    but always written in dataset order. Per-example failures are recorded
    and scored as incorrect; only configuration and load problems raise.
    """
    for name in ("triples_path", "entities_path", "dataset_path", "output_dir"):
        if not getattr(config, name):
            raise ConfigError(f"config field {name!r} is required for a run")

    graph = load_graph(config.triples_path, config.entities_path, config.relations_path)
    examples = load_dataset(config.dataset_path)
    kept = filter_unnamed(examples, graph)
    logger.info(
        "running method=%s over %d examples (%d filtered as unnamed)",
        config.method,
        len(kept),
        len(examples) - len(kept),
    )
    client = build_client(config.provider)

    def process(example: QaExample) -> dict:
        try:
            return run_example(config, example, graph, client)
        except Exception:
            logger.exception("example %s failed", example.id)
            return _failure_record(config, example, graph)

    with ThreadPoolExecutor(max_workers=config.provider.max_concurrency) as executor:
        records = list(executor.map(process, kept))

    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    predictions_path = output_dir / PREDICTIONS_FILENAME
    with predictions_path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")

    report = aggregate_records(records)
    report_path = output_dir / REPORT_FILENAME
    report_path.write_text(
        json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return {
        "report": report,
        "predictions_path": str(predictions_path),
        "report_path": str(report_path),
    }
