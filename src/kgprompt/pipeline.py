"""End-to-end runs: load data, answer every example, score, and report.

Five methods share one flow. ``no_knowledge`` renders the bare question.
The triple methods (``kaping``, ``random_knowledge``, ``popular_knowledge``)
run one retrieval step (``retrieve_facts``, shared with ``kgprompt
retrieve``): collect the hop-bounded neighborhood of the question entities,
rank it with their strategy and keep the top k. They then render the
knowledge prompt; retrieval metrics come from the full ranking.
``generated_knowledge`` first asks the provider itself for facts, then
answers with those lines injected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import ConfigError, RemoteServiceError
from .embed import EmbedderConfig, remote_embedder
from .kg import EntityId, KnowledgeGraph, Triple, link_entities, load_graph, neighborhood
from .llm import CompletionClient, CompletionRequest, ProviderConfig, RemoteClient, build_client
from .metrics import (
    AnswerEntity,
    AnswerSet,
    GenScores,
    RetrievalScores,
    TOP_K_LEVELS,
    aggregate,
    score_generation,
    score_retrieval,
)
from .prompts import PromptSpec, render_prompt, render_prompt_from_lines
from .retrieve import Popular, Random, Ranking, ScoredTriple, Similarity, answer_bearing, rank_candidates, top_k

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


# What an outside value must be, by the type of the field it fills: a config
# field's default or a record field's type. A bool is never a number; tuple
# config fields are checked by their class's own coercion.
_TAKES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    type(None): ((str, type(None)), "a string or null"),
    list: (list, "a list"),
}


def _checked(value, kind: type, name: str):
    """``value`` when it fits a field of type ``kind``; else a ConfigError naming ``name``."""
    kinds, expected = _TAKES[kind]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value


def update_config(config, data: dict, context: str = "config"):
    """``config`` with the fields named in the nested ``data`` replaced, section by section.

    An unknown name, a section that is not an object or a value that
    ``_TAKES`` rejects raises ConfigError naming the section and the field.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config section {context!r} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {context} field(s): {', '.join(unknown)}")
    changes = {}
    for name, value in data.items():
        if dataclasses.is_dataclass(getattr(config, name)):
            value = update_config(getattr(config, name), value, name)
        elif type(defaults[name]) in _TAKES:
            _checked(value, type(defaults[name]), f"{context} field {name!r}")
        changes[name] = value
    return dataclasses.replace(config, **changes)


def config_from_dict(data: dict, base_dir: str | Path | None = None) -> RunConfig:
    """Build a RunConfig from a JSON-style dict, naming any bad field.

    Relative paths are resolved against ``base_dir`` (normally the config
    file's directory) so bundled configs stay relocatable.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    config = update_config(RunConfig(), data)
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
    """Read QA examples from JSONL, one object per line.

    ``question`` must be a string, ``answer_entities`` and a non-null
    ``question_entities`` lists of entity id strings, and ``category`` a
    string or null; ids, taken as strings, must be unique. Anything else
    raises ConfigError naming ``path:line`` and the field.
    """
    path = Path(path)
    examples = []
    id_lines: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ConfigError(f"{path}:{number}: expected a JSON object")
            for required in ("id", "question", "answer_entities"):
                if required not in record:
                    raise ConfigError(f"{path}:{number}: missing field {required!r}")
            if not isinstance(record["question"], str):
                raise ConfigError(f"{path}:{number}: field 'question' must be a string")
            question_entities = record.get("question_entities")
            for name, ids in (
                ("question_entities", [] if question_entities is None else question_entities),
                ("answer_entities", record["answer_entities"]),
            ):
                # A bare string would otherwise be split into one-character ids.
                if not isinstance(ids, list) or not all(isinstance(item, str) for item in ids):
                    raise ConfigError(f"{path}:{number}: field {name!r} must be a list of strings")
            # A number would break the per-category report's sort after the whole run.
            if not isinstance(record.get("category"), (str, type(None))):
                raise ConfigError(f"{path}:{number}: field 'category' must be a string or null")
            example_id = str(record["id"])
            earlier = id_lines.setdefault(example_id, number)
            if earlier != number:
                raise ConfigError(
                    f"{path}:{number}: field 'id' repeats {example_id!r} from line {earlier}"
                )
            examples.append(
                QaExample(
                    id=example_id,
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
    """Drop examples that ``answer_set_for`` finds no named answer for, keeping order."""
    kept = []
    for example in examples:
        if answer_set_for(example, graph).entities:
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


def strategy_for(config: RunConfig, seed: int):
    """The retrieval strategy of ``config.method``; ``seed`` seeds ``Random``."""
    if config.method == "kaping":
        return Similarity(config.embedder)
    if config.method == "random_knowledge":
        return Random(seed)
    if config.method == "popular_knowledge":
        return Popular()
    raise ConfigError(f"method {config.method!r} has no retrieval strategy")


class Retrieval(NamedTuple):
    """What one retrieval step found for a question."""

    entities: tuple[EntityId, ...]
    candidates: Sequence[Triple]
    ranked: Ranking
    top: list[ScoredTriple]


def retrieve_facts(
    config: RunConfig,
    graph: KnowledgeGraph,
    question: str,
    entities: Sequence[EntityId] | None,
    seed: int,
) -> Retrieval:
    """The retrieval step that ``run`` and ``kgprompt retrieve`` share.

    Links the question when ``entities`` is None, collects the
    ``config.hops`` neighborhood, ranks it with ``strategy_for(config,
    seed)`` and keeps the top ``config.k``; only those facts are verbalized.
    """
    if entities is None:
        entities = sorted(link_entities(graph, question))
    candidates = neighborhood(graph, entities, config.hops)
    ranked = rank_candidates(strategy_for(config, seed), question, candidates, graph)
    return Retrieval(tuple(entities), candidates, ranked, top_k(ranked, config.k))


def fact_entries(facts: Sequence[ScoredTriple]) -> list[dict]:
    """The ``{"rank", "score", "text"}`` of each fact, as records and ``kgprompt retrieve`` list them."""
    return [{"rank": scored.rank, "score": scored.score, "text": scored.verbalized} for scored in facts]


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
        "included_triples": fact_entries(included),
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
            # string keys, so a record equals its JSON round-trip
            "top_k_hits": {str(k): hit for k, hit in retrieval.top_k_hits.items()},
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

    if config.method in TRIPLE_METHODS:
        step = retrieve_facts(
            config, graph, example.question, example.question_entities, derive_seed(config.seed, example.id)
        )
        retrieval = score_retrieval(answer_bearing(step.ranked, set(example.answer_entities)))
        if not step.candidates:
            flags.append("empty_candidates")
        rendered = render_prompt(spec, step.top, example.question)
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


# Record flags that mark an example as failed (``run_example``, ``_failure_record``).
FAILURE_FLAGS = frozenset({"example_failed", "generation_failed"})


def _failure_record(config: RunConfig, example: QaExample, graph: KnowledgeGraph) -> dict:
    return _record(config, example, answer_set_for(example, graph), flags=["example_failed"])


def _field(record: dict, path: str, kind: type):
    """The value at the dotted ``path`` of ``record``, when it fits a field of type ``kind``."""
    value = record
    for name in path.split("."):
        if not isinstance(value, dict) or name not in value:
            raise ConfigError(f"missing field {path!r}")
        value = value[name]
    return _checked(value, kind, f"field {path!r}")


def _is_answer(entry) -> bool:
    aliases = entry.get("aliases") if isinstance(entry, dict) else None
    texts = [entry.get("name"), *aliases] if isinstance(aliases, list) else [None]
    return all(isinstance(text, str) for text in texts)


def scores_from_record(record: dict) -> tuple[GenScores, RetrievalScores | None, str | None]:
    """Rebuild the aggregation inputs from a per-example JSONL record, checking their fields."""
    gen = GenScores(*(_field(record, f"scores.{name}", float) for name in ("accuracy", "em", "f1")))
    retrieval = record.get("retrieval")
    if retrieval is not None:
        retrieval = RetrievalScores(
            _field(record, "retrieval.mrr", float),
            {k: _field(record, f"retrieval.top_k_hits.{k}", float) for k in TOP_K_LEVELS},
        )
    return gen, retrieval, _checked(record.get("category"), type(None), "field 'category'")


def aggregate_records(records: list[dict]) -> dict:
    return aggregate(scores_from_record(record) for record in records)


def rescore_record(record: dict) -> dict:
    """Recompute generation scores from the stored generation and answers.

    Checks the fields it reads, and those that the report of its result reads.
    """
    entries = _field(record, "answers", list)
    if not all(map(_is_answer, entries)):
        raise ConfigError("field 'answers' must be a list of {name, aliases} objects")
    answers = AnswerSet(tuple(AnswerEntity(entry["name"], tuple(entry["aliases"])) for entry in entries))
    generation = _field(record, "generation", type(None))
    gen = score_generation(generation, answers) if generation is not None else GenScores(0, 0, 0.0)
    updated = dict(record, scores={"accuracy": gen.accuracy, "em": gen.em, "f1": gen.f1})
    scores_from_record(updated)
    return updated


def read_records(path: str | Path, parse=None) -> list:
    """The JSON object on each non-blank line of a JSONL file, mapped by ``parse`` when given.

    A line that is not an object, or a ConfigError from ``parse``, names its ``path:line``.
    """
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ConfigError("expected a JSON object")
                records.append(record if parse is None else parse(record))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{number}: invalid JSON: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"{path}:{number}: {exc}") from exc
    return records


def write_records(path: str | Path, records: Sequence[dict]) -> None:
    """Write ``records`` as JSONL, one sorted-key object per line."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def report_text(report: dict) -> str:
    """The JSON text of a report, as ``report.json`` holds it and the CLI prints it."""
    return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)


def run(config: RunConfig) -> dict:
    """Execute a full run and write predictions.jsonl plus report.json.

    Returns the records, the report and the paths of both files.

    Examples run on one worker per slot of the remote services they call and
    are written in dataset order. Per-example failures are recorded and
    scored as incorrect; only configuration and load problems raise.
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
    transports = [client.transport] if isinstance(client, RemoteClient) else []
    workers = config.provider.max_concurrency
    if config.method == "kaping" and config.embedder.kind == "remote":
        transports.append(remote_embedder(config.embedder).transport)
        workers += config.embedder.max_concurrency

    def process(example: QaExample) -> dict:
        try:
            return run_example(config, example, graph, client)
        except Exception:
            logger.exception("example %s failed", example.id)
            return _failure_record(config, example, graph)

    # A remote embedder's transport serves every run of the process, so the
    # log counts this run's requests and retries from where they started.
    started = [(t.requests, t.retries) for t in transports]
    with ThreadPoolExecutor(max_workers=workers) as executor:
        records = list(executor.map(process, kept))
    for t, (requests, retries) in zip(transports, started):
        counts = (t.requests - requests, t.retries - retries, t.peak_in_flight)
        logger.info("%s: %d requests, %d retries, peak %d in flight", t.endpoint, *counts)

    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    predictions_path = output_dir / PREDICTIONS_FILENAME
    write_records(predictions_path, records)
    report = aggregate_records(records)
    report_path = output_dir / REPORT_FILENAME
    report_path.write_text(report_text(report) + "\n", encoding="utf-8")
    return {
        "records": records,
        "report": report,
        "predictions_path": str(predictions_path),
        "report_path": str(report_path),
    }
