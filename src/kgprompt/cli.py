"""Command-line interface: run, score, retrieve, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, GraphLoadError, RemoteServiceError
from .kg import load_graph
from .pipeline import (
    aggregate_records,
    fact_entries,
    load_config,
    read_records,
    rescore_record,
    retrieve_facts,
    run,
    strategy_for,
)

# Record flags that mark an example as failed for --max-failure-rate.
FAILURE_FLAGS = frozenset({"example_failed", "generation_failed"})


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", help="override the configured method")
    parser.add_argument("--k", type=int, help="number of facts to inject")
    parser.add_argument("--hops", type=int, choices=(1, 2), help="neighborhood hop bound")
    parser.add_argument("--seed", type=int, help="run seed for the random strategy")
    parser.add_argument("--order", dest="ordering", help="knowledge ordering policy")
    parser.add_argument("--template", dest="question_template", help="question template")
    parser.add_argument("--instruction", dest="knowledge_instruction", help="knowledge instruction")
    parser.add_argument("--custom-instruction", help="text for the custom instruction")
    parser.add_argument("--max-input-tokens", type=int)
    parser.add_argument("--max-output-tokens", type=int)
    parser.add_argument("--triples", dest="triples_path", help="triples TSV path")
    parser.add_argument("--entities", dest="entities_path", help="entities TSV path")
    parser.add_argument("--relations", dest="relations_path", help="relations TSV path")
    parser.add_argument("--dataset", dest="dataset_path", help="dataset JSONL path")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--generated-knowledge-template")
    parser.add_argument("--embedder-kind")
    parser.add_argument("--embedder-dimension", type=int)
    parser.add_argument("--embedder-endpoint")
    parser.add_argument("--provider-kind")
    parser.add_argument("--provider-endpoint")
    parser.add_argument("--model", dest="model_name", help="remote model name")
    parser.add_argument("--timeout", type=float, help="remote request timeout (s)")
    parser.add_argument("--max-concurrency", type=int, help="the provider's bound on requests in flight")


_TOP_LEVEL_OVERRIDES = (
    "method",
    "k",
    "hops",
    "seed",
    "generated_knowledge_template",
    "triples_path",
    "entities_path",
    "relations_path",
    "dataset_path",
    "output_dir",
)
_PROMPT_OVERRIDES = (
    ("question_template", "question_template"),
    ("knowledge_instruction", "knowledge_instruction"),
    ("custom_instruction", "custom_instruction"),
    ("ordering", "ordering"),
    ("max_input_tokens", "max_input_tokens"),
    ("max_output_tokens", "max_output_tokens"),
)
_EMBEDDER_OVERRIDES = (
    ("embedder_kind", "kind"),
    ("embedder_dimension", "dimension"),
    ("embedder_endpoint", "endpoint"),
)
_PROVIDER_OVERRIDES = (
    ("provider_kind", "kind"),
    ("provider_endpoint", "endpoint"),
    ("model_name", "model_name"),
    ("timeout", "timeout"),
    ("max_concurrency", "max_concurrency"),
)


def _apply_overrides(config, args: argparse.Namespace):
    updates = {}
    for name in _TOP_LEVEL_OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    for section, pairs in (
        ("prompt", _PROMPT_OVERRIDES),
        ("embedder", _EMBEDDER_OVERRIDES),
        ("provider", _PROVIDER_OVERRIDES),
    ):
        section_updates = {}
        for arg_name, field_name in pairs:
            value = getattr(args, arg_name, None)
            if value is not None:
                section_updates[field_name] = value
        if section_updates:
            updates[section] = dataclasses.replace(getattr(config, section), **section_updates)
    return dataclasses.replace(config, **updates) if updates else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgprompt",
        description="Fact retrieval from a knowledge graph, prompt injection, and scoring.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a configured method over a dataset")
    run_parser.add_argument("--config", required=True, help="JSON run configuration")
    run_parser.add_argument(
        "--max-failure-rate",
        type=float,
        metavar="R",
        help="exit 1 (after writing the outputs) when more than this share of"
        " examples failed; off by default",
    )
    _add_run_overrides(run_parser)

    score_parser = commands.add_parser("score", help="re-score stored generations")
    score_parser.add_argument("--examples", required=True, help="per-example JSONL to re-score")
    score_parser.add_argument("--out", help="write the re-scored JSONL here")

    retrieve_parser = commands.add_parser("retrieve", help="debug a single retrieval")
    retrieve_parser.add_argument("--config", required=True, help="JSON run configuration")
    retrieve_parser.add_argument("--question", required=True)
    retrieve_parser.add_argument("--k", type=int, help="number of facts to list (default: configured)")
    retrieve_parser.add_argument("--hops", type=int, choices=(1, 2))
    retrieve_parser.add_argument("--method", help="strategy to rank with (default: configured)")
    retrieve_parser.add_argument("--seed", type=int)

    report_parser = commands.add_parser("report", help="re-aggregate a per-example JSONL")
    report_parser.add_argument("--in", dest="input", required=True)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    limit = args.max_failure_rate
    if limit is not None and not 0.0 <= limit <= 1.0:
        raise ConfigError(f"--max-failure-rate must be between 0 and 1, got {limit}")
    config = _apply_overrides(load_config(args.config), args)
    result = run(config)
    print(json.dumps(result["report"], ensure_ascii=False, sort_keys=True, indent=2))
    print(f"wrote {result['predictions_path']} and {result['report_path']}", file=sys.stderr)
    if limit is not None:
        records = result["records"]
        failed = sum(1 for record in records if not FAILURE_FLAGS.isdisjoint(record["flags"]))
        if records and failed / len(records) > limit:
            print(
                f"error: {failed} of {len(records)} examples failed, above --max-failure-rate {limit}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    records = [rescore_record(record) for record in read_records(args.examples)]
    if args.out:
        with Path(args.out).open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    print(json.dumps(aggregate_records(records), ensure_ascii=False, sort_keys=True, indent=2))
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    strategy_for(config, config.seed)  # a method without a strategy fails before the load
    graph = load_graph(config.triples_path, config.entities_path, config.relations_path)
    step = retrieve_facts(config, graph, args.question, None, config.seed)
    print(
        json.dumps(
            {
                "question": args.question,
                "linked_entities": list(step.entities),
                "candidates": len(step.candidates),
                "results": fact_entries(step.top),
            },
            ensure_ascii=False,
            indent=2,
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(
        json.dumps(
            aggregate_records(read_records(args.input)),
            ensure_ascii=False,
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "run": _cmd_run,
        "score": _cmd_score,
        "retrieve": _cmd_retrieve,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, GraphLoadError, RemoteServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
