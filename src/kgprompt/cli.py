"""Command-line interface: run, score, retrieve, report."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import pipeline
from .errors import ConfigError, GraphLoadError, RemoteServiceError
from .kg import load_graph
from .metrics import aggregate

# Every config override flag, declared once by the RunConfig field path it
# sets ("prompt.ordering" is config.prompt.ordering), with its argparse options.
OVERRIDES = (
    ("--method", "method", {"help": "override the configured method"}),
    ("--k", "k", {"type": int, "help": "number of facts to inject"}),
    ("--hops", "hops", {"type": int, "choices": (1, 2), "help": "neighborhood hop bound"}),
    ("--seed", "seed", {"type": int, "help": "run seed for the random strategy"}),
    ("--order", "prompt.ordering", {"help": "knowledge ordering policy"}),
    ("--template", "prompt.question_template", {"help": "question template"}),
    ("--instruction", "prompt.knowledge_instruction", {"help": "knowledge instruction"}),
    ("--custom-instruction", "prompt.custom_instruction", {"help": "text for the custom instruction"}),
    ("--max-input-tokens", "prompt.max_input_tokens", {"type": int}),
    ("--max-output-tokens", "prompt.max_output_tokens", {"type": int}),
    ("--triples", "triples_path", {"help": "triples TSV path"}),
    ("--entities", "entities_path", {"help": "entities TSV path"}),
    ("--relations", "relations_path", {"help": "relations TSV path"}),
    ("--dataset", "dataset_path", {"help": "dataset JSONL path"}),
    ("--out", "output_dir", {"help": "output directory"}),
    ("--generated-knowledge-template", "generated_knowledge_template", {}),
    ("--embedder-kind", "embedder.kind", {}),
    ("--embedder-dimension", "embedder.dimension", {"type": int}),
    ("--embedder-endpoint", "embedder.endpoint", {}),
    ("--provider-kind", "provider.kind", {}),
    ("--provider-endpoint", "provider.endpoint", {}),
    ("--model", "provider.model_name", {"help": "remote model name"}),
    ("--timeout", "provider.timeout", {"type": float, "help": "remote request timeout (s)"}),
    ("--max-concurrency", "provider.max_concurrency", {"type": int, "help": "provider in-flight bound"}),
)
RETRIEVE_OVERRIDES = ("--method", "--k", "--hops", "--seed")


def _add_overrides(parser: argparse.ArgumentParser, flags=None) -> None:
    """Add the ``OVERRIDES`` in ``flags`` (default all), each under the field path ``--help`` shows."""
    for flag, path, options in OVERRIDES:
        if flags is None or flag in flags:
            parser.add_argument(flag, dest=path, **options)


def _config(args: argparse.Namespace) -> pipeline.RunConfig:
    """The ``--config`` file's RunConfig with the override flags given on the command line."""
    overrides: dict = {}
    for _flag, path, _options in OVERRIDES:
        value = getattr(args, path, None)
        if value is not None:
            section, _, name = path.rpartition(".")
            (overrides.setdefault(section, {}) if section else overrides)[name] = value
    return pipeline.update_config(pipeline.load_config(args.config), overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgprompt",
        description="Fact retrieval from a knowledge graph, prompt injection, and scoring.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a configured method over a dataset")
    run_parser.set_defaults(handler=_cmd_run)
    run_parser.add_argument("--config", required=True, help="JSON run configuration")
    run_parser.add_argument(
        "--max-failure-rate",
        type=float,
        metavar="R",
        help="exit 1 (after writing the outputs) when more than this share of"
        " examples failed; off by default",
    )
    _add_overrides(run_parser)

    score_parser = commands.add_parser("score", help="re-score stored generations")
    score_parser.set_defaults(handler=_cmd_score)
    score_parser.add_argument("--examples", required=True, help="per-example JSONL to re-score")
    score_parser.add_argument("--out", help="write the re-scored JSONL here")

    retrieve_parser = commands.add_parser("retrieve", help="debug a single retrieval")
    retrieve_parser.set_defaults(handler=_cmd_retrieve)
    retrieve_parser.add_argument("--config", required=True, help="JSON run configuration")
    retrieve_parser.add_argument("--question", required=True)
    _add_overrides(retrieve_parser, RETRIEVE_OVERRIDES)

    report_parser = commands.add_parser("report", help="re-aggregate a per-example JSONL")
    report_parser.set_defaults(handler=_cmd_report)
    report_parser.add_argument("--in", dest="input", required=True)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    limit = args.max_failure_rate
    if limit is not None and not 0.0 <= limit <= 1.0:
        raise ConfigError(f"--max-failure-rate must be between 0 and 1, got {limit}")
    result = pipeline.run(_config(args))
    print(pipeline.report_text(result["report"]))
    print(f"wrote {result['predictions_path']} and {result['report_path']}", file=sys.stderr)
    if limit is not None:
        records = result["records"]
        failed = sum(1 for record in records if not pipeline.FAILURE_FLAGS.isdisjoint(record["flags"]))
        if records and failed / len(records) > limit:
            print(
                f"error: {failed} of {len(records)} examples failed, above --max-failure-rate {limit}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    records = pipeline.read_records(args.examples, pipeline.rescore_record)
    if args.out:
        pipeline.write_records(args.out, records)
    print(pipeline.report_text(pipeline.aggregate_records(records)))
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    config = _config(args)
    pipeline.strategy_for(config, config.seed)  # a method without a strategy fails before the load
    graph = load_graph(config.triples_path, config.entities_path, config.relations_path)
    step = pipeline.retrieve_facts(config, graph, args.question, None, config.seed)
    payload = {
        "question": args.question,
        "linked_entities": list(step.entities),
        "candidates": len(step.candidates),
        "results": pipeline.fact_entries(step.top),
    }
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    scores = pipeline.read_records(args.input, pipeline.scores_from_record)
    print(pipeline.report_text(aggregate(scores)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ConfigError, GraphLoadError, RemoteServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
