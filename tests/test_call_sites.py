"""The benchmark's traced call sites must exist in the program.

``perfbench/spans.py`` wraps named functions where the calling module binds
them (``kgprompt.retrieve.verbalize``, ``kgprompt.retrieve.embed_batch``,
...). A refactor that drops or renames one of those bindings would only
break a traced benchmark run; this test makes it fail here instead.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves_to_a_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.CALL_SITES
    for target, attribute, *_ in spans.CALL_SITES:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attribute, None)), f"{target}.{attribute} is not callable"


def traced_toy_run(monkeypatch, toy_dir, tmp_path, **prompt_fields):
    """Run the toy config under the benchmark's tracer; returns (layer metrics, spans)."""
    spans = load_spans(monkeypatch)
    for target, attribute, *_ in spans.CALL_SITES:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        # Undoing this setattr puts the unwrapped function back.
        monkeypatch.setattr(owner, attribute, getattr(owner, attribute))
    tracer = spans.Tracer()
    spans.instrument(tracer)

    from kgprompt import pipeline

    config = pipeline.load_config(toy_dir / "config.json")
    prompt = dataclasses.replace(config.prompt, **prompt_fields)
    result = pipeline.run(dataclasses.replace(config, prompt=prompt, output_dir=str(tmp_path)))
    assert result["report"]["overall"]["count"] > 0
    return spans.layer_metrics(tracer.spans, {}, {}), tracer.spans


def test_traced_toy_run_reports_the_retrieval_layers(monkeypatch, toy_dir, tmp_path):
    # The span summaries read the neighborhood's length and render_prompt's
    # ``ranked_triples``; a change of return type or parameter name would
    # only show in a traced benchmark run.
    metrics, spans = traced_toy_run(monkeypatch, toy_dir, tmp_path)
    assert metrics["kg.neighborhood.candidates_mean"] > 0
    assert 0 < metrics["verbalize.calls_per_candidate"] <= 1
    renders = [span for span in spans if span.name == "prompts.render_prompt"]
    assert renders and all("offered" in span.attrs for span in renders)


def test_truncating_run_renders_each_knowledge_block_once(monkeypatch, toy_dir, tmp_path):
    # A budget that fits the toy questions and the instruction but not
    # every fact, so prompts are truncated; truncation must still render
    # each prompt's knowledge block only once.
    metrics, _ = traced_toy_run(monkeypatch, toy_dir, tmp_path, max_input_tokens=36)
    assert metrics["prompts.truncated_share"] > 0
    assert metrics["prompts.renders_per_prompt"] == 1.0
