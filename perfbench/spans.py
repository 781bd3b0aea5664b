"""Spans recorded around the calls into each kgprompt layer.

The benchmark wraps public functions where the calling module binds them
(``kgprompt.pipeline.link_entities``, ``kgprompt.retrieve.embed_batch``, ...),
so the program itself stays untouched. Each span records its name, start,
end, the span that caused it (a thread-local stack, since examples run on a
thread pool) and the id of the example it serves. Spans stay in memory and
are written out when the run ends.

With several worker threads a span's duration includes time spent waiting
for the interpreter lock, so the traced run also reports process CPU time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import urlparse


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    example: str | None
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; one tracer per run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, summarize: Callable | None = None, example_arg: str | None = None):
        """Return ``func`` recording one span per call.

        ``summarize(arguments, result)`` turns the bound call arguments and
        the result into span attributes; ``example_arg`` names the parameter
        whose ``.id`` starts a new example.
        """
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            arguments = None
            if summarize is not None or example_arg is not None:
                arguments = signature.bind(*args, **kwargs).arguments
            example = arguments[example_arg].id if example_arg else (parent.example if parent else None)
            span = Span(next(self._ids), parent.id if parent else None, name, example, self._clock())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self._clock()
                stack.pop()
                self.spans.append(span)
            if summarize is not None:
                span.attrs = summarize(arguments, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# (module or class, attribute, span name, summarize, example parameter)
CALL_SITES = (
    ("kgprompt.pipeline", "load_graph", "kg.load_graph", None, None),
    ("kgprompt.pipeline", "run_example", "pipeline.run_example", None, "example"),
    ("kgprompt.pipeline", "link_entities", "kg.link_entities", lambda a, r: {"linked": sorted(r)}, None),
    ("kgprompt.pipeline", "neighborhood", "kg.neighborhood", lambda a, r: {"candidates": len(r)}, None),
    ("kgprompt.pipeline", "rank_candidates", "retrieve.rank_candidates", None, None),
    (
        "kgprompt.pipeline",
        "render_prompt",
        "prompts.render_prompt",
        lambda a, r: {"offered": len(a["ranked_triples"]), "kept": len(r.included_triples), "truncated": r.truncated},
        None,
    ),
    ("kgprompt.pipeline", "score_generation", "metrics.score_generation", None, None),
    ("kgprompt.retrieve", "relation_frequency", "kg.relation_frequency", None, None),
    ("kgprompt.retrieve", "verbalize", "verbalize", None, None),
    ("kgprompt.retrieve", "embed_batch", "embed.embed_batch", lambda a, r: {"texts": len(a["texts"])}, None),
    ("kgprompt.prompts", "render_knowledge_block", "prompts.render_knowledge_block", None, None),
    ("kgprompt.llm:ScriptedClient", "generate", "llm.generate", None, None),
    ("kgprompt.llm:RemoteClient", "generate", "llm.generate", None, None),
    ("kgprompt.llm", "post_json", "remote.post_json", lambda a, r: {"path": urlparse(a["url"]).path}, None),
    ("kgprompt.embed", "post_json", "remote.post_json", lambda a, r: {"path": urlparse(a["url"]).path}, None),
)


def instrument(tracer: Tracer) -> None:
    """Replace every call site in CALL_SITES with its traced wrapper."""
    for target, attribute, name, summarize, example_arg in CALL_SITES:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), summarize, example_arg))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], gold_subjects: dict[str, str], stub_delays: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run, derived from its spans.

    ``gold_subjects`` maps example id to the entity the question is about;
    ``stub_delays`` maps a remote path to the stub's fixed reply delay.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)
    metrics: dict[str, float] = {}

    def timing(name: str, *stats: str) -> list[Span]:
        group = by_name.get(name, [])
        durations = [span.duration for span in group]
        values = {
            "calls": len(group),
            "p50_ms": percentile(durations, 0.50) * 1e3,
            "p95_ms": percentile(durations, 0.95) * 1e3,
            "total_s": sum(durations),
            "self_s": sum(own[span.id] for span in group),
            "failures": sum(span.error for span in group),
            "errors": sum(span.error for span in group),
        }
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]
        return group

    metrics["kg.load_graph.s"] = sum(span.duration for span in by_name.get("kg.load_graph", []))

    linked = timing("kg.link_entities", "calls", "p50_ms", "p95_ms", "total_s")
    hits = [gold_subjects.get(span.example) in span.attrs.get("linked", ()) for span in linked]
    metrics["kg.link_entities.hit_share"] = _ratio(sum(hits), len(hits))
    metrics["kg.link_entities.linked_mean"] = _ratio(sum(len(span.attrs.get("linked", ())) for span in linked), len(linked))

    timing("kg.relation_frequency", "calls", "total_s")

    neighborhoods = timing("kg.neighborhood", "p50_ms", "p95_ms")
    sizes = [span.attrs.get("candidates", 0) for span in neighborhoods]
    candidates = sum(sizes)
    metrics["kg.neighborhood.candidates_mean"] = _ratio(candidates, len(sizes))
    metrics["kg.neighborhood.candidates_p95"] = float(percentile(sizes, 0.95))

    metrics["verbalize.calls_per_candidate"] = _ratio(len(by_name.get("verbalize", [])), candidates)
    embeds = timing("embed.embed_batch", "calls", "p50_ms", "p95_ms", "total_s")
    metrics["embed.texts_per_candidate"] = _ratio(sum(span.attrs.get("texts", 0) for span in embeds), candidates)
    timing("retrieve.rank_candidates", "p50_ms", "p95_ms", "self_s")

    renders = timing("prompts.render_prompt", "p50_ms", "p95_ms")
    metrics["prompts.renders_per_prompt"] = _ratio(len(by_name.get("prompts.render_knowledge_block", [])), len(renders))
    metrics["prompts.truncated_share"] = _ratio(sum(span.attrs.get("truncated", False) for span in renders), len(renders))
    metrics["prompts.facts_dropped_mean"] = _ratio(
        sum(span.attrs.get("offered", 0) - span.attrs.get("kept", 0) for span in renders), len(renders)
    )

    timing("llm.generate", "calls", "p50_ms", "p95_ms", "failures")
    posts = timing("remote.post_json", "calls", "p50_ms", "p95_ms", "errors")
    overheads = [span.duration - stub_delays.get(span.attrs.get("path"), 0.0) for span in posts if not span.error]
    metrics["remote.overhead_ms"] = percentile(overheads, 0.50) * 1e3

    timing("metrics.score_generation", "total_s")
    timing("pipeline.run_example", "p50_ms", "p95_ms", "self_s")
    return metrics
