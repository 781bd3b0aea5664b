"""Deterministic prompt rendering: knowledge block + question block.

A prompt is built from up to three parts, joined by single newlines with no
trailing newline: optional few-shot demonstration lines, an optional
knowledge block (instruction line followed by one fact per line), and the
rendered question. When the whole text exceeds the input token budget, the
lowest-scored facts are dropped until it fits. Every budget is counted by
``whitespace_token_count``, whose count of lines joined by newlines is the
sum of their counts, so the longest fitting prefix of the ranking is found
in one pass over the facts in rank order and the prompt is rendered once.
Demonstrations are caller-fixed context and are never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, PromptTooLongError, string_pairs
from .retrieve import ScoredTriple
from .text import whitespace_token_count

QUESTION_TEMPLATES = ("default", "please")
ORDERINGS = ("relevant_last", "relevant_first", "shuffled")

INSTRUCTION_TEXTS = {
    "meaningful": "Below are facts in the form of the triple meaningful to answer the question.",
    "might_be": (
        "Below are facts in the form of the triple that might be meaningful"
        " to answer the question."
    ),
}

@dataclass(frozen=True)
class PromptSpec:
    """Everything needed to render a prompt deterministically."""

    question_template: str = "default"
    knowledge_instruction: str = "meaningful"
    custom_instruction: str | None = None
    ordering: str = "relevant_last"
    shuffle_seed: int = 0
    fewshot_demos: tuple[tuple[str, str], ...] = ()
    max_input_tokens: int = 1024
    max_output_tokens: int = 128

    def __post_init__(self):
        if self.question_template not in QUESTION_TEMPLATES:
            raise ConfigError(
                f"question_template must be one of {QUESTION_TEMPLATES},"
                f" got {self.question_template!r}"
            )
        if self.knowledge_instruction not in (*INSTRUCTION_TEXTS, "custom"):
            raise ConfigError(
                "knowledge_instruction must be 'meaningful', 'might_be', or 'custom',"
                f" got {self.knowledge_instruction!r}"
            )
        if self.knowledge_instruction == "custom" and not self.custom_instruction:
            raise ConfigError("custom knowledge_instruction requires custom_instruction text")
        if self.ordering not in ORDERINGS:
            raise ConfigError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        if self.max_input_tokens < 1:
            raise ConfigError(f"max_input_tokens must be >= 1, got {self.max_input_tokens}")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        # Coerce JSON-decoded lists into the hashable tuple-of-pairs form.
        demos = string_pairs(self.fewshot_demos, "prompt field 'fewshot_demos'")
        object.__setattr__(self, "fewshot_demos", demos)

    def instruction_text(self) -> str:
        if self.knowledge_instruction == "custom":
            return self.custom_instruction
        return INSTRUCTION_TEXTS[self.knowledge_instruction]


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    included_triples: tuple[ScoredTriple, ...]
    truncated: bool


def render_question(template: str, question: str) -> str:
    """Apply the question template; the answer cue is left for the model."""
    if not question:
        raise ValueError("question must be non-empty")
    if template == "default":
        return f"Question: {question} Answer:"
    if template == "please":
        return f"Please answer the following question: {question}"
    raise ConfigError(f"unknown question template {template!r}")


def _display_order(
    triples: Sequence[ScoredTriple], ordering: str, shuffle_seed: int
) -> list[ScoredTriple]:
    if ordering == "relevant_last":
        # Ascending score top-to-bottom: best-scored fact ends up adjacent
        # to the question text. Exact reverse of the ranking.
        return list(reversed(triples))
    if ordering == "relevant_first":
        return list(triples)
    rng = np.random.default_rng(shuffle_seed & 0xFFFFFFFFFFFFFFFF)
    return [triples[index] for index in rng.permutation(len(triples))]


def render_knowledge_block(
    instruction: str,
    triples: Sequence[ScoredTriple],
    ordering: str = "relevant_last",
    shuffle_seed: int = 0,
) -> str:
    """Instruction line plus one verbalized fact per line; "" when empty.

    ``instruction`` is the instruction text, used verbatim
    (``PromptSpec.instruction_text()`` resolves a spec's).
    """
    if not triples:
        return ""
    if ordering not in ORDERINGS:
        raise ConfigError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    lines = [instruction] + [scored.verbalized for scored in _display_order(triples, ordering, shuffle_seed)]
    return "\n".join(lines)


def _assemble(spec: PromptSpec, knowledge_block: str, question: str) -> str:
    lines = [f"{render_question('default', q)} {a}" for q, a in spec.fewshot_demos]
    if knowledge_block:
        lines.append(knowledge_block)
    lines.append(render_question(spec.question_template, question))
    return "\n".join(lines)


def _fit(spec: PromptSpec, question: str, instruction: str, lines: Iterable[str]) -> int:
    """How many leading knowledge lines fit the budget.

    Counts the prompt with no knowledge, then the instruction line, then
    each of ``lines`` in turn, and stops at the first line that goes over
    budget. Exact because the prompt's lines are joined by newlines, so its
    token count is the sum of theirs. Raises PromptTooLongError when even
    the prompt with no knowledge is over budget.
    """
    budget = spec.max_input_tokens
    tokens = whitespace_token_count(_assemble(spec, "", question))
    if tokens > budget:
        raise PromptTooLongError(
            f"prompt is {tokens} tokens with no knowledge left to drop; budget is {budget}"
        )
    tokens += whitespace_token_count(instruction)
    kept = 0
    for line in lines:
        tokens += whitespace_token_count(line)
        if tokens > budget:
            break
        kept += 1
    return kept


def render_prompt(
    spec: PromptSpec,
    ranked_triples: Sequence[ScoredTriple],
    question: str,
) -> RenderedPrompt:
    """Render the full prompt, dropping lowest-scored facts to fit the budget.

    ``ranked_triples`` is the retrieval ranking (best first); what survives
    truncation is always its highest-scored prefix, reported in rank order
    via ``included_triples``. Raises PromptTooLongError when the prompt is
    over budget with no facts left to drop.
    """
    ranked = tuple(ranked_triples)
    instruction = spec.instruction_text()
    count = _fit(spec, question, instruction, (scored.verbalized for scored in ranked))
    kept = ranked[:count]
    block = render_knowledge_block(instruction, kept, spec.ordering, spec.shuffle_seed)
    return RenderedPrompt(_assemble(spec, block, question), kept, count < len(ranked))


def render_prompt_from_lines(
    spec: PromptSpec,
    knowledge_lines: Sequence[str],
    question: str,
) -> tuple[str, list[str], bool]:
    """Like render_prompt, but for caller-supplied knowledge lines.

    Used for model-generated knowledge, where lines carry no scores; over
    budget, trailing lines are dropped first. Returns (text, kept lines,
    truncated flag).
    """
    lines = [line for line in knowledge_lines if line]
    instruction = spec.instruction_text()
    kept = lines[: _fit(spec, question, instruction, lines)]
    block = "\n".join([instruction, *kept]) if kept else ""
    return _assemble(spec, block, question), kept, len(kept) < len(lines)
