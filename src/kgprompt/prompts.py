"""Deterministic prompt rendering: knowledge block + question block.

A prompt is built from up to three parts, joined by single newlines with no
trailing newline: optional few-shot demonstration lines, an optional
knowledge block (instruction line followed by one fact per line), and the
rendered question. When the whole text exceeds the input token budget, the
lowest-scored facts are dropped until it fits: the longest prefix of the
ranking that fits is found by binary search over its length, which assumes
a token counter that never drops when a line is added. Demonstrations are
caller-fixed context and are never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, PromptTooLongError
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

TokenCounter = Callable[[str], int]


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
        object.__setattr__(
            self,
            "fewshot_demos",
            tuple((str(q), str(a)) for q, a in self.fewshot_demos),
        )

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

    ``instruction`` is either a key into INSTRUCTION_TEXTS or literal
    instruction text to use verbatim.
    """
    if not triples:
        return ""
    if ordering not in ORDERINGS:
        raise ConfigError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    text = INSTRUCTION_TEXTS.get(instruction, instruction)
    lines = [text] + [scored.verbalized for scored in _display_order(triples, ordering, shuffle_seed)]
    return "\n".join(lines)


def _assemble(spec: PromptSpec, knowledge_block: str, question: str) -> str:
    lines = [f"{render_question('default', q)} {a}" for q, a in spec.fewshot_demos]
    if knowledge_block:
        lines.append(knowledge_block)
    lines.append(render_question(spec.question_template, question))
    return "\n".join(lines)


def _fit(
    budget: int,
    count: int,
    render: Callable[[int], str],
    token_counter: TokenCounter,
) -> tuple[int, str]:
    """Longest knowledge prefix that fits the budget: (length, prompt text).

    ``render(n)`` is the prompt with the first ``n`` knowledge lines. The
    full prefix is tried first; if it is over budget, the longest fitting
    prefix is found by binary search over ``0..count - 1``, which needs
    O(log count) renders and is exact as long as the token count never drops
    when a line is added. Raises PromptTooLongError when even ``n = 0`` is
    over budget.
    """
    text = render(count)
    tokens = token_counter(text)
    if tokens <= budget:
        return count, text
    best = None
    low, high = 0, count - 1
    while low <= high:
        middle = (low + high) // 2
        text = render(middle)
        tokens = token_counter(text)
        if tokens <= budget:
            best, low = (middle, text), middle + 1
        else:
            high = middle - 1
    if best is None:
        # Every probe failed, so the last one rendered no knowledge at all.
        raise PromptTooLongError(
            f"prompt is {tokens} tokens with no knowledge left to drop; budget is {budget}"
        )
    return best


def render_prompt(
    spec: PromptSpec,
    ranked_triples: Sequence[ScoredTriple],
    question: str,
    token_counter: TokenCounter = whitespace_token_count,
) -> RenderedPrompt:
    """Render the full prompt, dropping lowest-scored facts to fit the budget.

    ``ranked_triples`` is the retrieval ranking (best first); what survives
    truncation is always its highest-scored prefix, reported in rank order
    via ``included_triples``. Raises PromptTooLongError when the prompt is
    over budget with no facts left to drop.
    """
    ranked = tuple(ranked_triples)

    def render(count: int) -> str:
        block = render_knowledge_block(
            spec.instruction_text(), ranked[:count], spec.ordering, spec.shuffle_seed
        )
        return _assemble(spec, block, question)

    count, text = _fit(spec.max_input_tokens, len(ranked), render, token_counter)
    return RenderedPrompt(text, ranked[:count], count < len(ranked))


def render_prompt_from_lines(
    spec: PromptSpec,
    knowledge_lines: Sequence[str],
    question: str,
    token_counter: TokenCounter = whitespace_token_count,
) -> tuple[str, list[str], bool]:
    """Like render_prompt, but for caller-supplied knowledge lines.

    Used for model-generated knowledge, where lines carry no scores; over
    budget, trailing lines are dropped first. Returns (text, kept lines,
    truncated flag).
    """
    lines = [line for line in knowledge_lines if line]

    def render(count: int) -> str:
        block = "\n".join([spec.instruction_text()] + lines[:count]) if count else ""
        return _assemble(spec, block, question)

    count, text = _fit(spec.max_input_tokens, len(lines), render, token_counter)
    return text, lines[:count], count < len(lines)
