import dataclasses
import math
import random

import pytest

from oracles import oracle_truncate

from kgprompt.embed import EmbedderConfig
from kgprompt.errors import ConfigError, PromptTooLongError
from kgprompt.kg import Literal, Triple
from kgprompt.prompts import (
    INSTRUCTION_TEXTS,
    ORDERINGS,
    PromptSpec,
    render_knowledge_block,
    render_prompt,
    render_prompt_from_lines,
    render_question,
)
from kgprompt.retrieve import ScoredTriple, Similarity, rank_candidates
from kgprompt.text import whitespace_token_count


def make_scored(texts_scores):
    """ScoredTriples from (text, score) pairs, ranked best-first."""
    return [
        ScoredTriple(Triple("S", "r", Literal(str(i))), text, float(score), i + 1)
        for i, (text, score) in enumerate(texts_scores)
    ]


class TestRenderQuestion:
    def test_default_template(self):
        assert (
            render_question("default", "Where did Alex Chilton die?")
            == "Question: Where did Alex Chilton die? Answer:"
        )

    def test_please_template(self):
        assert (
            render_question("please", "Who is the author of Lady Susan?")
            == "Please answer the following question: Who is the author of Lady Susan?"
        )

    def test_bare_substitution(self):
        assert render_question("default", "x") == "Question: x Answer:"

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            render_question("default", "")


class TestKnowledgeBlock:
    def test_relevant_last_puts_best_adjacent_to_question(self, alex_graph):
        ranked = rank_candidates(
            Similarity(EmbedderConfig()),
            "Where did Alex Chilton die?",
            alex_graph.triples,
            alex_graph,
        )
        block = render_knowledge_block("meaningful", ranked, "relevant_last")
        lines = block.split("\n")
        assert lines[0] == INSTRUCTION_TEXTS["meaningful"]
        assert lines[-1] == "(Alex Chilton, place of death, New Orleans)"

    def test_empty_triples_renders_empty_string(self):
        assert render_knowledge_block("meaningful", [], "relevant_last") == ""

    def test_relevant_first_is_exact_reverse(self):
        ranked = make_scored([("t-best", 3), ("t-mid", 2), ("t-worst", 1)])
        first = render_knowledge_block("meaningful", ranked, "relevant_first").split("\n")[1:]
        last = render_knowledge_block("meaningful", ranked, "relevant_last").split("\n")[1:]
        assert first == list(reversed(last))
        assert first == ["t-best", "t-mid", "t-worst"]

    def test_might_be_instruction_text(self):
        ranked = make_scored([("t", 1)])
        block = render_knowledge_block("might_be", ranked, "relevant_first")
        assert block.split("\n")[0] == (
            "Below are facts in the form of the triple that might be meaningful"
            " to answer the question."
        )

    def test_custom_instruction_passthrough(self):
        ranked = make_scored([("t", 1)])
        block = render_knowledge_block("Here are some facts:", ranked, "relevant_first")
        assert block.split("\n")[0] == "Here are some facts:"

    def test_shuffled_is_seed_deterministic(self):
        ranked = make_scored([(f"t{i}", 10 - i) for i in range(8)])
        one = render_knowledge_block("meaningful", ranked, "shuffled", shuffle_seed=5)
        two = render_knowledge_block("meaningful", ranked, "shuffled", shuffle_seed=5)
        other = render_knowledge_block("meaningful", ranked, "shuffled", shuffle_seed=6)
        assert one == two
        assert sorted(one.split("\n")) == sorted(other.split("\n"))


class TestRenderPrompt:
    def test_degenerate_is_question_only(self):
        spec = PromptSpec()
        rendered = render_prompt(spec, [], "Where did Alex Chilton die?")
        assert rendered.text == "Question: Where did Alex Chilton die? Answer:"
        assert rendered.included_triples == ()
        assert rendered.truncated is False

    def test_byte_identical_reruns(self):
        spec = PromptSpec(fewshot_demos=(("who?", "Jane"),))
        ranked = make_scored([("(a, b, c)", 2), ("(d, e, f)", 1)])
        assert render_prompt(spec, ranked, "x").text == render_prompt(spec, ranked, "x").text

    def test_truncation_keeps_highest_scored_prefix(self):
        # instruction = 14 tokens, each fact 3 tokens, question "Question: q Answer:" = 3.
        ranked = make_scored([(f"(s{i}, r, o{i})", 10 - i) for i in range(30)])
        spec = PromptSpec(max_input_tokens=23)
        rendered = render_prompt(spec, ranked, "q")
        # 14 + 3n + 3 <= 23  =>  n <= 2
        assert rendered.included_triples == tuple(ranked[:2])
        assert rendered.truncated is True

    def test_budget_monotonicity(self):
        rng = random.Random(17)
        for _ in range(30):
            count = rng.randint(0, 12)
            ranked = make_scored([(f"(e{i}, r, o{i})", count - i) for i in range(count)])
            small = rng.randint(4, 40)
            large = rng.randint(small, 60)
            question = "q"
            try:
                at_small = render_prompt(
                    PromptSpec(max_input_tokens=small), ranked, question
                ).included_triples
            except PromptTooLongError:
                continue
            at_large = render_prompt(
                PromptSpec(max_input_tokens=large), ranked, question
            ).included_triples
            assert set(at_small) <= set(at_large)
            assert at_small == tuple(ranked[: len(at_small)])
            assert at_large == tuple(ranked[: len(at_large)])

    def test_demos_survive_truncation(self):
        spec = PromptSpec(
            fewshot_demos=(("who wrote it?", "Jane Austen"),), max_input_tokens=10
        )
        ranked = make_scored([("(a, b, c)", 1)])
        # demo = 7 tokens, question = 3: exactly 10 once every fact is dropped
        rendered = render_prompt(spec, ranked, "q")
        assert rendered.included_triples == ()
        assert rendered.truncated is True
        assert rendered.text.startswith("Question: who wrote it? Answer: Jane Austen\n")

    def test_oversize_without_knowledge_raises(self):
        with pytest.raises(PromptTooLongError):
            render_prompt(PromptSpec(max_input_tokens=2), [], "what is this question")

    def test_demos_render_before_knowledge(self):
        spec = PromptSpec(fewshot_demos=(("q1?", "a1"), ("q2?", "a2")))
        ranked = make_scored([("(s, r, o)", 1)])
        lines = render_prompt(spec, ranked, "final?").text.split("\n")
        assert lines[0] == "Question: q1? Answer: a1"
        assert lines[1] == "Question: q2? Answer: a2"
        assert lines[2] == INSTRUCTION_TEXTS["meaningful"]
        assert lines[-1] == "Question: final? Answer:"

    def test_included_verbatim_exactly_once(self):
        spec = PromptSpec()
        ranked = make_scored([(f"(fact{i}, rel, obj{i})", 5 - i) for i in range(5)])
        rendered = render_prompt(spec, ranked, "q")
        for scored in rendered.included_triples:
            assert rendered.text.count(scored.verbalized) == 1


class TestRenderPromptFromLines:
    def test_lines_path_matches_layout(self):
        spec = PromptSpec()
        text, kept, truncated = render_prompt_from_lines(
            spec, ["fact one", "fact two"], "q?"
        )
        lines = text.split("\n")
        assert lines[0] == INSTRUCTION_TEXTS["meaningful"]
        assert lines[1:3] == ["fact one", "fact two"]
        assert lines[-1] == "Question: q? Answer:"
        assert kept == ["fact one", "fact two"]
        assert truncated is False

    def test_empty_lines_give_question_only(self):
        text, kept, truncated = render_prompt_from_lines(PromptSpec(), [], "q?")
        assert text == "Question: q? Answer:"
        assert kept == []

    def test_trailing_lines_dropped_on_budget(self):
        spec = PromptSpec(max_input_tokens=19)
        # 14 instruction + 1 per fact + 3 question => keeps 2 of 4
        text, kept, truncated = render_prompt_from_lines(
            spec, ["one", "two", "three", "four"], "q?"
        )
        assert kept == ["one", "two"]
        assert truncated is True


UNLIMITED = 10**9
WORDS = ["alex", "chilton", "died", "in", "new", "orleans", "born", "memphis", "(x,", "y)"]


def char_count(text: str) -> int:
    return len(text)


def random_case(rng: random.Random):
    """A spec with a random budget, ordering and demos, lines, and a question."""
    spec = PromptSpec(
        ordering=rng.choice(ORDERINGS),
        shuffle_seed=rng.randint(0, 99),
        fewshot_demos=tuple(
            (" ".join(rng.choices(WORDS, k=2)) + "?", rng.choice(WORDS)) for _ in range(rng.randint(0, 2))
        ),
        max_input_tokens=rng.randint(1, 80),
    )
    lines = [" ".join(rng.choices(WORDS, k=rng.randint(1, 6))) for _ in range(rng.randint(0, 20))]
    question = " ".join(rng.choices(WORDS, k=rng.randint(1, 4)))
    return spec, lines, question


class TestBinarySearchTruncation:
    """The longest fitting prefix equals the drop-one reference's."""

    @pytest.mark.parametrize("token_counter", [whitespace_token_count, char_count])
    def test_render_prompt_matches_drop_one(self, token_counter):
        rng = random.Random(97)
        for _ in range(400):
            spec, lines, question = random_case(rng)
            if token_counter is char_count:
                spec = dataclasses.replace(spec, max_input_tokens=spec.max_input_tokens * 8)
            ranked = make_scored([(line, len(lines) - i) for i, line in enumerate(lines)])
            unlimited = dataclasses.replace(spec, max_input_tokens=UNLIMITED)

            def render(count):
                return render_prompt(unlimited, ranked[:count], question, token_counter).text

            count, expected = oracle_truncate(render, len(ranked), spec.max_input_tokens, token_counter)
            if count is None:
                with pytest.raises(PromptTooLongError) as error:
                    render_prompt(spec, ranked, question, token_counter)
                assert str(error.value) == (
                    f"prompt is {expected} tokens with no knowledge left to drop;"
                    f" budget is {spec.max_input_tokens}"
                )
                continue
            rendered = render_prompt(spec, ranked, question, token_counter)
            assert rendered.text == expected
            assert rendered.included_triples == tuple(ranked[:count])
            assert rendered.truncated is (count < len(ranked))

    @pytest.mark.parametrize("token_counter", [whitespace_token_count, char_count])
    def test_render_prompt_from_lines_matches_drop_one(self, token_counter):
        rng = random.Random(98)
        for _ in range(400):
            spec, lines, question = random_case(rng)
            if token_counter is char_count:
                spec = dataclasses.replace(spec, max_input_tokens=spec.max_input_tokens * 8)
            offered = [line if rng.random() < 0.8 else "" for line in lines]
            kept_lines = [line for line in offered if line]
            unlimited = dataclasses.replace(spec, max_input_tokens=UNLIMITED)

            def render(count):
                return render_prompt_from_lines(unlimited, kept_lines[:count], question, token_counter)[0]

            count, expected = oracle_truncate(render, len(kept_lines), spec.max_input_tokens, token_counter)
            if count is None:
                with pytest.raises(PromptTooLongError) as error:
                    render_prompt_from_lines(spec, offered, question, token_counter)
                assert str(error.value) == (
                    f"prompt is {expected} tokens with no knowledge left to drop;"
                    f" budget is {spec.max_input_tokens}"
                )
                continue
            text, kept, truncated = render_prompt_from_lines(spec, offered, question, token_counter)
            assert text == expected
            assert kept == kept_lines[:count]
            assert truncated is (count < len(kept_lines))

    @pytest.mark.parametrize("count", [1, 2, 7, 100, 1000])
    def test_logarithmic_number_of_renders(self, count):
        ranked = make_scored([(f"(s{i}, r, o{i})", count - i) for i in range(count)])
        rng = random.Random(count)
        for _ in range(20):
            calls = []

            def counter(text):
                calls.append(text)
                return whitespace_token_count(text)

            budget = rng.randint(17, 17 + 3 * count)
            render_prompt(PromptSpec(max_input_tokens=budget), ranked, "q", counter)
            # the full prefix, then a binary search over 0..count-1
            assert len(calls) <= 1 + math.ceil(math.log2(count + 1))


class TestPromptSpecValidation:
    def test_bad_template(self):
        with pytest.raises(ConfigError):
            PromptSpec(question_template="fancy")

    def test_bad_ordering(self):
        with pytest.raises(ConfigError):
            PromptSpec(ordering="sideways")

    def test_custom_requires_text(self):
        with pytest.raises(ConfigError):
            PromptSpec(knowledge_instruction="custom")

    def test_custom_with_text_ok(self):
        spec = PromptSpec(knowledge_instruction="custom", custom_instruction="Facts:")
        assert spec.instruction_text() == "Facts:"

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigError):
            PromptSpec(max_input_tokens=0)

    def test_demos_coerced_from_lists(self):
        spec = PromptSpec(fewshot_demos=[["q", "a"]])
        assert spec.fewshot_demos == (("q", "a"),)
