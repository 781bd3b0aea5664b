"""Text normalization shared by entity linking, embedding, and scoring."""

from __future__ import annotations

import re

# Any run of characters that is neither a letter nor a digit (unicode-aware;
# underscore counts as a separator too).
_SEPARATORS = re.compile(r"[\W_]+", re.UNICODE)


def normalize_tokens(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs, dropping empty pieces."""
    return [tok for tok in _SEPARATORS.split(text.lower()) if tok]


def normalize_text(text: str) -> str:
    """Lowercase, map non-alphanumeric characters to spaces, collapse, trim."""
    return " ".join(normalize_tokens(text))


def whitespace_token_count(text: str) -> int:
    """Whitespace-delimited word count; every prompt budget is counted by it.

    The count is additive over newline joins: the count of
    ``"\n".join(lines)`` is the sum of the counts of ``lines``, because a
    whitespace separator never joins two tokens.
    """
    return len(text.split())
