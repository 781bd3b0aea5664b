"""Knowledge-graph fact retrieval, prompt injection, and QA scoring."""

from .embed import EmbedderConfig, embed_batch, fnv1a_64, hashed_bow_vector
from .errors import ConfigError, GraphLoadError, PromptTooLongError, RemoteServiceError
from .kg import (
    Entity,
    EntityRef,
    KnowledgeGraph,
    Literal,
    Relation,
    Triple,
    build_graph,
    link_entities,
    load_graph,
    neighborhood,
    relation_frequency,
)
from .llm import CompletionRequest, ProviderConfig, build_client
from .metrics import (
    AnswerEntity,
    AnswerSet,
    GenScores,
    RetrievalScores,
    aggregate,
    score_generation,
    score_retrieval,
)
from .pipeline import (
    QaExample,
    RunConfig,
    config_from_dict,
    filter_unnamed,
    load_config,
    load_dataset,
    run,
    run_example,
)
from .prompts import (
    PromptSpec,
    RenderedPrompt,
    render_knowledge_block,
    render_prompt,
    render_question,
)
from .retrieve import (
    Popular,
    Random,
    ScoredTriple,
    Similarity,
    answer_bearing,
    rank_candidates,
    top_k,
)
from .text import normalize_text, whitespace_token_count
from .verbalize import VerbalizedTriple, verbalize

__version__ = "0.1.0"

__all__ = [
    "AnswerEntity",
    "AnswerSet",
    "CompletionRequest",
    "ConfigError",
    "EmbedderConfig",
    "Entity",
    "EntityRef",
    "GenScores",
    "GraphLoadError",
    "KnowledgeGraph",
    "Literal",
    "Popular",
    "PromptSpec",
    "PromptTooLongError",
    "ProviderConfig",
    "QaExample",
    "Random",
    "Relation",
    "RemoteServiceError",
    "RenderedPrompt",
    "RetrievalScores",
    "RunConfig",
    "ScoredTriple",
    "Similarity",
    "Triple",
    "VerbalizedTriple",
    "aggregate",
    "answer_bearing",
    "build_client",
    "build_graph",
    "config_from_dict",
    "embed_batch",
    "filter_unnamed",
    "fnv1a_64",
    "hashed_bow_vector",
    "link_entities",
    "load_config",
    "load_dataset",
    "load_graph",
    "neighborhood",
    "normalize_text",
    "rank_candidates",
    "relation_frequency",
    "render_knowledge_block",
    "render_prompt",
    "render_question",
    "run",
    "run_example",
    "score_generation",
    "score_retrieval",
    "top_k",
    "verbalize",
    "whitespace_token_count",
]
