"""Linear triple verbalization: (subject, relation, object) as one string."""

from __future__ import annotations

import logging
from typing import NamedTuple

from .kg import EntityRef, KnowledgeGraph, Triple

logger = logging.getLogger(__name__)


class VerbalizedTriple(NamedTuple):
    """A triple's text and the three part texts it joins."""

    text: str
    subject: str
    relation: str
    object: str


def _entity_text(graph: KnowledgeGraph, entity_id: str) -> str:
    name = graph.entities[entity_id].name
    if name is None:
        logger.warning("entity %s has no name; rendering raw id", entity_id)
        return entity_id
    return name


def verbalize(triple: Triple, graph: KnowledgeGraph) -> VerbalizedTriple:
    """Render a triple as ``(<subject>, <relation>, <object>)``.

    Entity references render their canonical name (raw id when unnamed);
    plain literals render their value as-is; time and quantity literals get
    a ``time: `` / ``quantity: `` prefix inside the object part. ``subject``,
    ``relation`` and ``object`` hold the three part texts. The joiners
    ``(``, ``, `` and ``)`` are token separators that are neither cased nor
    case-ignorable, so the tokens of ``text`` are the tokens of each part in
    turn, each part lowercased on its own (final sigma included): hashed
    bucket counts of ``text`` are the sums of its parts' counts. Pure
    function of its inputs.
    """
    subject = _entity_text(graph, triple.subject)
    relation = graph.relations[triple.relation].name
    obj = triple.object
    if isinstance(obj, EntityRef):
        object_text = _entity_text(graph, obj.entity_id)
    elif obj.datatype == "plain":
        object_text = obj.value
    else:
        object_text = f"{obj.datatype}: {obj.value}"
    return VerbalizedTriple(f"({subject}, {relation}, {object_text})", subject, relation, object_text)
