"""Knowledge-graph store: TSV loading, neighborhoods, and entity linking.

File formats
------------
triples TSV   one triple per line, ``subject_id <TAB> relation_id <TAB> object``
              where object is ``E:<entity_id>`` for an entity reference or
              ``L:<datatype>:<value>`` for a literal (datatype one of
              plain/time/quantity). ``#``-prefixed lines are comments.
entities TSV  ``entity_id <TAB> canonical_name <TAB> alias1|alias2|...``
              (aliases optional; an empty name field marks an unnamed entity).
relations TSV ``relation_id <TAB> relation_name``; optional, picked up as
              ``relations.tsv`` next to the entities file when not given.

``Triple``, ``EntityRef`` and ``Literal`` are named tuples, so hashing and
comparing them runs in C; tell object kinds apart with ``isinstance``.
Loading parses each distinct object token once and shares the parsed term
between the triples that use it, and interns ids: every subject, relation
and entity-valued object of a loaded triple is the very string object that
keys ``graph.entities`` or ``graph.relations``.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Union

from .errors import GraphLoadError
from .text import normalize_tokens

logger = logging.getLogger(__name__)

EntityId = str
RelationId = str

LITERAL_DATATYPES = ("plain", "time", "quantity")


@dataclass(frozen=True)
class Entity:
    """A graph node: opaque id, optional canonical name, alternative names."""

    id: EntityId
    name: str | None = None
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class Relation:
    id: RelationId
    name: str


class EntityRef(NamedTuple):
    """Triple object pointing at another entity."""

    entity_id: EntityId


class Literal(NamedTuple):
    """Triple object holding a typed literal value."""

    value: str
    datatype: str = "plain"


ObjectTerm = Union[EntityRef, Literal]


class Triple(NamedTuple):
    subject: EntityId
    relation: RelationId
    object: ObjectTerm

    def object_entity_id(self) -> EntityId | None:
        """The object's entity id, or None for literal objects."""
        obj = self.object
        return obj.entity_id if isinstance(obj, EntityRef) else None


@dataclass(frozen=True)
class SurfaceIndex:
    """Normalized surface forms of a graph's entity names and aliases.

    ``entries`` maps a surface's normalized tokens, joined by single spaces,
    to its entity id; a key shared by several surfaces maps to the tuple of
    their ids in ``graph.entities`` order, one per surface. ``widths`` lists
    the distinct surface token counts, longest first.
    """

    entries: dict[str, EntityId | tuple[EntityId, ...]]
    widths: tuple[int, ...]


@dataclass
class KnowledgeGraph:
    """Immutable-after-build triple store with an incidence index.

    ``triples`` keeps ingestion order, which is the tie-break and output
    order everywhere else in the pipeline. ``adjacency`` maps an entity id
    to the ascending indices of triples it is incident to, whether as
    subject or as entity-valued object; a self-loop is listed once.

    ``surface_index`` and ``relation_counts`` are derived views, each built
    once on first use; they assume the graph is not mutated after
    ``build_graph``.
    """

    entities: dict[EntityId, Entity] = field(default_factory=dict)
    relations: dict[RelationId, Relation] = field(default_factory=dict)
    triples: list[Triple] = field(default_factory=list)
    adjacency: dict[EntityId, list[int]] = field(default_factory=dict)

    def entity_name(self, entity_id: EntityId) -> str | None:
        entity = self.entities.get(entity_id)
        return entity.name if entity is not None else None

    @cached_property
    def surface_index(self) -> SurfaceIndex:
        entries: dict[str, EntityId | tuple[EntityId, ...]] = {}
        widths: set[int] = set()
        for entity in self.entities.values():
            for surface in (entity.name, *entity.aliases):
                tokens = normalize_tokens(surface) if surface else []
                if not tokens:
                    continue
                key = " ".join(tokens)
                widths.add(len(tokens))
                present = entries.get(key)
                if present is None:
                    entries[key] = entity.id
                elif isinstance(present, tuple):
                    entries[key] = (*present, entity.id)
                else:
                    entries[key] = (present, entity.id)
        return SurfaceIndex(entries, tuple(sorted(widths, reverse=True)))

    @cached_property
    def relation_counts(self) -> Counter[RelationId]:
        return Counter(triple.relation for triple in self.triples)


def build_graph(
    entities: Iterable[Entity],
    relations: Iterable[Relation],
    triples: Iterable[Triple],
) -> KnowledgeGraph:
    """Assemble a validated graph from already-parsed parts.

    Exact duplicate triples are dropped (first occurrence wins). Relations
    referenced by triples but not declared get their id as a display name.
    Raises GraphLoadError on duplicate entity/relation ids or on triples
    referencing unknown entities.
    """
    graph = KnowledgeGraph()
    for entity in entities:
        if entity.id in graph.entities:
            raise GraphLoadError(f"duplicate entity id: {entity.id}")
        graph.entities[entity.id] = entity
    for relation in relations:
        if relation.id in graph.relations:
            raise GraphLoadError(f"duplicate relation id: {relation.id}")
        graph.relations[relation.id] = relation

    entities_by_id, relations_by_id, adjacency = graph.entities, graph.relations, graph.adjacency
    seen: set[Triple] = set()
    for triple in triples:
        if triple in seen:
            continue
        seen.add(triple)
        subject, relation, obj = triple
        if subject not in entities_by_id:
            raise GraphLoadError(f"triple references unknown subject entity: {subject}")
        object_id = obj.entity_id if isinstance(obj, EntityRef) else None
        if object_id is not None and object_id not in entities_by_id:
            raise GraphLoadError(f"triple references unknown object entity: {object_id}")
        if relation not in relations_by_id:
            relations_by_id[relation] = Relation(relation, relation)
        index = len(graph.triples)
        graph.triples.append(triple)
        indices = adjacency.get(subject)
        if indices is None:
            adjacency[subject] = [index]
        else:
            indices.append(index)
        if object_id is not None and object_id != subject:
            indices = adjacency.get(object_id)
            if indices is None:
                adjacency[object_id] = [index]
            else:
                indices.append(index)
    return graph


def _data_lines(path: Path):
    """Yield (line_number, line) for each data line, skipping blanks and # comments.

    ``line`` is the raw line without its line ending; columns are stripped by
    the callers.
    """
    with path.open("r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            stripped = raw.strip()
            if not stripped or stripped[0] == "#":
                continue
            yield number, raw.rstrip("\n").rstrip("\r")


def _parse_object(token: str, path: Path, line_number: int, ids: dict[str, str]) -> ObjectTerm:
    if token.startswith("E:"):
        entity_id = token[2:]
        if not entity_id:
            raise GraphLoadError(f"{path}:{line_number}: empty entity id in object")
        return EntityRef(ids.setdefault(entity_id, entity_id))
    if token.startswith("L:"):
        parts = token.split(":", 2)
        if len(parts) != 3:
            raise GraphLoadError(
                f"{path}:{line_number}: literal object must be L:<datatype>:<value>"
            )
        _, datatype, value = parts
        if datatype not in LITERAL_DATATYPES:
            raise GraphLoadError(
                f"{path}:{line_number}: unknown literal datatype {datatype!r}"
                f" (expected one of {', '.join(LITERAL_DATATYPES)})"
            )
        if not value:
            raise GraphLoadError(f"{path}:{line_number}: empty literal value")
        return Literal(value, datatype)
    raise GraphLoadError(
        f"{path}:{line_number}: object must start with 'E:' or 'L:', got {token!r}"
    )


def _load_entities(path: Path) -> list[Entity]:
    entities = []
    for number, line in _data_lines(path):
        columns = line.split("\t")
        if len(columns) not in (2, 3):
            raise GraphLoadError(
                f"{path}:{number}: expected 2 or 3 tab-separated columns, got {len(columns)}"
            )
        entity_id = columns[0].strip()
        if not entity_id:
            raise GraphLoadError(f"{path}:{number}: empty entity id")
        name = columns[1].strip() or None
        aliases: list[str] = []
        if len(columns) == 3:
            for alias in columns[2].split("|"):
                alias = alias.strip()
                if alias and alias != name and alias not in aliases:
                    aliases.append(alias)
        entities.append(Entity(entity_id, name, tuple(aliases)))
    return entities


def _load_relations(path: Path) -> list[Relation]:
    relations = []
    for number, line in _data_lines(path):
        columns = line.split("\t")
        if len(columns) != 2:
            raise GraphLoadError(
                f"{path}:{number}: expected 2 tab-separated columns, got {len(columns)}"
            )
        relation_id, name = columns[0].strip(), columns[1].strip()
        if not relation_id or not name:
            raise GraphLoadError(f"{path}:{number}: empty relation id or name")
        relations.append(Relation(relation_id, name))
    return relations


def _load_triples(path: Path, ids: dict[str, str]) -> list[Triple]:
    """Parse a triples file, interning every id through ``ids``.

    ``ids`` maps an id to the one string object all triples share for it;
    ids not in it yet (unknown entities, undeclared relations) are added.
    """
    triples = []
    # Raw object token -> its parsed term, so each distinct token is parsed
    # (and allocated) once; its first occurrence is the line errors name.
    objects: dict[str, ObjectTerm] = {}
    for number, line in _data_lines(path):
        columns = line.split("\t")
        if len(columns) != 3:
            raise GraphLoadError(
                f"{path}:{number}: expected 3 tab-separated columns, got {len(columns)}"
            )
        subject, relation, object_token = columns
        subject = subject.strip()
        relation = relation.strip()
        if not subject or not relation:
            raise GraphLoadError(f"{path}:{number}: empty subject or relation id")
        term = objects.get(object_token)
        if term is None:
            term = objects[object_token] = _parse_object(object_token.strip(), path, number, ids)
        triples.append(
            Triple(ids.setdefault(subject, subject), ids.setdefault(relation, relation), term)
        )
    return triples


def load_graph(
    triples_path: str | Path,
    entities_path: str | Path,
    relations_path: str | Path | None = None,
) -> KnowledgeGraph:
    """Load and validate a knowledge graph from TSV files.

    When ``relations_path`` is not given, a ``relations.tsv`` sitting next to
    the entities file is used if present; relation ids without a declared
    name fall back to the id itself.
    """
    triples_path = Path(triples_path)
    entities_path = Path(entities_path)
    if relations_path is None:
        candidate = entities_path.parent / "relations.tsv"
        relations_path = candidate if candidate.is_file() else None
    relations = _load_relations(Path(relations_path)) if relations_path else []
    entities = _load_entities(entities_path)
    # One string object per id, shared by the triples and the graph's keys.
    ids = {entity.id: entity.id for entity in entities}
    for relation in relations:
        ids.setdefault(relation.id, relation.id)
    return build_graph(entities, relations, _load_triples(triples_path, ids))


def neighborhood(
    graph: KnowledgeGraph, seeds: Iterable[EntityId], hops: int = 1
) -> list[Triple]:
    """Triples within ``hops`` of any seed entity, in ingestion order.

    1 hop collects every triple incident to a seed (subject or object side);
    2 hops additionally collects triples incident to any entity appearing in
    the 1-hop set. Literal objects have no adjacency and are never expanded.
    Seeds missing from the graph are logged and skipped.
    """
    if hops not in (1, 2):
        raise ValueError(f"hops must be 1 or 2, got {hops}")
    present = []
    for seed in sorted(set(seeds)):
        if seed in graph.entities:
            present.append(seed)
        else:
            logger.warning("seed entity %s not in graph; skipping", seed)

    indices: set[int] = set()
    for seed in present:
        indices.update(graph.adjacency.get(seed, ()))
    if hops == 2:
        frontier: set[EntityId] = set()
        for index in indices:
            triple = graph.triples[index]
            frontier.add(triple.subject)
            object_id = triple.object_entity_id()
            if object_id is not None:
                frontier.add(object_id)
        for entity_id in frontier:
            indices.update(graph.adjacency.get(entity_id, ()))
    return [graph.triples[index] for index in sorted(indices)]


def relation_frequency(graph: KnowledgeGraph) -> dict[RelationId, int]:
    """Number of triples per relation over the whole graph (a fresh copy)."""
    return dict(graph.relation_counts)


def link_entities(graph: KnowledgeGraph, question: str) -> set[EntityId]:
    """Exact surface-form entity linking over normalized tokens.

    Matches every entity whose canonical name or alias occurs as a contiguous
    token sequence in the normalized question, longest match first, by
    looking each question n-gram up in ``graph.surface_index``. Shorter
    matches nested inside an already-accepted longer match are suppressed
    ("York" inside an accepted "New York").
    """
    question_tokens = normalize_tokens(question)
    if not question_tokens:
        return set()

    index = graph.surface_index
    occurrences: list[tuple[int, int, int, EntityId]] = []  # (length, start, end, id)
    for width in index.widths:
        for start in range(len(question_tokens) - width + 1):
            ids = index.entries.get(" ".join(question_tokens[start : start + width]))
            if ids is None:
                continue
            for entity_id in (ids,) if isinstance(ids, str) else ids:
                occurrences.append((width, start, start + width, entity_id))

    occurrences.sort(key=lambda item: (-item[0], item[1], item[3]))
    accepted_spans: list[tuple[int, int]] = []
    linked: set[EntityId] = set()
    for width, start, end, entity_id in occurrences:
        nested = any(
            span_start <= start and end <= span_end and width < span_end - span_start
            for span_start, span_end in accepted_spans
        )
        if nested:
            continue
        accepted_spans.append((start, end))
        linked.add(entity_id)
    return linked
