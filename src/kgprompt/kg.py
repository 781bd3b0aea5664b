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

``Triple``, ``EntityRef``, ``Literal``, ``Entity`` and ``Relation`` are named
tuples, so building, hashing and comparing them runs in C (and each compares
equal to the plain tuple of its fields); tell object kinds apart with
``isinstance``.

Storage
-------
A graph keeps its triples as integer-coded columns, not as ``Triple``
objects. Every entity id and relation id has a code: its position in
``entity_ids`` or ``relation_ids``, which list the keys of
``graph.entities`` and ``graph.relations`` (declared ones in file order,
then undeclared relations in order of first use). Every distinct object
term, compared by value, has a code into ``terms``; ``term_entities`` gives
its entity code, or -1 for a literal. The int32 columns ``subjects``,
``predicates`` and ``objects`` hold one row per distinct triple in
ingestion order, and the CSR pair ``offsets``/``incident`` lists each
entity's incident rows in ascending order. ``neighborhood`` returns a
``Neighborhood``, a ``RowView`` sequence over rows that makes a ``Triple``
only when an element is read; ``part_texts`` holds the text of every part by
code (from ``entity_text`` and ``literal_text``, as ``verbalize`` renders
them), so ranking reads a row's texts without any ``Triple``.
``graph.triples`` is a derived view built on first access.

Ids and object terms are coded by one kind of table, ``_Codes``, in
first-seen order. Loading parses each distinct object token once and interns
ids as it parses; ``build_graph`` remakes a caller's entity reference around
the interned id. So every subject, relation and entity-valued object of a
triple the graph returns is the very string object that keys
``graph.entities`` or ``graph.relations``.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import GraphLoadError
from .text import normalize_tokens

logger = logging.getLogger(__name__)

EntityId = str
RelationId = str

LITERAL_DATATYPES = ("plain", "time", "quantity")


class Entity(NamedTuple):
    """A graph node: opaque id, optional canonical name, alternative names."""

    id: EntityId
    name: str | None = None
    aliases: tuple[str, ...] = ()


class Relation(NamedTuple):
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


def entity_text(entity: Entity) -> str:
    """An entity's text: its canonical name, or its raw id when it is unnamed."""
    return entity.id if entity.name is None else entity.name


def literal_text(literal: Literal) -> str:
    """A literal's object text: the value, after ``time: `` or ``quantity: ``."""
    if literal.datatype == "plain":
        return literal.value
    return f"{literal.datatype}: {literal.value}"


class PartTexts(NamedTuple):
    """The text of each triple part by code, as object arrays.

    ``entities`` holds each entity's ``entity_text``, ``relations`` each
    relation's name, and ``terms`` each object term's text: its entity's
    text, or its ``literal_text``.
    """

    entities: np.ndarray
    relations: np.ndarray
    terms: np.ndarray


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


@dataclass(eq=False)
class KnowledgeGraph:
    """Immutable-after-build columnar triple store with a CSR incidence index.

    Row order is ingestion order, which is the tie-break and output order
    everywhere else in the pipeline. ``entity_codes`` maps an entity id to
    its code. Entity ``c``'s incident rows, whether it is their subject or
    their entity-valued object, are ``incident[offsets[c]:offsets[c + 1]]``;
    a self-loop is listed once. Build graphs with ``build_graph`` or
    ``load_graph``.

    ``triples`` (a ``Triple`` per row), ``part_texts``,
    ``surface_index`` and ``relation_counts`` are derived views, each built
    once on first access; the pipeline reads only the last three. They
    assume the graph is not mutated after it is built, and changing a view
    does not change the graph. Two graphs are equal when their entities,
    relations and triples are.
    """

    entities: dict[EntityId, Entity]
    relations: dict[RelationId, Relation]
    entity_ids: np.ndarray
    relation_ids: np.ndarray
    entity_codes: dict[EntityId, int]
    terms: np.ndarray
    term_entities: np.ndarray
    subjects: np.ndarray
    predicates: np.ndarray
    objects: np.ndarray
    offsets: np.ndarray
    incident: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.entities == other.entities
            and self.relations == other.relations
            and self.triples_at(slice(None)) == other.triples_at(slice(None))
        )

    def triples_at(self, rows) -> list[Triple]:
        """The triples of ``rows`` (an index array or a slice), in that order."""
        subjects = self.entity_ids[self.subjects[rows]].tolist()
        relations = self.relation_ids[self.predicates[rows]].tolist()
        objects = self.terms[self.objects[rows]].tolist()
        return list(map(Triple._make, zip(subjects, relations, objects)))

    def rows(self, triples: Sequence[Triple]) -> np.ndarray:
        """The row of each of ``triples`` in turn; KeyError for one not in the graph.

        A ``Neighborhood`` of this graph gives its rows as they are; any
        other sequence is looked up in a triple-to-row index, built (with
        ``triples``) on first use.
        """
        if isinstance(triples, Neighborhood) and triples.graph is self:
            return triples.rows
        index = self._row_index
        return np.array([index[triple] for triple in triples], dtype=np.int64)

    @cached_property
    def _row_index(self) -> dict[Triple, int]:
        return {triple: row for row, triple in enumerate(self.triples)}

    @cached_property
    def triples(self) -> list[Triple]:
        return self.triples_at(slice(None))

    @cached_property
    def part_texts(self) -> PartTexts:
        entities = _objects([entity_text(entity) for entity in self.entities.values()])
        relations = _objects([self.relations[relation_id].name for relation_id in self.relation_ids])
        # A literal's entity code -1 picks a placeholder, replaced below.
        terms = entities[self.term_entities]
        literals = np.flatnonzero(self.term_entities < 0)
        terms[literals] = _objects([literal_text(term) for term in self.terms[literals].tolist()])
        return PartTexts(entities, relations, terms)

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
        counts = np.bincount(self.predicates, minlength=len(self.relation_ids)).tolist()
        return Counter(
            {relation_id: count for relation_id, count in zip(self.relation_ids, counts) if count}
        )


class RowView(Sequence):
    """A sequence over ``graph``'s ``rows`` whose elements are made only when read.

    Reading a slice makes its elements at once (a subclass's ``_read``);
    iterating reads them all. A view equals any list, tuple or view of its
    own kind holding equal elements in the same order.
    """

    __slots__ = ("graph", "rows")

    def __init__(self, graph: KnowledgeGraph, rows: np.ndarray):
        self.graph = graph
        self.rows = rows

    def _read(self, index: slice) -> list:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._read(index)
        index = range(len(self))[index]  # IndexError past either end
        return self._read(slice(index, index + 1))[0]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, type(self))):
            return NotImplemented
        return self[:] == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self[:]!r})"


class Neighborhood(RowView):
    """The ``Triple`` of each of ``graph``'s ``rows``, made only when read."""

    __slots__ = ()

    def _read(self, index: slice) -> list[Triple]:
        return self.graph.triples_at(self.rows[index])


def _objects(items: list) -> np.ndarray:
    """An object array holding ``items`` themselves (tuples are not unpacked)."""
    return np.fromiter(items, dtype=object, count=len(items))


class _Codes(dict):
    """Maps a key, compared by value, to its code, numbered in first-seen order.

    Looking up an unseen key gives it the next code. ``ids`` lists the
    stored key objects by code, so every use of an id shares the first
    string seen for it. Keys are ids or object terms.
    """

    def __init__(self, keys: Iterable = ()):
        self.ids: list = list(dict.fromkeys(keys))
        super().__init__(zip(self.ids, range(len(self.ids))))

    def __missing__(self, key) -> int:
        code = self[key] = len(self.ids)
        self.ids.append(key)
        return code


class _Coder:
    """A graph's parts while it is built: ids and terms coded, one row per triple.

    Entity ids, relation ids and object terms each have a ``_Codes`` table.
    ``build_graph`` and ``load_graph`` fill the three code lists, then call
    ``assemble``, which derives each term's entity code in one pass over the
    terms. Unknown entity ids get codes past the declared ones, so that
    ``assemble`` can name them.
    """

    def __init__(self, entities: Iterable[Entity], relations: Iterable[Relation]):
        self.entity_list = list(entities)
        self.relation_list = list(relations)
        self.entities = _Codes(entity.id for entity in self.entity_list)
        self.relations = _Codes(relation.id for relation in self.relation_list)
        self.terms = _Codes()
        self.subjects: list[int] = []
        self.predicates: list[int] = []
        self.objects: list[int] = []

    def assemble(self) -> KnowledgeGraph:
        """Validate and dedupe the rows and index them into a graph."""
        entities: dict[EntityId, Entity] = {}
        for entity in self.entity_list:
            if entity.id in entities:
                raise GraphLoadError(f"duplicate entity id: {entity.id}")
            entities[entity.id] = entity
        relations: dict[RelationId, Relation] = {}
        for relation in self.relation_list:
            if relation.id in relations:
                raise GraphLoadError(f"duplicate relation id: {relation.id}")
            relations[relation.id] = relation

        count = len(self.subjects)
        subjects = np.fromiter(self.subjects, np.int32, count)
        predicates = np.fromiter(self.predicates, np.int32, count)
        objects = np.fromiter(self.objects, np.int32, count)
        # Each term's entity code, or -1 for a literal, in one pass; a
        # caller-made entity reference is remade around the interned id.
        entity_codes, entity_ids, terms = self.entities, self.entities.ids, self.terms.ids
        codes = []
        for index, term in enumerate(terms):
            code = -1
            if isinstance(term, EntityRef):
                code = entity_codes[term.entity_id]
                if term.entity_id is not entity_ids[code]:
                    terms[index] = EntityRef(entity_ids[code])
            codes.append(code)
        term_entities = np.array(codes, dtype=np.int32)
        # Exact duplicates, first occurrence kept. A row's key codes its
        # (relation, object) pair densely first, so that it fits in 63 bits.
        pair_keys = predicates.astype(np.int64) * len(term_entities) + objects
        pairs = np.unique(pair_keys, return_inverse=True)[1]
        keys = subjects.astype(np.int64) * count + pairs
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            keep = np.sort(np.unique(keys, return_index=True)[1])
            subjects, predicates, objects = subjects[keep], predicates[keep], objects[keep]
            count = len(keep)

        known = len(entities)
        object_entities = term_entities[objects]
        unknown = np.flatnonzero((subjects >= known) | (object_entities >= known))
        if unknown.size:
            row = unknown[0]
            if subjects[row] >= known:
                entity_id = self.entities.ids[subjects[row]]
                raise GraphLoadError(f"triple references unknown subject entity: {entity_id}")
            entity_id = self.entities.ids[object_entities[row]]
            raise GraphLoadError(f"triple references unknown object entity: {entity_id}")
        for relation_id in self.relations.ids[len(relations) :]:
            relations[relation_id] = Relation(relation_id, relation_id)

        # A row is incident to its subject, and to its entity object unless
        # that is a literal or the subject again. Sorting (entity, row) keys
        # lists each entity's rows in ascending order.
        rows = np.arange(count, dtype=np.int64)
        on_object = (object_entities >= 0) & (object_entities != subjects)
        owners = np.concatenate((subjects, object_entities[on_object])).astype(np.int64)
        incidence = np.sort(owners * count + np.concatenate((rows, rows[on_object])))
        offsets = np.zeros(known + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=known), out=offsets[1:])
        return KnowledgeGraph(
            entities=entities,
            relations=relations,
            entity_ids=_objects(self.entities.ids),
            relation_ids=_objects(self.relations.ids),
            entity_codes=dict(self.entities),
            terms=_objects(terms),
            term_entities=term_entities,
            subjects=subjects,
            predicates=predicates,
            objects=objects,
            offsets=offsets,
            incident=(incidence % max(count, 1)).astype(np.int32),
        )


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
    coder = _Coder(entities, relations)
    entity_codes, relation_codes, terms = coder.entities, coder.relations, coder.terms
    for subject, relation, obj in triples:
        coder.subjects.append(entity_codes[subject])
        coder.predicates.append(relation_codes[relation])
        coder.objects.append(terms[obj])
    return coder.assemble()


def _data_lines(path: Path):
    """Yield (line_number, line) for each data line, skipping blanks and # comments.

    ``line`` is the raw line, line ending included: the callers strip every
    column they keep, and the ending never changes a line's column count.
    """
    with path.open("r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            stripped = raw.strip()
            if not stripped or stripped[0] == "#":
                continue
            yield number, raw


def _parse_object(token: str, path: Path, line_number: int, entity_codes: _Codes) -> ObjectTerm:
    if token.startswith("E:"):
        entity_id = token[2:]
        if not entity_id:
            raise GraphLoadError(f"{path}:{line_number}: empty entity id in object")
        return EntityRef(entity_codes.ids[entity_codes[entity_id]])
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


def _load_triples(path: Path, coder: _Coder) -> None:
    """Parse a triples file straight into ``coder``'s code lists."""
    entity_codes, relation_codes, terms = coder.entities, coder.relations, coder.terms
    add_subject = coder.subjects.append
    add_predicate = coder.predicates.append
    add_object = coder.objects.append
    # Raw object token -> its term code, so each distinct token is parsed
    # once; its first occurrence is the line errors name.
    token_codes: dict[str, int] = {}
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
        code = token_codes.get(object_token)
        if code is None:
            code = token_codes[object_token] = terms[
                _parse_object(object_token.strip(), path, number, entity_codes)
            ]
        add_subject(entity_codes[subject])
        add_predicate(relation_codes[relation])
        add_object(code)


def load_graph(
    triples_path: str | Path,
    entities_path: str | Path,
    relations_path: str | Path | None = None,
) -> KnowledgeGraph:
    """Load and validate a knowledge graph from TSV files.

    When ``relations_path`` is not given, a ``relations.tsv`` sitting next to
    the entities file is used if present; relation ids without a declared
    name fall back to the id itself. Errors naming a triple (an unknown
    entity) or a duplicate id are raised after the whole file has parsed.
    """
    triples_path = Path(triples_path)
    entities_path = Path(entities_path)
    if relations_path is None:
        candidate = entities_path.parent / "relations.tsv"
        relations_path = candidate if candidate.is_file() else None
    relations = _load_relations(Path(relations_path)) if relations_path else []
    coder = _Coder(_load_entities(entities_path), relations)
    _load_triples(triples_path, coder)
    return coder.assemble()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` by a sort, faster on small arrays."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _incident_rows(graph: KnowledgeGraph, codes: np.ndarray) -> np.ndarray:
    """The incident rows of each entity code in turn, concatenated."""
    starts = graph.offsets[codes]
    counts = graph.offsets[codes + 1] - starts
    # Row positions start, start + 1, ... of each entity, in one arange.
    shifts = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return graph.incident[np.arange(shifts.size) + shifts]


def neighborhood(
    graph: KnowledgeGraph, seeds: Iterable[EntityId], hops: int = 1
) -> Neighborhood:
    """Triples within ``hops`` of any seed entity, in ingestion order.

    1 hop collects every triple incident to a seed (subject or object side);
    2 hops additionally collects triples incident to any entity appearing in
    the 1-hop set. Literal objects have no adjacency and are never expanded.
    Seeds missing from the graph are logged and skipped. The result is a
    view over the graph's rows that makes ``Triple``s only when read.
    """
    if hops not in (1, 2):
        raise ValueError(f"hops must be 1 or 2, got {hops}")
    codes = []
    for seed in sorted(set(seeds)):
        code = graph.entity_codes.get(seed)
        if code is None:
            logger.warning("seed entity %s not in graph; skipping", seed)
        else:
            codes.append(code)

    rows = _incident_rows(graph, np.array(codes, dtype=np.int64))
    if hops == 2:
        # Every 1-hop row touches a seed, so the entities of the 1-hop rows
        # (seeds included) reach all of it again.
        object_entities = graph.term_entities[graph.objects[rows]]
        frontier = np.concatenate((graph.subjects[rows], object_entities[object_entities >= 0]))
        rows = _incident_rows(graph, _distinct(frontier))
    return Neighborhood(graph, _distinct(rows))


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
