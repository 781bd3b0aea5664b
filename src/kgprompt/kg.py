"""Knowledge-graph store: TSV loading, neighborhoods, and entity linking.

File formats
------------
triples TSV   one triple per line, ``subject_id <TAB> relation_id <TAB> object``
              where object is ``E:<entity_id>`` for an entity reference or
              ``L:<datatype>:<value>`` for a literal (datatype one of
              plain/time/quantity).
entities TSV  ``entity_id <TAB> canonical_name <TAB> alias1|alias2|...``
              (aliases optional; an empty name field marks an unnamed entity).
relations TSV ``relation_id <TAB> relation_name``; optional, picked up as
              ``relations.tsv`` next to the entities file when not given.

One reader, ``_rows``, reads the lines of all three. It skips blanks, ``#``
comments and a UTF-8 byte-order mark that starts a file (one anywhere else
is data), and raises every not-UTF-8 and column-count error.

``Triple``, ``EntityRef``, ``Literal``, ``Entity`` and ``Relation`` are named
tuples, so building, hashing and comparing them runs in C (and each compares
equal to the plain tuple of its fields); tell object kinds apart with
``isinstance``.

Storage
-------
A graph keeps its triples as integer-coded columns, not as ``Triple``
objects. Only this module reads the ``subjects`` and ``objects`` codes.
Every entity id and relation id has a code: its position in
``entity_ids`` (also ``entities.ids``) or ``relation_ids``, which list the
keys of ``graph.entities`` and ``graph.relations`` (declared ones in file
order, then undeclared relations in order of first use);
``entities.codes`` maps an entity id to its code. Distinct literals,
compared by value, are numbered in first-seen order: literal ``n``'s value
is ``literal_values[n]`` and its datatype
``LITERAL_DATATYPES[literal_datatypes[n]]``. A triple's object has one
code: an entity object its entity code, below ``E`` (the entity count),
and literal ``n`` the code ``E + n``. The int32 columns ``subjects``,
``predicates`` and ``objects`` hold one row per distinct triple in
ingestion order, and the CSR pair ``offsets``/``incident`` lists each
entity's incident rows in ascending order.

Objects are made only when they are read. ``graph.entities`` is an
``Entities`` mapping view over the ids, names and ``|``-joined alias texts
by code, which makes an ``Entity`` (and decodes and splits its alias text)
for the id looked up. ``neighborhood`` returns a ``Neighborhood``, a
``RowView`` sequence over rows that makes a ``Triple`` only when an element
is read.
``triples_at`` makes each object from its code: an ``EntityRef`` below
``E``, and the literal's ``Literal`` above.

Each part of a triple has one number: entities by code, then relations by
code, then literals in literal order, so a literal object's part is its
object code plus the relation count. ``part_texts`` holds each part's text,
as ``verbalize`` renders it, and ``row_parts`` gives the parts of rows, so
``row_texts`` gives rows' texts without any ``Triple`` or ``Entity``.
One text index per graph, ``text_index``, holds the surface pairs (a
normalized key and entity code per name or alias) and the part tokens (each
part's normalized tokens as codes into one vocabulary, from which hashed
ranking scores rows), in the form the snapshot stores them. A graph not
decoded from a snapshot builds it by tokenizing each part text once.
``graph.triples`` is a derived view built on first access.

The surface pairs are ordered by the first 16 UTF-8 bytes of their keys,
ties in entity-code order, so that linking needs no dict or ``str`` per
surface: ``surface_index`` is the pairs as one table, with each key's first
16 bytes as a sorted fixed-width array, and ``link_entities`` finds all of a
question's n-grams in it at once with ``np.searchsorted``. The search reads
no more than those 16 bytes, so the table is ordered by no more: a key of 16
bytes or more is checked against the full keys of its prefix's run.

Ids, literals and part tokens are coded by one kind of table, ``_Codes``,
in first-seen order; loading parses each distinct object token once.
Every graph, parsed, built by ``build_graph`` or decoded, is made in one
place, ``_graph``, from the same parts: entity ids, names and alias
texts, relation ids and names, the literal values and datatype codes, and
the code arrays. The ids it is given are the ones the graph hands out, so
every subject, relation and entity-valued object of a triple the graph
returns, and every id of an ``Entity`` it makes, is the very string object
that keys ``graph.entities`` or ``graph.relations``.

``load_graph`` keeps what it parsed in a snapshot beside the triples file
(``snapshot_path``): one flat, pickle-free file (format 8, laid out by
``_pack``) of the code columns, the CSR pair, the ids, names, aliases and
literals as UTF-8 text, and the text index, stored under the SHA-256 of a
format tag and the source files' bytes. A load whose files hash to a
snapshot's key reads it in one call and decodes it instead of parsing,
after checking its member table, its CRC and its structure (the surface
table's order included), and hands its parts to ``_graph``, so it has the
same dict orders, codes, literal order and interned ids as a parsed one. A
hit makes no ``Entity``, ``EntityRef``, ``Literal`` or alias tuple, and no
``str`` per alias text, surface or part token: the alias texts, the surface
table, the part vocabulary and the literal datatype codes are kept as
stored, the UTF-8 every graph holds its alias texts and vocabulary in, so
the first link tokenizes no name and the first hashed ranking hashes the
stored vocabulary instead of tokenizing every part text. Each text member
is found to be UTF-8 at load, so a bad byte makes the snapshot unusable
rather than a later read fail. The names are split at load: each fact a
run renders reads two, and one split of all of them costs less than
decoding a fifth of them one at a time. A snapshot that is missing, stale,
of another format (an ``.npz`` of an older one included), damaged or
cannot be written costs only a parse. The format tag changes whenever the
stored layout or order changes, or the same source bytes come to parse to
another graph.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import logging
import os
import shutil
import tempfile
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import GraphLoadError, check_utf8
from .text import normalize_text, normalize_tokens

logger = logging.getLogger(__name__)

EntityId = str
RelationId = str

LITERAL_DATATYPES = ("plain", "time", "quantity")
# A literal's datatype code: its position in ``LITERAL_DATATYPES``.
_DATATYPE_CODES = {datatype: code for code, datatype in enumerate(LITERAL_DATATYPES)}


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


def joined(subject: str, relation: str, object_text: str) -> str:
    """The text of a triple from its three part texts."""
    return f"({subject}, {relation}, {object_text})"


def literal_text(literal: Literal) -> str:
    """A literal's object text: the value, after ``time: `` or ``quantity: ``."""
    if literal.datatype == "plain":
        return literal.value
    return f"{literal.datatype}: {literal.value}"


# What ``literal_text`` puts before a literal's value, by datatype code.
_LITERAL_PREFIXES = np.array([literal_text(Literal("", datatype)) for datatype in LITERAL_DATATYPES], dtype=object)


def _alias_tuple(text: str) -> tuple[str, ...]:
    """The aliases of an ``|``-joined alias text."""
    return tuple(text.split("|")) if text else ()


class TextIndex(NamedTuple):
    """A graph's surface pairs and part tokens, as the snapshot members of these names store them.

    ``surface_keys`` holds the UTF-8 (uint8) of each surface's normalized
    key, preceded by a newline, in the order of the keys' first 16 bytes,
    ties in entity-code order; ``surface_entities`` holds each key's entity
    code (int32). ``part_vocabulary`` holds the UTF-8 (uint8) of each
    distinct part token once, in first-seen order, preceded by a newline.
    Every field is an array. Part ``p``'s tokens, parts numbered as
    ``part_texts`` lists them, are the vocabulary's tokens numbered
    ``part_tokens[part_offsets[p]:part_offsets[p + 1]]`` (int64 offsets,
    int32 codes), in text order.
    """

    surface_keys: np.ndarray
    surface_entities: np.ndarray
    part_vocabulary: np.ndarray
    part_offsets: np.ndarray
    part_tokens: np.ndarray


# A surface key is searched by its first 16 bytes, two 8-byte words.
_PREFIX = 16
# The bits of a little-endian word, which holds its first byte lowest, that
# keep a key's bytes, by the key's length up to 16: one row per length.
_KEPT = np.array(
    [[(1 << 8 * min(length, 8)) - 1, (1 << 8 * max(length - 8, 0)) - 1] for length in range(_PREFIX + 1)],
    dtype="<u8",
)


def _line_bounds(data: np.ndarray) -> np.ndarray:
    """Each newline's position in ``data`` (uint8), then its length.

    String ``i`` of a ``_blob`` ``data`` is ``data[bounds[i] + 1 :
    bounds[i + 1]]``: UTF-8 codes a newline as one byte, which no other
    character's bytes hold.
    """
    return np.append(np.flatnonzero(data == 10), len(data))


def _prefixes(data: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The first 16 bytes of each string of ``data`` (``bounds`` from ``_line_bounds``), zero-padded, as ``S16``."""
    starts = bounds[:-1] + 1
    lengths = bounds[1:] - starts
    prefixes = _KEPT.take(np.minimum(lengths, _PREFIX, out=lengths), axis=0)
    # The 8 bytes from each position, as one word; the padding covers the second word of the last string.
    padded = np.concatenate((data, np.zeros(_PREFIX, np.uint8)))
    words = np.ndarray((len(padded) - 7,), "<u8", padded, 0, (1,))
    for column in range(2):
        prefixes[:, column] &= words[starts]
        starts += 8
    return prefixes.view(f"S{_PREFIX}").ravel()


def _order_columns(prefixes: np.ndarray, entities: np.ndarray) -> tuple[np.ndarray, ...]:
    """What a surface table is ordered by, least significant first as ``np.lexsort`` takes it.

    The table is ordered by the two big-endian 8-byte words of each key's
    ``prefixes`` (an ``S16`` array), ties by entity code.
    """
    words = prefixes.view(">u8").reshape(-1, 2)
    return entities, words[:, 1], words[:, 0]


class SurfaceIndex:
    """A graph's surface pairs as one table ordered by key prefix, searched without a dict or ``str`` per surface.

    ``keys`` is ``text_index.surface_keys``: surface ``i``'s key is the
    bytes ``keys[bounds[i] + 1 : bounds[i + 1]]`` and its entity code
    ``entities[i]``. ``prefixes`` holds each key's first 16 bytes as an
    ``S16`` array, padded with zero bytes, which no key holds; the table is
    sorted by it, ties in entity-code order, and ``lookup`` searches it with
    ``np.searchsorted``. A prefix shorter than 16 bytes is its whole key, so
    only a run of 16-byte prefixes can hold distinct keys, each key's
    surfaces in entity-code order among them. ``widths`` lists the distinct
    key token counts, longest first: ``link_entities`` decides nesting in one
    pass over the n-grams in that order.
    """

    def __init__(self, keys: np.ndarray, entities: np.ndarray):
        self.keys = keys
        self.entities = entities
        self.bounds = _line_bounds(keys)
        self.prefixes = _prefixes(keys, self.bounds)

    def _rows_of(self, key: bytes, low: int, high: int) -> np.ndarray:
        """The rows of the run from ``low`` to ``high`` whose key is ``key``, ascending, found in numpy."""
        starts = self.bounds[low:high] + 1
        rows = np.flatnonzero(self.bounds[low + 1 : high + 1] - starts == len(key))
        for position in range(_PREFIX, len(key)):  # the run's keys share the first 16 bytes
            rows = rows[self.keys[starts[rows] + position] == key[position]]
        return low + rows

    def lookup(self, keys: Sequence[str]) -> list[list[int]]:
        """The entity codes of each key's surfaces in turn, in code order (empty for a key of none)."""
        encoded = [key.encode("utf-8") for key in keys]
        probes = np.array(encoded, dtype=self.prefixes.dtype)  # each cut to its first 16 bytes
        lows = np.searchsorted(self.prefixes, probes)
        highs = np.searchsorted(self.prefixes, probes, "right")
        found: list[list[int]] = [[] for _ in keys]
        for position in np.flatnonzero(highs > lows).tolist():
            key, low, high = encoded[position], lows[position], highs[position]
            if len(key) >= _PREFIX:
                # Longer keys may share the prefix: the equal ones are among the run, in entity-code order.
                found[position] = self.entities[self._rows_of(key, low, high)].tolist()
            else:
                found[position] = self.entities[low:high].tolist()
        return found

    @cached_property
    def widths(self) -> tuple[int, ...]:
        # Tokens hold no spaces, so a key's spaces count its tokens, less one.
        spaces = np.flatnonzero(self.keys == 32)
        tokens = np.diff(np.searchsorted(spaces, self.bounds)) + 1
        return tuple(np.flatnonzero(np.bincount(tokens))[::-1].tolist())

    def in_order(self) -> bool:
        """Whether (first word, second word, entity code) never decreases down the table, as ``text_index`` orders it."""
        ordered = np.ones(max(len(self.entities) - 1, 0), dtype=bool)
        # Least significant column first: where a column ties, the columns folded in before it decide.
        for column in _order_columns(self.prefixes, self.entities):
            ordered = (column[1:] > column[:-1]) | (column[1:] == column[:-1]) & ordered
        return bool(ordered.all())


class Entities(Mapping):
    """A graph's entities: each id mapped to its ``Entity``, made only when read.

    ``ids`` (the graph's ``entity_ids``) and ``names`` hold the parts by
    entity code, and ``codes``, the graph's one id-to-code map, gives an
    id's code. An alias text is the entity's aliases joined by ``|`` (empty
    for none). Every graph holds its alias texts as the snapshot stores
    them: ``alias_blob`` is their UTF-8 (uint8), each preceded by a newline,
    and entity ``c``'s is ``alias_blob[alias_bounds[c] + 1 :
    alias_bounds[c + 1]]``. Reading an entity decodes and splits its own
    text, and no other, into the ``Entity``'s tuple; nothing is kept.
    Iteration is in code order. Like a dict, the view equals any mapping
    with equal items, and its repr is the dict's.
    """

    __slots__ = ("codes", "ids", "names", "alias_blob", "alias_bounds")

    def __init__(self, codes: dict[EntityId, int], ids: np.ndarray, names: list, alias_blob: np.ndarray):
        self.codes = codes
        self.ids = ids
        self.names = names
        self.alias_blob = alias_blob
        self.alias_bounds = _line_bounds(alias_blob)

    def __getitem__(self, entity_id: EntityId) -> Entity:
        code = self.codes[entity_id]
        start, end = self.alias_bounds[code : code + 2].tolist()
        text = self.alias_blob[start + 1 : end].tobytes().decode("utf-8")
        return Entity(self.ids[code], self.names[code], _alias_tuple(text))

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self.codes

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(eq=False)
class KnowledgeGraph:
    """Immutable-after-build columnar triple store with a CSR incidence index.

    Row order is ingestion order, which is the tie-break and output order
    everywhere else in the pipeline. ``entities.codes`` maps an entity id to
    its code. Entity ``c``'s incident rows, whether it is their subject or
    their entity-valued object, are ``incident[offsets[c]:offsets[c + 1]]``;
    a self-loop is listed once. Build graphs with ``build_graph`` or
    ``load_graph``.

    ``entities`` is an ``Entities`` mapping view, which makes an ``Entity``
    only when one is read. An object code ``c`` below the entity count
    ``E`` is an ``EntityRef`` to entity code ``c``; any other is a
    ``Literal``, literal ``c - E``, with the value ``literal_values[c - E]``
    (an object array of str) and the datatype
    ``LITERAL_DATATYPES[literal_datatypes[c - E]]`` (uint8 codes). Objects
    are made only when a row is read.

    ``triples`` (a ``Triple`` per row), ``part_texts``, ``text_index``,
    ``surface_index``, ``relation_counts`` and ``bucket_tables`` are derived
    views, each built once on first access (a snapshot hit is given its text
    index and surface table); the pipeline reads all but ``triples``. They
    assume the graph is not mutated after it is built, and changing a view
    does not change the graph. Two graphs are equal when their entities,
    relations and triples are.
    """

    entities: Entities
    relations: dict[RelationId, Relation]
    entity_ids: np.ndarray
    relation_ids: np.ndarray
    literal_values: np.ndarray
    literal_datatypes: np.ndarray
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
        """The triples of ``rows`` (an index array or a slice), in that order, each object made from its code."""
        ids, values, datatypes = self.entity_ids, self.literal_values, self.literal_datatypes
        entities = len(ids)
        objects = [
            EntityRef(ids[code])
            if code < entities
            else Literal(values[code - entities], LITERAL_DATATYPES[datatypes[code - entities]])
            for code in self.objects[rows].tolist()
        ]
        subjects = ids[self.subjects[rows]].tolist()
        relations = self.relation_ids[self.predicates[rows]].tolist()
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
    def part_texts(self) -> np.ndarray:
        """The text of every part, as ``verbalize`` renders it, in part order (an object array)."""
        view = self.entities
        texts = [entity_id if name is None else name for entity_id, name in zip(view.ids, view.names)]
        texts += [relation.name for relation in self.relations.values()]
        texts += (_LITERAL_PREFIXES[self.literal_datatypes] + self.literal_values).tolist()
        return np.array(texts, dtype=object)

    def row_parts(self, rows: np.ndarray) -> np.ndarray:
        """The part numbers of ``rows``' subjects, then of their relations, then of their objects."""
        entities = len(self.entity_ids)
        objects = self.objects[rows]
        # A literal's part follows the relation parts: its object code plus the relation count.
        objects = np.where(objects < entities, objects, objects + len(self.relation_ids))
        return np.concatenate((self.subjects[rows], entities + self.predicates[rows], objects))

    def row_texts(self, rows: np.ndarray) -> list[str]:
        """Each row's text, its three ``part_texts`` ``joined``: ``verbalize``'s text, with no ``Triple`` made."""
        return list(map(joined, *self.part_texts[self.row_parts(rows)].reshape(3, -1).tolist()))

    def touching(self, rows: np.ndarray, entity_ids: Iterable[EntityId]) -> np.ndarray:
        """A bool per row of ``rows``: whether its subject or entity object is one of ``entity_ids``, found by code."""
        subjects, objects = self.subjects[rows], self.objects[rows]
        hits = np.zeros(len(subjects), dtype=bool)
        # A literal's object code is at least the entity count, which no entity's code reaches.
        for code in [self.entities.codes[entity_id] for entity_id in entity_ids if entity_id in self.entities.codes]:
            hits |= (subjects == code) | (objects == code)
        return hits

    def row_tokens(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the tokens of ``rows``' part texts, and the position in ``rows`` of each.

        Codes number the tokens of ``text_index.part_vocabulary``. They come
        in ``row_parts`` order, each part's tokens in text order.
        """
        parts = self.row_parts(rows)
        index = self.text_index
        starts = index.part_offsets[parts]
        lengths = index.part_offsets[parts + 1] - starts
        owners = np.repeat(np.tile(np.arange(len(rows)), 3), lengths)
        return index.part_tokens[_ranges(starts, lengths)], owners

    @cached_property
    def text_index(self) -> TextIndex:
        """The surface pairs and part tokens, tokenizing each part text once (a decoded graph is given them).

        An entity's surfaces are its name, then its aliases; a surface's key
        is its normalized tokens joined by single spaces, so a named entity's
        key is its part tokens joined. A surface with no tokens has no pair.
        The pairs are put in the order of their keys' first 16 bytes, ties in
        entity-code order.
        """
        token_lists = list(map(normalize_tokens, self.part_texts.tolist()))
        view = self.entities
        keys, codes = [], []
        for code, (name, aliases, tokens) in enumerate(zip(view.names, _strings(view.alias_blob), token_lists)):
            for key in (" ".join(tokens) if name else "", *map(normalize_text, _alias_tuple(aliases))):
                if key:
                    keys.append(key)
                    codes.append(code)
        data, entities = _blob(keys), np.array(codes, dtype=np.int32)
        order = np.lexsort(_order_columns(_prefixes(data, _line_bounds(data)), entities))
        all_tokens = list(itertools.chain.from_iterable(token_lists))
        vocabulary = _Codes()
        token_codes = np.fromiter(map(vocabulary.__getitem__, all_tokens), np.int32, len(all_tokens))
        return TextIndex(
            _blob([keys[position] for position in order.tolist()]),
            entities[order],
            _blob(vocabulary.ids),
            np.cumsum([0, *map(len, token_lists)], dtype=np.int64),
            token_codes,
        )

    @cached_property
    def surface_index(self) -> SurfaceIndex:
        """The ``SurfaceIndex`` of the text index's surface pairs (a decoded graph is given it)."""
        index = self.text_index
        return SurfaceIndex(index.surface_keys, index.surface_entities)

    @cached_property
    def relation_counts(self) -> Counter[RelationId]:
        counts = np.bincount(self.predicates, minlength=len(self.relation_ids)).tolist()
        return Counter(
            {relation_id: count for relation_id, count in zip(self.relation_ids, counts) if count}
        )

    @cached_property
    def bucket_tables(self) -> dict:
        """Hashed ranking's bucket table for each embedding dimension, added on first use (see ``retrieve``)."""
        return {}


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


class _Codes(dict):
    """Maps a key, compared by value, to its code, numbered in first-seen order.

    Looking up an unseen key gives it the next code. ``ids`` lists the
    stored key objects by code, so every use of an id shares the first
    string seen for it. Keys are ids, literals or tokens.
    """

    def __init__(self, keys: Iterable = ()):
        self.ids: list = list(dict.fromkeys(keys))
        super().__init__(zip(self.ids, range(len(self.ids))))

    def __missing__(self, key) -> int:
        code = self[key] = len(self.ids)
        self.ids.append(key)
        return code


class _Coder:
    """A graph's parts while it is built: ids and literals coded, one row per triple.

    Entity ids, relation ids and literals each have a ``_Codes`` table.
    ``build_graph`` and ``load_graph`` fill the three code lists, coding
    each object with ``object_code``, then call ``assemble``, which checks
    the parts and hands them to ``_graph``. Unknown entity ids get codes
    past the declared ones, so that ``assemble`` can name them; so the
    ``n``-th literal is coded ``-1 - n`` until ``assemble`` has found none
    and can give it its graph code ``E + n``.
    """

    def __init__(self, entities: Iterable[Entity], relations: Iterable[Relation]):
        self.entity_list = list(entities)
        self.relation_list = list(relations)
        self.entities = _Codes(entity.id for entity in self.entity_list)
        self.relations = _Codes(relation.id for relation in self.relation_list)
        self.literals = _Codes()
        self.subjects: list[int] = []
        self.predicates: list[int] = []
        self.objects: list[int] = []

    def object_code(self, obj: ObjectTerm) -> int:
        """An entity object's entity code, or ``-1 - n`` for the ``n``-th distinct literal."""
        if isinstance(obj, EntityRef):
            return self.entities[obj.entity_id]
        return -1 - self.literals[obj]

    def assemble(self) -> KnowledgeGraph:
        """Validate and dedupe the rows and index them into a graph."""
        # A scan of the declared ids: the code tables also hold unknown ones.
        for kind, declared in (("entity", self.entity_list), ("relation", self.relation_list)):
            seen: set[str] = set()
            for item in declared:
                if item.id in seen:
                    raise GraphLoadError(f"duplicate {kind} id: {item.id}")
                seen.add(item.id)

        count = len(self.subjects)
        subjects = np.fromiter(self.subjects, np.int32, count)
        predicates = np.fromiter(self.predicates, np.int32, count)
        objects = np.fromiter(self.objects, np.int32, count)
        # The first row naming an unknown entity (any duplicate of it comes later).
        known = len(self.entity_list)
        unknown = np.flatnonzero((subjects >= known) | (objects >= known))
        if unknown.size:
            row = unknown[0]
            if subjects[row] >= known:
                entity_id = self.entities.ids[subjects[row]]
                raise GraphLoadError(f"triple references unknown subject entity: {entity_id}")
            entity_id = self.entities.ids[objects[row]]
            raise GraphLoadError(f"triple references unknown object entity: {entity_id}")
        literal = objects < 0
        objects[literal] = known - 1 - objects[literal]

        # Exact duplicates, first occurrence kept. A row's key codes its
        # (relation, object) pair densely first, so that it fits in 63 bits.
        pair_keys = predicates.astype(np.int64) * (known + len(self.literals)) + objects
        pairs = np.unique(pair_keys, return_inverse=True)[1]
        keys = subjects.astype(np.int64) * count + pairs
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            keep = np.sort(np.unique(keys, return_index=True)[1])
            subjects, predicates, objects = subjects[keep], predicates[keep], objects[keep]
            count = len(keep)

        # A row is incident to its subject, and to its object when that is
        # another entity. Sorting (entity, row) keys lists each entity's rows
        # in ascending order.
        rows = np.arange(count, dtype=np.int64)
        on_object = (objects < known) & (objects != subjects)
        owners = np.concatenate((subjects, objects[on_object])).astype(np.int64)
        incidence = np.sort(owners * count + np.concatenate((rows, rows[on_object])))
        offsets = np.zeros(known + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=known), out=offsets[1:])
        incident = (incidence % max(count, 1)).astype(np.int32)
        relation_names = [relation.name for relation in self.relation_list]
        relation_names += self.relations.ids[len(relation_names) :]  # undeclared: named by the id
        return _graph(
            self.entities.ids,
            [entity.name for entity in self.entity_list],
            _blob("|".join(filter(None, entity.aliases)) for entity in self.entity_list),
            self.relations.ids,
            relation_names,
            [value for value, _ in self.literals.ids],
            np.array([_DATATYPE_CODES[datatype] for _, datatype in self.literals.ids], dtype=np.uint8),
            (subjects, predicates, objects, offsets, incident),
        )


# A graph's code arrays, in the order ``_graph`` takes them and a snapshot names them.
_COLUMNS = ("subjects", "predicates", "objects", "offsets", "incident")


def _graph(
    ids, names, alias_blob, relation_ids, relation_names, literal_values, literal_datatypes, columns
) -> KnowledgeGraph:
    """The graph of its parts; every graph is made here.

    Entity ``ids`` and ``names``, the alias texts as one ``_blob`` and the
    relation ids and names are in code order, the literal values (a list of
    str) and datatype codes (a uint8 array) in literal order, ``columns`` as
    ``_COLUMNS`` names them. Each id the graph holds is the very object of ``ids`` or
    ``relation_ids``, a relation named by its own id included. No
    ``Entity``, ``EntityRef``, ``Literal`` or alias tuple is made here.
    """
    entity_ids = np.array(ids, dtype=object)
    return KnowledgeGraph(
        entities=Entities(dict(zip(ids, range(len(ids)))), entity_ids, names, alias_blob),
        relations={
            relation_id: Relation(relation_id, relation_id if name == relation_id else name)
            for relation_id, name in zip(relation_ids, relation_names)
        },
        entity_ids=entity_ids,
        relation_ids=np.array(relation_ids, dtype=object),
        literal_values=np.array(literal_values, dtype=object),
        literal_datatypes=literal_datatypes,
        **dict(zip(_COLUMNS, columns)),
    )


def build_graph(
    entities: Iterable[Entity],
    relations: Iterable[Relation],
    triples: Iterable[Triple],
) -> KnowledgeGraph:
    """Assemble a validated graph from already-parsed parts.

    Exact duplicate triples are dropped (first occurrence wins). Relations
    referenced by triples but not declared get their id as a display name,
    and empty aliases are dropped, as the loader drops them. Raises
    GraphLoadError on duplicate entity/relation ids, on triples referencing
    unknown entities, and on what the TSV files cannot hold: an alias
    holding ``|`` or a literal datatype not in ``LITERAL_DATATYPES``. The
    graph is coded and made as a loaded one is, each object once (an
    entity by its entity code, the ``n``-th distinct literal as ``E + n``),
    so it holds its own interned ids, and makes its ``Entity`` and object
    terms only when they are read.
    """
    coder = _Coder(entities, relations)
    entity_codes, relation_codes = coder.entities, coder.relations
    for subject, relation, obj in triples:
        coder.subjects.append(entity_codes[subject])
        coder.predicates.append(relation_codes[relation])
        coder.objects.append(coder.object_code(obj))
    for entity in coder.entity_list:
        if any("|" in alias for alias in entity.aliases):
            raise GraphLoadError(f"entity {entity.id}: an alias holds '|'")
    for literal in coder.literals.ids:
        if literal.datatype not in _DATATYPE_CODES:
            raise GraphLoadError(f"unknown literal datatype {literal.datatype!r}")
    return coder.assemble()


def _rows(path: Path, data: bytes, widths: tuple[int, ...]):
    """Yield (line_number, columns) for each data line of ``path``'s bytes ``data``.

    Blanks, # comments and a UTF-8 byte-order mark that starts the file are
    skipped. ``columns`` are the line's tab-separated fields, the last with
    the line ending: the callers strip every column they keep. Lines end as
    text mode reads them. Bytes that are not valid UTF-8, or a column count
    not in ``widths``, raise GraphLoadError naming their line.
    """
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            if not line.isascii():  # an ASCII line, as most are, holds no surrogate
                check_utf8(line, path, number, GraphLoadError)
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            columns = line.split("\t")
            if len(columns) not in widths:
                expected = " or ".join(map(str, widths))
                raise GraphLoadError(f"{path}:{number}: expected {expected} tab-separated columns, got {len(columns)}")
            yield number, columns


def _parse_object(token: str, path: Path, line_number: int) -> ObjectTerm:
    if token.startswith("E:"):
        entity_id = token[2:]
        if not entity_id:
            raise GraphLoadError(f"{path}:{line_number}: empty entity id in object")
        return EntityRef(entity_id)
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


def _load_entities(path: Path, data: bytes) -> list[Entity]:
    entities = []
    for number, columns in _rows(path, data, (2, 3)):
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


def _load_relations(path: Path, data: bytes) -> list[Relation]:
    relations = []
    for number, columns in _rows(path, data, (2,)):
        relation_id, name = columns[0].strip(), columns[1].strip()
        if not relation_id or not name:
            raise GraphLoadError(f"{path}:{number}: empty relation id or name")
        relations.append(Relation(relation_id, name))
    return relations


def _load_triples(path: Path, data: bytes, coder: _Coder) -> None:
    """Parse a triples file's bytes straight into ``coder``'s code lists."""
    entity_codes, relation_codes = coder.entities, coder.relations
    add_subject = coder.subjects.append
    add_predicate = coder.predicates.append
    add_object = coder.objects.append
    # Raw object token -> its object code, so each distinct token is parsed
    # once; its first occurrence is the line errors name.
    token_codes: dict[str, int] = {}
    for number, (subject, relation, object_token) in _rows(path, data, (3,)):
        subject, relation = subject.strip(), relation.strip()
        if not subject or not relation:
            raise GraphLoadError(f"{path}:{number}: empty subject or relation id")
        code = token_codes.get(object_token)
        if code is None:
            code = token_codes[object_token] = coder.object_code(_parse_object(object_token.strip(), path, number))
        add_subject(entity_codes[subject])
        add_predicate(relation_codes[relation])
        add_object(code)


# The snapshot's format tag, hashed into its key. It changes when the layout
# or order of the members below changes, or when the same source bytes parse
# to a different graph, so a file that an older version wrote is never read
# as this version's.
_SNAPSHOT_FORMAT = b"kgprompt graph snapshot 8"
# Every member of a snapshot and its dtype. Strings are stored as UTF-8,
# each preceded by a newline, which no TSV field holds; an entity's aliases
# are joined by "|", which no alias holds, and an unnamed entity's name is
# empty. Relation names cover every relation, an undeclared one's being its id.
# Object codes are the graph's: an entity's code, or E + n for literal n.
# The surface and part members are the graph's ``TextIndex``.
_SNAPSHOT_MEMBERS = {
    "key": np.uint8,
    "entity_ids": np.uint8,
    "entity_names": np.uint8,
    "entity_aliases": np.uint8,
    "relation_ids": np.uint8,
    "relation_names": np.uint8,
    "literal_values": np.uint8,
    "literal_datatypes": np.uint8,
    "subjects": np.int32,
    "predicates": np.int32,
    "objects": np.int32,
    "offsets": np.int64,
    "incident": np.int32,
    "surface_keys": np.uint8,
    "surface_entities": np.int32,
    "part_vocabulary": np.uint8,
    "part_offsets": np.int64,
    "part_tokens": np.int32,
}


class _BadSnapshot(ValueError):
    """A snapshot file whose structure does not hold together."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise _BadSnapshot(what)


def snapshot_path(triples_path: str | Path) -> Path:
    """Where ``load_graph`` keeps the snapshot of a graph: beside its triples file."""
    triples_path = Path(triples_path)
    return triples_path.with_name(f".{triples_path.name}.kgprompt.npz")


def _source_key(sources: Sequence[bytes | None]) -> bytes:
    """SHA-256 over the format tag and each source's length and bytes (None: absent)."""
    digest = hashlib.sha256(_SNAPSHOT_FORMAT)
    for data in sources:
        if data is None:
            digest.update(b"\0")
        else:
            digest.update(b"\1" + len(data).to_bytes(8, "little"))
            digest.update(data)
    return digest.digest()


def _blob(strings: Iterable[str]) -> np.ndarray:
    """The UTF-8 (uint8) of ``strings``, each preceded by a newline."""
    return np.frombuffer("\n".join(["", *strings]).encode("utf-8"), dtype=np.uint8)


def _strings(blob: np.ndarray) -> list[str]:
    """The strings of a ``_blob`` (UnicodeDecodeError if its bytes are not UTF-8)."""
    return blob.tobytes().decode("utf-8").split("\n")[1:]


def _checked(blob: np.ndarray) -> np.ndarray:
    """``blob``, once its bytes are found to be UTF-8 (UnicodeDecodeError if not); ASCII is checked without a copy."""
    if blob.size and blob.max() > 127:
        blob.tobytes().decode("utf-8")
    return blob


def _within(codes: np.ndarray, low: int, high: int, what: str) -> None:
    _require(not codes.size or (low <= codes.min() and codes.max() < high), f"{what} out of range")


def _require_offsets(offsets: np.ndarray, total: int, what: str) -> None:
    """CSR offsets: from 0 to ``total``, never decreasing (at least one offset, checked by the caller)."""
    _require(offsets[0] == 0 and offsets[-1] == total and (np.diff(offsets) >= 0).all(), what)


def _snapshot_arrays(key: bytes, graph: KnowledgeGraph) -> dict[str, np.ndarray]:
    """The members of ``graph``'s snapshot under ``key``, as ``_SNAPSHOT_MEMBERS`` lists them."""
    return {
        "key": np.frombuffer(key, dtype=np.uint8),
        "entity_ids": _blob(graph.entity_ids.tolist()),
        "entity_names": _blob(name or "" for name in graph.entities.names),
        "entity_aliases": graph.entities.alias_blob,
        "relation_ids": _blob(graph.relation_ids.tolist()),
        "relation_names": _blob(relation.name for relation in graph.relations.values()),
        "literal_values": _blob(graph.literal_values.tolist()),
        "literal_datatypes": graph.literal_datatypes,
        **{name: getattr(graph, name) for name in _COLUMNS},
        **graph.text_index._asdict(),
    }


def _pack(members: dict[str, np.ndarray]) -> bytes:
    """A snapshot file's bytes: a line of the format tag, the key, the member table, then the body.

    The table is a line of the body's ``zlib.crc32``, a line of name, dtype,
    offset in the body and byte length for each other member, then an empty
    line. The body and each member in it start 8-byte aligned.
    """
    table, body = [], bytearray()
    for name, array in members.items():
        if name != "key":
            body += bytes(-len(body) % 8)
            table.append(b"%s %s %d %d\n" % (name.encode(), array.dtype.str.encode(), len(body), array.nbytes))
            body += array.tobytes()
    head = b"%s\n%s%d\n%s\n" % (_SNAPSHOT_FORMAT, members["key"].tobytes(), zlib.crc32(body), b"".join(table))
    return head + bytes(-len(head) % 8) + body


def _unpack(data: bytes) -> dict[str, np.ndarray]:
    """The members of a snapshot file's ``data``, each a read-only view of it, once its table and CRC check out."""
    start = len(_SNAPSHOT_FORMAT) + 33  # the member table's, after the format line and the key
    end = data.find(b"\n\n", start) + 2
    _require(data.startswith(_SNAPSHOT_FORMAT + b"\n") and end > 1, "no format line or member table")
    crc, *table = data[start : end - 2].split(b"\n")
    body = end + -end % 8
    layout = [(name, np.dtype(dtype)) for name, dtype in _SNAPSHOT_MEMBERS.items() if name != "key"]
    _require(len(table) == len(layout), "member count")
    members = {"key": np.frombuffer(data, np.uint8, 32, start - 32)}
    for row, (name, dtype) in zip(table, layout):
        stored_name, stored_dtype, offset, length = row.split(b" ")
        offset, length = int(offset), int(length)
        _require(stored_name == name.encode() and stored_dtype == dtype.str.encode(), f"{name}: name or dtype")
        _require(offset % 8 == 0 and length % dtype.itemsize == 0 and min(offset, length) >= 0, f"{name}: alignment")
        _require(body + offset + length <= len(data), f"{name} past the end of the file")
        members[name] = np.frombuffer(data, dtype, length // dtype.itemsize, body + offset)
    _require(zlib.crc32(memoryview(data)[body:]) == int(crc), "body checksum")
    return members


def _write_snapshot(path: Path, key: bytes, graph: KnowledgeGraph, mode_of: Path) -> None:
    """Write ``graph``'s snapshot to ``path`` atomically, with ``mode_of``'s permission bits.

    A failure (a read-only directory, a full disk) costs only the snapshot:
    it is logged at debug level, and no partial file is left at ``path``.
    The members are built once the file is made, so a directory that takes
    no file costs no tokenizing.
    """
    temporary = None
    try:
        handle, temporary = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
        with os.fdopen(handle, "wb") as file:
            file.write(_pack(_snapshot_arrays(key, graph)))
        shutil.copymode(mode_of, temporary)
        os.replace(temporary, path)
    except OSError as exc:
        logger.debug("cannot write graph snapshot %s: %s", path, exc)
        if temporary is not None:
            Path(temporary).unlink(missing_ok=True)


def _read_snapshot(path: Path, key: bytes) -> KnowledgeGraph | None:
    """The graph stored at ``path`` under ``key``, or None when there is none to use.

    A missing file, an older format's ``.npz`` (a zip archive) or one of this
    format under another key, its body unchecked, is a plain miss; one that
    cannot be read or does not hold is logged as a warning. Either way the
    caller parses the TSV files and rewrites it.
    """
    try:
        data = path.read_bytes()
        head = _SNAPSHOT_FORMAT + b"\n"
        if data.startswith(b"PK") or data.startswith(head) and not data.startswith(key, len(head)):
            logger.debug("graph snapshot %s holds other sources; re-parsing", path)
            return None
        return _decode_snapshot(_unpack(data))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:  # what reading a damaged or foreign file raises
        logger.warning("graph snapshot %s is unusable (%s); re-parsing the TSV files", path, exc)
        return None


def _decode_snapshot(members: dict[str, np.ndarray]) -> KnowledgeGraph:
    """The graph of a snapshot's members, as ``_unpack`` reads them; _BadSnapshot when they do not fit together."""
    ids = _strings(members["entity_ids"])
    names = [name or None for name in _strings(members["entity_names"])]
    aliases = _checked(members["entity_aliases"])
    relation_ids = _strings(members["relation_ids"])
    relation_names = _strings(members["relation_names"])
    values = _strings(members["literal_values"])
    datatypes = members["literal_datatypes"]
    columns = [members[name] for name in _COLUMNS]
    subjects, predicates, objects, offsets, incident = columns
    # Kept as read: no key or token is split into a str.
    index = TextIndex(
        _checked(members["surface_keys"]),
        members["surface_entities"],
        _checked(members["part_vocabulary"]),
        members["part_offsets"],
        members["part_tokens"],
    )
    surfaces = SurfaceIndex(index.surface_keys, index.surface_entities)

    count = len(subjects)
    _require(len(ids) == len(names) == np.count_nonzero(aliases == 10) == len(offsets) - 1, "entity counts")
    _require(len(relation_ids) == len(relation_names), "relation counts")
    _require(len(values) == len(datatypes), "literal counts")
    _require(len(predicates) == len(objects) == count, "row counts")
    _require_offsets(offsets, len(incident), "offsets")
    _within(datatypes, 0, len(LITERAL_DATATYPES), "literal datatypes")
    _within(subjects, 0, len(ids), "subject codes")
    _within(predicates, 0, len(relation_ids), "relation codes")
    _within(objects, 0, len(ids) + len(values), "object codes")
    _within(incident, 0, count, "incident rows")
    _require(len(surfaces.prefixes) == len(index.surface_entities), "surface counts")
    _within(index.surface_entities, 0, len(ids), "surface entity codes")
    _require(surfaces.in_order(), "surface keys out of order")
    _require(len(index.part_offsets) == len(ids) + len(relation_ids) + len(values) + 1, "part counts")
    _require_offsets(index.part_offsets, len(index.part_tokens), "part offsets")
    _within(index.part_tokens, 0, np.count_nonzero(index.part_vocabulary == 10), "part token codes")

    graph = _graph(ids, names, aliases, relation_ids, relation_names, values, datatypes, columns)
    _require(len(graph.entities.codes) == len(ids) and len(graph.relations) == len(relation_ids), "duplicate ids")
    graph.text_index = index
    graph.surface_index = surfaces
    return graph


def load_graph(
    triples_path: str | Path,
    entities_path: str | Path,
    relations_path: str | Path | None = None,
) -> KnowledgeGraph:
    """Load and validate a knowledge graph from TSV files, through a snapshot.

    When ``relations_path`` is not given, a ``relations.tsv`` sitting next to
    the entities file is used if present; relation ids without a declared
    name fall back to the id itself. Errors naming a triple (an unknown
    entity) or a duplicate id are raised after the whole file has parsed.

    The graph parsed from a set of files is kept in a snapshot beside the
    triples file (``snapshot_path``), keyed by the SHA-256 of the files'
    bytes, and a later load of the same bytes decodes it instead of parsing.
    A snapshot that cannot be written or read costs only the time to parse.
    """
    triples_path = Path(triples_path)
    entities_path = Path(entities_path)
    if relations_path is None:
        candidate = entities_path.parent / "relations.tsv"
        relations_path = candidate if candidate.is_file() else None
    relations_path = Path(relations_path) if relations_path else None
    triples_data, entities_data = triples_path.read_bytes(), entities_path.read_bytes()
    relations_data = relations_path.read_bytes() if relations_path else None
    key = _source_key((triples_data, entities_data, relations_data))
    snapshot = snapshot_path(triples_path)
    graph = _read_snapshot(snapshot, key)
    if graph is None:
        relations = _load_relations(relations_path, relations_data) if relations_path else []
        coder = _Coder(_load_entities(entities_path, entities_data), relations)
        _load_triples(triples_path, triples_data, coder)
        graph = coder.assemble()
        _write_snapshot(snapshot, key, graph, triples_path)
    return graph


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` by a sort, faster on small arrays."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions start, start + 1, ... of each range in turn, concatenated, in one arange."""
    shifts = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(shifts.size) + shifts


def _incident_rows(graph: KnowledgeGraph, codes: np.ndarray) -> np.ndarray:
    """The incident rows of each entity code in turn, concatenated."""
    starts = graph.offsets[codes]
    return graph.incident[_ranges(starts, graph.offsets[codes + 1] - starts)]


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
        code = graph.entities.codes.get(seed)
        if code is None:
            logger.warning("seed entity %s not in graph; skipping", seed)
        else:
            codes.append(code)

    rows = _incident_rows(graph, np.array(codes, dtype=np.int64))
    if hops == 2:
        # Every 1-hop row touches a seed, so the entities of the 1-hop rows
        # (seeds included) reach all of it again.
        objects = graph.objects[rows]
        frontier = np.concatenate((graph.subjects[rows], objects[objects < len(graph.entity_ids)]))
        rows = _incident_rows(graph, _distinct(frontier))
    return Neighborhood(graph, _distinct(rows))


def relation_frequency(graph: KnowledgeGraph) -> dict[RelationId, int]:
    """Number of triples per relation over the whole graph (a fresh copy)."""
    return dict(graph.relation_counts)


def link_entities(graph: KnowledgeGraph, question: str) -> set[EntityId]:
    """Exact surface-form entity linking over normalized tokens.

    Matches every entity whose canonical name or alias occurs as a contiguous
    token sequence in the normalized question, by looking all question
    n-grams up at once in ``graph.surface_index``. Shorter matches nested
    inside an already-accepted longer match are suppressed ("York" inside an
    accepted "New York"), in one pass that relies on ``widths`` being longest
    first: each longer span is decided before the n-grams it holds.
    """
    tokens = normalize_tokens(question)
    if not tokens:
        return set()
    index = graph.surface_index
    grams = [(width, start) for width in index.widths for start in range(len(tokens) - width + 1)]
    found = index.lookup([" ".join(tokens[start : start + width]) for width, start in grams])
    ids = graph.entity_ids
    accepted_spans: list[tuple[int, int]] = []
    linked: set[EntityId] = set()
    for (width, start), codes in zip(grams, found):
        end = start + width
        if codes and not any(
            span_start <= start and end <= span_end and width < span_end - span_start
            for span_start, span_end in accepted_spans
        ):
            accepted_spans.append((start, end))
            linked.update(ids[code] for code in codes)
    return linked
