"""Independent brute-force implementations used to check the real code paths.

Deliberately written without numpy and without importing the production
embedding or ranking functions: own FNV-1a, own tokenizer, own cosine, own
sort. Kept separate so every consumer checks against the same oracle.
"""

from __future__ import annotations

import math
import re

_ORACLE_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def oracle_fnv1a(token: str) -> int:
    value = 14695981039346656037
    for byte in token.encode("utf-8"):
        value = ((value ^ byte) * 1099511628211) % (1 << 64)
    return value


def oracle_vector(text: str, dimension: int) -> list[float]:
    counts = [0.0] * dimension
    for token in _ORACLE_TOKEN.findall(text.lower()):
        counts[oracle_fnv1a(token) % dimension] += 1.0
    norm = math.sqrt(sum(component * component for component in counts))
    if norm == 0.0:
        return counts
    return [component / norm for component in counts]


def oracle_cosine(left: list[float], right: list[float]) -> float:
    """Dense dot product over every component, zeros included.

    math.fsum makes it the exactly rounded sum of the per-bucket products,
    the same well-defined value the production path promises.
    """
    return math.fsum(a * b for a, b in zip(left, right))


def oracle_rank(question: str, texts: list[str], dimension: int) -> list[int]:
    """Candidate indices sorted by cosine descending, ties by input index."""
    question_vector = oracle_vector(question, dimension)
    scores = [oracle_cosine(question_vector, oracle_vector(text, dimension)) for text in texts]
    return sorted(range(len(texts)), key=lambda index: (-scores[index], index))


def oracle_truncate(render, count: int, budget: int):
    """Drop-one truncation: try every prefix length from ``count`` down.

    ``render(n)`` is the prompt holding the first ``n`` knowledge lines,
    counted in whitespace-delimited words. Returns ``(n, text)`` for the
    longest prefix within ``budget`` tokens, or ``(None, tokens)`` with the
    token count of the knowledge-free prompt when even that is over budget.
    """
    for length in range(count, -1, -1):
        text = render(length)
        tokens = len(text.split())
        if tokens <= budget:
            return length, text
    return None, tokens


def oracle_tokens(text: str) -> list[str]:
    return _ORACLE_TOKEN.findall(text.lower())


def oracle_link(entities, question: str) -> set[str]:
    """Brute-force entity linking: compare every surface at every position.

    ``entities`` are objects with ``id``, ``name`` and ``aliases``. Matches
    are accepted longest first, then by start, then by id; a match lying
    inside an accepted, strictly longer span is dropped.
    """
    words = oracle_tokens(question)
    matches = []
    for entity in entities:
        for surface in [entity.name, *entity.aliases]:
            pattern = oracle_tokens(surface or "")
            if not pattern:
                continue
            for start in range(len(words) - len(pattern) + 1):
                if words[start : start + len(pattern)] == pattern:
                    matches.append((len(pattern), start, entity.id))
    matches.sort(key=lambda match: (-match[0], match[1], match[2]))
    accepted = []
    for width, start, entity_id in matches:
        end = start + width
        if not any(s <= start and end <= e and width < e - s for s, e, _ in accepted):
            accepted.append((start, end, entity_id))
    return {entity_id for _, _, entity_id in accepted}


def _oracle_rows(path):
    """(line number, columns) of every data line: no blanks, no # comments.

    Line breaks are the universal-newline set (\\n, \\r\\n, \\r), as text
    mode reads them.
    """
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    rows = []
    for number, line in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        if line.strip() and not line.lstrip().startswith("#"):
            rows.append((number, line.split("\t")))
    return rows


def oracle_load(triples_path, entities_path, relations_path=None):
    """Line-by-line graph load and build over plain tuples and dicts.

    Returns ``(triples, adjacency, entities, relations)``: triples as
    ``(subject, relation, object)`` with object ``("E", entity_id)`` or
    ``("L", datatype, value)``; adjacency as entity id -> ascending triple
    indices; entities as id -> ``(name or None, aliases)``; relations as
    id -> name. A malformed line raises ``ValueError("<file name>:<line>")``
    for the first such line; a graph-level fault raises ``ValueError`` with
    the offending id.
    """
    entities = {}
    for number, columns in _oracle_rows(entities_path):
        entity_id = columns[0].strip()
        if len(columns) not in (2, 3) or not entity_id:
            raise ValueError(f"{entities_path.name}:{number}")
        if entity_id in entities:
            raise ValueError(entity_id)
        name = columns[1].strip() or None
        aliases = []
        for alias in columns[2].split("|") if len(columns) == 3 else []:
            alias = alias.strip()
            if alias and alias != name and alias not in aliases:
                aliases.append(alias)
        entities[entity_id] = (name, tuple(aliases))

    relations = {}
    for number, columns in _oracle_rows(relations_path) if relations_path else []:
        if len(columns) != 2 or not columns[0].strip() or not columns[1].strip():
            raise ValueError(f"{relations_path.name}:{number}")
        if columns[0].strip() in relations:
            raise ValueError(columns[0].strip())
        relations[columns[0].strip()] = columns[1].strip()

    parsed = []
    for number, columns in _oracle_rows(triples_path):
        if len(columns) != 3:
            raise ValueError(f"{triples_path.name}:{number}")
        subject, relation, token = (column.strip() for column in columns)
        literal = token[2:].split(":", 1) if token[:2] == "L:" else None
        if not subject or not relation:
            raise ValueError(f"{triples_path.name}:{number}")
        if token[:2] == "E:" and token[2:]:
            parsed.append((subject, relation, ("E", token[2:])))
        elif literal and len(literal) == 2 and literal[0] in ("plain", "time", "quantity") and literal[1]:
            parsed.append((subject, relation, ("L", literal[0], literal[1])))
        else:
            raise ValueError(f"{triples_path.name}:{number}")

    triples, adjacency = [], {}
    for triple in parsed:
        if triple in triples:
            continue
        subject, relation, obj = triple
        for entity_id in (subject, obj[1]) if obj[0] == "E" else (subject,):
            if entity_id not in entities:
                raise ValueError(entity_id)
        relations.setdefault(relation, relation)
        triples.append(triple)
        for entity_id in sorted({subject, obj[1]} if obj[0] == "E" else {subject}):
            adjacency.setdefault(entity_id, []).append(len(triples) - 1)
    return triples, adjacency, entities, relations


def csr_adjacency(graph) -> dict:
    """Entity id -> ascending incident rows, read from a graph's CSR.

    Lists only the entities that have rows, as ``oracle_load``'s adjacency does.
    """
    offsets, incident = graph.offsets.tolist(), graph.incident.tolist()
    return {
        entity_id: incident[offsets[code] : offsets[code + 1]]
        for code, entity_id in enumerate(graph.entity_ids.tolist())
        if offsets[code] < offsets[code + 1]
    }


def oracle_neighborhood(triples, seeds, hops):
    """Triples within ``hops`` (1 or 2) of the seeds, by scanning every triple.

    ``triples`` are plain tuples as ``oracle_load`` returns them. A triple
    is reached when its subject or entity object is a reached entity; the
    second hop adds every entity of the first hop's triples. Returns the
    reached triples in input order.
    """

    def entities_of(triple):
        subject, _, obj = triple
        return {subject, obj[1]} if obj[0] == "E" else {subject}

    reached = set(seeds)
    for _ in range(hops - 1):
        reached |= {entity for triple in triples if entities_of(triple) & reached for entity in entities_of(triple)}
    return [triple for triple in triples if entities_of(triple) & reached]
