"""Seeded synthetic knowledge graph and question set for the benchmark.

``generate(scale, seed, out_dir, gold_entities=...)`` writes the files that
``kgprompt.kg.load_graph`` and ``kgprompt.pipeline.load_dataset`` read, plus
the scripted provider's answer script and the gold triple of every question
(which the benchmark keeps to itself). The same scale and seed always give
byte-identical files.

Shape of the graph:

- entities carry two-word pseudo names; a share of them get one single-word
  alias, and a few are named by a single relation word, so that linking a
  question also finds entities the question is not about;
- relation frequencies follow a Zipf-like law;
- subjects and entity objects are drawn with weight ``rank ** -skew`` over a
  seeded permutation of the entities, so a few hubs have large
  neighborhoods;
- a share of the objects are typed literals.

Questions read "What is the <relation> of <subject>?" and are drawn from the
entity-valued triples. The answer script maps the gold triple's
verbalization to an answer sentence, so a question is answered only when
retrieval and rendering put its gold fact into the prompt.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "dr", "kr", "st", "tr", "gl")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "n", "r", "l", "s", "th", "x")
# Relation words use their own letters so they never equal a name word.
_REL_ONSETS = ("h", "w", "y", "ch", "sh", "ph", "qu")
_REL_NUCLEI = ("a", "e", "i", "o", "ee", "oa")
_REL_CODAS = ("m", "ck", "ng", "ft", "pt")


@dataclass(frozen=True)
class Scale:
    """Size knobs of one generated graph and question set."""

    entities: int = 20_000
    triples: int = 100_000
    relations: int = 60
    questions: int = 40
    alias_share: float = 0.30
    literal_share: float = 0.15
    relation_zipf: float = 1.0
    degree_skew: float = 0.5
    relation_named_entities: int = 30


@dataclass(frozen=True)
class Gold:
    """The triple a question was drawn from (never shown to the program)."""

    id: str
    subject: str
    relation: str
    object: str
    surface: str


def _words(rng: random.Random, count: int, onsets, nuclei, codas, syllables: int) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(onsets) + rng.choice(nuclei) for _ in range(syllables))
        word += rng.choice(codas)
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _literal(rng: random.Random, words: list[str]) -> str:
    kind = rng.choice(("plain", "time", "quantity"))
    if kind == "plain":
        return f"L:plain:{rng.choice(words)}"
    if kind == "time":
        return f"L:time:+{rng.randint(1800, 2020)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    return f"L:quantity:{rng.randint(1, 99_999)}"


def _weights(count: int, exponent: float) -> list[float]:
    return list(itertools.accumulate((rank ** -exponent for rank in range(1, count + 1))))


def _sample_questions(triples: list[tuple[str, str, str]], count: int) -> list[tuple[str, str, str]]:
    """The middle entity-valued triple of each of ``count`` equal strata.

    Strata follow the subject's two-hop mass (its degree plus its entity
    neighbors' degrees), which tracks the size of its two-hop neighborhood.
    A uniform sample has the same expected mix, but the heavy tail of hub
    neighborhoods makes the total work of 150 uniformly drawn questions vary
    by about 25% between samples; taking each stratum's middle keeps it
    within a few percent across seeds.
    """
    degree: Counter[str] = Counter()
    neighbors: dict[str, set[str]] = defaultdict(set)
    for subject, _, obj in triples:
        degree[subject] += 1
        if obj.startswith("E:"):
            degree[obj[2:]] += 1
            neighbors[subject].add(obj[2:])
            neighbors[obj[2:]].add(subject)
    mass = {entity: degree[entity] + sum(degree[n] for n in near) for entity, near in neighbors.items()}
    entity_valued = sorted(
        (triple for triple in triples if triple[2].startswith("E:")),
        key=lambda triple: (mass[triple[0]], triple),
    )
    step = len(entity_valued) / count
    return [entity_valued[int((index + 0.5) * step)] for index in range(count)]


def generate(scale: Scale, seed: int, out_dir: Path, gold_entities: bool) -> list[Gold]:
    """Write entities/relations/triples TSV, dataset.jsonl and script.json.

    ``gold_entities`` puts each question's subject into ``question_entities``;
    without it the program has to link the question text itself. Returns the
    gold triple of every question, in dataset order.
    """
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    relation_words = _words(rng, scale.relations, _REL_ONSETS, _REL_NUCLEI, _REL_CODAS, 1)
    # Even relations are one word, odd ones reuse the previous word as a
    # second word, so relation names share tokens.
    relation_names = [
        word if index % 2 == 0 else f"{word} {relation_words[index - 1]}"
        for index, word in enumerate(relation_words)
    ]
    relation_ids = [f"P{index + 1}" for index in range(scale.relations)]

    name_words = _words(rng, 400, _ONSETS, _NUCLEI, _CODAS, 2)
    alias_words = _words(rng, scale.entities, _ONSETS, _NUCLEI, _CODAS, 3)
    pairs = rng.sample(range(len(name_words) ** 2), scale.entities - scale.relation_named_entities)
    names = [
        f"{name_words[pair // len(name_words)].title()} {name_words[pair % len(name_words)].title()}"
        for pair in pairs
    ]
    names += [word.title() for word in rng.sample(relation_words, scale.relation_named_entities)]
    rng.shuffle(names)
    entity_ids = [f"Q{index + 1}" for index in range(scale.entities)]
    aliases = {
        entity_id: alias_words[index].title()
        for index, entity_id in enumerate(entity_ids)
        if rng.random() < scale.alias_share
    }

    by_degree = entity_ids[:]
    rng.shuffle(by_degree)
    entity_weights = _weights(scale.entities, scale.degree_skew)
    relation_weights = _weights(scale.relations, scale.relation_zipf)

    triples: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    while len(triples) < scale.triples:
        subject = rng.choices(by_degree, cum_weights=entity_weights)[0]
        relation = rng.choices(relation_ids, cum_weights=relation_weights)[0]
        if rng.random() < scale.literal_share:
            obj = _literal(rng, name_words)
        else:
            target = rng.choices(by_degree, cum_weights=entity_weights)[0]
            if target == subject:
                continue
            obj = f"E:{target}"
        triple = (subject, relation, obj)
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)

    name_of = dict(zip(entity_ids, names))
    relation_name_of = dict(zip(relation_ids, relation_names))
    questions = _sample_questions(triples, scale.questions)
    rng.shuffle(questions)
    gold: list[Gold] = []
    for number, (subject, relation, obj) in enumerate(questions, 1):
        surface = name_of[subject]
        if subject in aliases and rng.random() < 0.5:
            surface = aliases[subject]
        gold.append(Gold(f"q{number:05d}", subject, relation, obj[2:], surface))

    with (out_dir / "entities.tsv").open("w", encoding="utf-8") as handle:
        for entity_id in entity_ids:
            handle.write(f"{entity_id}\t{name_of[entity_id]}\t{aliases.get(entity_id, '')}\n")
    with (out_dir / "relations.tsv").open("w", encoding="utf-8") as handle:
        for relation_id in relation_ids:
            handle.write(f"{relation_id}\t{relation_name_of[relation_id]}\n")
    with (out_dir / "triples.tsv").open("w", encoding="utf-8") as handle:
        for subject, relation, obj in triples:
            handle.write(f"{subject}\t{relation}\t{obj}\n")
    script = {}
    with (out_dir / "dataset.jsonl").open("w", encoding="utf-8") as handle:
        for item in gold:
            relation = relation_name_of[item.relation]
            subject, obj = name_of[item.subject], name_of[item.object]
            record = {
                "id": item.id,
                "question": f"What is the {relation} of {item.surface}?",
                "answer_entities": [item.object],
            }
            if gold_entities:
                record["question_entities"] = [item.subject]
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            script.setdefault(f"({subject}, {relation}, {obj})", f"The {relation} of {subject} is {obj}.")
    (out_dir / "script.json").write_text(json.dumps(script, indent=0) + "\n", encoding="utf-8")
    return gold
