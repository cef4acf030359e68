"""Synthetic world generation and KG-view derivation.

The generator reproduces the *traits* that drive the paper's evaluation
rather than copying any particular dump:

1. A **world** of ground-truth entities (persons, places, clubs,
   countries) plus a handful of **general-concept hubs** (``person``,
   ``settlement`` ...) that accumulate very high degree — the noise source
   the paper's attention mechanism must learn to down-weight.
2. Two **views** of the world, one per KG, each independently dropping
   relations/attributes (schema + density heterogeneity), renaming
   attributes, translating common words into a pseudo-language, perturbing
   names, and optionally folding a long-tail entity's facts into a single
   long ``comment`` value — the exact phenomenon of Fig. 2's
   ⟨Fabian_Bruskewitz⟩ example.

Every linked entity pair shares the underlying facts, so semantic
associations exist for a model to discover even when structure is absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kg.graph import KnowledgeGraph
from ..kg.pair import KGPair
from .translation import ENGLISH, Language, _stable_seed, transliterate_word
from .words import COMMON_WORDS, TYPE_WORDS, proper_name, proper_word


@dataclass
class EntitySpec:
    """Ground-truth entity in the synthetic world."""

    index: int
    etype: str                        # person | place | club | country | concept
    name_words: List[str]             # protected proper-noun tokens
    attrs: Dict[str, str] = field(default_factory=dict)
    relations: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def display_name(self) -> str:
        return " ".join(self.name_words)


@dataclass
class World:
    """A generated world: entities plus the concept-hub index range."""

    entities: List[EntitySpec]
    concept_indices: List[int]

    def __len__(self) -> int:
        return len(self.entities)


@dataclass(frozen=True)
class WorldConfig:
    """Controls world size and composition."""

    n_persons: int = 60
    n_places: int = 25
    n_clubs: int = 15
    n_countries: int = 8
    extra_person_links: int = 2      # extra person→person "knows" edges (dense)
    comment_sentences: int = 2
    seed: int = 23


@dataclass(frozen=True)
class ViewConfig:
    """Controls how one KG view is derived from the world.

    Attributes
    ----------
    side:
        1 or 2 — selects the URI namespace and attribute schema variant.
    language:
        Pseudo-language for common words ("english" = identity).
    rel_keep_prob:
        Probability of keeping each world relation (density control).
    attr_keep_prob:
        Probability of keeping each structured attribute.
    name_style:
        ``plain`` (exact names), ``noisy`` (abbreviations/format noise) or
        ``id`` (opaque Wikidata-style ``Q...`` identifiers, no name signal).
    comment_prob:
        Probability an entity carries a long textual ``comment``.
    fold_longtail_prob:
        For entities that end up long-tail (few kept relations), the
        probability that their structured attributes are *replaced* by the
        comment (Fig. 2's single-attribute case).
    numeric_extra_prob:
        Probability of adding opaque numeric attributes (identifiers,
        dates) — the D-W error-analysis trait.
    name_noise:
        Per-word probability of transliteration-style perturbation of the
        *name attribute* (cross-script romanisation differences).  The
        protected words inside comments keep their canonical form, as
        romanised mentions in real article text do.
    edge_phase:
        Controls cross-KG triple overlap.  Every world edge carries a
        stable uniform value u; a view keeps the edge iff
        ``(u - edge_phase) mod 1 < rel_keep_prob``.  Two views with the
        same phase keep maximally overlapping edge sets (dense matching
        neighbors, DBP15K-style); phases ``rel_keep_prob`` apart keep
        nearly disjoint sets (OpenEA D-W's "99.6% of test pairs have no
        matching neighbors").
    type_edges:
        Whether entities link to their general-concept hub.
    seed:
        View-local randomness (independent of the world seed).
    """

    side: int = 1
    language: Language = ENGLISH
    rel_keep_prob: float = 0.9
    attr_keep_prob: float = 0.9
    name_style: str = "plain"
    comment_prob: float = 0.5
    fold_longtail_prob: float = 0.0
    numeric_extra_prob: float = 0.0
    name_noise: float = 0.0
    name_noise_strength: float = 1.0
    edge_phase: float = 0.0
    type_edges: bool = True
    seed: int = 101

    def __post_init__(self) -> None:
        if self.side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        if self.name_style not in ("plain", "noisy", "id"):
            raise ValueError(f"unknown name_style: {self.name_style}")


# Attribute schema per side: canonical fact key → side-specific name.
_ATTR_SCHEMA = {
    1: {
        "name": "name",
        "birthYear": "birthYear",
        "population": "population",
        "foundedYear": "foundedYear",
        "comment": "abstract",
    },
    # Side 2 renames some attributes but shares others (birthYear,
    # population) — real cross-KG schemas overlap partially, which is what
    # JAPE's and GCN-Align's attribute-correlation channels exploit.
    2: {
        "name": "label",
        "birthYear": "birthYear",
        "population": "population",
        "foundedYear": "established",
        "comment": "comment",
    },
}


def generate_world(config: WorldConfig) -> World:
    """Generate the ground-truth world.

    A fresh generator is seeded from ``config.seed``, so repeated calls
    are bitwise identical and never touch shared module-level RNG state.
    """
    rng = np.random.default_rng(config.seed)
    entities: List[EntitySpec] = []

    def new_entity(etype: str, name_words: List[str]) -> EntitySpec:
        spec = EntitySpec(index=len(entities), etype=etype, name_words=name_words)
        entities.append(spec)
        return spec

    concepts: Dict[str, EntitySpec] = {}
    for etype in ("person", "place", "club", "country"):
        concepts[etype] = new_entity("concept", [TYPE_WORDS[etype][0]])
    concept_indices = [c.index for c in concepts.values()]

    countries = []
    for _ in range(config.n_countries):
        country = new_entity("country", [proper_word(rng)])
        country.attrs["comment"] = (
            f"{country.display_name} is a country in the world known for "
            f"its large historic region ."
        )
        countries.append(country)
    places = []
    for _ in range(config.n_places):
        place = new_entity("place", [proper_word(rng)])
        country = countries[rng.integers(len(countries))]
        place.relations.append(("country", country.index))
        population = int(rng.integers(5, 9000)) * 1000
        place.attrs["population"] = str(population)
        place.attrs["comment"] = (
            f"{place.display_name} is a city in {country.display_name} "
            f"with a population of {population} people ."
        )
        places.append(place)
    clubs = []
    for _ in range(config.n_clubs):
        club = new_entity("club", [proper_word(rng), "FC"])
        home = places[rng.integers(len(places))]
        club.relations.append(("locatedIn", home.index))
        founded = int(rng.integers(1860, 2000))
        club.attrs["foundedYear"] = str(founded)
        club.attrs["comment"] = (
            f"{club.display_name} is a professional football club founded "
            f"in {founded} and located in {home.display_name} ."
        )
        clubs.append(club)

    persons = []
    for _ in range(config.n_persons):
        person = new_entity("person", proper_name(rng, 2))
        birth_place = places[rng.integers(len(places))]
        nationality = countries[rng.integers(len(countries))]
        person.relations.append(("birthPlace", birth_place.index))
        person.relations.append(("nationality", nationality.index))
        n_clubs = int(rng.integers(1, 3))
        for club in rng.choice(len(clubs), size=n_clubs, replace=False):
            person.relations.append(("memberOf", clubs[club].index))
        person.attrs["birthYear"] = str(int(rng.integers(1900, 2004)))
        person.attrs["comment"] = _person_comment(
            person, entities, rng, config.comment_sentences
        )
        persons.append(person)

    # Dense-mode extra person→person edges ("knows"), raising degrees.
    for person in persons:
        for _ in range(config.extra_person_links):
            other = persons[rng.integers(len(persons))]
            if other.index != person.index:
                person.relations.append(("knows", other.index))

    # name attribute and type edge for everyone except concept hubs
    for spec in entities:
        if spec.etype == "concept":
            continue
        spec.attrs["name"] = spec.display_name
        spec.relations.append(("type", concepts[spec.etype].index))

    return World(entities=entities, concept_indices=concept_indices)


def _person_comment(person: EntitySpec, entities: List[EntitySpec],
                    rng: np.random.Generator, sentences: int) -> str:
    """Compose the long textual description mentioning the person's facts."""
    facts = dict()
    for rel, target in person.relations:
        facts.setdefault(rel, entities[target].display_name)
    parts = [
        f"{person.display_name} was born in "
        f"{facts.get('birthPlace', 'an old town')} in "
        f"{person.attrs.get('birthYear', 'the past')}"
    ]
    if sentences >= 2:
        parts.append(
            f"{person.name_words[-1]} is a famous professional player from "
            f"{facts.get('nationality', 'a small country')} and plays for "
            f"{facts.get('memberOf', 'a local club')}"
        )
    if sentences >= 3:
        glue = " ".join(
            str(w) for w in rng.choice(COMMON_WORDS, size=8, replace=True)
        )
        parts.append(f"the career of {person.name_words[-1]} {glue}")
    return " . ".join(parts) + " ."


# ---------------------------------------------------------------------- #
# View derivation
# ---------------------------------------------------------------------- #
def derive_view(world: World, config: ViewConfig,
                name: Optional[str] = None) -> KnowledgeGraph:
    """Derive one KG view of a world according to ``config``.

    The generator is seeded from ``config.seed`` salted by the side, so
    the two views of a pair draw from independent deterministic streams.
    """
    rng = np.random.default_rng(config.seed + 7919 * config.side)
    schema = _ATTR_SCHEMA[config.side]
    graph = KnowledgeGraph(name=name or f"kg{config.side}")
    uris = [_entity_uri(spec, config) for spec in world.entities]

    for spec in world.entities:
        graph.add_entity(uris[spec.index])

    # Relations first so we know who is long-tail before placing attrs.
    # Edge keeping uses per-edge stable uniforms shared by both views, so
    # that edge_phase controls the cross-KG triple overlap (see class
    # docstring).
    kept_degree = {spec.index: 0 for spec in world.entities}
    for spec in world.entities:
        for occurrence, (rel, target) in enumerate(spec.relations):
            if rel == "type":
                if not config.type_edges:
                    continue
            else:
                u = _edge_uniform(spec.index, rel, target, occurrence)
                if (u - config.edge_phase) % 1.0 >= config.rel_keep_prob:
                    continue
            graph.add_rel_triple(uris[spec.index], rel, uris[target])
            kept_degree[spec.index] += 1
            kept_degree[target] += 1

    protected = {w.lower() for spec in world.entities for w in spec.name_words}
    for spec in world.entities:
        if spec.etype == "concept":
            graph.add_attr_triple(
                uris[spec.index], schema["name"],
                _concept_name(spec, config),
            )
            continue
        is_longtail = kept_degree[spec.index] <= 3
        fold = (
            is_longtail
            and "comment" in spec.attrs
            and rng.random() < config.fold_longtail_prob
        )
        emitted_any = False
        for key, value in spec.attrs.items():
            if key == "comment":
                continue
            if fold:
                continue
            if key != "name" and rng.random() > config.attr_keep_prob:
                continue
            rendered = _render_value(key, value, spec, config, rng, protected)
            if rendered is None:
                continue
            graph.add_attr_triple(uris[spec.index], schema.get(key, key), rendered)
            emitted_any = True
        comment = spec.attrs.get("comment")
        emit_comment = comment is not None and (
            fold or rng.random() < config.comment_prob
        )
        if emit_comment:
            translated = config.language.translate_text(comment, protected)
            graph.add_attr_triple(uris[spec.index], schema["comment"], translated)
            emitted_any = True
        if not emitted_any and not config.name_style == "id":
            # guarantee at least the name so Algorithm 1 has a value
            graph.add_attr_triple(
                uris[spec.index], schema["name"],
                _styled_name(spec, config, rng),
            )
        if config.numeric_extra_prob and rng.random() < config.numeric_extra_prob:
            graph.add_attr_triple(
                uris[spec.index], "identifier",
                str(int(rng.integers(10**5, 10**8))),
            )
    return graph


def _edge_uniform(source: int, relation: str, target: int,
                  occurrence: int) -> float:
    """Stable uniform in [0, 1) identifying a world edge."""
    seed = _stable_seed("edge", str(source), relation, str(target),
                        str(occurrence))
    return (seed % (2**32)) / float(2**32)


def _entity_uri(spec: EntitySpec, config: ViewConfig) -> str:
    if config.name_style == "id":
        # Opaque Wikidata-style identifier; deterministic per entity+side.
        return f"http://side{config.side}/entity/Q{100000 + spec.index}"
    # URI local names follow the view's script: a cross-script side uses
    # transliterated words (zh.dbpedia URIs are not literal matches for
    # en.dbpedia ones).  Deterministic — no rng involved.
    words = spec.name_words
    if config.name_noise > 0:
        words = [
            transliterate_word(w, config.language.name,
                               config.name_noise_strength)
            for w in words
        ]
    # Disambiguation suffix keeps URIs unique; it is side-shifted so the
    # digits themselves carry no cross-KG alignment signal.
    suffix = spec.index if config.side == 1 else spec.index + 50021
    local = "_".join(words) + f"_{suffix}"
    return f"http://side{config.side}/resource/{local}"


def _concept_name(spec: EntitySpec, config: ViewConfig) -> str:
    """Concept hubs use side-specific synonyms (person vs people)."""
    synonyms = None
    for words in TYPE_WORDS.values():
        if spec.name_words[0] == words[0]:
            synonyms = words
            break
    if synonyms is None:
        return spec.display_name
    word = synonyms[0] if config.side == 1 else synonyms[1]
    return config.language.translate_word(word) if not config.language.is_identity else word


def _styled_name(spec: EntitySpec, config: ViewConfig,
                 rng: np.random.Generator) -> str:
    if config.name_style == "id":
        return f"Q{100000 + spec.index}"
    words = list(spec.name_words)
    if config.name_noise > 0:
        words = [
            transliterate_word(w, config.language.name,
                               config.name_noise_strength)
            if rng.random() < config.name_noise else w
            for w in words
        ]
    name = " ".join(words)
    if config.name_style == "noisy" and len(words) > 1:
        roll = rng.random()
        if roll < 0.25:  # abbreviate the first word: C. Ronaldo
            name = f"{words[0][0]}. " + " ".join(words[1:])
        elif roll < 0.4:  # reorder: Ronaldo, Cristiano
            name = f"{' '.join(words[1:])} {words[0]}"
    return name


def _render_value(key: str, value: str, spec: EntitySpec, config: ViewConfig,
                  rng: np.random.Generator, protected: set) -> Optional[str]:
    if key == "name":
        if config.name_style == "id":
            return f"Q{100000 + spec.index}"
        return _styled_name(spec, config, rng)
    if key == "population":
        # Different precision per side (heterogeneous numerics).
        number = int(value)
        if config.side == 2 and rng.random() < 0.5:
            number = int(round(number, -3))
        return str(number)
    return value


# ---------------------------------------------------------------------- #
# Pair assembly
# ---------------------------------------------------------------------- #
def generate_pair(world_config: WorldConfig, view1: ViewConfig,
                  view2: ViewConfig, name: str = "pair",
                  include_concepts_in_links: bool = False) -> KGPair:
    """Generate a world and derive a linked KG pair from it.

    Each stage seeds its own generator from its config, so the result
    is bitwise stable across calls.
    """
    if view1.side == view2.side:
        view2 = replace(view2, side=3 - view1.side)
    world = generate_world(world_config)
    kg1 = derive_view(world, view1, name=f"{name}-1")
    kg2 = derive_view(world, view2, name=f"{name}-2")

    uris1 = [_entity_uri(s, view1) for s in world.entities]
    uris2 = [_entity_uri(s, view2) for s in world.entities]
    concept_set = set(world.concept_indices)
    links = []
    for spec in world.entities:
        if spec.index in concept_set and not include_concepts_in_links:
            continue
        links.append((kg1.entity_id(uris1[spec.index]),
                      kg2.entity_id(uris2[spec.index])))
    return KGPair(kg1=kg1, kg2=kg2, links=links, name=name)
