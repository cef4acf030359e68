"""Synthetic dataset generators: languages, worlds, views, presets."""

import numpy as np
import pytest

from repro.datasets import (
    DBP15K_LANGS,
    DBP15KScale,
    ENGLISH,
    Language,
    OPENEA_DATASETS,
    OpenEAScale,
    SRPRS_DATASETS,
    SRPRSScale,
    ViewConfig,
    WorldConfig,
    available_datasets,
    build_dataset,
    build_dbp15k,
    build_openea,
    build_srprs,
    derive_view,
    generate_pair,
    generate_world,
    make_lexicon,
)
from repro.datasets.translation import transliterate_word
from repro.kg.statistics import pair_degree_proportions, value_type_fractions


class TestLanguage:
    def test_english_is_identity(self):
        assert ENGLISH.translate_text("hello world") == "hello world"

    def test_translation_is_deterministic(self):
        lang = Language("zh")
        assert lang.translate_word("hello") == lang.translate_word("hello")

    def test_different_languages_differ(self):
        text = "the famous player"
        assert Language("zh").translate_text(text) != \
            Language("ja").translate_text(text)

    def test_protected_tokens_preserved(self):
        lang = Language("zh")
        out = lang.translate_text("Ronaldo plays football",
                                  protected=["ronaldo"])
        assert "Ronaldo" in out.split()
        assert "plays" not in out.split()

    def test_numbers_preserved(self):
        lang = Language("zh")
        out = lang.translate_text("born in 1985")
        assert "1985" in out.split()

    def test_make_lexicon(self):
        lex = make_lexicon(["one", "two"], Language("fr"))
        assert set(lex) == {"one", "two"}
        assert all(v for v in lex.values())

    def test_transliterate_deterministic_and_similar_length(self):
        a = transliterate_word("Cristiano", "zh")
        b = transliterate_word("Cristiano", "zh")
        assert a == b
        assert a != "Cristiano"
        assert abs(len(a) - len("Cristiano")) <= 4

    def test_transliterate_strength_scales_edits(self):
        word = "Bruskewitz"
        light = transliterate_word(word, "zz", strength=0.5)
        heavy = transliterate_word(word, "zz", strength=3.0)

        def edits(a, b):
            return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))

        assert edits(word, heavy) >= edits(word, light)


class TestWorldGeneration:
    def test_counts(self):
        world = generate_world(WorldConfig(n_persons=10, n_places=5,
                                           n_clubs=3, n_countries=2, seed=0))
        by_type = {}
        for spec in world.entities:
            by_type[spec.etype] = by_type.get(spec.etype, 0) + 1
        assert by_type["person"] == 10
        assert by_type["place"] == 5
        assert by_type["club"] == 3
        assert by_type["country"] == 2
        assert by_type["concept"] == 4

    def test_deterministic(self):
        w1 = generate_world(WorldConfig(seed=7))
        w2 = generate_world(WorldConfig(seed=7))
        assert [e.display_name for e in w1.entities] == \
            [e.display_name for e in w2.entities]

    def test_persons_have_comments_mentioning_facts(self):
        world = generate_world(WorldConfig(n_persons=5, seed=1))
        persons = [e for e in world.entities if e.etype == "person"]
        for person in persons:
            comment = person.attrs["comment"]
            assert person.name_words[0] in comment
            assert person.attrs["birthYear"] in comment

    def test_every_non_concept_has_type_edge(self):
        world = generate_world(WorldConfig(seed=2))
        concepts = set(world.concept_indices)
        for spec in world.entities:
            if spec.etype == "concept":
                continue
            targets = {t for r, t in spec.relations if r == "type"}
            assert targets & concepts


class TestViewDerivation:
    def test_view_config_validation(self):
        with pytest.raises(ValueError):
            ViewConfig(side=3)
        with pytest.raises(ValueError):
            ViewConfig(name_style="fancy")

    def test_id_style_names_are_opaque(self):
        world = generate_world(WorldConfig(n_persons=5, seed=3))
        view = derive_view(world, ViewConfig(side=2, name_style="id", seed=4))
        for uri in view.entity_uris():
            assert "/Q" in uri

    def test_sparse_view_has_fewer_triples(self):
        world = generate_world(WorldConfig(seed=5))
        dense = derive_view(world, ViewConfig(side=1, rel_keep_prob=1.0,
                                              seed=6))
        sparse = derive_view(world, ViewConfig(side=1, rel_keep_prob=0.2,
                                               seed=6))
        assert len(sparse.rel_triples) < len(dense.rel_triples)

    def test_numeric_extra_adds_identifier_attrs(self):
        world = generate_world(WorldConfig(seed=7))
        view = derive_view(world, ViewConfig(side=1, numeric_extra_prob=1.0,
                                             seed=8))
        assert "identifier" in view.attribute_names()

    def test_generate_pair_links_are_valid_ids(self):
        pair = generate_pair(WorldConfig(n_persons=8, seed=9),
                             ViewConfig(side=1, seed=10),
                             ViewConfig(side=2, seed=11))
        for e1, e2 in pair.links:
            assert 0 <= e1 < pair.kg1.num_entities
            assert 0 <= e2 < pair.kg2.num_entities

    def test_concept_hubs_excluded_from_links(self):
        pair = generate_pair(WorldConfig(n_persons=8, seed=9),
                             ViewConfig(side=1, seed=10),
                             ViewConfig(side=2, seed=11))
        # 8 persons + 25 default places... links = entities - 4 concepts
        assert len(pair.links) == pair.kg1.num_entities - 4

    def test_same_side_configs_coerced(self):
        pair = generate_pair(WorldConfig(n_persons=5, seed=1),
                             ViewConfig(side=1, seed=2),
                             ViewConfig(side=1, seed=3))
        assert pair.kg1.num_entities == pair.kg2.num_entities


class TestPresets:
    def test_registry_lists_all(self):
        names = available_datasets()
        assert len(names) == 10
        assert "dbp15k/zh_en" in names
        assert "openea/d_w_100k_v1" in names
        assert "openea/d_w_15k_v2" in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_dataset("dbp15k/xx_yy")
        with pytest.raises(ValueError):
            build_dbp15k("xx_yy")
        with pytest.raises(ValueError):
            build_srprs("nope")
        with pytest.raises(ValueError):
            build_openea("nope")

    @pytest.mark.parametrize("lang", DBP15K_LANGS)
    def test_dbp15k_builds(self, lang):
        scale = DBP15KScale(n_persons=20, n_places=10, n_clubs=6,
                            n_countries=4)
        pair = build_dbp15k(lang, scale=scale)
        assert len(pair.links) > 0
        assert pair.kg1.num_entities == pair.kg2.num_entities

    @pytest.mark.parametrize("name", SRPRS_DATASETS)
    def test_srprs_builds_and_is_sparse(self, name):
        scale = SRPRSScale(n_persons=40, n_places=16, n_clubs=8,
                           n_countries=4)
        pair = build_srprs(name, scale=scale)
        props = pair_degree_proportions(pair)
        assert props["1~3"] > 0.4  # long-tail heavy

    def test_dbp15k_denser_than_srprs(self):
        dbp = build_dbp15k("zh_en", scale=DBP15KScale(
            n_persons=40, n_places=16, n_clubs=8, n_countries=4))
        srprs = build_srprs("en_fr", scale=SRPRSScale(
            n_persons=40, n_places=16, n_clubs=8, n_countries=4))
        assert pair_degree_proportions(dbp)["1~3"] < \
            pair_degree_proportions(srprs)["1~3"]

    @pytest.mark.parametrize("name", OPENEA_DATASETS)
    def test_openea_wikidata_side_has_opaque_names(self, name):
        scale = OpenEAScale(n_persons=20, n_places=10, n_clubs=6,
                            n_countries=4, large_factor=2)
        pair = build_openea(name, scale=scale)
        assert all("/Q" in uri for uri in pair.kg2.entity_uris())

    def test_openea_numeric_heavy(self):
        scale = OpenEAScale(n_persons=30, n_places=12, n_clubs=6,
                            n_countries=4)
        pair = build_openea("d_w_15k_v1", scale=scale)
        fractions = value_type_fractions(pair.kg2)
        assert fractions["number"] + fractions["date"] > 0.25

    def test_openea_v2_denser_with_matching_neighbors(self):
        scale = OpenEAScale(n_persons=30, n_places=12, n_clubs=6,
                            n_countries=4)
        v1 = build_openea("d_w_15k_v1", scale=scale)
        v2 = build_openea("d_w_15k_v2", scale=scale)
        assert pair_degree_proportions(v2)["1~3"] < \
            pair_degree_proportions(v1)["1~3"]
        assert v2.matched_neighbor_fraction() > \
            v1.matched_neighbor_fraction()

    def test_large_openea_scales_up(self):
        scale = OpenEAScale(n_persons=10, n_places=5, n_clubs=3,
                            n_countries=4, large_factor=3)
        small = build_openea("d_w_15k_v1", scale=scale)
        large = build_openea("d_w_100k_v1", scale=scale)
        assert large.kg1.num_entities > 2 * small.kg1.num_entities

    def test_builds_are_deterministic(self):
        scale = DBP15KScale(n_persons=15, n_places=8, n_clubs=4,
                            n_countries=3)
        a = build_dbp15k("ja_en", scale=scale)
        b = build_dbp15k("ja_en", scale=scale)
        assert a.kg1.entity_uris() == b.kg1.entity_uris()
        assert a.links == b.links
        assert a.kg1.rel_triples == b.kg1.rel_triples
        assert a.kg2.attr_triples == b.kg2.attr_triples


class TestSampling:
    def test_induced_subpair_keeps_only_chosen(self, tiny_pair=None):
        from repro.datasets import build_dbp15k, DBP15KScale, induced_subpair
        pair = build_dbp15k("zh_en", scale=DBP15KScale(
            n_persons=20, n_places=10, n_clubs=6, n_countries=4))
        keep = pair.links[:10]
        sub = induced_subpair(pair, keep)
        assert len(sub.links) == 10
        assert sub.kg1.num_entities == 10
        assert sub.kg2.num_entities == 10
        # attribute triples preserved for kept entities
        for e in sub.kg1.entities():
            uri = sub.kg1.entity_uri(e)
            original = pair.kg1.entity_id(uri)
            assert len(sub.kg1.attributes_of(e)) == \
                len(pair.kg1.attributes_of(original))

    def test_downsample_fraction(self):
        from repro.datasets import build_srprs, SRPRSScale, downsample_pair
        pair = build_srprs("en_de", scale=SRPRSScale(
            n_persons=30, n_places=12, n_clubs=6, n_countries=4))
        sub = downsample_pair(pair, 0.5, np.random.default_rng(0))
        assert len(sub.links) == round(0.5 * len(pair.links))

    def test_downsample_validates_fraction(self):
        from repro.datasets import build_srprs, SRPRSScale, downsample_pair
        pair = build_srprs("en_de", scale=SRPRSScale(
            n_persons=10, n_places=6, n_clubs=4, n_countries=3))
        with pytest.raises(ValueError):
            downsample_pair(pair, 0.0)

    def test_degree_preserving_keeps_high_degree(self):
        from repro.datasets import (
            DBP15KScale, build_dbp15k, degree_preserving_sample,
        )
        pair = build_dbp15k("zh_en", scale=DBP15KScale(
            n_persons=40, n_places=16, n_clubs=8, n_countries=4))
        target = len(pair.links) // 3
        sub = degree_preserving_sample(pair, target,
                                       np.random.default_rng(1))
        assert len(sub.links) == target
        # mean degree among survivors should exceed the original mean
        orig_mean = np.mean([pair.kg1.degree(a) for a, _ in pair.links])
        kept_uris = {sub.kg1.entity_uri(e) for e in sub.kg1.entities()}
        kept_mean = np.mean([
            pair.kg1.degree(pair.kg1.entity_id(uri)) for uri in kept_uris
        ])
        assert kept_mean > orig_mean

    def test_degree_preserving_noop_when_target_large(self):
        from repro.datasets import (
            SRPRSScale, build_srprs, degree_preserving_sample,
        )
        pair = build_srprs("dbp_yg", scale=SRPRSScale(
            n_persons=10, n_places=6, n_clubs=4, n_countries=3))
        sub = degree_preserving_sample(pair, 10**6)
        assert len(sub.links) == len(pair.links)

    def test_degree_preserving_validates_target(self):
        from repro.datasets import (
            SRPRSScale, build_srprs, degree_preserving_sample,
        )
        pair = build_srprs("dbp_yg", scale=SRPRSScale(
            n_persons=10, n_places=6, n_clubs=4, n_countries=3))
        with pytest.raises(ValueError):
            degree_preserving_sample(pair, 0)


class TestLanguageValueSemantics:
    def test_frozen_equality_and_hash(self):
        assert Language("zh") == Language("zh")
        assert Language("zh") != Language("ja")
        assert hash(Language("fr")) == hash(Language("fr"))
        assert {Language("zh"), Language("zh")} == {Language("zh")}

    def test_identity_language_is_english_only(self):
        assert ENGLISH.is_identity
        assert not Language("en_but_not_identity").is_identity
