import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from infosum.corpus import decode, load_corpus, make_sentence, write_jsonl
from infosum.features import (
    FeatureExtractor,
    FeatureLayout,
    LayoutMismatchError,
    bow_layout,
    bow_vocabulary,
    dictionary_layout,
    general_features,
)
from infosum.lexicons import (
    CategoryLexicon,
    LexiconFormatError,
    ScoredLexicon,
    bin_index,
    read_category_lexicon,
    read_scored_lexicon,
)
from infosum.synth import SynthParams, write_synth_bundle

SCORED = ScoredLexicon(
    name="mrc",
    attributes=("imagery",),
    entries={"alpha": {"imagery": 10.0}, "beta": {"imagery": 10.0}, "gamma": {"imagery": 90.0}},
    ranges={"imagery": (0.0, 100.0)},
)
CATS = CategoryLexicon(
    name="inq",
    categories=("NEG", "VICE"),
    entries={"absurd": frozenset({0, 1}), "alpha": frozenset({0})},
    wildcards={},
)


def reference_values(layout, scored, category, sentence):
    """The per-word loops FeatureExtractor replaced, kept as its oracle."""
    words = sentence.words
    out = np.zeros(layout.total_dim)
    if layout.mode == "bow":
        index = {w: i for i, w in enumerate(layout.vocab)}
        for word in words:
            if word in index:
                out[index[word]] += 1.0
        return out
    pos = 0
    for lex, spec in zip(scored, layout.scored):
        for attr in lex.attributes:
            block = np.zeros(spec.bins)
            for word in words:
                entry = lex.entries.get(word)
                if entry is not None and attr in entry:
                    block[bin_index(entry[attr], lex.ranges[attr], spec.bins)] += 1.0
            if words:
                out[pos : pos + spec.bins] = block / len(words)
            pos += spec.bins
    for lex in category:
        block = np.zeros(len(lex.categories))
        for word in words:
            for cat in lex.lookup(word):
                block[cat] += 1.0
        if words:
            out[pos : pos + len(block)] = block / len(words)
        pos += len(block)
    if layout.general_width:
        out[pos:] = general_features(sentence)
    return out


def vector(extractor, sentence):
    """The sentence's row as a dense vector; the row must hold ascending columns and nonzero values."""
    cols, values = extractor.extract(sentence)
    assert cols == sorted(set(cols)) and len(values) == len(cols) and all(values)
    assert all(type(c) is int for c in cols) and all(type(v) is float for v in values)
    out = np.zeros(extractor.layout.total_dim)
    out[cols] = values
    return out


def scored_block(sentence, lex=SCORED):
    """The lexicon's interval fractions, through a scored-only extractor."""
    layout = dictionary_layout([lex], [], 10, include_general=False)
    return vector(FeatureExtractor(layout, [lex]), sentence)


def category_block(sentence, lex=CATS):
    layout = dictionary_layout([], [lex], 10, include_general=False)
    return vector(FeatureExtractor(layout, [], [lex]), sentence)


class TestIntervalFractions:
    def test_no_word_in_lexicon(self):
        sent = make_sentence(0, "zeta eta theta")
        assert scored_block(sent).sum() == 0.0

    def test_hand_count(self):
        # 4 words, two of them score 10 -> bin 1 of 10 over [0, 100)
        sent = make_sentence(0, "alpha beta zeta eta")
        vec = scored_block(sent)
        assert vec[1] == pytest.approx(0.5)
        assert vec.sum() == pytest.approx(0.5)

    def test_concentration(self):
        sent = make_sentence(0, "alpha beta")
        vec = scored_block(sent)
        assert vec[1] == pytest.approx(1.0)

    def test_wordless_sentence_is_zero(self):
        assert scored_block(make_sentence(0, "...")).tolist() == [0.0] * 10

    def test_unknown_attribute(self):
        wider = ScoredLexicon(
            name="mrc",
            attributes=("imagery", "familiarity"),
            entries={"alpha": {"familiarity": 3.0}},
            ranges={"familiarity": (0.0, 10.0)},
        )
        layout = dictionary_layout([wider], [], 10, include_general=False)
        with pytest.raises(ValueError):
            FeatureExtractor(layout, [SCORED])

    def test_sum_equals_in_lexicon_fraction(self):
        sent = make_sentence(0, "alpha gamma zeta delta")
        vec = scored_block(sent)
        assert vec.sum() == pytest.approx(2 / 4)
        assert np.all(vec >= 0) and np.all(vec <= 1)


class TestCategoryHistogram:
    def test_paper_absurd_example(self):
        sent = make_sentence(0, "absurd move")
        vec = category_block(sent)
        neg = CATS.categories.index("NEG")
        vice = CATS.categories.index("VICE")
        assert vec[neg] == pytest.approx(0.5)
        assert vec[vice] == pytest.approx(0.5)

    def test_no_word_in_lexicon(self):
        vec = category_block(make_sentence(0, "zeta eta"))
        assert vec.sum() == 0.0

    def test_all_words_in_category(self):
        vec = category_block(make_sentence(0, "absurd alpha"))
        assert vec[CATS.categories.index("NEG")] == pytest.approx(1.0)

    def test_wordless_sentence_is_zero(self):
        assert category_block(make_sentence(0, "!!")).tolist() == [0.0] * 2


class TestGeneralFeatures:
    def test_hello_world(self):
        vec = general_features(make_sentence(0, "Hello, world!"))
        assert vec == (4.0, 2.0, 1.0, 0.0, 0.0, 0.0)

    def test_empty_sentence(self):
        assert general_features(make_sentence(0, "")) == (0.0,) * 6

    def test_double_apostrophe_quote_convention(self):
        vec = general_features(
            make_sentence(0, "''We're not looking for a fight with Iran,''")
        )
        assert vec[5] == 1.0

    def test_typographic_quotes(self):
        assert general_features(make_sentence(0, "“quoted”"))[5] == 1.0

    def test_colon_and_question(self):
        vec = general_features(make_sentence(0, "really: why?"))
        assert vec[3] == 1.0 and vec[4] == 1.0


def paper_sized_lexicons():
    """Shape-compatible stand-ins: 6 scored attributes x 230 bins, 64 + 182 categories."""
    scored = ScoredLexicon(
        name="mrc",
        attributes=(
            "imagery",
            "concreteness",
            "familiarity",
            "age-of-acquisition",
            "meaningfulness-1",
            "meaningfulness-2",
        ),
        entries={"alpha": {"imagery": 300.0}},
        ranges={a: (100.0, 700.0) for a in (
            "imagery",
            "concreteness",
            "familiarity",
            "age-of-acquisition",
            "meaningfulness-1",
            "meaningfulness-2",
        )},
    )
    liwc = CategoryLexicon(
        name="liwc",
        categories=tuple(f"c{i}" for i in range(64)),
        entries={"alpha": frozenset({0})},
        wildcards={},
    )
    inquirer = CategoryLexicon(
        name="inquirer",
        categories=tuple(f"g{i}" for i in range(182)),
        entries={},
        wildcards={},
    )
    return scored, liwc, inquirer


class TestLayout:
    def test_paper_configuration_dimensions(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        layout = dictionary_layout([scored], [liwc, inquirer], 230)
        assert layout.total_dim == 1632
        assert dictionary_layout([scored], [], 230, include_general=False).total_dim == 1380

    @pytest.mark.parametrize("mode, width", [("dictionary", 35), ("dictionary-no-general", 29), ("bow", 3)])
    def test_derived_width_is_the_extractor_column_count(self, mode, width):
        """total_dim counts every column extract writes: the lexicon columns (10 + 2 * 7 + 2 + 3
        here) lie below the general block's offset, and the general block ends at the last column."""
        scored, category = [SCORED, CLAMPED], [CATS, WILDCARD_CATS]
        if mode == "bow":
            layout = bow_layout(("alpha", "happy", "the"))
        else:
            layout = mixed_layout(scored, category, include_general=mode == "dictionary")
        assert (layout.mode, layout.total_dim) == (mode, width)
        # "the" adds to the last lexicon column and the last vocabulary word's, and
        # the marks set all six general features
        cols, _ = FeatureExtractor(layout, scored, category).extract(make_sentence(0, 'top the! why? so: "x"'))
        offset = layout.total_dim - layout.general_width
        lexicon = [col for col in cols if col < offset]
        assert lexicon[-1] == offset - 1
        assert cols[len(lexicon):] == list(range(offset, layout.total_dim))
        assert layout.general_width == (6 if mode == "dictionary" else 0)

    def test_no_general_mode_smaller_by_six(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        with_g = dictionary_layout([scored], [liwc, inquirer], 230, include_general=True)
        without = dictionary_layout([scored], [liwc, inquirer], 230, include_general=False)
        assert with_g.total_dim - without.total_dim == 6

    def test_layout_stable_across_builds(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        assert dictionary_layout([scored], [liwc, inquirer], 230) == dictionary_layout([scored], [liwc, inquirer], 230)

    def test_layout_json_round_trip(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        layout = dictionary_layout([scored], [liwc, inquirer], 230)
        again = decode(FeatureLayout, json.loads(json.dumps(asdict(layout))), "layout")
        assert again == layout
        assert again.total_dim == layout.total_dim

    def test_layout_changes_with_lexicon_content(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        layout = dictionary_layout([scored], [liwc], 230)
        mutated = ScoredLexicon(
            name=scored.name,
            attributes=scored.attributes,
            entries={"alpha": {"imagery": 301.0}},
            ranges=scored.ranges,
        )
        assert dictionary_layout([mutated], [liwc], 230) != layout


    def test_block_names_are_lexicon_names_like_any_other(self):
        """The layout names no block, so no lexicon name is reserved; only a repeat is refused."""
        general = replace(CATS, name="general")
        bow = replace(SCORED, name="bow")
        layout = dictionary_layout([bow], [general], 10)
        assert [spec.name for spec in (*layout.scored, *layout.category)] == ["bow", "general"]
        with pytest.raises(LexiconFormatError, match="two lexicons are named 'general'"):
            dictionary_layout([replace(SCORED, name="general")], [general], 10)

    @pytest.mark.parametrize("key", ["scored", "category"])
    def test_bow_layout_holds_no_lexicon_spec(self, key):
        spec = dictionary_layout([SCORED], [CATS], 10)
        layout = {**asdict(bow_layout(("a", "b"))), key: asdict(spec)[key]}
        with pytest.raises(ValueError, match=f"^{key} must be empty in bow mode, not 1 lexicon specs$"):
            decode(FeatureLayout, layout, "layout")

class TestExtractFeatures:
    def test_full_vector(self):
        layout = dictionary_layout([SCORED], [CATS], 10)
        vec = vector(FeatureExtractor(layout, [SCORED], [CATS]), make_sentence(0, "alpha absurd!"))
        assert vec.shape == (10 + 2 + 6,)
        assert vec[-6] == 3.0  # token count feature leads the general block

    def test_out_of_lexicon_only_general_nonzero(self):
        layout = dictionary_layout([SCORED], [CATS], 10)
        vec = vector(FeatureExtractor(layout, [SCORED], [CATS]), make_sentence(0, "zeta eta."))
        assert vec[:12].sum() == 0.0
        assert vec[12:].sum() > 0.0

    def test_deterministic(self):
        layout = dictionary_layout([SCORED], [CATS], 10)
        ex = FeatureExtractor(layout, [SCORED], [CATS])
        s = make_sentence(0, "alpha absurd gamma?")
        assert ex.extract(s) == ex.extract(s)

    def test_mismatched_lexicon_rejected(self):
        layout = dictionary_layout([SCORED], [CATS], 10)
        other = ScoredLexicon(
            name="mrc",
            attributes=("imagery",),
            entries={"alpha": {"imagery": 11.0}},
            ranges={"imagery": (0.0, 100.0)},
        )
        with pytest.raises(LayoutMismatchError):
            FeatureExtractor(layout, [other], [CATS])

    @pytest.mark.parametrize("bins, expected", [
        (1, [1.0]),
        (5, [0.5, 0.0, 0.0, 0.0, 0.5]),
        (10, [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]),
    ])
    def test_the_layout_bins_the_lexicon(self, bins, expected):
        """A lexicon holds no bins: alpha (10) and gamma (90) of [0, 100] land in the intervals of the spec's bins."""
        layout = dictionary_layout([SCORED], [], bins, include_general=False)
        assert layout.scored[0].bins == bins
        assert vector(FeatureExtractor(layout, [SCORED]), make_sentence(0, "alpha gamma")).tolist() == expected

    def test_spec_bins_changed_without_its_hash_rejected(self):
        layout = dictionary_layout([SCORED], [CATS], 10)
        rebinned = replace(layout, scored=(replace(layout.scored[0], bins=5),))
        with pytest.raises(LayoutMismatchError, match="lexicon 'mrc' missing or does not match layout"):
            FeatureExtractor(rebinned, [SCORED], [CATS])

    @pytest.mark.parametrize("order", [1, -1], ids=["edited-first", "edited-last"])
    def test_two_lexicons_of_one_name_rejected_in_either_order(self, order):
        """The extractor takes each spec's lexicon by name, so a name given twice is refused,
        whichever of the two would match the layout."""
        layout = dictionary_layout([SCORED], [CATS], 10)
        edited = replace(SCORED, entries={**SCORED.entries, "alpha": {"imagery": 11.0}})
        with pytest.raises(LexiconFormatError, match="two lexicons are named 'mrc'"):
            FeatureExtractor(layout, [edited, SCORED][::order], [CATS])
        with pytest.raises(LexiconFormatError, match="two lexicons are named 'inq'"):
            FeatureExtractor(layout, [SCORED, replace(SCORED, name="inq")][::order], [CATS])

    def test_extract_or_zero_is_extract(self):
        assert FeatureExtractor.extract_or_zero is FeatureExtractor.extract

    def test_wordless_sentence_keeps_general_block(self):
        layout = dictionary_layout([SCORED], [CATS], 10)
        ex = FeatureExtractor(layout, [SCORED], [CATS])
        vec = vector(ex, make_sentence(0, "..."))
        assert vec[:12].sum() == 0.0
        assert vec[12] == 1.0  # one punctuation token


class TestBow:
    def test_vocabulary_min_df(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl([{"doc_id": "a", "sentences": ["shared unique1"]},
                     {"doc_id": "b", "sentences": ["shared unique2"]}], path)
        assert bow_vocabulary(load_corpus(path), min_df=2) == ("shared",)

    def test_term_counts(self):
        layout = bow_layout(("alpha", "beta"))
        ex = FeatureExtractor(layout)
        assert ex.extract(make_sentence(0, "alpha alpha gamma")) == ([0], [2.0])

    def test_wordless_sentence_is_zero_vector(self):
        ex = FeatureExtractor(bow_layout(("alpha",)))
        assert ex.extract(make_sentence(0, "...")) == ([], [])


WILDCARD_CATS = CategoryLexicon(
    name="liwc",
    categories=("POSEMO", "AFFECT", "FUNC"),
    entries={"happy": frozenset({1, 2}), "the": frozenset({2})},
    wildcards={"happ": frozenset({0, 1}), "ha": frozenset({2})},
)
CLAMPED = ScoredLexicon(
    name="clamped",
    attributes=("imagery", "concreteness"),
    entries={
        "below": {"imagery": -50.0, "concreteness": 0.0},
        "above": {"imagery": 250.0},
        "top": {"imagery": 100.0, "concreteness": 100.0},
        "alpha": {"concreteness": 42.0},
    },
    ranges={"imagery": (0.0, 100.0), "concreteness": (0.0, 100.0)},
)
# A model's layout may bin each scored lexicon its own way.
BINS = {SCORED.name: 10, CLAMPED.name: 7}


def mixed_layout(scored, category, include_general=True):
    """`dictionary_layout`, but with each scored lexicon binned as BINS says."""
    layout = dictionary_layout(scored, category, 10, include_general)
    specs = tuple(dictionary_layout([lex], [], BINS[lex.name]).scored[0] for lex in scored)
    return replace(layout, scored=specs)


HAND_SENTENCES = [
    "Happy happiness hat the HAPPY ha !",
    "below above top alpha absurd beta",
    "happy below , above ; the top",
    "unknown words only here",
    "...",
    "!! ?",
    "",
    "''We're alpha-beta: gamma?''",
]


def assert_matches_reference(layout, scored, category, sentences):
    ex = FeatureExtractor(layout, scored, category)
    for sent in sentences:
        assert np.array_equal(vector(ex, sent), reference_values(layout, scored, category, sent)), sent.text


class TestMatchesReference:
    """FeatureExtractor is exactly the per-word reference loops."""

    @pytest.mark.parametrize("include_general", [True, False])
    def test_hand_cases(self, include_general):
        scored, category = [SCORED, CLAMPED], [CATS, WILDCARD_CATS]
        layout = mixed_layout(scored, category, include_general=include_general)
        sentences = [make_sentence(i, t) for i, t in enumerate(HAND_SENTENCES)]
        assert_matches_reference(layout, scored, category, sentences)

    def test_clamped_scores_land_in_edge_bins(self):
        layout = dictionary_layout([CLAMPED], [], 7, include_general=False)
        vec = vector(FeatureExtractor(layout, [CLAMPED]), make_sentence(0, "below above top"))
        imagery, concreteness = vec[:7], vec[7:]
        assert imagery[0] == pytest.approx(1 / 3) and imagery[6] == pytest.approx(2 / 3)
        assert concreteness[0] == pytest.approx(1 / 3) and concreteness[6] == pytest.approx(1 / 3)

    def test_wildcard_and_multi_category_counts(self):
        layout = dictionary_layout([], [WILDCARD_CATS], 10, include_general=False)
        vec = vector(FeatureExtractor(layout, [], [WILDCARD_CATS]), make_sentence(0, "happy hat the dog"))
        # happy: POSEMO, AFFECT, FUNC (wildcards and exact entry); hat: FUNC; the: FUNC
        assert vec.tolist() == [0.25, 0.25, 0.75]

    def test_bow_hand_cases(self):
        layout = bow_layout(("alpha", "happy", "the"))
        sentences = [make_sentence(i, t) for i, t in enumerate(HAND_SENTENCES)]
        assert_matches_reference(layout, [], [], sentences)

    def test_synth_bundle(self, tmp_path):
        paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=12, n_test_docs=4, seed=3))
        scored = [read_scored_lexicon(paths["scored_lexicon"])]
        category = [read_category_lexicon(paths["category_lexicon"])]
        corpus = load_corpus(paths["train_corpus"])
        sentences = [s for doc in corpus for s in doc.sentences]
        for include_general in (True, False):
            layout = dictionary_layout(scored, category, 230, include_general=include_general)
            assert_matches_reference(layout, scored, category, sentences)
        assert_matches_reference(bow_layout(bow_vocabulary(corpus, 2)), [], [], sentences)
