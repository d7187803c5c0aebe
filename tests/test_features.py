import io

import numpy as np
import pytest

from infosum.corpus import load_corpus, make_sentence, parse_corpus
from infosum.features import (
    EmptySentenceError,
    FeatureExtractor,
    LayoutMismatchError,
    bow_layout,
    bow_vocabulary,
    dictionary_layout,
    general_features,
    layout_from_json,
    layout_hash,
    layout_to_json,
    raw_layout,
)
from infosum.lexicons import (
    CategoryLexicon,
    ScoredLexicon,
    bin_index,
    load_category_lexicon,
    load_scored_lexicon,
    read_category_lexicon,
    read_scored_lexicon,
)
from infosum.synth import SynthParams, write_synth_bundle

SCORED = load_scored_lexicon(
    io.StringIO(
        "#scored mrc imagery imagery:0:100\n"
        "alpha\timagery\t10\n"
        "beta\timagery\t10\n"
        "gamma\timagery\t90\n"
    ),
    bins=10,
)
CATS = load_category_lexicon(
    io.StringIO("#categories inq NEG,VICE\nabsurd\tNEG,VICE\nalpha\tNEG\n")
)


def reference_values(layout, scored, category, sentence, zero_when_wordless):
    """The per-word loops FeatureExtractor replaced, kept as its oracle."""
    words = [t.lower for t in sentence.tokens if t.is_word]
    out = np.zeros(layout.total_dim)
    if layout.mode == "bow":
        index = {w: i for i, w in enumerate(layout.vocab)}
        for word in words:
            if word in index:
                out[index[word]] += 1.0
        return out
    if not words and not zero_when_wordless:
        raise EmptySentenceError("sentence has no word tokens")
    pos = 0
    for lex in scored:
        for attr in lex.attributes:
            block = np.zeros(lex.bins)
            for word in words:
                entry = lex.entries.get(word)
                if entry is not None and attr in entry:
                    block[bin_index(entry[attr], lex.ranges[attr], lex.bins)] += 1.0
            if words:
                out[pos : pos + lex.bins] = block / len(words)
            pos += lex.bins
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


def scored_block(sentence, lex=SCORED):
    """The lexicon's interval fractions, through a scored-only extractor."""
    layout = dictionary_layout([lex], [], include_general=False)
    return FeatureExtractor(layout, [lex]).extract(sentence)


def category_block(sentence, lex=CATS):
    layout = dictionary_layout([], [lex], include_general=False)
    return FeatureExtractor(layout, [], [lex]).extract(sentence)


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

    def test_empty_sentence_error(self):
        with pytest.raises(EmptySentenceError):
            scored_block(make_sentence(0, "..."))

    def test_unknown_attribute(self):
        wider = load_scored_lexicon(
            io.StringIO("#scored mrc imagery,familiarity familiarity:0:10\nalpha\tfamiliarity\t3\n"),
            bins=10,
        )
        layout = dictionary_layout([wider], [], include_general=False)
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

    def test_empty_sentence_error(self):
        with pytest.raises(EmptySentenceError):
            category_block(make_sentence(0, "!!"))


class TestGeneralFeatures:
    def test_hello_world(self):
        vec = general_features(make_sentence(0, "Hello, world!"))
        assert vec.tolist() == [4.0, 2.0, 1.0, 0.0, 0.0, 0.0]

    def test_empty_sentence(self):
        assert general_features(make_sentence(0, "")).tolist() == [0.0] * 6

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
        bins=230,
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
        layout = dictionary_layout([scored], [liwc, inquirer])
        assert layout.total_dim == 1632
        mrc_width = sum(b.width for b in layout.blocks if b.name.startswith("mrc:"))
        assert mrc_width == 1380

    def test_blocks_contiguous(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        layout = dictionary_layout([scored], [liwc, inquirer])
        offset = 0
        for block in layout.blocks:
            assert block.offset == offset
            offset += block.width
        assert offset == layout.total_dim

    def test_no_general_mode_smaller_by_six(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        with_g = dictionary_layout([scored], [liwc, inquirer], include_general=True)
        without = dictionary_layout([scored], [liwc, inquirer], include_general=False)
        assert with_g.total_dim - without.total_dim == 6

    def test_layout_hash_stable_across_builds(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        h1 = layout_hash(dictionary_layout([scored], [liwc, inquirer]))
        h2 = layout_hash(dictionary_layout([scored], [liwc, inquirer]))
        assert h1 == h2

    def test_layout_json_round_trip(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        layout = dictionary_layout([scored], [liwc, inquirer])
        again = layout_from_json(layout_to_json(layout))
        assert again == layout
        assert layout_hash(again) == layout_hash(layout)

    def test_hash_changes_with_lexicon_content(self):
        scored, liwc, inquirer = paper_sized_lexicons()
        h1 = layout_hash(dictionary_layout([scored], [liwc]))
        mutated = ScoredLexicon(
            name=scored.name,
            attributes=scored.attributes,
            entries={"alpha": {"imagery": 301.0}},
            ranges=scored.ranges,
            bins=scored.bins,
        )
        h2 = layout_hash(dictionary_layout([mutated], [liwc]))
        assert h1 != h2


class TestExtractFeatures:
    def test_full_vector(self):
        layout = dictionary_layout([SCORED], [CATS])
        vec = FeatureExtractor(layout, [SCORED], [CATS]).extract(make_sentence(0, "alpha absurd!"))
        assert vec.shape == (10 + 2 + 6,)
        assert vec[-6] == 3.0  # token count feature leads the general block

    def test_out_of_lexicon_only_general_nonzero(self):
        layout = dictionary_layout([SCORED], [CATS])
        vec = FeatureExtractor(layout, [SCORED], [CATS]).extract(make_sentence(0, "zeta eta."))
        assert vec[:12].sum() == 0.0
        assert vec[12:].sum() > 0.0

    def test_deterministic(self):
        layout = dictionary_layout([SCORED], [CATS])
        ex = FeatureExtractor(layout, [SCORED], [CATS])
        s = make_sentence(0, "alpha absurd gamma?")
        assert np.array_equal(ex.extract(s), ex.extract(s))

    def test_mismatched_lexicon_rejected(self):
        layout = dictionary_layout([SCORED], [CATS])
        other = load_scored_lexicon(
            io.StringIO("#scored mrc imagery imagery:0:100\nalpha\timagery\t11\n"),
            bins=10,
        )
        with pytest.raises(LayoutMismatchError):
            FeatureExtractor(layout, [other], [CATS])

    def test_extract_propagates_empty_sentence(self):
        layout = dictionary_layout([SCORED], [CATS])
        ex = FeatureExtractor(layout, [SCORED], [CATS])
        with pytest.raises(EmptySentenceError):
            ex.extract(make_sentence(0, "..."))

    def test_extract_or_zero_keeps_general_block(self):
        layout = dictionary_layout([SCORED], [CATS])
        ex = FeatureExtractor(layout, [SCORED], [CATS])
        vec = ex.extract_or_zero(make_sentence(0, "..."))
        assert vec[:12].sum() == 0.0
        assert vec[12] == 1.0  # one punctuation token

    def test_raw_layout_not_extractable(self):
        with pytest.raises(LayoutMismatchError):
            FeatureExtractor(raw_layout(4))


class TestBow:
    def test_vocabulary_min_df(self):
        corpus = parse_corpus(
            io.StringIO(
                '{"doc_id": "a", "sentences": ["shared unique1"]}\n'
                '{"doc_id": "b", "sentences": ["shared unique2"]}\n'
            )
        )
        assert bow_vocabulary(corpus, min_df=2) == ("shared",)

    def test_term_counts(self):
        layout = bow_layout(("alpha", "beta"))
        ex = FeatureExtractor(layout)
        vec = ex.extract(make_sentence(0, "alpha alpha gamma"))
        assert vec.tolist() == [2.0, 0.0]

    def test_wordless_sentence_is_zero_vector(self):
        ex = FeatureExtractor(bow_layout(("alpha",)))
        assert ex.extract(make_sentence(0, "...")).tolist() == [0.0]


WILDCARD_CATS = load_category_lexicon(
    io.StringIO(
        "#categories liwc POSEMO,AFFECT,FUNC\n"
        "happ*\tPOSEMO,AFFECT\n"
        "ha*\tFUNC\n"
        "happy\tAFFECT,FUNC\n"
        "the\tFUNC\n"
    )
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
    bins=7,
)
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
        assert np.array_equal(
            ex.extract_or_zero(sent), reference_values(layout, scored, category, sent, True)
        ), sent.text
        try:
            want = reference_values(layout, scored, category, sent, False)
        except EmptySentenceError:
            with pytest.raises(EmptySentenceError):
                ex.extract(sent)
        else:
            assert np.array_equal(ex.extract(sent), want), sent.text


class TestMatchesReference:
    """FeatureExtractor is exactly the per-word reference loops."""

    @pytest.mark.parametrize("include_general", [True, False])
    def test_hand_cases(self, include_general):
        scored, category = [SCORED, CLAMPED], [CATS, WILDCARD_CATS]
        layout = dictionary_layout(scored, category, include_general=include_general)
        sentences = [make_sentence(i, t) for i, t in enumerate(HAND_SENTENCES)]
        assert_matches_reference(layout, scored, category, sentences)

    def test_clamped_scores_land_in_edge_bins(self):
        layout = dictionary_layout([CLAMPED], [], include_general=False)
        vec = FeatureExtractor(layout, [CLAMPED]).extract(make_sentence(0, "below above top"))
        imagery, concreteness = vec[:7], vec[7:]
        assert imagery[0] == pytest.approx(1 / 3) and imagery[6] == pytest.approx(2 / 3)
        assert concreteness[0] == pytest.approx(1 / 3) and concreteness[6] == pytest.approx(1 / 3)

    def test_wildcard_and_multi_category_counts(self):
        layout = dictionary_layout([], [WILDCARD_CATS], include_general=False)
        vec = FeatureExtractor(layout, [], [WILDCARD_CATS]).extract(
            make_sentence(0, "happy hat the dog")
        )
        # happy: POSEMO, AFFECT, FUNC (wildcards and exact entry); hat: FUNC; the: FUNC
        assert vec.tolist() == [0.25, 0.25, 0.75]

    def test_bow_hand_cases(self):
        layout = bow_layout(("alpha", "happy", "the"))
        sentences = [make_sentence(i, t) for i, t in enumerate(HAND_SENTENCES)]
        assert_matches_reference(layout, [], [], sentences)

    def test_synth_bundle(self, tmp_path):
        paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=12, n_test_docs=4, seed=3))
        scored = [read_scored_lexicon(paths["scored_lexicon"], bins=230)]
        category = [read_category_lexicon(paths["category_lexicon"])]
        corpus = load_corpus(paths["train_corpus"])
        sentences = [s for doc in corpus for s in doc.sentences]
        for include_general in (True, False):
            layout = dictionary_layout(scored, category, include_general=include_general)
            assert_matches_reference(layout, scored, category, sentences)
        assert_matches_reference(bow_layout(bow_vocabulary(corpus)), [], [], sentences)
