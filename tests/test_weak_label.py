from collections import Counter

import pytest
from hypothesis import given, strategies as st

from infosum.cli import LabelSection
from infosum.corpus import Corpus, build_document, make_sentence
from infosum.weak_label import (
    EXCLUDED,
    POSITIVE,
    UNLABELED,
    WeakLabel,
    align_score,
    label_by_alignment,
    label_by_extract,
    label_counts,
    read_labels,
    sample_unlabeled,
    write_labels,
)

def flat_idf(words, value=2.0):
    return {w: value for w in words}


def types(text):
    """The word types of the sentence `text`, as `label_by_alignment` aligns them."""
    return frozenset(make_sentence(0, text).words)


class TestAlignScore:
    def test_disjoint(self):
        assert align_score(types("a b"), types("c d"), flat_idf("abcd")) == 0.0

    def test_identical_is_sum_of_types(self):
        s = types("iran nuclear talks nuclear")
        assert align_score(s, s, flat_idf(["iran", "nuclear", "talks"], 2.0)) == pytest.approx(6.0)

    def test_shared_types_weighted(self):
        idf = flat_idf(["iran", "nuclear", "talks", "resume"], 2.0)
        assert align_score(types("iran nuclear talks"), types("nuclear talks resume"), idf) == pytest.approx(4.0)

    def test_punctuation_excluded(self):
        assert align_score(types("a !"), types("a ?"), flat_idf(["a"], 5.0)) == 5.0

    def test_sums_in_sorted_order(self):
        """Summed in another order, these weights give another float."""
        idf = {"a": 0.1, "b": 1e16, "c": -1e16}
        assert align_score(types("c b a"), types("a b c"), idf) == (0.1 + 1e16) - 1e16
        assert (0.1 + 1e16) - 1e16 != 0.1 + (1e16 - 1e16)

    @given(st.lists(st.sampled_from("abcdef"), max_size=8), st.lists(st.sampled_from("abcdef"), max_size=8))
    def test_symmetry(self, xs, ys):
        idf = flat_idf("abcdef", 1.5)
        a, b = types(" ".join(xs)), types(" ".join(ys))
        assert align_score(a, b, idf) == align_score(b, a, idf)

    @given(st.lists(st.sampled_from("abcde"), max_size=6))
    def test_adding_shared_word_never_decreases(self, xs):
        idf = flat_idf("abcdef", 1.5)
        shared = types(" ".join(xs + ["f"]))
        assert align_score(shared, shared, idf) >= align_score(types(" ".join(xs)), shared, idf)


class TestLabelByAlignment:
    def doc(self):
        return build_document("d", ["w1 w2", "w3", "w4"], ["s1"])

    def test_all_zero_scores_all_unlabeled(self):
        doc = build_document("d", ["a b", "c d"], ["z y"])
        labels = label_by_alignment(doc, 14.0, 10.0, flat_idf("abcdzy"))
        assert [l.flag for l in labels] == [UNLABELED, UNLABELED]

    def test_threshold_bands(self):
        # scores 15, 12, 8 against defaults (t_pos=14, t_unl=10)
        doc = build_document(
            "d",
            ["p1 p2 p3", "m1 m2 m3", "u1 u2"],
            ["p1 p2 p3 m1 m2 m3 u1 u2"],
        )
        idf = {"p1": 5.0, "p2": 5.0, "p3": 5.0, "m1": 4.0, "m2": 4.0, "m3": 4.0, "u1": 4.0, "u2": 4.0}
        labels = label_by_alignment(doc, 14.0, 10.0, idf)
        assert [l.flag for l in labels] == [POSITIVE, EXCLUDED, UNLABELED]
        assert [l.align_score for l in labels] == [15.0, 12.0, 8.0]

    def test_score_exactly_t_pos_not_positive(self):
        doc = build_document("d", ["a b"], ["a b"])
        idf = {"a": 7.0, "b": 7.0}
        (label,) = label_by_alignment(doc, 14.0, 10.0, idf)
        assert label.flag == EXCLUDED

    def test_missing_summary(self):
        doc = build_document("d", ["a"])
        with pytest.raises(ValueError, match="summary"):
            label_by_alignment(doc, 14.0, 10.0, {})

    def test_score_is_the_best_over_the_summary_sentences(self):
        doc = build_document("d", ["a b c", "z"], ["a x", "a b c", "z"])
        labels = label_by_alignment(doc, 14.0, 10.0, flat_idf("abcxz", 1.0))
        assert [l.align_score for l in labels] == [3.0, 1.0]

    def test_partition_covers_all_sentences(self):
        doc = build_document("d", ["a", "b", "c d e f g h i"], ["c d e f g h i"])
        labels = label_by_alignment(doc, 14.0, 10.0, flat_idf("abcdefghi", 2.5))
        counts = label_counts(labels)
        assert sum(counts.values()) == 3

    def test_invalid_config_rejected(self):
        """The config section that holds the thresholds refuses bands that do not nest."""
        with pytest.raises(ValueError, match=r"t_unl \(10.0\) must be strictly below t_pos \(10.0\)"):
            LabelSection(t_pos=10.0, t_unl=10.0)


class TestLabelByExtract:
    def test_empty_extracts(self):
        doc = build_document("d", ["a", "b"])
        labels = label_by_extract(doc, [])
        assert [l.flag for l in labels] == [UNLABELED, UNLABELED]

    def test_membership_in_any_extract(self):
        doc = build_document("d", ["a", "b", "c"])
        labels = label_by_extract(doc, [[0], [], [], [0]])
        assert [l.flag for l in labels] == [POSITIVE, UNLABELED, UNLABELED]

    def test_all_extracted(self):
        doc = build_document("d", ["a", "b"])
        labels = label_by_extract(doc, [[0, 1]])
        assert [l.flag for l in labels] == [POSITIVE, POSITIVE]

    def test_out_of_range_id(self):
        doc = build_document("d", ["a"])
        with pytest.raises(ValueError, match="out of range"):
            label_by_extract(doc, [[3]])

    def test_never_excluded(self):
        doc = build_document("d", ["a", "b", "c"])
        labels = label_by_extract(doc, [[1]])
        assert all(l.flag in (POSITIVE, UNLABELED) for l in labels)


def make_labels(n_pos, n_unl, n_exc=0):
    labels = []
    i = 0
    for _ in range(n_pos):
        labels.append(WeakLabel("d", i, POSITIVE))
        i += 1
    for _ in range(n_unl):
        labels.append(WeakLabel("d", i, UNLABELED))
        i += 1
    for _ in range(n_exc):
        labels.append(WeakLabel("d", i, EXCLUDED))
        i += 1
    return labels


class TestSampleUnlabeled:
    def test_paper_proportion(self):
        # 1833 positives at ratio 1.2 keeps 2200 unlabeled
        labels = make_labels(1833, 3000)
        kept = sample_unlabeled(labels, 1.2, 3)
        counts = label_counts(kept)
        assert counts[POSITIVE] == 1833
        assert counts[UNLABELED] == 2200

    def test_small_pool_kept_entirely(self):
        labels = make_labels(10, 5)
        kept = sample_unlabeled(labels, 1.2, 0)
        assert label_counts(kept)[UNLABELED] == 5

    def test_deterministic(self):
        labels = make_labels(50, 500)
        a = sample_unlabeled(labels, 1.2, 11)
        b = sample_unlabeled(labels, 1.2, 11)
        assert a == b

    def test_different_seeds_differ(self):
        labels = make_labels(50, 500)
        a = sample_unlabeled(labels, 1.2, 1)
        b = sample_unlabeled(labels, 1.2, 2)
        assert a != b

    def test_never_drops_positive_and_drops_excluded(self):
        labels = make_labels(20, 100, 30)
        kept = sample_unlabeled(labels, 1.2, 5)
        counts = label_counts(kept)
        assert counts[POSITIVE] == 20
        assert counts[EXCLUDED] == 0

    def test_preserves_input_order(self):
        labels = make_labels(5, 50)
        kept = sample_unlabeled(labels, 1.2, 9)
        ids = [l.sentence_id for l in kept]
        assert ids == sorted(ids)

    def test_samples_each_of_the_pool_about_equally_often(self):
        """Over 500 seeds, each of the 300 unlabeled is kept 500 * 48 / 300 = 80 times in
        expectation, with a standard deviation of 8.2; 5 of them bound every count."""
        labels = make_labels(40, 300, 20)
        pool = {lab for lab in labels if lab.flag == UNLABELED}
        counts = Counter()
        for seed in range(500):
            kept = [lab for lab in sample_unlabeled(labels, 1.2, seed) if lab.flag == UNLABELED]
            assert len(set(kept)) == 48 and pool.issuperset(kept)
            counts.update(kept)
        assert set(counts) == pool
        assert 80 - 41 < min(counts.values()) and max(counts.values()) < 80 + 41


class TestLabelSerialization:
    def test_round_trip(self, tmp_path):
        labels = [
            WeakLabel("d", 0, POSITIVE, 15.5),
            WeakLabel("d", 1, UNLABELED, None),
            WeakLabel("e", 0, EXCLUDED, 12.0),
        ]
        path = tmp_path / "labels.jsonl"
        write_labels(labels, path)
        corpus = Corpus((build_document("d", ["A b.", "C d."]), build_document("e", ["E f."])))
        assert read_labels(path, corpus) == labels
