import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate
from scipy.stats import wilcoxon

from infosum.corpus import build_document, make_sentence
from infosum.metrics import (
    chi2_sf_1df,
    f1_score,
    mcnemar,
    normal_sf,
    prf,
    rouge_n,
    wilcoxon_signed_rank,
)
from infosum.summarize import SummaryResult, summary_words


def sents(*texts):
    """Each text's words, as `rouge_n` reads a sentence."""
    return [make_sentence(i, t).words for i, t in enumerate(texts)]


def scores_of_counts(overlap, ref_total, cand_total):
    """The entry `rouge_n` returns for an overlap of `overlap` n-grams between
    texts that hold `ref_total` and `cand_total`."""
    recall = overlap / ref_total if ref_total else 0.0
    precision = overlap / cand_total if cand_total else 0.0
    return {"recall": recall, "precision": precision, "f1": f1_score(precision, recall)}


def brute_force_rouge_counts(reference, candidate, n):
    """Independent oracle: materialize every n-gram, clip via list.count."""

    def grams(sentences):
        out = []
        for words in sentences:
            out.extend(tuple(words[i : i + n]) for i in range(len(words) - n + 1))
        return out

    ref, cand = grams(reference), grams(candidate)
    overlap = sum(min(ref.count(g), cand.count(g)) for g in set(ref))
    return overlap, len(ref), len(cand)


def loop_ngram_counts(sentences, n):
    """Reference: the per-position loop that counted n-grams before Counter.update."""
    counts = Counter()
    total = 0
    for words in sentences:
        for i in range(len(words) - n + 1):
            counts[tuple(words[i : i + n])] += 1
            total += 1
    return counts, total


WORD_LISTS = st.lists(st.lists(st.sampled_from(["a", "b", "cc", "d", "."]), max_size=7), max_size=5)


@given(WORD_LISTS, WORD_LISTS, st.integers(1, 3))
@example([], [], 1)
@example([[]], [["a"]], 2)
@example([["a"]], [["a"]], 1)
@example([["a"], ["b", "a"], []], [["b", "a", "b", "a"]], 2)
@example([["a", "b", "a"]], [["a", "b", "a"], ["a", "b", "a"]], 3)
def test_rouge_counts_equal_the_loop(ref_lists, cand_lists, n):
    """`rouge_n`'s recall and precision are the overlap, clipped by `&`, over the
    totals that per-position loops count."""
    reference = sents(*(" ".join(words) for words in ref_lists))
    candidate = sents(*(" ".join(words) for words in cand_lists))
    ref_counts, ref_loop_total = loop_ngram_counts(reference, n)
    cand_counts, cand_loop_total = loop_ngram_counts(candidate, n)
    overlap = sum((ref_counts & cand_counts).values())
    assert rouge_n(reference, candidate, n) == scores_of_counts(overlap, ref_loop_total, cand_loop_total)


class TestRougeTexts:
    """`rouge_n` on many reference and candidate texts, as evaluate scores them."""

    def random_pairs(self, seed):
        """Pairs over a small vocabulary: empty references, sentences shorter than
        4 words, and candidates cut as lead_words cuts them."""
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(6)] + ["W0", "!"]

        def text(max_sentences):
            return [
                " ".join(rng.choice(vocab, size=rng.integers(0, 9)))
                for _ in range(rng.integers(0, max_sentences + 1))
            ]

        pairs, cuts = [], 0
        for i in range(60):
            doc = build_document(f"d{i}", text(5) or ["w1"])
            reference = sents(*text(3))
            selected = tuple(sorted({int(j) for j in rng.choice(len(doc.sentences), size=rng.integers(0, 4))}))
            words = sum(len(doc.sentences[j].words) for j in selected)
            last = len(doc.sentences[selected[-1]].words) if selected else 0
            cut = int(rng.integers(0, last)) if last > 1 else 0
            cuts += cut > 0
            result = SummaryResult(f"d{i}", "leadwords", selected, (), "", words - cut)
            pairs.append((reference, summary_words(doc, result)))
        return pairs, cuts

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force_oracle(self, n):
        pairs, cuts = self.random_pairs(seed=n)
        assert cuts and any(not ref for ref, _ in pairs)
        assert any(0 < len(words) < n for _, cand in pairs for words in cand) or n == 1
        got = [rouge_n(ref, cand, n) for ref, cand in pairs]
        assert got == [scores_of_counts(*brute_force_rouge_counts(ref, cand, n)) for ref, cand in pairs]

    def test_scores_are_python_floats(self):
        """report.json writes the entry as it comes, so each score is a plain float."""
        score = rouge_n(sents("a b a"), sents("a a"), 1)
        assert score == {"recall": 2 / 3, "precision": 1.0, "f1": 0.8}
        for n in (1, 2):
            assert all(type(v) is float for v in rouge_n(sents("a b a"), sents("a a"), n).values())


class TestRouge:
    def test_identical_texts(self):
        s = sents("the cat sat on the mat .")
        for n in (1, 2):
            assert rouge_n(s, s, n)["recall"] == 1.0

    def test_derived_two_thirds(self):
        score = rouge_n(sents("the cat sat"), sents("the dog sat"), 1)
        assert score["recall"] == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert rouge_n(sents("aaa bbb"), sents("ccc ddd"), 1)["recall"] == 0.0

    def test_punctuation_and_case_ignored(self):
        score = rouge_n(sents("The CAT!"), sents("the cat ."), 1)
        assert score["recall"] == 1.0

    def test_ngrams_do_not_cross_sentences(self):
        ref = sents("a b")
        cand = sents("a", "b")  # two sentences: no "a b" bigram
        assert rouge_n(ref, cand, 2)["recall"] == 0.0

    def test_clipped_counts(self):
        """One candidate "a" matches one of the reference's three, not all of them."""
        assert rouge_n(sents("a a a"), sents("a"), 1) == scores_of_counts(1, 3, 1)
        assert rouge_n(sents("a"), sents("a a a"), 1) == scores_of_counts(1, 1, 3)

    def test_empty_reference_recall_zero(self):
        assert rouge_n([], sents("a"), 1)["recall"] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(99)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(50):
            ref = sents(" ".join(rng.choice(vocab, size=rng.integers(1, 13))))
            cand = sents(" ".join(rng.choice(vocab, size=rng.integers(1, 13))))
            for n in (1, 2):
                assert rouge_n(ref, cand, n) == scores_of_counts(*brute_force_rouge_counts(ref, cand, n))

    def test_appending_matching_sentence_never_decreases_recall(self):
        ref = sents("a b c", "d e")
        cand = sents("a b")
        longer = cand + sents("d e")
        assert rouge_n(ref, longer, 1)["recall"] >= rouge_n(ref, cand, 1)["recall"]


class TestPrf:
    def test_paper_nyt_row(self):
        assert f1_score(0.582, 0.846) == pytest.approx(0.689, abs=1e-3)

    def test_paper_baseline_row(self):
        # predict-all-positive over the 451/549 distribution
        report = prf(tp=451, fp=549, fn=0, tn=0)
        assert report["precision"] == pytest.approx(0.451, abs=1e-12)
        assert report["recall"] == 1.0
        assert report["f1"] == pytest.approx(0.621, abs=1e-3)
        assert (report["tp"], report["fp"], report["fn"], report["tn"]) == (451, 549, 0, 0)

    def test_all_zero_convention(self):
        assert prf(0, 0, 0, 0) == {"tp": 0, "fp": 0, "fn": 0, "tn": 0, "precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tp, fp, fn, tn = (int(x) for x in rng.integers(0, 50, size=4))
            r = prf(tp, fp, fn, tn)
            for v in (r["precision"], r["recall"], r["f1"]):
                assert 0.0 <= v <= 1.0
            assert r["f1"] <= min(2 * r["precision"], 2 * r["recall"]) + 1e-12

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            prf(-1, 0, 0, 0)


def chi2_tail_quadrature(x):
    """Numerical-integration oracle for the chi-square(1) upper tail."""

    def pdf(t):
        return math.exp(-t / 2.0) / math.sqrt(2.0 * math.pi * t)

    val, _ = integrate.quad(pdf, x, np.inf)
    return val


class TestTailProbabilities:
    def test_chi2_sf_matches_quadrature(self):
        for x in (0.1, 0.5, 1.0, 2.0, 49 / 12, 10.0, 20.0):
            assert chi2_sf_1df(x) == pytest.approx(chi2_tail_quadrature(x), abs=1e-9)

    def test_normal_sf_matches_quadrature(self):
        def pdf(t):
            return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)

        for z in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
            val, _ = integrate.quad(pdf, z, np.inf)
            assert normal_sf(z) == pytest.approx(val, abs=1e-12)


class TestMcnemar:
    def test_identical_predictions(self):
        truth = [0, 1, 0, 1]
        preds = [0, 1, 1, 1]
        assert mcnemar(preds, preds, truth)["p_value"] == 1.0

    def test_derived_statistic_and_p(self):
        # b=10 (A right, B wrong), c=2
        truth = [1] * 12 + [0] * 8
        pred_a = [1] * 10 + [0] * 2 + [0] * 8
        pred_b = [0] * 10 + [1] * 2 + [0] * 8
        result = mcnemar(pred_a, pred_b, truth)
        assert result["statistic"] == pytest.approx(49 / 12, abs=1e-12)
        assert result["p_value"] == pytest.approx(0.0433, abs=2e-4)
        assert result["p_value"] == pytest.approx(chi2_tail_quadrature(49 / 12), abs=1e-9)

    def test_no_discordant_pairs(self):
        assert mcnemar([1, 0], [1, 0], [1, 1]) == {"statistic": 0.0, "p_value": 1.0, "method": "mcnemar-chi2"}

    def test_symmetric_in_systems(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 2, 50).tolist()
        a = rng.integers(0, 2, 50).tolist()
        b = rng.integers(0, 2, 50).tolist()
        r1, r2 = mcnemar(a, b, truth), mcnemar(b, a, truth)
        assert r1["statistic"] == r2["statistic"] and r1["p_value"] == r2["p_value"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([1], [1, 0], [1, 0])


def wilcoxon_enumeration_oracle(diffs):
    """Full 2^n sign enumeration of min(W+, W-) for the two-sided exact p."""
    diffs = np.asarray(diffs, dtype=float)
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(len(diffs))
    sorted_abs = absd[order]
    i = 0
    while i < len(diffs):
        j = i
        while j + 1 < len(diffs) and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    total = 0
    hits = 0
    for signs in itertools.product((1, -1), repeat=len(diffs)):
        w_pos = sum(r for s, r in zip(signs, ranks) if s > 0)
        w_neg = ranks.sum() - w_pos
        total += 1
        if min(w_pos, w_neg) <= w_obs + 1e-12:
            hits += 1
    return hits / total


class TestWilcoxon:
    def test_equal_samples(self):
        x = [1.0, 2.0, 3.0]
        assert wilcoxon_signed_rank(x, x) == {"statistic": 0.0, "p_value": 1.0, "method": "wilcoxon-exact"}

    def test_five_positive_differences_exact(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [0.0] * 5
        result = wilcoxon_signed_rank(x, y, mode="exact")
        assert result["statistic"] == 0.0
        assert result["p_value"] == pytest.approx(1 / 16, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            diffs = np.round(rng.normal(size=n), 1)
            diffs = diffs[diffs != 0]
            if len(diffs) == 0:
                continue
            x = diffs.tolist()
            y = [0.0] * len(diffs)
            got = wilcoxon_signed_rank(x, y, mode="exact")["p_value"]
            assert got == pytest.approx(wilcoxon_enumeration_oracle(diffs), abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=12).tolist()
        y = rng.normal(size=12).tolist()
        assert (
            wilcoxon_signed_rank(x, y)["p_value"] == wilcoxon_signed_rank(y, x)["p_value"]
        )

    def test_normal_close_to_exact_at_25(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rng.normal(loc=0.3, size=25).tolist()
            y = rng.normal(size=25).tolist()
            exact = wilcoxon_signed_rank(x, y, mode="exact")["p_value"]
            approx = wilcoxon_signed_rank(x, y, mode="normal")["p_value"]
            assert abs(exact - approx) <= 0.02

    def test_normal_with_ties_matches_scipy(self):
        """The tie correction of the normal approximation, against scipy's."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = np.round(rng.normal(loc=0.2, size=40), 1)
            y = np.round(rng.normal(size=40), 1)
            expected = wilcoxon(x, y, zero_method="wilcox", correction=True, method="approx")
            got = wilcoxon_signed_rank(x.tolist(), y.tolist(), mode="normal")
            assert got["statistic"] == expected.statistic
            assert got["p_value"] == pytest.approx(expected.pvalue, rel=1e-12)

    def test_tied_differences_average_ranks(self):
        x = [2.0, 2.0, 5.0, 7.0]
        y = [0.0, 0.0, 0.0, 10.0]
        result = wilcoxon_signed_rank(x, y, mode="exact")
        # |d| = 2,2,5,3: ranks 1.5,1.5,4,3; W- = 3
        assert result["statistic"] == 3.0

    def test_all_zero_differences(self):
        assert wilcoxon_signed_rank([1.0, 1.0], [1.0, 1.0])["p_value"] == 1.0

