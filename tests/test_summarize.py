import numpy as np
import pytest

from infosum.corpus import Corpus, build_document, load_corpus, make_sentence
from infosum.metrics import chi2_sf_1df
from infosum.rng import RANDOMRANK_ORDER, stream
from infosum.summarize import (
    TRUNCATE_WORDS,
    WHOLE_SENTENCE,
    SummaryBudget,
    info_filter,
    info_rank,
    lead_words,
    _truncate,
    random_rank,
    read_summaries,
    summary_words,
    write_summaries,
)
from infosum.synth import SynthParams, write_synth_bundle
from test_corpus import direct_tokenize, over_chunk_texts


def doc_with_word_counts(counts, doc_id="d"):
    texts = [" ".join(f"w{i}x{j}" for j in range(c)) + " ." for i, c in enumerate(counts)]
    return build_document(doc_id, texts)


class TestLeadWords:
    def test_short_document_entirely_kept(self):
        doc = doc_with_word_counts([20, 30])
        res = lead_words(doc, SummaryBudget(100))
        assert res.selected == (0, 1)
        assert res.word_total == 50

    def test_mid_sentence_truncation(self):
        doc = doc_with_word_counts([60, 60])
        res = lead_words(doc, SummaryBudget(100))
        assert res.selected == (0, 1)
        assert res.word_total == 100
        # sentence 1 contributes exactly its first 40 words
        assert len(doc.sentences[0].words) == 60
        assert len(res.text.split()) >= 100

    def test_budget_one(self):
        doc = doc_with_word_counts([5])
        res = lead_words(doc, SummaryBudget(1))
        assert res.word_total == 1
        assert res.text == "w0x0"

    def test_whole_sentence_mode_stops_before_overflow(self):
        doc = doc_with_word_counts([60, 60])
        res = lead_words(doc, SummaryBudget(100, WHOLE_SENTENCE))
        assert res.selected == (0,)
        assert res.word_total == 60

    def test_truncated_text_word_budget_exact(self):
        doc = doc_with_word_counts([7, 9, 11])
        res = lead_words(doc, SummaryBudget(12))
        joined = build_document("t", [res.text])
        assert sum(len(s.words) for s in joined.sentences) == 12


def casefold_truncate(sentence, n_words):
    """The cut `_truncate` made before it read `tokenize`'s flags: a surface is the next
    word exactly when it casefolds to it, because no punctuation token casefolds to a word."""
    surfaces = [surface for surface, _ in direct_tokenize(sentence.text)]
    words = sentence.words
    kept = len(surfaces)
    taken = 0
    for i, surface in enumerate(surfaces):
        if taken < len(words) and surface.casefold() == words[taken]:
            taken += 1
            if taken == n_words:
                kept = i + 1
                break
    return " ".join(surfaces[:kept])


class TestTruncate:
    @over_chunk_texts
    def test_cut_equals_the_casefold_walk(self, text):
        sentence = make_sentence(0, text)
        for n_words in range(1, len(sentence.words) + 1):
            assert _truncate(sentence, n_words) == casefold_truncate(sentence, n_words)


def words_of_retokenized_cut(doc, result):
    """The path summary_words replaced: the selected sentences' words, the last
    sentence's tokenized again from its text as lead_words cut it."""
    sentences = [doc.sentences[i] for i in result.selected]
    words = [sent.words for sent in sentences]
    if result.word_total < sum(map(len, words)):
        last = sentences[-1]
        words[-1] = make_sentence(last.id, _truncate(last, result.word_total - sum(map(len, words[:-1])))).words
    return words


class TestSummaryWords:
    def test_whole_sentences_as_selected(self):
        doc = build_document("d", ["a b", "c d", "e f"])
        res = info_rank(doc, [0.9, 0.1, 0.8], SummaryBudget(4))
        assert summary_words(doc, res) == [("a", "b"), ("e", "f")]

    @pytest.mark.parametrize("max_words", [1, 3, 4, 5, 12, 100])
    def test_cut_like_lead_words(self, max_words):
        doc = build_document("d", ["Alpha, beta gamma.", "We're here: now !", "x y z"])
        res = lead_words(doc, SummaryBudget(max_words))
        words = summary_words(doc, res)
        assert sum(map(len, words)) == res.word_total
        assert tuple(w for sent in words for w in sent) == make_sentence(0, res.text).words
        assert words == words_of_retokenized_cut(doc, res)

    def test_every_cut_of_a_synth_bundle_keeps_the_retokenized_words(self, tmp_path):
        """On the test corpus of a synth bundle, LeadWords and InfoFilter at many
        budgets: each cut summary's words equal those of its cut text tokenized again."""
        paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=1, n_test_docs=30, seed=4))
        corpus = load_corpus(paths["test_corpus"])
        rng = np.random.default_rng(4)
        cuts = 0
        for doc in corpus:
            probs = rng.random(len(doc.sentences)).tolist()
            for max_words in range(1, 160, 3):
                budget = SummaryBudget(max_words)
                for res in (lead_words(doc, budget), info_filter(doc, probs, budget)):
                    cuts += sum(len(doc.sentences[i].words) for i in res.selected) > res.word_total
                    assert summary_words(doc, res) == words_of_retokenized_cut(doc, res), (doc.doc_id, max_words)
        assert cuts > 1000


class TestInfoRank:
    def test_greedy_with_skip(self):
        doc = doc_with_word_counts([80, 30, 15])
        res = info_rank(doc, [0.9, 0.8, 0.7], SummaryBudget(100))
        assert res.selected == (0, 2)
        assert res.word_total == 95

    def test_ties_prefer_document_order(self):
        doc = doc_with_word_counts([40, 40, 40])
        res = info_rank(doc, [0.5, 0.5, 0.5], SummaryBudget(80))
        assert res.selected == (0, 1)

    def test_budget_smaller_than_every_sentence(self):
        doc = doc_with_word_counts([50, 60])
        res = info_rank(doc, [0.9, 0.8], SummaryBudget(10))
        assert res.selected == ()
        assert res.text == ""
        assert res.word_total == 0

    def test_invariant_under_monotone_transform(self):
        doc = doc_with_word_counts([30, 25, 20, 35, 10])
        probs = [0.31, 0.77, 0.12, 0.55, 0.92]
        transformed = [v / (1.0 + v) for v in probs]  # strictly monotone
        a = info_rank(doc, probs, SummaryBudget(60))
        b = info_rank(doc, transformed, SummaryBudget(60))
        assert a.selected == b.selected

    def test_output_in_document_order(self):
        doc = doc_with_word_counts([10, 10, 10])
        res = info_rank(doc, [0.1, 0.5, 0.9], SummaryBudget(30))
        assert res.selected == (0, 1, 2)
        assert res.text.index("w2x0") > res.text.index("w1x0")


class TestInfoFilter:
    @pytest.mark.parametrize("mode", [TRUNCATE_WORDS, WHOLE_SENTENCE])
    def test_all_important_equals_lead(self, mode):
        doc = doc_with_word_counts([30, 40, 50, 20])
        budget = SummaryBudget(100, mode)
        filt = info_filter(doc, [0.9] * 4, budget)
        lead = lead_words(doc, budget)
        assert filt.text == lead.text
        assert filt.selected == lead.selected
        assert filt.word_total == lead.word_total
        assert filt.removed == ()
        assert not filt.fallback

    def test_first_sentence_dropped(self):
        doc = doc_with_word_counts([10, 20, 30])
        res = info_filter(doc, [0.1, 0.9, 0.9], SummaryBudget(100))
        assert res.removed == (0,)
        assert res.selected == (1, 2)
        assert res.text.startswith("w1x0")

    @pytest.mark.parametrize("mode, selected, word_total", [(TRUNCATE_WORDS, (0, 1), 50), (WHOLE_SENTENCE, (0,), 30)])
    def test_first_overflowing_kept_sentence_ends_the_summary(self, mode, selected, word_total):
        doc = doc_with_word_counts([30, 80, 10])
        budget = SummaryBudget(50, mode)
        res = info_filter(doc, [0.9] * 3, budget)
        # sentence 1 would overflow: cut it or stop before it, as lead_words
        # does, and never skip ahead to sentence 2
        assert (res.selected, res.word_total) == (selected, word_total)
        assert res.text == lead_words(doc, budget).text

    def test_fills_the_budget_its_kept_sentences_reach(self):
        """In truncate-words mode InfoFilter ends on exactly max_words words whenever
        its kept sentences hold that many, and on all of them otherwise."""
        rng = np.random.default_rng(4)
        filled = 0
        for _ in range(200):
            doc = doc_with_word_counts([int(rng.integers(3, 40)) for _ in range(int(rng.integers(1, 12)))])
            probs = [float(rng.random()) for _ in doc.sentences]
            budget = SummaryBudget(int(rng.integers(5, 120)))
            kept_words = sum(len(s.words) for s, p in zip(doc.sentences, probs) if p >= 0.5)
            res = info_filter(doc, probs, budget)
            if kept_words >= budget.max_words:
                assert res.word_total == budget.max_words
                filled += 1
            elif kept_words:
                assert res.word_total == kept_words
        assert filled > 50

    def test_all_unimportant_falls_back_to_lead(self):
        doc = doc_with_word_counts([30, 40])
        res = info_filter(doc, [0.1, 0.1], SummaryBudget(100))
        assert res.fallback
        assert res.removed == (0, 1)
        assert res.text == lead_words(doc, SummaryBudget(100)).text

    def test_fallback_keeps_the_budget_mode(self):
        doc = doc_with_word_counts([30, 30])
        budget = SummaryBudget(40, WHOLE_SENTENCE)
        res = info_filter(doc, [0.1, 0.1], budget)
        lead = lead_words(doc, budget)
        assert res.fallback
        assert (res.selected, res.word_total) == (lead.selected, lead.word_total) == ((0,), 30)

    def test_half_is_important(self):
        doc = doc_with_word_counts([10, 10])
        res = info_filter(doc, [0.5, np.nextafter(0.5, 0.0)], SummaryBudget(100))
        assert res.selected == (0,) and res.removed == (1,)

    def test_probability_count_must_match_sentences(self):
        doc = doc_with_word_counts([10, 10])
        with pytest.raises(ValueError, match="2 sentences"):
            info_filter(doc, [0.9], SummaryBudget(100))
        with pytest.raises(ValueError, match="2 sentences"):
            info_rank(doc, [0.9, 0.8, 0.7], SummaryBudget(100))

    def test_selected_strictly_increasing(self):
        doc = doc_with_word_counts([10] * 8)
        res = info_filter(doc, [0.9 if i % 2 else 0.1 for i in range(8)], SummaryBudget(30))
        assert list(res.selected) == sorted(res.selected)
        assert all(i in (1, 3, 5, 7) for i in res.selected)


class TestRandomRank:
    def test_reproducible(self):
        doc = doc_with_word_counts([10, 20, 30, 40])
        a = random_rank(doc, SummaryBudget(50), stream(42, RANDOMRANK_ORDER))
        b = random_rank(doc, SummaryBudget(50), stream(42, RANDOMRANK_ORDER))
        assert a == b

    def test_single_sentence_under_budget(self):
        doc = doc_with_word_counts([10])
        res = random_rank(doc, SummaryBudget(50), stream(0, RANDOMRANK_ORDER))
        assert res.selected == (0,)

    def test_first_pick_uniform_chi_square(self):
        doc = doc_with_word_counts([10, 10, 10, 10])
        n_seeds = 2000
        counts = [0, 0, 0, 0]
        for seed in range(n_seeds):
            res = random_rank(doc, SummaryBudget(10), stream(seed, RANDOMRANK_ORDER))
            assert len(res.selected) == 1
            counts[res.selected[0]] += 1
        expected = n_seeds / 4
        stat = sum((c - expected) ** 2 / expected for c in counts)
        # 3 dof; 0.999 quantile is 16.27, seeded so this is deterministic
        assert stat < 16.27


class TestBudgetSafetyAndSerialization:
    def random_docs(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        docs = []
        for d in range(n):
            counts = [int(rng.integers(3, 40)) for _ in range(int(rng.integers(1, 12)))]
            docs.append(doc_with_word_counts(counts, doc_id=f"d{d}"))
        return docs

    def test_no_summary_exceeds_budget(self):
        rng = np.random.default_rng(1)
        for doc in self.random_docs():
            budget = SummaryBudget(int(rng.integers(5, 120)))
            probs = [float(rng.random()) for _ in doc.sentences]
            for res in (
                lead_words(doc, budget),
                info_rank(doc, probs, budget),
                info_filter(doc, probs, budget),
                random_rank(doc, budget, stream(7, RANDOMRANK_ORDER)),
            ):
                assert res.word_total <= budget.max_words

    def test_jsonl_round_trip(self, tmp_path):
        doc = doc_with_word_counts([10, 20])
        for result in (lead_words(doc, SummaryBudget(15)),
                       random_rank(doc, SummaryBudget(15), stream(3, RANDOMRANK_ORDER))):
            path = tmp_path / f"summaries_{result.system}.jsonl"
            write_summaries([result], path)
            assert read_summaries(path, result.system, Corpus((doc,))) == [result]

    def test_byte_identical_outputs_for_fixed_seed(self, tmp_path):
        docs = self.random_docs(n=10, seed=5)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            rand = stream(11, RANDOMRANK_ORDER)
            write_summaries([random_rank(doc, SummaryBudget(30), rand) for doc in docs], out)
        assert out1.read_bytes() == out2.read_bytes()
