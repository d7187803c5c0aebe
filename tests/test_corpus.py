import io
import math

import pytest
from hypothesis import given, strategies as st

from infosum.corpus import (
    CorpusFormatError,
    compute_idf,
    load_corpus,
    make_sentence,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    to_jsonl,
    tokenize,
    word_count,
)


def surfaces(tokens):
    return [(t.surface, "punct" if t.is_punct else "word") for t in tokens]


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_punctuation_split(self):
        assert surfaces(tokenize("Hello, world!")) == [
            ("Hello", "word"),
            (",", "punct"),
            ("world", "word"),
            ("!", "punct"),
        ]

    def test_interior_apostrophe_stays(self):
        assert surfaces(tokenize("We're here.")) == [
            ("We're", "word"),
            ("here", "word"),
            (".", "punct"),
        ]

    def test_edge_apostrophes_are_punctuation(self):
        assert surfaces(tokenize("''We're not,''")) == [
            ("''", "punct"),
            ("We're", "word"),
            ("not", "word"),
            (",''", "punct"),
        ]

    def test_maximal_punct_run_is_one_token(self):
        assert surfaces(tokenize("wait...")) == [("wait", "word"), ("...", "punct")]

    def test_lower_is_casefold(self):
        (tok,) = tokenize("IRAN")
        assert tok.lower == "iran"

    def test_exactly_one_kind(self):
        for tok in tokenize("Hello, it's me... ''really''!"):
            assert tok.is_word != tok.is_punct

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
    def test_word_count_invariant_under_retokenization(self, text):
        tokens = tokenize(text)
        sent = make_sentence(0, text)
        rejoined = " ".join(t.surface for t in tokens)
        assert word_count([make_sentence(0, rejoined)]) == word_count([sent])


class TestWordCount:
    def test_empty(self):
        assert word_count([]) == 0

    def test_single_sentence(self):
        assert word_count([make_sentence(0, "Hello, world!")]) == 2

    def test_additive(self):
        s = make_sentence(0, "Hello, world!")
        assert word_count([s, s]) == 4


CORPUS_3DOCS = "\n".join(
    [
        '{"doc_id": "a", "section": "Business", "sentences": ["iran nuclear talks", "more text here"], "summary": ["talks resume"]}',
        '{"doc_id": "b", "section": "Politics", "sentences": ["other words only"]}',
        '{"doc_id": "c", "section": "Business", "sentences": ["final document text"]}',
    ]
)


class TestParseCorpus:
    def test_empty_stream(self):
        corpus = parse_corpus(io.StringIO(""))
        assert len(corpus) == 0
        assert compute_idf(corpus.documents).weights == {}

    def test_sentence_ids_contiguous(self):
        corpus = parse_corpus(
            io.StringIO('{"doc_id": "a", "section": "", "sentences": ["one", "two"]}')
        )
        assert [s.id for s in corpus.documents[0].sentences] == [0, 1]

    def test_idf_formula(self):
        idf = compute_idf(parse_corpus(io.StringIO(CORPUS_3DOCS)).documents)
        # 3 documents, "iran" occurs in one of them
        assert idf.weight("iran") == pytest.approx(math.log(4 / 2) + 1, abs=1e-12)
        assert idf.weight("iran") == pytest.approx(1.693, abs=1e-3)

    def test_idf_excludes_summaries(self):
        idf = compute_idf(parse_corpus(io.StringIO(CORPUS_3DOCS)).documents)
        # "resume" appears only in a summary, so it gets the unseen weight
        assert idf.weight("resume") == pytest.approx(math.log(4) + 1)
        assert "resume" not in idf.weights

    def test_idf_at_least_one_and_monotone(self):
        idf = compute_idf(parse_corpus(io.StringIO(CORPUS_3DOCS)).documents)
        assert all(w >= 1.0 for w in idf.weights.values())
        # df("text") = 2 > df("iran") = 1, so idf("text") < idf("iran")
        assert idf.weight("text") < idf.weight("iran")

    def test_malformed_record_names_line(self):
        stream = io.StringIO('{"doc_id": "a", "sentences": ["x"]}\nnot-json\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            parse_corpus(stream)

    def test_duplicate_doc_id(self):
        stream = io.StringIO(
            '{"doc_id": "a", "sentences": ["x"]}\n{"doc_id": "a", "sentences": ["y"]}'
        )
        with pytest.raises(CorpusFormatError, match="duplicate"):
            parse_corpus(stream)

    def test_empty_sentences_rejected(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus(io.StringIO('{"doc_id": "a", "sentences": []}'))

    def test_unknown_fields_ignored(self):
        corpus = parse_corpus(
            io.StringIO('{"doc_id": "a", "sentences": ["x"], "extra": 5}')
        )
        assert corpus.documents[0].doc_id == "a"

    def test_bytes_stream(self):
        corpus = parse_corpus(io.BytesIO(CORPUS_3DOCS.encode("utf-8")))
        assert len(corpus) == 3

    def test_round_trip(self):
        corpus = parse_corpus(io.StringIO(CORPUS_3DOCS))
        again = parse_corpus(io.StringIO(serialize_corpus(corpus)))
        assert again == corpus

    def test_to_jsonl(self):
        assert to_jsonl([]) == ""
        assert to_jsonl([{"b": 1, "a": "é"}, {}]) == '{"a": "é", "b": 1}\n{}\n'

    def test_round_trip_files(self, tmp_path):
        corpus = parse_corpus(io.StringIO(CORPUS_3DOCS))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_empty_summary_normalized_to_none(self):
        corpus = parse_corpus(
            io.StringIO('{"doc_id": "a", "sentences": ["x"], "summary": []}')
        )
        assert corpus.documents[0].summary is None
