import io
import math
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from infosum import corpus
from infosum.corpus import (
    APOSTROPHES,
    CHUNK_MEMO_SIZE,
    InputFormatError,
    compute_idf,
    load_corpus,
    make_sentence,
    parse_corpus,
    save_corpus,
    to_jsonl,
    tokenize,
    word_count,
)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_punctuation_split(self):
        assert tokenize("Hello, world!") == [
            ("Hello", True),
            (",", False),
            ("world", True),
            ("!", False),
        ]

    def test_interior_apostrophe_stays(self):
        assert tokenize("We're here.") == [
            ("We're", True),
            ("here", True),
            (".", False),
        ]

    def test_edge_apostrophes_are_punctuation(self):
        assert tokenize("''We're not,''") == [
            ("''", False),
            ("We're", True),
            ("not", True),
            (",''", False),
        ]

    def test_maximal_punct_run_is_one_token(self):
        assert tokenize("wait...") == [("wait", True), ("...", False)]

    def test_lower_is_casefold(self):
        assert make_sentence(0, "IRAN").words == ("iran",)

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
    @example(text="Hello, it's me... ''really''!")
    def test_exactly_one_kind(self, text):
        # a punctuation token is punctuation only, also casefolded, and a word
        # token is not, so no punctuation token casefolds to a word
        for surface, is_word in tokenize(text):
            for form in (surface, surface.casefold()):
                assert is_word != all(unicodedata.category(c).startswith("P") for c in form)

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
    def test_word_count_invariant_under_retokenization(self, text):
        # every space-joined token prefix tokenizes back to itself, which is
        # what summarize._truncate relies on
        sent = make_sentence(0, text)
        for k in range(len(sent.tokens) + 1):
            prefix = make_sentence(0, " ".join(sent.tokens[:k]))
            assert prefix.tokens == sent.tokens[:k]
        assert prefix.words == sent.words


def direct_tokenize(text):
    """The token rules without the chunk memo: the loop `tokenize` ran before it."""
    tokens = []
    for chunk in text.split():
        raw = [unicodedata.category(c).startswith("P") for c in chunk]
        flags = list(raw)
        for i, ch in enumerate(chunk):
            if raw[i] and ch in APOSTROPHES and 0 < i < len(chunk) - 1 and not raw[i - 1] and not raw[i + 1]:
                flags[i] = False
        start = 0
        for i in range(1, len(chunk) + 1):
            if i == len(chunk) or flags[i] != flags[start]:
                tokens.append((chunk[start:i], not flags[start]))
                start = i
    return tokens


# letters, both apostrophes, punctuation that forms runs with them, spaces
EDGE_TEXT = st.text(alphabet=st.sampled_from("ab'’.,!-\"… \t\n"), max_size=40)


class TestChunkMemo:
    @given(st.one_of(EDGE_TEXT, st.text(alphabet=st.characters(codec="utf-8"), max_size=60)))
    @example(text="We're ''not'' a'' ''b 'a' '' ’’a’b’ it's... a'.b x'-y")
    @example(text="'a a' ' a''b a'’b")
    def test_memoized_equals_direct(self, text):
        first = tokenize(text)
        assert first == direct_tokenize(text)
        again = tokenize(text)  # every chunk now comes from the memo
        assert again == first and again is not first
        again.append(("extra", True))
        assert tokenize(text) == first

    def test_memo_is_bounded(self):
        assert corpus._chunk_tokens.cache_info().maxsize == CHUNK_MEMO_SIZE


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
        with pytest.raises(InputFormatError, match="corpus line 2"):
            parse_corpus(stream)

    def test_duplicate_doc_id(self):
        stream = io.StringIO(
            '{"doc_id": "a", "sentences": ["x"]}\n{"doc_id": "a", "sentences": ["y"]}'
        )
        with pytest.raises(InputFormatError, match="corpus line 2: duplicate"):
            parse_corpus(stream)

    def test_empty_sentences_rejected(self):
        with pytest.raises(InputFormatError, match="corpus line 1: sentences must be a non-empty array"):
            parse_corpus(io.StringIO('{"doc_id": "a", "sentences": []}'))

    def test_unknown_fields_ignored(self):
        corpus = parse_corpus(
            io.StringIO('{"doc_id": "a", "sentences": ["x"], "extra": 5}')
        )
        assert corpus.documents[0].doc_id == "a"

    def test_bytes_stream(self):
        corpus = parse_corpus(io.BytesIO(CORPUS_3DOCS.encode("utf-8")))
        assert len(corpus) == 3

    def test_round_trip(self, tmp_path):
        corpus = parse_corpus(io.StringIO(CORPUS_3DOCS))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        assert parse_corpus(io.BytesIO(path.read_bytes())) == corpus

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
