import json
import math
import unicodedata
from dataclasses import dataclass
from typing import Literal

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
    to_jsonl,
    write_jsonl,
    tokenize,
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
        pairs = tokenize(text)
        for k in range(len(pairs) + 1):
            prefix = " ".join(surface for surface, _ in pairs[:k])
            assert tokenize(prefix) == pairs[:k]
        assert make_sentence(0, prefix).words == make_sentence(0, text).words


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
CHUNK_EXAMPLES = (
    "We're ''not'' a'' ''b 'a' '' ’’a’b’ it's... a'.b x'-y",
    "'a a' ' a''b a'’b",
    # alphanumeric chunks (superscript two, sharp s, a ligature, Arabic-Indic
    # digits, CJK) beside chunks that take the per-character rule (a combining
    # acute, a soft hyphen, inverted question mark, dashes, guillemets)
    "x² Straße ﬁne ٣٤ 漢字 e\u0301 co\u00adop ¿Qué? a—b «ﬁn» ٣’٤ Ǆ’ß ¿¿ —",
)


def over_chunk_texts(test):
    """`test(self, text)` run over edge and arbitrary texts and each of CHUNK_EXAMPLES."""
    test = given(st.one_of(EDGE_TEXT, st.text(alphabet=st.characters(codec="utf-8"), max_size=60)))(test)
    for text in CHUNK_EXAMPLES:
        test = example(text=text)(test)
    return test


class TestChunkMemo:
    @over_chunk_texts
    def test_memoized_equals_direct(self, text):
        first = tokenize(text)
        direct = direct_tokenize(text)
        assert first == direct
        again = tokenize(text)  # every chunk now comes from the memo
        assert again == first and again is not first
        again.append(("extra", True))
        assert tokenize(text) == first
        sentence = make_sentence(0, text)
        assert sentence.n_tokens == len(direct)
        assert sentence.words == tuple(surface.casefold() for surface, is_word in direct if is_word)

    def test_memo_is_bounded(self):
        assert corpus._chunk.cache_info().maxsize == CHUNK_MEMO_SIZE

    def test_one_str_object_per_distinct_word(self, tmp_path):
        # "Cat" is an alphanumeric chunk and "cat," a punctuated one: one word, one str
        path = tmp_path / "corpus.jsonl"
        write_jsonl([
            {"doc_id": "a", "sentences": ["The cat sat.", "THE CAT, the cat!", "Cat cat,"], "summary": ["The Cat"]},
            {"doc_id": "b", "sentences": ["Straße strasse STRASSE cat's Cat's"]},
        ], path)
        words = [w for doc in load_corpus(path) for s in (*doc.sentences, *(doc.summary or ())) for w in s.words]
        assert len(words) == 16
        assert len({id(w) for w in words}) == len(set(words)) == 5


CORPUS_3DOCS = "\n".join(
    [
        '{"doc_id": "a", "section": "Business", "sentences": ["iran nuclear talks", "more text here"], "summary": ["talks resume"]}',
        '{"doc_id": "b", "section": "Politics", "sentences": ["other words only"]}',
        '{"doc_id": "c", "section": "Business", "sentences": ["final document text"]}',
    ]
)


@pytest.fixture
def corpus_of(tmp_path):
    """The corpus that `load_corpus` reads from a file holding the given text."""
    def load(text):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text, encoding="utf-8")
        return load_corpus(path)
    return load


class TestLoadCorpus:
    def test_empty_file(self, corpus_of):
        corpus = corpus_of("")
        assert len(corpus) == 0
        assert compute_idf(corpus.documents) == {}

    def test_sentence_ids_contiguous(self, corpus_of):
        corpus = corpus_of('{"doc_id": "a", "section": "", "sentences": ["one", "two"]}')
        assert [s.id for s in corpus.documents[0].sentences] == [0, 1]

    def test_idf_formula(self, corpus_of):
        idf = compute_idf(corpus_of(CORPUS_3DOCS).documents)
        # 3 documents, "iran" occurs in one of them
        assert idf["iran"] == pytest.approx(math.log(4 / 2) + 1, abs=1e-12)
        assert idf["iran"] == pytest.approx(1.693, abs=1e-3)

    def test_idf_excludes_summaries(self, corpus_of):
        idf = compute_idf(corpus_of(CORPUS_3DOCS).documents)
        # "resume" appears only in a summary
        assert "resume" not in idf

    def test_idf_at_least_one_and_monotone(self, corpus_of):
        idf = compute_idf(corpus_of(CORPUS_3DOCS).documents)
        assert all(w >= 1.0 for w in idf.values())
        # df("text") = 2 > df("iran") = 1, so idf("text") < idf("iran")
        assert idf["text"] < idf["iran"]

    def test_malformed_record_names_line(self, corpus_of):
        with pytest.raises(InputFormatError, match="corpus line 2"):
            corpus_of('{"doc_id": "a", "sentences": ["x"]}\nnot-json\n')

    def test_blank_lines_are_skipped_but_counted(self, corpus_of):
        assert len(corpus_of('\n{"doc_id": "a", "sentences": ["x"]}\n  \n\n{"doc_id": "b", "sentences": ["y"]}\n')) == 2
        with pytest.raises(InputFormatError, match="corpus line 4: duplicate"):
            corpus_of('{"doc_id": "a", "sentences": ["x"]}\n\n \n{"doc_id": "a", "sentences": ["y"]}\n')

    def test_duplicate_doc_id(self, corpus_of):
        with pytest.raises(InputFormatError, match="corpus line 2: duplicate"):
            corpus_of('{"doc_id": "a", "sentences": ["x"]}\n{"doc_id": "a", "sentences": ["y"]}')

    def test_empty_sentences_rejected(self, corpus_of):
        with pytest.raises(InputFormatError, match="corpus line 1: sentences must be a non-empty array"):
            corpus_of('{"doc_id": "a", "sentences": []}')

    def test_unknown_fields_ignored(self, corpus_of):
        """`section`, which synth writes, is one of them, whatever its type."""
        plain = corpus_of('{"doc_id": "a", "sentences": ["x"]}')
        for field in ('"extra": 5', '"section": "Business"', '"section": 5', '"section": null', '"section": ["a"]'):
            assert corpus_of('{"doc_id": "a", "sentences": ["x"], %s}' % field) == plain

    def test_round_trip(self, corpus_of):
        """Records rewritten by the JSONL writer, keys sorted, load back as the same corpus."""
        corpus = corpus_of(CORPUS_3DOCS)
        records = [json.loads(line) for line in CORPUS_3DOCS.splitlines()]
        assert corpus_of(to_jsonl(records)) == corpus

    def test_to_jsonl(self):
        assert to_jsonl([]) == ""
        assert to_jsonl([{"b": 1, "a": "é"}, {}]) == '{"a": "é", "b": 1}\n{}\n'

    def test_to_jsonl_writes_what_json_dumps_gives_each_record(self):
        records = [
            {"doc_id": "ü-1", "sentences": ["ü ∑ 😀", "a b c\x85d \"q\" \\ \t"], "summary": None},
            {"z": [[1, 2.5, -0.0], [], [{"b": True, "a": "∑"}]], "a": {"y": [3, "x"], "b": 1e-300}},
            {"prob": 0.1 + 0.2, "label": 1, "removed": [0, 3], "nested": {"c": {"b": {"a": []}}}},
        ]
        expected = "".join(
            json.dumps(rec, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n" for rec in records
        )
        assert to_jsonl(records) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_to_jsonl_rejects_non_finite_numbers(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            to_jsonl([{"prob": value}])

    def test_round_trip_files(self, tmp_path, corpus_of):
        corpus = corpus_of(CORPUS_3DOCS)
        path = tmp_path / "written.jsonl"
        write_jsonl((json.loads(line) for line in CORPUS_3DOCS.splitlines()), path)
        assert load_corpus(path) == corpus

    def test_empty_summary_normalized_to_none(self, corpus_of):
        corpus = corpus_of('{"doc_id": "a", "sentences": ["x"], "summary": []}')
        assert corpus.documents[0].summary is None


@dataclass(frozen=True)
class Inner:
    n: int


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    mode: Literal["a", "b"] = "a"
    ratio: float = 1.0
    ids: tuple[int, ...] = ()
    note: str | None = None

    def __post_init__(self) -> None:
        if self.ratio < 0:
            raise ValueError("ratio must be >= 0")


class TestDecode:
    def test_declared_record(self):
        got = corpus.decode(Outer, {"name": "x", "inner": {"n": 2}, "mode": "b", "ratio": 3, "ids": [1, 2]})
        assert got == Outer("x", Inner(2), "b", 3.0, (1, 2))
        assert type(got.ratio) is float and type(got.ids) is tuple

    @pytest.mark.parametrize("raw, message", [
        ({"name": "x", "inner": {"n": True}}, "record key 'inner.n' must be of type int, not True"),
        ({"name": "x", "inner": {"n": 1.0}}, "record key 'inner.n' must be of type int, not 1.0"),
        ({"name": 5, "inner": {"n": 1}}, "record key 'name' must be of type str, not 5"),
        ({"name": "x", "inner": {"n": 1}, "ratio": math.nan}, "record key 'ratio' must be a finite number, not nan"),
        ({"name": "x", "inner": {"n": 1}, "ratio": math.inf}, "record key 'ratio' must be a finite number"),
        ({"name": "x", "inner": {"n": 1}, "ratio": "1"}, "record key 'ratio' must be a finite number"),
        ({"name": "x", "inner": {"n": 1}, "ratio": False}, "record key 'ratio' must be a finite number"),
        ({"name": "x", "inner": {"n": 1}, "mode": "c"}, "record key 'mode' must be one of 'a', 'b', not 'c'"),
        ({"name": "x", "inner": {"n": 1}, "ids": "12"}, "record key 'ids' must be a list, not '12'"),
        ({"name": "x", "inner": {"n": 1}, "ids": [1, "2"]}, "record key 'ids' must be of type int, not '2'"),
        ({"name": "x", "inner": {"n": 1}, "note": 3}, "record key 'note' must be of type str, not 3"),
        ({"name": "x", "inner": 5}, "record section 'inner' must be an object"),
        ({"name": "x", "inner": {"n": 1, "m": 2}}, "unknown record key 'inner.m'; inner takes n"),
        ({"name": "x", "inner": {"n": 1}, "extra": 0}, "unknown record key 'extra'; the record takes name, inner"),
        ({"inner": {"n": 1}}, "record field 'name' is mandatory"),
        ({"name": "x", "inner": {}}, "record field 'inner.n' is mandatory"),
        ({"name": "x", "inner": {"n": 1}, "ratio": -1}, "ratio must be >= 0"),
        ([1], "record must be a JSON object"),
    ])
    def test_mismatch_names_the_dotted_field(self, raw, message):
        with pytest.raises(ValueError) as info:
            corpus.decode(Outer, raw)
        assert str(info.value).startswith(message)

    def test_null_only_where_declared(self):
        assert corpus.decode(Outer, {"name": "x", "inner": {"n": 1}, "note": None}).note is None
        with pytest.raises(ValueError, match="record key 'name' must be of type str, not None"):
            corpus.decode(Outer, {"name": None, "inner": {"n": 1}})

    def test_noun_words_the_message(self):
        with pytest.raises(ValueError, match="unknown config key 'inner.m'"):
            corpus.decode(Outer, {"name": "x", "inner": {"n": 1, "m": 2}}, "config")

    def test_checkers_are_built_once_per_class(self):
        corpus.decode(Outer, {"name": "x", "inner": {"n": 1}})
        before = corpus._checker.cache_info()
        corpus.decode(Outer, {"name": "y", "inner": {"n": 2}})
        after = corpus._checker.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1


def test_decoding_a_written_record_gives_it_back():
    """Every record kind that a command writes reads back, through the decoder, as an equal record."""
    from dataclasses import asdict

    from infosum.cli import Extracts, Prediction, RunConfig, SentenceLabel
    from infosum.features import bow_layout, dictionary_layout
    from infosum.lexicons import CategoryLexicon, ScoredLexicon
    from infosum.summarize import SummaryResult
    from infosum.weak_label import WeakLabel

    scored = ScoredLexicon("m", ("a",), {"x": {"a": 5.0}}, {"a": (0.0, 10.0)})
    category = CategoryLexicon("c", ("one",), {"x": frozenset({0})}, {})
    records = [
        WeakLabel("d", 0, "positive", 15.5),
        WeakLabel("d", 1, "unlabeled"),
        Extracts("d", ((0, 2), ())),
        SentenceLabel("d", 3, 1),
        Prediction("d", 3, 0, 0.25),
        SummaryResult("d", "infofilter", (0, 1), (2,), "A b. C d.", 4, fallback=True),
        RunConfig.from_dict({"seed": 3, "out_dir": "run", "systems": ["inforank"]}),
        bow_layout(("b", "a")),
        dictionary_layout([scored], [category], 4),
        dictionary_layout([scored], [category], 4, include_general=False),
    ]
    for record in records:
        assert corpus.decode(type(record), json.loads(to_jsonl([asdict(record)]))) == record
