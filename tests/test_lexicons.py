import io

import pytest
from hypothesis import given, strategies as st

from infosum.lexicons import (
    LexiconFormatError,
    bin_index,
    category_lexicon_to_tsv,
    load_category_lexicon,
    load_scored_lexicon,
    scored_lexicon_to_tsv,
)

SCORED_TSV = """#scored mrc imagery,concreteness imagery:100:700 concreteness:100:700
# a comment line
cat\timagery\t600
cat\tconcreteness\t610
dog\timagery\t450
"""

CATEGORY_TSV = """#categories inquirer NEG,VICE,POSEMO
absurd\tNEG,VICE
happ*\tPOSEMO
"""


class TestScoredLexicon:
    def test_header_only(self):
        lex = load_scored_lexicon(io.StringIO("#scored mrc imagery\n"))
        assert lex.name == "mrc"
        assert lex.entries == {}

    def test_basic_load(self):
        lex = load_scored_lexicon(io.StringIO(SCORED_TSV))
        assert lex.entries["cat"] == {"imagery": 600.0, "concreteness": 610.0}
        assert lex.ranges["imagery"] == (100.0, 700.0)

    def test_last_wins_on_duplicates(self):
        tsv = "#scored m a\nw\ta\t1\nw\ta\t2\n"
        lex = load_scored_lexicon(io.StringIO(tsv))
        assert lex.entries["w"]["a"] == 2.0

    def test_range_computed_from_data(self):
        tsv = "#scored m a\nx\ta\t3\ny\ta\t9\n"
        lex = load_scored_lexicon(io.StringIO(tsv))
        assert lex.ranges["a"] == (3.0, 9.0)

    def test_score_outside_declared_range(self):
        tsv = "#scored m a a:0:10\nx\ta\t11\n"
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_scored_lexicon(io.StringIO(tsv))

    def test_non_numeric_score(self):
        tsv = "#scored m a\nx\ta\thigh\n"
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_scored_lexicon(io.StringIO(tsv))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score(self, score):
        tsv = f"#scored m a\nx\ta\t1\ny\ta\t{score}\n"
        with pytest.raises(LexiconFormatError, match="line 3: non-finite score"):
            load_scored_lexicon(io.StringIO(tsv))

    @pytest.mark.parametrize("decl", ["a:nan:10", "a:0:inf", "a:-inf:inf"])
    def test_non_finite_declared_range(self, decl):
        tsv = f"#scored m a {decl}\nx\ta\t1\n"
        with pytest.raises(LexiconFormatError, match="line 1: non-finite range"):
            load_scored_lexicon(io.StringIO(tsv))

    def test_unknown_attribute(self):
        tsv = "#scored m a\nx\tb\t1\n"
        with pytest.raises(LexiconFormatError, match="unknown attribute"):
            load_scored_lexicon(io.StringIO(tsv))

    def test_words_casefolded(self):
        tsv = "#scored m a\nCat\ta\t1\n"
        assert "cat" in load_scored_lexicon(io.StringIO(tsv)).entries

    def test_order_insensitive_hash(self):
        a = "#scored m a\nx\ta\t1\ny\ta\t2\n"
        b = "#scored m a\ny\ta\t2\nx\ta\t1\n"
        lex_a = load_scored_lexicon(io.StringIO(a))
        lex_b = load_scored_lexicon(io.StringIO(b))
        assert lex_a.content_hash() == lex_b.content_hash()

    def test_tsv_round_trip(self):
        lex = load_scored_lexicon(io.StringIO(SCORED_TSV))
        again = load_scored_lexicon(io.StringIO(scored_lexicon_to_tsv(lex)))
        assert again.content_hash() == lex.content_hash()


class TestBinIndex:
    def test_lower_boundary(self):
        assert bin_index(100.0, (100.0, 700.0), 230) == 0

    def test_upper_boundary_clamps(self):
        assert bin_index(700.0, (100.0, 700.0), 230) == 229

    def test_formula(self):
        assert bin_index(400.0, (100.0, 700.0), 230) == 115

    def test_out_of_range_clamps(self):
        assert bin_index(-5.0, (0.0, 1.0), 10) == 0
        assert bin_index(7.0, (0.0, 1.0), 10) == 9

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            bin_index(1.0, (2.0, 2.0), 10)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=1, max_value=500),
    )
    def test_monotone_in_score(self, s1, s2, bins):
        lo, hi = s1, s2
        if lo == hi:
            return
        if lo > hi:
            lo, hi = hi, lo
        scores = sorted([lo, (lo + hi) / 2, hi])
        idxs = [bin_index(s, (lo, hi), bins) for s in scores]
        assert idxs == sorted(idxs)
        assert all(0 <= i < bins for i in idxs)

    def test_surjective_when_scores_span_range(self):
        bins = 7
        hit = {bin_index(s / 1000, (0.0, 1.0), bins) for s in range(1001)}
        assert hit == set(range(bins))


class TestCategoryLexicon:
    def test_paper_example_absurd(self):
        lex = load_category_lexicon(io.StringIO(CATEGORY_TSV))
        names = {lex.categories[i] for i in lex.lookup("absurd")}
        assert names == {"NEG", "VICE"}

    def test_wildcard_prefix(self):
        lex = load_category_lexicon(io.StringIO(CATEGORY_TSV))
        assert {lex.categories[i] for i in lex.lookup("happiness")} == {"POSEMO"}
        assert {lex.categories[i] for i in lex.lookup("happ")} == {"POSEMO"}

    def test_absent_word_empty(self):
        lex = load_category_lexicon(io.StringIO(CATEGORY_TSV))
        assert lex.lookup("zebra") == frozenset()

    def test_union_of_exact_and_wildcard(self):
        tsv = "#categories c A,B\nhappy\tA\nhapp*\tB\n"
        lex = load_category_lexicon(io.StringIO(tsv))
        assert {lex.categories[i] for i in lex.lookup("happy")} == {"A", "B"}

    def test_lookup_within_declared_categories(self):
        lex = load_category_lexicon(io.StringIO(CATEGORY_TSV))
        for word in ("absurd", "happiest", "nothing"):
            assert all(i < len(lex.categories) for i in lex.lookup(word))

    def test_unknown_category_label(self):
        tsv = "#categories c A\nword\tB\n"
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_category_lexicon(io.StringIO(tsv))

    def test_duplicate_rows_union(self):
        tsv = "#categories c A,B\nw\tA\nw\tB\n"
        lex = load_category_lexicon(io.StringIO(tsv))
        assert {lex.categories[i] for i in lex.lookup("w")} == {"A", "B"}

    def test_tsv_round_trip(self):
        lex = load_category_lexicon(io.StringIO(CATEGORY_TSV))
        again = load_category_lexicon(io.StringIO(category_lexicon_to_tsv(lex)))
        assert again.content_hash() == lex.content_hash()

    def test_missing_header(self):
        with pytest.raises(LexiconFormatError):
            load_category_lexicon(io.StringIO("word\tA\n"))
