import pytest
from hypothesis import given, strategies as st

from infosum.lexicons import (
    LexiconFormatError,
    bin_index,
    category_lexicon_to_tsv,
    read_category_lexicon,
    read_scored_lexicon,
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


@pytest.fixture
def scored(tmp_path):
    """The scored lexicon that `read_scored_lexicon` reads from a file holding the given TSV."""
    def read(tsv):
        path = tmp_path / "scored.tsv"
        path.write_text(tsv, encoding="utf-8")
        return read_scored_lexicon(path)
    return read


@pytest.fixture
def category(tmp_path):
    """The category lexicon that `read_category_lexicon` reads from a file holding the given TSV."""
    def read(tsv):
        path = tmp_path / "category.tsv"
        path.write_text(tsv, encoding="utf-8")
        return read_category_lexicon(path)
    return read


class TestScoredLexicon:
    def test_header_only(self, scored):
        lex = scored("#scored mrc imagery\n")
        assert lex.name == "mrc"
        assert lex.entries == {}

    def test_basic_load(self, scored):
        lex = scored(SCORED_TSV)
        assert lex.entries["cat"] == {"imagery": 600.0, "concreteness": 610.0}
        assert lex.ranges["imagery"] == (100.0, 700.0)

    def test_last_wins_on_duplicates(self, scored):
        tsv = "#scored m a a:0:10\nw\ta\t1\nw\ta\t2\n"
        lex = scored(tsv)
        assert lex.entries["w"]["a"] == 2.0

    def test_range_computed_from_data(self, scored):
        tsv = "#scored m a\nx\ta\t3\ny\ta\t9\n"
        lex = scored(tsv)
        assert lex.ranges["a"] == (3.0, 9.0)

    @pytest.mark.parametrize("rows", ["x\ta\t5\n", "x\ta\t5\ny\ta\t5\n"])
    def test_single_computed_score_rejected(self, scored, rows):
        with pytest.raises(LexiconFormatError, match="attribute 'a' has the single score 5.0"):
            scored("#scored m a\n" + rows)

    def test_single_score_with_declared_range(self, scored):
        lex = scored("#scored m a a:0:10\nx\ta\t5\n")
        assert lex.ranges["a"] == (0.0, 10.0)

    def test_score_outside_declared_range(self, scored):
        tsv = "#scored m a a:0:10\nx\ta\t11\n"
        with pytest.raises(LexiconFormatError, match="line 2"):
            scored(tsv)

    def test_non_numeric_score(self, scored):
        tsv = "#scored m a\nx\ta\thigh\n"
        with pytest.raises(LexiconFormatError, match="line 2"):
            scored(tsv)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score(self, scored, score):
        tsv = f"#scored m a\nx\ta\t1\ny\ta\t{score}\n"
        with pytest.raises(LexiconFormatError, match="line 3: non-finite score"):
            scored(tsv)

    @pytest.mark.parametrize("decl", ["a:nan:10", "a:0:inf", "a:-inf:inf"])
    def test_non_finite_declared_range(self, scored, decl):
        tsv = f"#scored m a {decl}\nx\ta\t1\n"
        with pytest.raises(LexiconFormatError, match="line 1: non-finite range"):
            scored(tsv)

    def test_unknown_attribute(self, scored):
        tsv = "#scored m a\nx\tb\t1\n"
        with pytest.raises(LexiconFormatError, match="unknown attribute"):
            scored(tsv)

    def test_words_casefolded(self, scored):
        tsv = "#scored m a a:0:10\nCat\ta\t1\n"
        assert "cat" in scored(tsv).entries

    def test_order_insensitive_hash(self, scored):
        a = "#scored m a\nx\ta\t1\ny\ta\t2\n"
        b = "#scored m a\ny\ta\t2\nx\ta\t1\n"
        lex_a = scored(a)
        lex_b = scored(b)
        assert lex_a.content_hash(10) == lex_b.content_hash(10)

    def test_tsv_round_trip(self, scored):
        lex = scored(SCORED_TSV)
        again = scored(scored_lexicon_to_tsv(lex))
        assert again.content_hash(10) == lex.content_hash(10)

    def test_content_hash_keeps_its_payload(self, scored):
        """The hash model.json files record for a layout with 10 bins; a change to its payload fails here."""
        lex = scored(SCORED_TSV)
        assert lex.content_hash(10) == "dc0a0844cbd5321cf6f476ec2516a2d1d22bf8da7fb2d617ff5cb92a6b6c80b9"
        assert lex.content_hash(11) != lex.content_hash(10)


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
    def test_paper_example_absurd(self, category):
        lex = category(CATEGORY_TSV)
        names = {lex.categories[i] for i in lex.lookup("absurd")}
        assert names == {"NEG", "VICE"}

    def test_wildcard_prefix(self, category):
        lex = category(CATEGORY_TSV)
        assert {lex.categories[i] for i in lex.lookup("happiness")} == {"POSEMO"}
        assert {lex.categories[i] for i in lex.lookup("happ")} == {"POSEMO"}

    def test_absent_word_empty(self, category):
        lex = category(CATEGORY_TSV)
        assert lex.lookup("zebra") == frozenset()

    def test_union_of_exact_and_wildcard(self, category):
        tsv = "#categories c A,B\nhappy\tA\nhapp*\tB\n"
        lex = category(tsv)
        assert {lex.categories[i] for i in lex.lookup("happy")} == {"A", "B"}

    def test_lookup_within_declared_categories(self, category):
        lex = category(CATEGORY_TSV)
        for word in ("absurd", "happiest", "nothing"):
            assert all(i < len(lex.categories) for i in lex.lookup(word))

    def test_unknown_category_label(self, category):
        tsv = "#categories c A\nword\tB\n"
        with pytest.raises(LexiconFormatError, match="line 2"):
            category(tsv)

    def test_duplicate_rows_union(self, category):
        tsv = "#categories c A,B\nw\tA\nw\tB\n"
        lex = category(tsv)
        assert {lex.categories[i] for i in lex.lookup("w")} == {"A", "B"}

    def test_tsv_round_trip(self, category):
        lex = category(CATEGORY_TSV)
        again = category(category_lexicon_to_tsv(lex))
        assert again.content_hash() == lex.content_hash()

    def test_missing_header(self, category):
        with pytest.raises(LexiconFormatError):
            category("word\tA\n")
