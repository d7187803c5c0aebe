"""Sentence feature extraction over fixed layouts.

Dictionary layouts hold three feature families: per-attribute score-interval
fractions from scored lexicons, category histograms from category lexicons,
and six general sentence attributes. BOW layouts hold raw term counts over a
fixed vocabulary; there is no other kind of layout. A FeatureLayout stores
each fact that fixes the columns once: the mode, each lexicon's name, its
attributes and bins or its categories, and its content hash, or the
vocabulary. Block order follows from the specs, and `total_dim` and
`general_width` are derived from them, once per layout. Its JSON is `asdict`
of it, `pu.save_model` writes it inside model.json, and `corpus.decode` reads
it back.

The layout alone bins: `dictionary_layout` records the configured bins in
each scored spec, and the extractor bins each score by its spec. One rule
builds a spec from a lexicon (`_scored_spec`, `_category_spec`); an
extractor checks the lexicon of each spec's name by building the spec again
with its bins, so a lexicon changed since the layout was built is rejected.
Lexicon names must be distinct, in a layout and in an extractor.

Every lexicon or vocabulary feature is a per-word count, so the extractor
resolves each lowercased word type once into the columns it adds to and
counts a sentence's columns; dictionary blocks are then divided by the
sentence's word count.

A sentence's features are one sparse row: its nonzero columns in ascending
order and their values, computed in pure Python. Most entries are zero
(96-98 % on the benchmark bundles). Train and predict both stack these rows
into a `sparse.CsrMatrix` and score it with the same numpy product, so a
sentence gets the same margin in either command and no BLAS kernel enters
it (`pu` says what still varies by host).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

from .constants import FEATURE_MODES, MODE_BOW, MODE_DICTIONARY, MODE_DICTIONARY_NO_GENERAL
from .corpus import Corpus, InputFormatError, Sentence, document_frequencies
from .lexicons import CategoryLexicon, LexiconFormatError, ScoredLexicon, bin_index

GENERAL_WIDTH = 6
DOUBLE_QUOTE_MARKS = ('"', "“", "”")


class LayoutMismatchError(InputFormatError):
    """Feature layout does not match the supplied lexicons or model."""


def general_features(sentence: Sentence) -> tuple[float, ...]:
    """Token count, punctuation count, and four contains-mark flags."""
    text = sentence.text
    double_quote = any(m in text for m in DOUBLE_QUOTE_MARKS) or "''" in text
    return (
        float(sentence.n_tokens),
        float(sentence.n_tokens - len(sentence.words)),
        1.0 if "!" in text else 0.0,
        1.0 if "?" in text else 0.0,
        1.0 if ":" in text else 0.0,
        1.0 if double_quote else 0.0,
    )


@dataclass(frozen=True)
class ScoredSpec:
    name: str
    attributes: tuple[str, ...]
    bins: int
    content_hash: str


@dataclass(frozen=True)
class CategorySpec:
    name: str
    categories: tuple[str, ...]
    content_hash: str


@dataclass(frozen=True)
class FeatureLayout:
    """The feature mode and what fixes its columns: the lexicon specs of a
    dictionary layout, or the vocabulary of a BOW one. Each width is derived."""

    mode: Literal[FEATURE_MODES]
    scored: tuple[ScoredSpec, ...] = ()
    category: tuple[CategorySpec, ...] = ()
    vocab: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode != MODE_BOW:
            if self.vocab is not None:
                raise ValueError(f"vocab must be null in {self.mode} mode, not {len(self.vocab)} words")
            return
        if self.vocab is None:
            raise ValueError("vocab must be a list of words in bow mode, not None")
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError(f"vocab must not repeat a word: {Counter(self.vocab).most_common(1)[0][0]!r}")
        for name, specs in (("scored", self.scored), ("category", self.category)):
            if specs:
                raise ValueError(f"{name} must be empty in bow mode, not {len(specs)} lexicon specs")

    @cached_property
    def general_width(self) -> int:
        """The width of the general block, which ends the row in dictionary mode."""
        return GENERAL_WIDTH if self.mode == MODE_DICTIONARY else 0

    @cached_property
    def total_dim(self) -> int:
        """The row's width: a column per vocabulary word, or in order a block of
        bins per scored attribute, a column per category and the general block."""
        scored = sum(len(spec.attributes) * spec.bins for spec in self.scored)
        category = sum(len(spec.categories) for spec in self.category)
        return len(self.vocab or ()) + scored + category + self.general_width


def _scored_spec(lex: ScoredLexicon, bins: int) -> ScoredSpec:
    return ScoredSpec(lex.name, lex.attributes, bins, lex.content_hash(bins))


def _category_spec(lex: CategoryLexicon) -> CategorySpec:
    return CategorySpec(lex.name, lex.categories, lex.content_hash())


def _check_unique_names(scored: Sequence[ScoredLexicon], category: Sequence[CategoryLexicon]) -> None:
    names = [lex.name for lex in (*scored, *category)]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise LexiconFormatError(f"two lexicons are named {name!r}; lexicon names must be unique")


def dictionary_layout(
    scored_lexicons: Sequence[ScoredLexicon],
    category_lexicons: Sequence[CategoryLexicon],
    bins: int,
    include_general: bool = True,
) -> FeatureLayout:
    """The specs of the scored lexicons, each attribute binned into `bins` intervals,
    then of the category lexicons, in order."""
    _check_unique_names(scored_lexicons, category_lexicons)
    return FeatureLayout(
        mode=MODE_DICTIONARY if include_general else MODE_DICTIONARY_NO_GENERAL,
        scored=tuple(_scored_spec(lex, bins) for lex in scored_lexicons),
        category=tuple(_category_spec(lex) for lex in category_lexicons),
    )


def bow_layout(vocab: Sequence[str]) -> FeatureLayout:
    return FeatureLayout(mode=MODE_BOW, vocab=tuple(vocab))


def bow_vocabulary(corpus: Corpus, min_df: int) -> tuple[str, ...]:
    """Alphabetical word types whose document frequency is at least min_df."""
    df = document_frequencies(corpus.documents)
    return tuple(sorted(t for t, c in df.items() if c >= min_df))


class FeatureExtractor:
    """Maps sentences to sparse fixed-layout rows, validating lexicons against the layout."""

    def __init__(
        self,
        layout: FeatureLayout,
        scored_lexicons: Sequence[ScoredLexicon] = (),
        category_lexicons: Sequence[CategoryLexicon] = (),
    ):
        """Each of the layout's specs takes the lexicon of its name, which must rebuild
        the spec exactly; the lexicons must have distinct names, as in `dictionary_layout`."""
        _check_unique_names(scored_lexicons, category_lexicons)
        self.layout = layout
        scored = {lex.name: lex for lex in scored_lexicons}
        category = {lex.name: lex for lex in category_lexicons}
        self._scored = [scored.get(spec.name) for spec in layout.scored]
        self._category = [category.get(spec.name) for spec in layout.category]
        rebuilt = [lex and _scored_spec(lex, spec.bins) for lex, spec in zip(self._scored, layout.scored)]
        rebuilt += [lex and _category_spec(lex) for lex in self._category]
        for spec, again in zip((*layout.scored, *layout.category), rebuilt):
            if again != spec:
                raise LayoutMismatchError(f"lexicon {spec.name!r} missing or does not match layout")
        self._columns: dict[str, tuple[int, ...]] = {w: (i,) for i, w in enumerate(layout.vocab or ())}

    def _resolve(self, word: str) -> tuple[int, ...]:
        """Columns one occurrence of a lowercased word adds 1 to, other than a vocabulary
        word's, which the column map holds from the start."""
        cols: list[int] = []
        pos = 0
        for lex, spec in zip(self._scored, self.layout.scored):
            entry = lex.entries.get(word, {})
            for attr in lex.attributes:
                if attr in entry:
                    cols.append(pos + bin_index(entry[attr], lex.ranges[attr], spec.bins))
                pos += spec.bins
        for lex in self._category:
            cols.extend(pos + cat for cat in lex.lookup(word))
            pos += len(lex.categories)
        return tuple(cols)

    def extract(self, sentence: Sentence) -> tuple[list[int], list[float]]:
        """The sentence's nonzero columns, ascending, and their values.

        A wordless sentence has no lexicon entries; its general block is
        still computed, so punctuation-only sentences, which real corpora
        hold, get a row like any other.
        """
        words = sentence.words
        counts: dict[int, int] = {}
        for word in words:
            hit = self._columns.get(word)
            if hit is None:
                hit = self._columns[word] = self._resolve(word)
            for col in hit:
                counts[col] = counts.get(col, 0) + 1
        # a lexicon column holds the fraction of the words, a vocabulary column their count
        scale = len(words) if self.layout.vocab is None else 1
        cols = sorted(counts)
        values = [counts[col] / scale for col in cols]
        general = general_features(sentence) if self.layout.general_width else ()
        offset = self.layout.total_dim - self.layout.general_width
        cols += [offset + i for i, value in enumerate(general) if value]
        values += [value for value in general if value]
        return cols, values

    # The same method under a second name, which perfbench/tracer.py wraps.
    extract_or_zero = extract
