"""Sentence feature extraction over fixed layouts.

Dictionary layouts hold three feature families: per-attribute score-interval
fractions from scored lexicons, category histograms from category lexicons,
and six general sentence attributes. BOW layouts hold raw term counts over a
fixed vocabulary; there is no other kind of layout. A FeatureLayout freezes
block order, widths and lexicon content hashes. `pu.save_model` writes it
beside the model, and an extractor built on it rejects lexicons whose
content has changed since.

Every lexicon or vocabulary feature is a per-word count, so the extractor
resolves each lowercased word type once into the columns it adds to and
counts a sentence's columns with one bincount; dictionary blocks are then
divided by the sentence's word count.

A sentence's features are a dense vector. Most entries are zero (96-98 %
on the benchmark bundles), so the training matrix keeps only each row's
nonzero columns and values (`cli.build_examples`, `sparse.CsrMatrix`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import MODE_BOW, MODE_DICTIONARY, MODE_DICTIONARY_NO_GENERAL
from .corpus import Corpus, InputFormatError, Sentence, document_frequencies
from .lexicons import CategoryLexicon, LexiconFormatError, ScoredLexicon, bin_index

GENERAL_WIDTH = 6
DOUBLE_QUOTE_MARKS = ('"', "“", "”")
LAYOUT_VERSION = 1


class LayoutMismatchError(InputFormatError):
    """Feature layout does not match the supplied lexicons or model."""


def general_features(sentence: Sentence) -> np.ndarray:
    """Token count, punctuation count, and four contains-mark flags."""
    text = sentence.text
    double_quote = any(m in text for m in DOUBLE_QUOTE_MARKS) or "''" in text
    return np.array(
        [
            float(len(sentence.tokens)),
            float(len(sentence.tokens) - len(sentence.words)),
            1.0 if "!" in text else 0.0,
            1.0 if "?" in text else 0.0,
            1.0 if ":" in text else 0.0,
            1.0 if double_quote else 0.0,
        ]
    )


@dataclass(frozen=True)
class Block:
    name: str
    offset: int
    width: int


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
    mode: str
    blocks: tuple[Block, ...]
    total_dim: int
    scored: tuple[ScoredSpec, ...] = ()
    category: tuple[CategorySpec, ...] = ()
    general_width: int = 0
    vocab: tuple[str, ...] | None = None


def dictionary_layout(
    scored_lexicons: Sequence[ScoredLexicon],
    category_lexicons: Sequence[CategoryLexicon],
    include_general: bool = True,
) -> FeatureLayout:
    """Blocks in order: scored lexicon attributes, category lexicons, general."""
    names = [lex.name for lex in scored_lexicons] + [lex.name for lex in category_lexicons]
    for i, name in enumerate(names):
        if name in ("general", "bow"):
            raise LexiconFormatError(f"lexicon name {name!r} is reserved for a feature block")
        if name in names[:i]:
            raise LexiconFormatError(f"two lexicons are named {name!r}; lexicon names must be unique")
    blocks: list[Block] = []
    offset = 0
    scored_specs = []
    for lex in scored_lexicons:
        for attr in lex.attributes:
            blocks.append(Block(f"{lex.name}:{attr}", offset, lex.bins))
            offset += lex.bins
        scored_specs.append(
            ScoredSpec(lex.name, lex.attributes, lex.bins, lex.content_hash())
        )
    category_specs = []
    for lex in category_lexicons:
        blocks.append(Block(lex.name, offset, len(lex.categories)))
        offset += len(lex.categories)
        category_specs.append(CategorySpec(lex.name, lex.categories, lex.content_hash()))
    general_width = 0
    if include_general:
        blocks.append(Block("general", offset, GENERAL_WIDTH))
        general_width = GENERAL_WIDTH
        offset += GENERAL_WIDTH
    return FeatureLayout(
        mode=MODE_DICTIONARY if include_general else MODE_DICTIONARY_NO_GENERAL,
        blocks=tuple(blocks),
        total_dim=offset,
        scored=tuple(scored_specs),
        category=tuple(category_specs),
        general_width=general_width,
    )


def bow_layout(vocab: Sequence[str]) -> FeatureLayout:
    if len(set(vocab)) != len(vocab):
        raise ValueError("bow vocabulary contains duplicates")
    return FeatureLayout(
        mode=MODE_BOW,
        blocks=(Block("bow", 0, len(vocab)),),
        total_dim=len(vocab),
        vocab=tuple(vocab),
    )


def bow_vocabulary(corpus: Corpus, min_df: int = 2) -> tuple[str, ...]:
    """Alphabetical word types whose document frequency is at least min_df."""
    df = document_frequencies(corpus.documents)
    return tuple(sorted(t for t, c in df.items() if c >= min_df))


def layout_to_json(layout: FeatureLayout) -> dict:
    return {
        "version": LAYOUT_VERSION,
        "mode": layout.mode,
        "blocks": [
            {"name": b.name, "offset": b.offset, "width": b.width} for b in layout.blocks
        ],
        "total_dim": layout.total_dim,
        "scored": [
            {
                "name": s.name,
                "attributes": list(s.attributes),
                "bins": s.bins,
                "content_hash": s.content_hash,
            }
            for s in layout.scored
        ],
        "category": [
            {
                "name": c.name,
                "categories": list(c.categories),
                "content_hash": c.content_hash,
            }
            for c in layout.category
        ],
        "general_width": layout.general_width,
        "vocab": list(layout.vocab) if layout.vocab is not None else None,
    }


def layout_from_json(obj: dict) -> FeatureLayout:
    if obj.get("version") != LAYOUT_VERSION:
        raise LayoutMismatchError(f"unsupported layout version {obj.get('version')!r}")
    return FeatureLayout(
        mode=obj["mode"],
        blocks=tuple(Block(b["name"], b["offset"], b["width"]) for b in obj["blocks"]),
        total_dim=obj["total_dim"],
        scored=tuple(
            ScoredSpec(s["name"], tuple(s["attributes"]), s["bins"], s["content_hash"])
            for s in obj["scored"]
        ),
        category=tuple(
            CategorySpec(c["name"], tuple(c["categories"]), c["content_hash"])
            for c in obj["category"]
        ),
        general_width=obj["general_width"],
        vocab=tuple(obj["vocab"]) if obj.get("vocab") is not None else None,
    )


def layout_hash(layout: FeatureLayout) -> str:
    blob = json.dumps(layout_to_json(layout), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class FeatureExtractor:
    """Maps sentences to fixed-layout vectors, validating lexicons against the layout."""

    def __init__(
        self,
        layout: FeatureLayout,
        scored_lexicons: Sequence[ScoredLexicon] = (),
        category_lexicons: Sequence[CategoryLexicon] = (),
    ):
        self.layout = layout
        self._scored: list[ScoredLexicon] = []
        self._category: list[CategoryLexicon] = []
        self._columns: dict[str, tuple[int, ...]] = {}
        if layout.mode == MODE_BOW:
            assert layout.vocab is not None
            self._columns = {w: (i,) for i, w in enumerate(layout.vocab)}
            return
        by_name_scored = {lex.name: lex for lex in scored_lexicons}
        for spec in layout.scored:
            lex = by_name_scored.get(spec.name)
            if (
                lex is None
                or lex.attributes != spec.attributes
                or lex.bins != spec.bins
                or lex.content_hash() != spec.content_hash
            ):
                raise LayoutMismatchError(
                    f"scored lexicon {spec.name!r} missing or does not match layout"
                )
            self._scored.append(lex)
        by_name_cat = {lex.name: lex for lex in category_lexicons}
        for spec in layout.category:
            lex = by_name_cat.get(spec.name)
            if (
                lex is None
                or lex.categories != spec.categories
                or lex.content_hash() != spec.content_hash
            ):
                raise LayoutMismatchError(
                    f"category lexicon {spec.name!r} missing or does not match layout"
                )
            self._category.append(lex)

    def _resolve(self, word: str) -> tuple[int, ...]:
        """Columns one occurrence of a lowercased word adds 1 to.

        BOW vocabulary words are preset in the column map, so a BOW word that
        reaches here is out of vocabulary.
        """
        if self.layout.mode == MODE_BOW:
            return ()
        cols: list[int] = []
        pos = 0
        for lex in self._scored:
            entry = lex.entries.get(word, {})
            for attr in lex.attributes:
                if attr in entry:
                    cols.append(pos + bin_index(entry[attr], lex.ranges[attr], lex.bins))
                pos += lex.bins
        for lex in self._category:
            cols.extend(pos + cat for cat in lex.lookup(word))
            pos += len(lex.categories)
        return tuple(cols)

    def extract(self, sentence: Sentence) -> np.ndarray:
        """The sentence's vector; a wordless sentence gets zero lexicon blocks.

        The general block is still computed, so punctuation-only sentences,
        which real corpora hold, get a vector like any other.
        """
        words = sentence.words
        cols = []
        for word in words:
            hit = self._columns.get(word)
            if hit is None:
                hit = self._columns[word] = self._resolve(word)
            cols.extend(hit)
        width = self.layout.total_dim - self.layout.general_width
        out = np.zeros(self.layout.total_dim)
        out[:width] = np.bincount(np.array(cols, dtype=np.intp), minlength=width)
        if words and self.layout.mode != MODE_BOW:
            out[:width] /= len(words)
        if self.layout.general_width:
            out[width:] = general_features(sentence)
        return out

    # The same method under a second name, which perfbench/tracer.py wraps.
    extract_or_zero = extract
