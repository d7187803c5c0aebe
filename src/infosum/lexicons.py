"""Scored (MRC-style) and category (LIWC/Inquirer-style) lexicons.

Both kinds load from a small TSV format so that proprietary word lists can
be supplied by the user instead of being bundled:

  scored:    header `#scored <name> attr1,...,attrK [attr:min:max ...]`,
             rows `word<TAB>attribute<TAB>score`
  category:  header `#categories <name> cat1,...,catK`,
             rows `word<TAB>cat1,cat2,...`

Lines starting with `#` (other than the header) are comments. Words are
casefolded on load; a trailing `*` marks a prefix-match (wildcard) entry.
Files are read by `infosum.corpus.read_lines`, and an error names the
lexicon kind and the line.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .constants import DEFAULT_BINS
from .corpus import InputFormatError, numbered_lines, read_lines

SCORED = "scored lexicon"
CATEGORY = "category lexicon"


class LexiconFormatError(InputFormatError):
    """Malformed lexicon input, reported with the kind and line number, or a
    lexicon name that clashes with another lexicon or a feature block."""


def _hash_payload(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScoredLexicon:
    """Word lists with real-valued attribute scores and a binning resolution."""

    name: str
    attributes: tuple[str, ...]
    entries: dict[str, dict[str, float]]
    ranges: dict[str, tuple[float, float]]
    bins: int = DEFAULT_BINS

    def content_hash(self) -> str:
        return _hash_payload(
            {
                "kind": "scored",
                "name": self.name,
                "attributes": list(self.attributes),
                "bins": self.bins,
                "ranges": {a: list(r) for a, r in sorted(self.ranges.items())},
                "entries": {
                    w: {a: s for a, s in sorted(attrs.items())}
                    for w, attrs in sorted(self.entries.items())
                },
            }
        )


@dataclass(frozen=True)
class CategoryLexicon:
    """Word-to-category-set mapping with optional wildcard prefixes."""

    name: str
    categories: tuple[str, ...]
    entries: dict[str, frozenset[int]]
    wildcards: dict[str, frozenset[int]]

    def lookup(self, lower_word: str) -> frozenset[int]:
        """Union of exact-match categories and all wildcard-prefix matches."""
        cats: set[int] = set(self.entries.get(lower_word, ()))
        if self.wildcards:
            for k in range(len(lower_word) + 1):
                hit = self.wildcards.get(lower_word[:k])
                if hit:
                    cats.update(hit)
        return frozenset(cats)

    def content_hash(self) -> str:
        return _hash_payload(
            {
                "kind": "category",
                "name": self.name,
                "categories": list(self.categories),
                "entries": {w: sorted(c) for w, c in sorted(self.entries.items())},
                "wildcards": {w: sorted(c) for w, c in sorted(self.wildcards.items())},
            }
        )


def bin_index(score: float, score_range: tuple[float, float], bins: int) -> int:
    """Uniform-width interval index of a score, clamped to [0, bins)."""
    lo, hi = score_range
    if not lo < hi:
        raise ValueError(f"degenerate score range ({lo}, {hi})")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    idx = math.floor((score - lo) / (hi - lo) * bins)
    return min(max(idx, 0), bins - 1)


def _header(line: str) -> tuple[str, tuple[str, ...], list[str]]:
    """Name, comma-separated names and further fields of a `#scored` or `#categories` header."""
    parts = line.split()
    if len(parts) < 3:
        raise ValueError(f"{parts[0]} header needs a name and a comma-separated list")
    names = tuple(a for a in parts[2].split(",") if a)
    if not names:
        raise ValueError(f"{parts[0]} header has an empty list")
    return parts[1], names, parts[3:]


def _scored_header(line: str) -> tuple[str, tuple[str, ...], dict[str, tuple[float, float]]]:
    """Name, attributes and declared ranges of a `#scored` header line."""
    name, attributes, decls = _header(line)
    declared: dict[str, tuple[float, float]] = {}
    for decl in decls:
        bits = decl.split(":")
        if len(bits) != 3:
            raise ValueError(f"bad range declaration {decl!r}")
        attr = bits[0]
        if attr not in attributes:
            raise ValueError(f"range for unknown attribute {attr!r}")
        try:
            lo, hi = float(bits[1]), float(bits[2])
        except ValueError:
            raise ValueError(f"non-numeric range in {decl!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"non-finite range in {decl!r}")
        if not lo < hi:
            raise ValueError(f"empty range in {decl!r}")
        declared[attr] = (lo, hi)
    return name, attributes, declared


def _scored_lexicon(lines: Iterable[tuple[int, str]], bins: int) -> ScoredLexicon:
    """The scored lexicon on the numbered lines; duplicate (word, attribute) rows keep the last score.

    Attribute ranges come from `attr:min:max` header declarations when present
    and are computed from the data otherwise. A score outside a declared range
    is an error, and so is a computed range with a single score.
    """
    name: str | None = None
    attributes: tuple[str, ...] = ()
    declared: dict[str, tuple[float, float]] = {}
    entries: dict[str, dict[str, float]] = {}
    for lineno, raw in lines:
        line = raw.rstrip("\n")
        try:
            if line.startswith("#"):
                if name is None and line.startswith("#scored"):
                    name, attributes, declared = _scored_header(line)
                continue
            if name is None:
                raise ValueError("data before #scored header")
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError("expected word<TAB>attribute<TAB>score")
            word, attr, score_text = fields
            if attr not in attributes:
                raise ValueError(f"unknown attribute {attr!r}")
            try:
                score = float(score_text)
            except ValueError:
                raise ValueError(f"non-numeric score {score_text!r}") from None
            if not math.isfinite(score):
                raise ValueError(f"non-finite score {score_text!r}")
            lo, hi = declared.get(attr, (-math.inf, math.inf))
            if not lo <= score <= hi:
                raise ValueError(f"score {score} outside declared range [{lo}, {hi}] for {attr!r}")
        except ValueError as exc:
            raise LexiconFormatError(f"{SCORED} line {lineno}: {exc}") from None
        entries.setdefault(word.casefold(), {})[attr] = score
    if name is None:
        raise LexiconFormatError(f"{SCORED}: missing #scored header")
    ranges = dict(declared)
    for attr in attributes:
        if attr in ranges:
            continue
        observed = [attrs[attr] for attrs in entries.values() if attr in attrs]
        if observed:
            lo, hi = min(observed), max(observed)
            if lo == hi:
                raise LexiconFormatError(
                    f"{SCORED}: attribute {attr!r} has the single score {lo} and no declared range; "
                    f"declare one in the header as {attr}:min:max"
                )
            ranges[attr] = (lo, hi)
    return ScoredLexicon(
        name=name, attributes=attributes, entries=entries, ranges=ranges, bins=bins
    )


def _category_lexicon(lines: Iterable[tuple[int, str]]) -> CategoryLexicon:
    """The category lexicon on the numbered lines; duplicate word rows union their categories."""
    name: str | None = None
    categories: tuple[str, ...] = ()
    cat_index: dict[str, int] = {}
    entries: dict[str, set[int]] = {}
    wildcards: dict[str, set[int]] = {}
    for lineno, raw in lines:
        line = raw.rstrip("\n")
        try:
            if line.startswith("#"):
                if name is None and line.startswith("#categories"):
                    name, categories, _ = _header(line)
                    if len(set(categories)) != len(categories):
                        raise ValueError("duplicate category names")
                    cat_index = {c: i for i, c in enumerate(categories)}
                continue
            if name is None:
                raise ValueError("data before #categories header")
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError("expected word<TAB>cat1,cat2,...")
            word, cat_text = fields
            ids: set[int] = set()
            for cat in cat_text.split(","):
                cat = cat.strip()
                if not cat:
                    continue
                if cat not in cat_index:
                    raise ValueError(f"unknown category {cat!r}")
                ids.add(cat_index[cat])
        except ValueError as exc:
            raise LexiconFormatError(f"{CATEGORY} line {lineno}: {exc}") from None
        word = word.casefold()
        if word.endswith("*"):
            wildcards.setdefault(word[:-1], set()).update(ids)
        else:
            entries.setdefault(word, set()).update(ids)
    if name is None:
        raise LexiconFormatError(f"{CATEGORY}: missing #categories header")
    return CategoryLexicon(
        name=name,
        categories=categories,
        entries={w: frozenset(c) for w, c in entries.items()},
        wildcards={w: frozenset(c) for w, c in wildcards.items()},
    )


def load_scored_lexicon(lines: Iterable[bytes] | Iterable[str], bins: int = DEFAULT_BINS) -> ScoredLexicon:
    """The scored lexicon on `lines`, an open file or a list of lines."""
    return _scored_lexicon(numbered_lines(lines, SCORED), bins)


def load_category_lexicon(lines: Iterable[bytes] | Iterable[str]) -> CategoryLexicon:
    """The category lexicon on `lines`, an open file or a list of lines."""
    return _category_lexicon(numbered_lines(lines, CATEGORY))


def scored_lexicon_to_tsv(lex: ScoredLexicon) -> str:
    decls = " ".join(f"{a}:{lo!r}:{hi!r}" for a, (lo, hi) in sorted(lex.ranges.items()))
    header = f"#scored {lex.name} {','.join(lex.attributes)}"
    if decls:
        header += " " + decls
    rows = [
        f"{w}\t{a}\t{s!r}"
        for w, attrs in sorted(lex.entries.items())
        for a, s in sorted(attrs.items())
    ]
    return "\n".join([header, *rows]) + "\n"


def category_lexicon_to_tsv(lex: CategoryLexicon) -> str:
    header = f"#categories {lex.name} {','.join(lex.categories)}"
    rows = [
        f"{w}\t{','.join(lex.categories[i] for i in sorted(ids))}"
        for w, ids in sorted(lex.entries.items())
    ]
    rows += [
        f"{w}*\t{','.join(lex.categories[i] for i in sorted(ids))}"
        for w, ids in sorted(lex.wildcards.items())
    ]
    return "\n".join([header, *rows]) + "\n"


def read_scored_lexicon(path: str | Path, bins: int = DEFAULT_BINS) -> ScoredLexicon:
    return _scored_lexicon(read_lines(path, SCORED), bins)


def read_category_lexicon(path: str | Path) -> CategoryLexicon:
    return _category_lexicon(read_lines(path, CATEGORY))
