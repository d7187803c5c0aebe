"""Budget-constrained single-document summarizers.

Four systems share one word budget: LeadWords (opening words, truncated
mid-sentence), InfoRank (whole sentences ranked by predicted importance),
InfoFilter (lead order with unimportant sentences dropped), and RandomRank
(seeded random ranking). InfoRank and InfoFilter take the detector's
probability for each sentence of the document, in sentence order. These
are the `prob` fields of predictions.jsonl, which `infosum predict` writes
and `infosum summarize` reads: no summarizer scores a sentence itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Document, Sentence, json_int, make_sentence, read_jsonl, word_count, write_jsonl

WHOLE_SENTENCE = "whole-sentence"
TRUNCATE_WORDS = "truncate-words"

LEADWORDS = "leadwords"
INFORANK = "inforank"
INFOFILTER = "infofilter"
RANDOMRANK = "randomrank"
SYSTEMS = (LEADWORDS, INFORANK, INFOFILTER, RANDOMRANK)


@dataclass(frozen=True)
class SummaryBudget:
    max_words: int = 100
    mode: str = TRUNCATE_WORDS

    def __post_init__(self) -> None:
        if self.max_words < 1:
            raise ValueError("max_words must be >= 1")
        if self.mode not in (WHOLE_SENTENCE, TRUNCATE_WORDS):
            raise ValueError(f"mode must be {WHOLE_SENTENCE!r} or {TRUNCATE_WORDS!r}, not {self.mode!r}")


@dataclass(frozen=True)
class SummaryResult:
    doc_id: str
    system: str
    selected: tuple[int, ...]
    removed: tuple[int, ...]
    text: str
    word_total: int
    fallback: bool = False


def _sentence_words(doc: Document) -> list[int]:
    return [len(s.words) for s in doc.sentences]


def _truncate(sentence: Sentence, n_words: int) -> str:
    """The sentence's tokens up to and including its n_words-th word, space-joined.

    A surface is the next word exactly when it casefolds to it, because no
    punctuation token casefolds to a word.
    """
    words = sentence.words
    kept = len(sentence.tokens)
    taken = 0
    for i, surface in enumerate(sentence.tokens):
        if taken < len(words) and surface.casefold() == words[taken]:
            taken += 1
            if taken == n_words:
                kept = i + 1
                break
    return " ".join(sentence.tokens[:kept])


def lead_words(doc: Document, budget: SummaryBudget) -> SummaryResult:
    """Opening words of the document up to the budget.

    In truncate-words mode the boundary sentence is cut mid-sentence; in
    whole-sentence mode selection stops before the first sentence that would
    overflow.
    """
    if not doc.sentences:
        raise ValueError(f"document {doc.doc_id!r} is empty")
    counts = _sentence_words(doc)
    selected: list[int] = []
    pieces: list[str] = []
    total = 0
    for sent, wc in zip(doc.sentences, counts):
        remaining = budget.max_words - total
        if wc <= remaining:
            selected.append(sent.id)
            pieces.append(sent.text)
            total += wc
            if total == budget.max_words and budget.mode == TRUNCATE_WORDS:
                break
            continue
        if budget.mode == TRUNCATE_WORDS and remaining > 0:
            selected.append(sent.id)
            pieces.append(_truncate(sent, remaining))
            total += remaining
        break
    return SummaryResult(
        doc_id=doc.doc_id,
        system=LEADWORDS,
        selected=tuple(selected),
        removed=(),
        text=" ".join(pieces),
        word_total=total,
    )


def _greedy_fill(order: Sequence[int], counts: Sequence[int], max_words: int) -> tuple[list[int], int]:
    """Take sentences along `order` while they fit; oversized ones are skipped."""
    chosen: list[int] = []
    total = 0
    for i in order:
        if total + counts[i] <= max_words:
            chosen.append(i)
            total += counts[i]
    return sorted(chosen), total


def _check_probs(doc: Document, probs: Sequence[float]) -> None:
    if len(probs) != len(doc.sentences):
        raise ValueError(
            f"document {doc.doc_id!r} has {len(doc.sentences)} sentences "
            f"but {len(probs)} probabilities"
        )


def info_rank(doc: Document, probs: Sequence[float], budget: SummaryBudget) -> SummaryResult:
    """Whole sentences in decreasing probability order, greedily packed.

    Ties rank the earlier sentence first, and the summary is emitted in
    document order. Selection depends only on the probability ordering, so
    any strictly monotone rescaling of the probabilities leaves it unchanged.
    """
    _check_probs(doc, probs)
    order = sorted(range(len(doc.sentences)), key=lambda i: (-probs[i], i))
    counts = _sentence_words(doc)
    selected, total = _greedy_fill(order, counts, budget.max_words)
    return SummaryResult(
        doc_id=doc.doc_id,
        system=INFORANK,
        selected=tuple(selected),
        removed=(),
        text=" ".join(doc.sentences[i].text for i in selected),
        word_total=total,
    )


def info_filter(doc: Document, probs: Sequence[float], budget: SummaryBudget) -> SummaryResult:
    """Lead-order summary that skips sentences predicted unimportant (prob < 0.5).

    Kept sentences are appended whole until the next one would overflow the
    budget, then scanning stops. When every sentence is predicted
    unimportant the result falls back to lead_words (all ids recorded as
    removed, fallback flagged).
    """
    _check_probs(doc, probs)
    important = [p >= 0.5 for p in probs]
    removed = [s.id for s, keep in zip(doc.sentences, important) if not keep]
    kept = [s.id for s, keep in zip(doc.sentences, important) if keep]
    if not kept:
        lead = lead_words(doc, SummaryBudget(budget.max_words, TRUNCATE_WORDS))
        return SummaryResult(
            doc_id=doc.doc_id,
            system=INFOFILTER,
            selected=lead.selected,
            removed=tuple(removed),
            text=lead.text,
            word_total=lead.word_total,
            fallback=True,
        )
    counts = _sentence_words(doc)
    selected: list[int] = []
    total = 0
    for i in kept:
        if total + counts[i] > budget.max_words:
            break
        selected.append(i)
        total += counts[i]
    return SummaryResult(
        doc_id=doc.doc_id,
        system=INFOFILTER,
        selected=tuple(selected),
        removed=tuple(removed),
        text=" ".join(doc.sentences[i].text for i in selected),
        word_total=total,
    )


def summary_sentences(doc: Document, result: SummaryResult) -> list[Sentence]:
    """The summary's sentences, the last one cut as lead_words cut it.

    Only lead_words truncates (LeadWords, and InfoFilter's fallback); a cut
    shows as fewer words in word_total than the selected sentences hold.
    """
    sentences = [doc.sentences[i] for i in result.selected]
    excess = word_count(sentences) - result.word_total
    if excess > 0:
        last = sentences[-1]
        sentences[-1] = make_sentence(last.id, _truncate(last, len(last.words) - excess))
    return sentences


def random_rank(doc: Document, budget: SummaryBudget, seed) -> SummaryResult:
    """Seeded uniform ranking followed by the same greedy fill as info_rank."""
    import numpy as np  # here, so summarizing with the other systems loads no numpy

    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(len(doc.sentences))]
    counts = _sentence_words(doc)
    selected, total = _greedy_fill(order, counts, budget.max_words)
    return SummaryResult(
        doc_id=doc.doc_id,
        system=RANDOMRANK,
        selected=tuple(selected),
        removed=(),
        text=" ".join(doc.sentences[i].text for i in selected),
        word_total=total,
    )


def _sentence_ids(value, field: str) -> tuple[int, ...]:
    """`value` as a tuple if it is a JSON array of integers; otherwise TypeError naming `field`."""
    if type(value) is not list:
        raise TypeError(f"{field} must be an array of integers, not {value!r}")
    return tuple(json_int(i, f"{field} id") for i in value)


def _summary_from_record(rec: dict) -> SummaryResult:
    return SummaryResult(
        doc_id=rec["doc_id"],
        system=rec["system"],
        selected=_sentence_ids(rec["selected"], "selected"),
        removed=_sentence_ids(rec["removed"], "removed"),
        text=rec["text"],
        word_total=json_int(rec["word_total"], "word_total"),
        fallback=rec.get("fallback", False),
    )


def write_summaries(results: Iterable[SummaryResult], path: str | Path) -> None:
    write_jsonl(map(vars, results), path)


def read_summaries(path: str | Path, system: str) -> list[SummaryResult]:
    """The summaries of `system` in `path`; an error names the file and the line.

    A record of another system and a document summarized twice are errors.
    """
    path = Path(path)
    seen: set[str] = set()

    def parse(rec: dict) -> SummaryResult:
        result = _summary_from_record(rec)
        if result.system != system:
            raise ValueError(f"system is {result.system!r}, but the file holds {system} summaries")
        if result.doc_id in seen:
            raise ValueError(f"{system} summarizes document {result.doc_id!r} twice")
        seen.add(result.doc_id)
        return result

    return read_jsonl(path, f"{path.name}: summaries", parse)
