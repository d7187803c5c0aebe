"""Budget-constrained single-document summarizers.

Four systems share one word budget: LeadWords (opening words, truncated
mid-sentence), InfoRank (whole sentences ranked by predicted importance),
InfoFilter (LeadWords over the sentences predicted important), and
RandomRank (seeded random ranking). InfoRank and InfoFilter take the
detector's probability for each sentence of the document, in sentence
order. These are the `prob` fields of predictions.jsonl, which `infosum
predict` writes and `infosum summarize` reads: no summarizer scores a
sentence itself.

InfoRank and RandomRank share one ranked fill: whole sentences taken in rank
order while they fit, emitted in document order. Every summarizer emits its
sentences once each, in document order, so a selection is strictly
ascending, and `read_summaries` rejects any other. Only lead_words, which
InfoFilter runs, reads the budget's mode, and only it cuts a sentence: the
last it selects, to at least one word. `_words_cut` holds that rule for
`read_summaries` and `summary_words`. `_truncate` writes the cut: the
sentence's token surfaces (`corpus.tokenize`) up to and including its n-th
word token. A cut keeps a prefix of the sentence's
words (see `corpus`), so `summary_words`, which ROUGE scores, slices the
last sentence's words and tokenizes nothing again. A ranked fill's last
sentence in document order need not be its last selected, so it never cuts
one.

This module imports no numpy. RandomRank draws each document's order from
one stream of the standard library's generator (`rng`), in document order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .corpus import Corpus, Document, Sentence, read_records, tokenize, write_jsonl
from .rng import Stream, permutation

WHOLE_SENTENCE = "whole-sentence"
TRUNCATE_WORDS = "truncate-words"

LEADWORDS = "leadwords"
INFORANK = "inforank"
INFOFILTER = "infofilter"
RANDOMRANK = "randomrank"
SYSTEMS = (LEADWORDS, INFORANK, INFOFILTER, RANDOMRANK)


def predicted_important(prob: float) -> bool:
    """The detector's decision: predict labels a sentence 1, and InfoFilter keeps it,
    exactly when this holds of its probability."""
    return prob >= 0.5


@dataclass(frozen=True)
class SummaryBudget:
    max_words: int = 100
    mode: Literal[(WHOLE_SENTENCE, TRUNCATE_WORDS)] = TRUNCATE_WORDS

    def __post_init__(self) -> None:
        if self.max_words < 1:
            raise ValueError("max_words must be >= 1")


@dataclass(frozen=True)
class SummaryResult:
    doc_id: str
    system: str
    selected: tuple[int, ...]
    removed: tuple[int, ...]
    text: str
    word_total: int
    fallback: bool = False


def _truncate(sentence: Sentence, n_words: int) -> str:
    """The sentence's token surfaces up to and including its n_words-th word, space-joined."""
    kept = []
    for surface, is_word in tokenize(sentence.text):
        kept.append(surface)
        n_words -= is_word
        if not n_words:
            break
    return " ".join(kept)


def lead_words(doc: Document, budget: SummaryBudget) -> SummaryResult:
    """Opening words of the document up to the budget.

    In truncate-words mode the boundary sentence is cut mid-sentence; in
    whole-sentence mode selection stops before the first sentence that would
    overflow.
    """
    if not doc.sentences:
        raise ValueError(f"document {doc.doc_id!r} is empty")
    selected: list[int] = []
    pieces: list[str] = []
    total = 0
    for sent in doc.sentences:
        wc = len(sent.words)
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


def _words_cut(doc: Document, result: SummaryResult) -> int:
    """The words lead_words cut from the summary's last sentence, so fewer than it holds;
    a word_total that no such cut gives is a ValueError."""
    lengths = [len(doc.sentences[i].words) for i in result.selected]
    cut = sum(lengths) - result.word_total
    if cut and not (lengths and 0 < cut < lengths[-1]):
        raise ValueError(
            f"document {doc.doc_id!r} has word_total {result.word_total}, but its selected "
            f"sentences hold {sum(lengths)} words and only the last may be cut, to at least one word"
        )
    return cut


def _ranked_fill(doc: Document, system: str, order: Iterable[int], budget: SummaryBudget) -> SummaryResult:
    """Whole sentences taken along `order` while they fit, an oversized one skipped,
    and emitted in document order."""
    selected: list[int] = []
    total = 0
    for i in order:
        wc = len(doc.sentences[i].words)
        if total + wc <= budget.max_words:
            selected.append(i)
            total += wc
    selected.sort()
    text = " ".join(doc.sentences[i].text for i in selected)
    return SummaryResult(doc.doc_id, system, tuple(selected), (), text, total)


def _check_probs(doc: Document, probs: Sequence[float]) -> None:
    if len(probs) != len(doc.sentences):
        raise ValueError(
            f"document {doc.doc_id!r} has {len(doc.sentences)} sentences "
            f"but {len(probs)} probabilities"
        )


def info_rank(doc: Document, probs: Sequence[float], budget: SummaryBudget) -> SummaryResult:
    """The ranked fill in decreasing probability order.

    Ties rank the earlier sentence first. Selection depends only on the
    probability ordering, so any strictly monotone rescaling of the
    probabilities leaves it unchanged.
    """
    _check_probs(doc, probs)
    return _ranked_fill(doc, INFORANK, sorted(range(len(doc.sentences)), key=lambda i: (-probs[i], i)), budget)


def info_filter(doc: Document, probs: Sequence[float], budget: SummaryBudget) -> SummaryResult:
    """lead_words over the sentences `predicted_important`, in the budget's mode.

    Kept sentences are taken in document order; in truncate-words mode the
    first one that would overflow the budget is cut to fill it, and in
    whole-sentence mode selection stops before it. When every sentence is
    predicted unimportant, the result is lead_words of the whole document in
    the same mode, with fallback flagged. Either way every sentence not
    predicted important is recorded as removed.
    """
    _check_probs(doc, probs)
    kept = tuple(s for s, p in zip(doc.sentences, probs) if predicted_important(p))
    removed = tuple(s.id for s, p in zip(doc.sentences, probs) if not predicted_important(p))
    lead = lead_words(replace(doc, sentences=kept) if kept else doc, budget)
    return replace(lead, system=INFOFILTER, removed=removed, fallback=not kept)


def summary_words(doc: Document, result: SummaryResult) -> list[tuple[str, ...]]:
    """The words of each of the summary's sentences, the last one's cut to the prefix
    that lead_words kept."""
    words = [doc.sentences[i].words for i in result.selected]
    cut = _words_cut(doc, result)
    if cut:
        words[-1] = words[-1][:-cut]
    return words


def random_rank(doc: Document, budget: SummaryBudget, rand: Stream) -> SummaryResult:
    """The ranked fill in a uniform order drawn from `rand` (`rng.permutation`)."""
    return _ranked_fill(doc, RANDOMRANK, permutation(rand, len(doc.sentences)), budget)


def write_summaries(results: Iterable[SummaryResult], path: str | Path) -> None:
    write_jsonl(map(vars, results), path)


def read_summaries(path: str | Path, system: str, corpus: Corpus) -> list[SummaryResult]:
    """The summaries of `system` in `path`, each of a distinct document of the test `corpus`
    (`corpus.read_records`); an error names the file and the line. A record of another
    system, or with a selection or word_total its document cannot have (a selection that
    is not strictly ascending included) is an error."""
    path = Path(path)

    def check(result: SummaryResult, doc: Document) -> None:
        if result.system != system:
            raise ValueError(f"system is {result.system!r}, but the file holds {system} summaries")
        if not all(0 <= i < len(doc.sentences) for i in result.selected):
            raise ValueError(f"document {result.doc_id!r} selects sentences the test corpus does not have")
        if any(a >= b for a, b in zip(result.selected, result.selected[1:])):
            raise ValueError(f"document {result.doc_id!r} selects sentences {list(result.selected)}, "
                             "not each once in ascending order")
        _words_cut(doc, result)

    return list(read_records(path, f"{path.name}: summaries", SummaryResult, corpus, "test", check).values())
