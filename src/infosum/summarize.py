"""Budget-constrained single-document summarizers.

Four systems share one word budget: LeadWords (opening words, truncated
mid-sentence), InfoRank (whole sentences ranked by predicted importance),
InfoFilter (lead order with unimportant sentences dropped), and RandomRank
(seeded random ranking). InfoRank and InfoFilter take the detector's
probability for each sentence of the document, in sentence order. These
are the `prob` fields of predictions.jsonl, which `infosum predict` writes
and `infosum summarize` reads: no summarizer scores a sentence itself.

This module imports no numpy. RandomRank's order is numpy's
`default_rng(seed).permutation(n)`, drawn by a pure-Python copy of numpy's
seeding (SeedSequence), PCG64 generator and shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .corpus import Document, Sentence, decode, make_sentence, read_jsonl, word_count, write_jsonl

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


# numpy's SeedSequence and PCG64 constants (numpy/random/bit_generator.pyx, pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """A seed as SeedSequence splits it: each non-negative int in 32-bit words, low word
    first (0 is one word), the words of a tuple's items in order."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError("a seed must be non-negative")
        words = [entropy & _MASK32]
        while entropy := entropy >> 32:
            words.append(entropy & _MASK32)
        return words
    return [w for item in entropy for w in _entropy_words(item)]


def _seed_state(entropy) -> list[int]:
    """numpy's `SeedSequence(entropy).generate_state(8, uint32)`: the 32-bit hash mix
    of the seed words into a pool of four, then eight words drawn from the pool."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


def _uint32_stream(seed):
    """The 32-bit draws of `np.random.default_rng(seed)`: PCG64's 128-bit LCG with
    XSL-RR output, each 64-bit output giving its low half, then its high half."""
    words = _seed_state(seed)
    # generate_state(4, uint64) pairs the words little-end first; PCG64 takes
    # the first two as the high and low halves of its initial state, the last
    # two as its stream. Seeding steps from 0, adds the state and steps again.
    init = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
    inc = (words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]) << 1 & _MASK128 | 1
    state = (inc + init) * _PCG_MULT + inc & _MASK128
    while True:
        state = state * _PCG_MULT + inc & _MASK128
        rot = state >> 122
        xored = (state >> 64 ^ state) & 0xFFFFFFFFFFFFFFFF
        out = (xored >> rot | xored << (64 - rot)) & 0xFFFFFFFFFFFFFFFF
        yield out & _MASK32
        yield out >> 32


def _permutation(seed, n: int) -> list[int]:
    """`np.random.default_rng(seed).permutation(n)` without numpy, for n < 2**32:
    Fisher-Yates from the top, each index drawn by masked rejection."""
    order = list(range(n))
    draws = _uint32_stream(seed)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(draws) & mask
        while j > i:
            j = next(draws) & mask
        order[i], order[j] = order[j], order[i]
    return order


def random_rank(doc: Document, budget: SummaryBudget, seed) -> SummaryResult:
    """Seeded uniform ranking followed by the same greedy fill as info_rank.

    The ranking is numpy's `default_rng(seed).permutation`, drawn by `_permutation`.
    """
    order = _permutation(seed, len(doc.sentences))
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


def write_summaries(results: Iterable[SummaryResult], path: str | Path) -> None:
    write_jsonl(map(vars, results), path)


def read_summaries(path: str | Path, system: str) -> list[SummaryResult]:
    """The summaries of `system` in `path`; an error names the file and the line.

    A record of another system and a document summarized twice are errors.
    """
    path = Path(path)
    seen: set[str] = set()

    def parse(rec: dict) -> SummaryResult:
        result = decode(SummaryResult, rec)
        if result.system != system:
            raise ValueError(f"system is {result.system!r}, but the file holds {system} summaries")
        if result.doc_id in seen:
            raise ValueError(f"{system} summarizes document {result.doc_id!r} twice")
        seen.add(result.doc_id)
        return result

    return read_jsonl(path, f"{path.name}: summaries", parse)
