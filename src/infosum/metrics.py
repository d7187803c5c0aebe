"""Evaluation machinery: ROUGE-N, classification scores, and paired tests.

ROUGE here is the declared deterministic variant: lowercased word tokens,
punctuation stripped, clipped n-gram counts within sentences, no stemming.
`RougeTexts` numbers the words of many reference/candidate pairs once and
counts every pair's n-grams with a few numpy sorts; `rouge_n` is its
one-pair case.
Tail probabilities come from the platform erfc; tests check them against a
numerical integration oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Sentence


@dataclass(frozen=True)
class RougeScore:
    n: int
    recall: float
    precision: float
    f1: float
    overlap_count: int
    ref_count: int
    cand_count: int


@dataclass(frozen=True)
class ClassificationReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str


class RougeTexts:
    """Reference and candidate texts, paired by position, with every word as an integer id.

    A text is a sequence of sentences. The words are numbered once, here;
    `counts(n)` then finds every pair's n-gram counts in a few array passes.
    """

    def __init__(
        self, references: Sequence[Sequence[Sentence]], candidates: Sequence[Sequence[Sentence]]
    ) -> None:
        if len(references) != len(candidates):
            raise ValueError("references and candidates must pair up")
        self.pairs = len(references)
        words: list[str] = []
        lengths: list[int] = []
        owners: list[int] = []  # text of each sentence: reference i is i, its candidate pairs + i
        for owner, text in enumerate(itertools.chain(references, candidates)):
            for sent in text:
                words += sent.words
                lengths.append(len(sent.words))
                owners.append(owner)
        vocab = {word: i for i, word in enumerate(dict.fromkeys(words))}
        self.ids = np.fromiter(map(vocab.__getitem__, words), dtype=np.int64, count=len(words))
        self.vocab_size = len(vocab)
        lengths_arr = np.array(lengths, dtype=np.int64)
        self.owner = np.repeat(np.array(owners, dtype=np.int64), lengths_arr)
        # Words from each word to the end of its sentence, itself included.
        self.room = np.repeat(np.cumsum(lengths_arr), lengths_arr) - np.arange(len(words))

    def counts(self, n: int) -> tuple[list[int], list[int], list[int]]:
        """Each pair's clipped n-gram overlap, reference n-grams and candidate n-grams.

        An n-gram lies within one sentence, and the overlap counts each
        n-gram min(reference count, candidate count) times.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        starts = np.flatnonzero(self.room >= n)
        code = self.ids[starts]
        for k in range(1, n):  # number the distinct (k+1)-grams from the k-grams
            code = np.unique(code * self.vocab_size + self.ids[starts + k], return_inverse=True)[1]
        width = int(code.max()) + 1 if len(code) else 1
        owner = self.owner[starts]
        keys, counts = np.unique(owner * width + code, return_counts=True)
        split = np.searchsorted(keys, self.pairs * width)
        shared, in_ref, in_cand = np.intersect1d(
            keys[:split], keys[split:] - self.pairs * width, assume_unique=True, return_indices=True
        )
        clipped = np.minimum(counts[:split][in_ref], counts[split:][in_cand])
        overlap = np.bincount(shared // width, weights=clipped, minlength=self.pairs)
        totals = np.bincount(owner, minlength=2 * self.pairs)
        return (
            overlap.astype(np.int64).tolist(),
            totals[: self.pairs].tolist(),
            totals[self.pairs :].tolist(),
        )


def rouge_score(n: int, overlap: int, ref_count: int, cand_count: int) -> RougeScore:
    """Recall, precision and F1 of an overlap; each is 0.0 where its denominator is 0."""
    recall = overlap / ref_count if ref_count else 0.0
    precision = overlap / cand_count if cand_count else 0.0
    return RougeScore(
        n=n,
        recall=recall,
        precision=precision,
        f1=f1_score(precision, recall),
        overlap_count=overlap,
        ref_count=ref_count,
        cand_count=cand_count,
    )


def rouge_n(
    reference: Sequence[Sentence], candidate: Sequence[Sentence], n: int
) -> RougeScore:
    """Clipped n-gram overlap of one pair; n-grams do not cross sentence boundaries."""
    overlap, ref_counts, cand_counts = RougeTexts([reference], [candidate]).counts(n)
    return rouge_score(n, overlap[0], ref_counts[0], cand_counts[0])


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf(tp: int, fp: int, fn: int, tn: int) -> ClassificationReport:
    """Precision/recall/F1 with the 0/0 -> 0 convention."""
    if min(tp, fp, fn, tn) < 0:
        raise ValueError("counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return ClassificationReport(
        tp=tp, fp=fp, fn=fn, tn=tn, precision=precision, recall=recall,
        f1=f1_score(precision, recall),
    )


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf_1df(x: float) -> float:
    """Upper tail of chi-square with one degree of freedom."""
    if x < 0:
        raise ValueError("chi-square statistic must be non-negative")
    return math.erfc(math.sqrt(x / 2.0))


def mcnemar(pred_a: Sequence[int], pred_b: Sequence[int], truth: Sequence[int]) -> TestResult:
    """Paired test on discordant correctness counts between two classifiers.

    The continuity-corrected chi-square form (|b - c| - 1)^2 / (b + c).
    """
    if not len(pred_a) == len(pred_b) == len(truth) or len(truth) == 0:
        raise ValueError("predictions and truth must share a positive length")
    b = sum(1 for pa, pb, t in zip(pred_a, pred_b, truth) if pa == t and pb != t)
    c = sum(1 for pa, pb, t in zip(pred_a, pred_b, truth) if pa != t and pb == t)
    if b + c == 0:
        return TestResult(0.0, 1.0, "mcnemar-chi2")
    stat = (abs(b - c) - 1.0) ** 2 / (b + c)
    return TestResult(stat, chi2_sf_1df(stat), "mcnemar-chi2")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _wilcoxon_exact_p(ranks: np.ndarray, w: float) -> float:
    # Ranks are multiples of 1/2; doubling makes the sign-flip distribution
    # an integer-valued subset-sum, counted exactly by dynamic programming.
    doubled = [int(round(2.0 * r)) for r in ranks]
    total = sum(doubled)
    ways = [0] * (total + 1)
    ways[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            ways[s] += ways[s - r]
    w2 = int(round(2.0 * w))
    cdf = sum(ways[s] for s in range(0, min(w2, total) + 1))
    return min(1.0, 2.0 * cdf / 2 ** len(doubled))


def wilcoxon_signed_rank(
    x: Sequence[float], y: Sequence[float], mode: str = "auto"
) -> TestResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks. The null distribution is enumerated exactly for n <= 25 (or when
    mode="exact"), otherwise a tie-corrected normal approximation with a
    0.5 continuity correction is used.
    """
    if mode not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown mode {mode!r}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length 1-d sequences")
    d = xa - ya
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return TestResult(0.0, 1.0, "wilcoxon-exact")
    ranks = _average_ranks(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    w = min(w_pos, w_neg)
    if mode == "exact" or (mode == "auto" and n <= 25):
        return TestResult(w, _wilcoxon_exact_p(ranks, w), "wilcoxon-exact")
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(
        sum(t**3 - t for t in tie_counts)
    ) / 48.0
    if var <= 0:
        return TestResult(w, 1.0, "wilcoxon-normal")
    z = (w - mu + 0.5) / math.sqrt(var)
    return TestResult(w, min(1.0, 2.0 * normal_sf(-z)), "wilcoxon-normal")

