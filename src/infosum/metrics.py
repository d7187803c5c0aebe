"""Evaluation machinery: ROUGE-N, classification scores, and paired tests.

Each function returns the dict that report.json holds for it, with the same
keys, so `report` places it as it comes: `rouge_n` a per-document score,
`prf` a classification row, `mcnemar` and `wilcoxon_signed_rank` a test.

ROUGE here is the declared deterministic variant: lowercased word tokens,
punctuation stripped, clipped n-gram counts within sentences, no stemming.
`rouge_n` reads each text as its sentences' word tuples, counts each text's
n-grams with one `Counter` call over all its sentences, and takes the
clipped overlap in one pass over the reference's n-grams.
Tail probabilities come from the platform erfc; tests check them against a
numerical integration oracle. This module loads no numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

Words = Sequence[str]


def rouge_n(reference: Sequence[Words], candidate: Sequence[Words], n: int) -> dict[str, float]:
    """Recall, precision and F1 of the clipped n-gram overlap of one pair, each text
    given as its sentences' words; n-grams do not cross sentence boundaries.

    The overlap counts each n-gram min(reference count, candidate count)
    times. Recall, precision and F1 are each 0.0 where their denominator is 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ref, cand = _ngram_counts(reference, n), _ngram_counts(candidate, n)
    overlap = sum(map(min, ref.values(), map(cand.get, ref, itertools.repeat(0))))
    ref_count, cand_count = ref.total(), cand.total()
    recall = overlap / ref_count if ref_count else 0.0
    precision = overlap / cand_count if cand_count else 0.0
    return {"recall": recall, "precision": precision, "f1": f1_score(precision, recall)}


def _ngram_counts(sentences: Sequence[Words], n: int) -> Counter:
    """Each n-gram's count over all sentences; for n = 1 the n-grams are the words."""
    if n > 1:
        sentences = [zip(*(words[i:] for i in range(n))) for words in sentences]
    return Counter(itertools.chain.from_iterable(sentences))


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf(tp: int, fp: int, fn: int, tn: int) -> dict:
    """The counts and their precision/recall/F1, with the 0/0 -> 0 convention."""
    if min(tp, fp, fn, tn) < 0:
        raise ValueError("counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return {
        "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "precision": precision, "recall": recall, "f1": f1_score(precision, recall),
    }


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf_1df(x: float) -> float:
    """Upper tail of chi-square with one degree of freedom."""
    if x < 0:
        raise ValueError("chi-square statistic must be non-negative")
    return math.erfc(math.sqrt(x / 2.0))


def _test(statistic: float, p_value: float, method: str) -> dict:
    return {"statistic": statistic, "p_value": p_value, "method": method}


def mcnemar(pred_a: Sequence[int], pred_b: Sequence[int], truth: Sequence[int]) -> dict:
    """Paired test on discordant correctness counts between two classifiers.

    The continuity-corrected chi-square form (|b - c| - 1)^2 / (b + c).
    """
    if not len(pred_a) == len(pred_b) == len(truth) or len(truth) == 0:
        raise ValueError("predictions and truth must share a positive length")
    b = sum(1 for pa, pb, t in zip(pred_a, pred_b, truth) if pa == t and pb != t)
    c = sum(1 for pa, pb, t in zip(pred_a, pred_b, truth) if pa != t and pb == t)
    if b + c == 0:
        return _test(0.0, 1.0, "mcnemar-chi2")
    stat = (abs(b - c) - 1.0) ** 2 / (b + c)
    return _test(stat, chi2_sf_1df(stat), "mcnemar-chi2")


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of `values`; tied values share the mean of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    below = 0
    for _, group in itertools.groupby(order, key=values.__getitem__):
        tied = list(group)
        for i in tied:
            ranks[i] = below + (len(tied) + 1) / 2.0
        below += len(tied)
    return ranks


def _wilcoxon_exact_p(ranks: Sequence[float], w: float) -> float:
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


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float], mode: str = "auto") -> dict:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks. The null distribution is enumerated exactly for n <= 25 (or when
    mode="exact"), otherwise a tie-corrected normal approximation with a
    0.5 continuity correction is used.
    """
    if mode not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(x) != len(y):
        raise ValueError("x and y must be equal-length sequences")
    d = [diff for diff in (float(a) - float(b) for a, b in zip(x, y)) if diff != 0]
    n = len(d)
    if n == 0:
        return _test(0.0, 1.0, "wilcoxon-exact")
    abs_d = [abs(diff) for diff in d]
    ranks = _average_ranks(abs_d)
    w_pos = math.fsum(r for r, diff in zip(ranks, d) if diff > 0)
    w_neg = math.fsum(r for r, diff in zip(ranks, d) if diff < 0)
    w = min(w_pos, w_neg)
    if mode == "exact" or (mode == "auto" and n <= 25):
        return _test(w, _wilcoxon_exact_p(ranks, w), "wilcoxon-exact")
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(
        sum(t**3 - t for t in Counter(abs_d).values())
    ) / 48.0
    if var <= 0:
        return _test(w, 1.0, "wilcoxon-normal")
    z = (w - mu + 0.5) / math.sqrt(var)
    return _test(w, min(1.0, 2.0 * normal_sf(-z)), "wilcoxon-normal")

