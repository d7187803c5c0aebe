"""Weak positive/unlabeled labels from document-summary pairs.

Two regimes: extract membership (a sentence is positive when it appears in
at least one human extract) and alignment thresholds (positive when the best
IDF-weighted overlap with a summary sentence clears t_pos, unlabeled at or
below t_unl, excluded in between). Balanced unlabeled sampling keeps the
training set near a configurable unlabeled:positive ratio, drawn from
the standard library's generator (`rng`), so this module loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .corpus import Corpus, Document, read_records, write_jsonl
from .rng import UNLABELED_SAMPLE, choice, stream

POSITIVE = "positive"
UNLABELED = "unlabeled"
EXCLUDED = "excluded"
FLAGS = (POSITIVE, UNLABELED, EXCLUDED)


@dataclass(frozen=True)
class WeakLabel:
    doc_id: str
    sentence_id: int
    flag: Literal[FLAGS]
    align_score: float | None = None

    def __post_init__(self) -> None:
        if self.sentence_id < 0:
            raise ValueError(f"negative sentence_id {self.sentence_id}")


def align_score(source: frozenset[str], target: frozenset[str], idf: dict[str, float]) -> float:
    """Sum of the IDF weights (`corpus.compute_idf`) of the word types two sentences share."""
    # A left fold in sorted order: one deterministic rounding on every Python, where
    # the builtin `sum` compensates float rounding from 3.12 on and changes the labels.
    total = 0.0
    for t in sorted(source & target):
        total += idf[t]
    return total


def label_by_alignment(doc: Document, t_pos: float, t_unl: float, idf: dict[str, float]) -> list[WeakLabel]:
    """positive if the sentence's best score against a summary sentence is > t_pos,
    unlabeled if <= t_unl, else excluded.

    A type a sentence shares with a summary sentence is a word of the article,
    so `corpus.compute_idf` over a corpus that holds the document weighs it.
    """
    if not doc.summary:
        raise ValueError(f"document {doc.doc_id!r} has no summary to align against")
    summary = [frozenset(target.words) for target in doc.summary]
    labels = []
    for sent in doc.sentences:
        types = frozenset(sent.words)
        score = max(align_score(types, target, idf) for target in summary)
        if score > t_pos:
            flag = POSITIVE
        elif score <= t_unl:
            flag = UNLABELED
        else:
            flag = EXCLUDED
        labels.append(WeakLabel(doc.doc_id, sent.id, flag, score))
    return labels


def label_by_extract(
    doc: Document, extracts: Sequence[Sequence[int]]
) -> list[WeakLabel]:
    """positive iff the sentence id appears in at least one extract."""
    chosen: set[int] = set()
    for extract in extracts:
        for sid in extract:
            if not 0 <= sid < len(doc.sentences):
                raise ValueError(
                    f"extract sentence id {sid} out of range for document {doc.doc_id!r}"
                )
            chosen.add(sid)
    return [
        WeakLabel(doc.doc_id, s.id, POSITIVE if s.id in chosen else UNLABELED)
        for s in doc.sentences
    ]


def sample_unlabeled(labels: Sequence[WeakLabel], balance_ratio: float, seed) -> list[WeakLabel]:
    """Keep every positive plus a seeded uniform sample of the unlabeled pool.

    The target pool size is round(balance_ratio * positives); excluded labels
    never enter the training set. The sample is `rng.choice` of the pool's
    places, drawn from the (seed, UNLABELED_SAMPLE) stream; only its set is
    used, and input order is preserved.
    """
    n_pos = sum(1 for lab in labels if lab.flag == POSITIVE)
    pool = [i for i, lab in enumerate(labels) if lab.flag == UNLABELED]
    target = min(len(pool), int(round(balance_ratio * n_pos)))
    if target < len(pool):
        keep = {pool[i] for i in choice(stream(seed, UNLABELED_SAMPLE), len(pool), target)}
    else:
        keep = set(pool)
    out = []
    for i, lab in enumerate(labels):
        if lab.flag == POSITIVE or (lab.flag == UNLABELED and i in keep):
            out.append(lab)
    return out


def label_counts(labels: Iterable[WeakLabel]) -> dict[str, int]:
    counts = {flag: 0 for flag in FLAGS}
    for lab in labels:
        counts[lab.flag] += 1
    return counts


def write_labels(labels: Iterable[WeakLabel], path: str | Path) -> None:
    write_jsonl(map(vars, labels), path)


def read_labels(path: str | Path, corpus: Corpus) -> list[WeakLabel]:
    """The labels at `path` in file order, each of a distinct sentence of the train `corpus`."""
    return list(read_records(path, "labels", WeakLabel, corpus, "train").values())
