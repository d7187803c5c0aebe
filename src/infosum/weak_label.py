"""Weak positive/unlabeled labels from document-summary pairs.

Two regimes: extract membership (a sentence is positive when it appears in
at least one human extract) and alignment thresholds (positive when the best
IDF-weighted overlap with a summary sentence clears t_pos, unlabeled at or
below t_unl, excluded in between). Balanced unlabeled sampling keeps the
training set near a configurable unlabeled:positive ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document, IdfTable, Sentence, parse_jsonl, to_jsonl

POSITIVE = "positive"
UNLABELED = "unlabeled"
EXCLUDED = "excluded"
FLAGS = (POSITIVE, UNLABELED, EXCLUDED)


@dataclass(frozen=True)
class WeakLabel:
    doc_id: str
    sentence_id: int
    flag: str
    align_score: float | None = None


@dataclass(frozen=True)
class LabelConfig:
    t_pos: float = 14.0
    t_unl: float = 10.0
    balance_ratio: float = 1.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.t_unl < self.t_pos:
            raise ValueError(
                f"t_unl ({self.t_unl}) must be strictly below t_pos ({self.t_pos})"
            )
        if self.balance_ratio <= 0:
            raise ValueError("balance_ratio must be positive")


def align_score(source: Sentence, target: Sentence, idf: IdfTable) -> float:
    """Sum of IDF weights over word types shared by the two sentences."""
    shared = source.word_types() & target.word_types()
    # sorted so the float sum has one deterministic order
    return float(sum(idf.weight(t) for t in sorted(shared)))


def best_alignment(
    source: Sentence, summary: Sequence[Sentence], idf: IdfTable
) -> tuple[int, float]:
    """Summary sentence with the highest score; ties keep the lowest id."""
    if not summary:
        raise ValueError("summary is empty")
    best_id = summary[0].id
    best = align_score(source, summary[0], idf)
    for target in summary[1:]:
        score = align_score(source, target, idf)
        if score > best:
            best, best_id = score, target.id
    return best_id, best


def label_by_alignment(doc: Document, cfg: LabelConfig, idf: IdfTable) -> list[WeakLabel]:
    """positive if best score > t_pos, unlabeled if <= t_unl, else excluded."""
    if not doc.summary:
        raise ValueError(f"document {doc.doc_id!r} has no summary to align against")
    labels = []
    for sent in doc.sentences:
        _, score = best_alignment(sent, doc.summary, idf)
        if score > cfg.t_pos:
            flag = POSITIVE
        elif score <= cfg.t_unl:
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


def sample_unlabeled(labels: Sequence[WeakLabel], cfg: LabelConfig) -> list[WeakLabel]:
    """Keep every positive plus a seeded uniform sample of the unlabeled pool.

    The target pool size is round(balance_ratio * positives); excluded labels
    never enter the training set. Input order is preserved.
    """
    n_pos = sum(1 for lab in labels if lab.flag == POSITIVE)
    pool = [i for i, lab in enumerate(labels) if lab.flag == UNLABELED]
    target = min(len(pool), int(round(cfg.balance_ratio * n_pos)))
    if target < len(pool):
        rng = np.random.default_rng(cfg.seed)
        picked = rng.choice(len(pool), size=target, replace=False)
        keep = {pool[int(i)] for i in picked}
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


def labels_to_jsonl(labels: Iterable[WeakLabel]) -> str:
    return to_jsonl(asdict(lab) for lab in labels)


def _label_from_record(rec: dict) -> WeakLabel:
    flag = rec["flag"]
    if flag not in FLAGS:
        raise ValueError(f"unknown label flag {flag!r}")
    return WeakLabel(rec["doc_id"], int(rec["sentence_id"]), flag, rec.get("align_score"))


def labels_from_jsonl(text: str) -> list[WeakLabel]:
    return parse_jsonl(text.splitlines(), "labels", _label_from_record)


def write_labels(labels: Iterable[WeakLabel], path: str | Path) -> None:
    Path(path).write_text(labels_to_jsonl(labels), encoding="utf-8")


def read_labels(path: str | Path) -> list[WeakLabel]:
    return labels_from_jsonl(Path(path).read_text(encoding="utf-8"))
