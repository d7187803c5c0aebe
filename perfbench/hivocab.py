"""High-vocabulary rewrite of an `infosum synth` bundle.

The synth corpus draws its filler words from 60 `puff###` tokens, so the whole
corpus has a few hundred distinct chunks and any cache keyed on words or
sentences looks better than it would on real text. `rewrite_bundle` replaces
every filler token with a Zipf(1) draw from a pool of POOL_SIZE letter-only
words; lexicon words (`imp###`, `bkg###`, `com###`) and punctuation stay as
they are. Reference summaries are copies of extract sentences, so they are
rebuilt from extract membership after the rewrite. Documents left without a
summary are dropped (alignment labeling needs one on every document), and the
extracts and gold files are filtered to the documents that remain.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

POOL_SIZE = 50_000
FILLER = re.compile(r"puff\d{3}")
SPLITS = (
    ("train", "corpus_train.jsonl", "extracts_train.jsonl"),
    ("test", "corpus_test.jsonl", "gold_test.jsonl"),
)


def pool_word(rank: int) -> str:
    """Bijective base-26 spelling of rank >= 1: a, ..., z, aa, ab, ...

    Frequent (low) ranks get short words, as in natural text.
    """
    letters = []
    while rank > 0:
        rank, rem = divmod(rank - 1, 26)
        letters.append(chr(ord("a") + rem))
    return "".join(reversed(letters))


def zipf_ranks(rng: np.random.Generator, n: int, pool_size: int = POOL_SIZE) -> np.ndarray:
    """n zero-based ranks with P(rank k) proportional to 1 / (k + 1)."""
    cdf = np.cumsum(1.0 / np.arange(1, pool_size + 1))
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), pool_size - 1)


def _read_jsonl(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _write_jsonl(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(rec, ensure_ascii=False, sort_keys=True) for rec in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _rewrite_records(records: list[dict], rng: np.random.Generator, pool: np.ndarray) -> None:
    """Rewrite filler chunks of every sentence in place, then rebuild summaries."""
    texts = [s for rec in records for s in rec["sentences"]]
    split_texts = [t.split(" ") for t in texts]
    flat = np.array([c for chunks in split_texts for c in chunks], dtype=object)
    is_filler = np.fromiter(
        (FILLER.fullmatch(c) is not None for c in flat), dtype=bool, count=len(flat)
    )
    flat[is_filler] = pool[zipf_ranks(rng, int(is_filler.sum()), len(pool))]
    ends = np.cumsum([len(chunks) for chunks in split_texts])
    new_texts = [" ".join(flat[end - len(chunks) : end]) for chunks, end in zip(split_texts, ends)]
    pos = 0
    for rec in records:
        old = rec["sentences"]
        new = new_texts[pos : pos + len(old)]
        pos += len(old)
        member = {text: i for i, text in reversed(list(enumerate(old)))}
        rec["sentences"] = new
        rec["summary"] = [new[member[text]] for text in rec.get("summary") or []]


def chunk_stats(corpus_paths: list[Path]) -> dict:
    """Chunk counts of the given corpora; the vocabulary is the distinct word chunks."""
    chunks: list[str] = []
    for path in corpus_paths:
        for rec in _read_jsonl(path):
            for text in [*rec["sentences"], *(rec.get("summary") or [])]:
                chunks.extend(text.split())
    distinct = set(chunks)
    return {
        "chunks": len(chunks),
        "distinct_chunks": len(distinct),
        "chunk_distinct_ratio": len(distinct) / max(1, len(chunks)),
        "vocab_size": sum(1 for c in distinct if c.isalnum()),
    }


def rewrite_bundle(bundle: str | Path, seed: int) -> dict:
    """Rewrite a synth bundle in place; return what was dropped and the vocabulary."""
    bundle = Path(bundle)
    rng = np.random.default_rng((seed, 7919))
    pool = np.array([pool_word(k) for k in range(1, POOL_SIZE + 1)], dtype=object)
    stats: dict = {"pool_size": POOL_SIZE}
    for split, corpus_name, side_name in SPLITS:
        records = _read_jsonl(bundle / corpus_name)
        _rewrite_records(records, rng, pool)
        kept = [rec for rec in records if rec["summary"]]
        kept_ids = {rec["doc_id"] for rec in kept}
        _write_jsonl(bundle / corpus_name, kept)
        side = _read_jsonl(bundle / side_name)
        _write_jsonl(bundle / side_name, [rec for rec in side if rec["doc_id"] in kept_ids])
        stats[f"{split}_docs"] = len(kept)
        stats[f"{split}_dropped_no_summary"] = len(records) - len(kept)
    stats.update(chunk_stats([bundle / name for _, name, _ in SPLITS]))
    return stats
