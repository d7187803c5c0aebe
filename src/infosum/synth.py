"""Synthetic data with planted positive-unlabeled structure.

Two generators: `gaussian_pu_dataset` draws two Gaussian clusters directly
in feature space with positives labeled at a known frequency, for checking
estimator recovery; `write_synth_bundle` emits a small text corpus plus
matching lexicons, extracts, gold labels and a ready-to-run pipeline config
so the CLI can be exercised end to end without licensed data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document, build_document, save_corpus, to_jsonl
from .features import FeatureLayout, raw_layout
from .lexicons import CategoryLexicon, ScoredLexicon, category_lexicon_to_tsv, scored_lexicon_to_tsv


@dataclass
class GaussianPUData:
    X_train: np.ndarray
    o: np.ndarray
    train_y: np.ndarray
    X_test: np.ndarray
    test_y: np.ndarray
    layout: FeatureLayout


def gaussian_pu_dataset(
    n_train: int = 2000,
    n_test: int = 1000,
    label_rate: float = 0.7,
    separation: float = 3.5,
    dim: int = 4,
    seed: int = 0,
) -> GaussianPUData:
    """Two unit-variance Gaussian clusters `separation` apart along the diagonal.

    Half the points are truly positive (y=1) around the +mean; each truly
    positive training point carries a positive label o=1 with probability
    label_rate. Test points keep their full y labels.
    """
    if not 0.0 < label_rate <= 1.0:
        raise ValueError("label_rate must be in (0, 1]")
    rng = np.random.default_rng(seed)
    direction = np.ones(dim) / math.sqrt(dim)
    layout = raw_layout(dim, name="gaussian")

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        half = n // 2
        y = np.array([1] * half + [0] * (n - half))
        shift = np.where(y[:, None] == 1, separation / 2.0, -separation / 2.0)
        X = rng.standard_normal((n, dim)) + shift * direction
        return X, y

    X_train, y_train = draw(n_train)
    o = ((y_train == 1) & (rng.random(n_train) < label_rate)).astype(int)
    if o.sum() == 0 or o.sum() == n_train:
        raise ValueError("degenerate draw: adjust n_train or label_rate")
    X_test, y_test = draw(n_test)
    return GaussianPUData(
        X_train=X_train, o=o, train_y=y_train, X_test=X_test, test_y=y_test, layout=layout
    )


SCORED_ATTRIBUTES = ("imagery", "concreteness")
SCORE_RANGE = (100.0, 700.0)
CATEGORIES = ("IMP", "BKG", "COMMON")


def _vocab(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(n)]


def build_synth_lexicons(seed: int = 0) -> tuple[ScoredLexicon, CategoryLexicon]:
    """Scored and category lexicons whose word pools separate two sentence classes."""
    rng = np.random.default_rng((seed, 17))
    imp = _vocab("imp", 160)
    bkg = _vocab("bkg", 160)
    com = _vocab("com", 40)
    bands = {"imp": (520.0, 680.0), "bkg": (120.0, 280.0), "com": (350.0, 450.0)}
    entries: dict[str, dict[str, float]] = {}
    for words, key in ((imp, "imp"), (bkg, "bkg"), (com, "com")):
        lo, hi = bands[key]
        for word in words:
            entries[word] = {
                attr: float(rng.uniform(lo, hi)) for attr in SCORED_ATTRIBUTES
            }
    scored = ScoredLexicon(
        name="synthmrc",
        attributes=SCORED_ATTRIBUTES,
        entries=entries,
        ranges={attr: SCORE_RANGE for attr in SCORED_ATTRIBUTES},
    )
    cat_entries = {w: frozenset({0}) for w in imp}
    cat_entries.update({w: frozenset({1}) for w in bkg})
    cat_entries.update({w: frozenset({2}) for w in com})
    category = CategoryLexicon(
        name="synthcats", categories=CATEGORIES, entries=cat_entries, wildcards={}
    )
    return scored, category


@dataclass
class SynthParams:
    n_train_docs: int = 120
    n_test_docs: int = 60
    sentences_per_doc: int = 12
    label_rate: float = 0.7
    positive_rate: float = 0.5
    signal_rate: float = 0.55
    crossover_rate: float = 0.06
    seed: int = 0


def _make_sentence_words(rng: np.random.Generator, positive: bool, params: SynthParams) -> str:
    length = int(rng.integers(8, 15))
    own = "imp" if positive else "bkg"
    other = "bkg" if positive else "imp"
    words = []
    for _ in range(length):
        u = rng.random()
        if u < params.signal_rate:
            pool = own
        elif u < params.signal_rate + params.crossover_rate:
            pool = other
        elif u < params.signal_rate + params.crossover_rate + 0.14:
            pool = "com"
        else:
            pool = "puff"
        sizes = {"imp": 160, "bkg": 160, "com": 40, "puff": 60}
        words.append(f"{pool}{int(rng.integers(sizes[pool])):03d}")
    text = " ".join(words)
    u = rng.random()
    if u < 0.08:
        text += " !"
    elif u < 0.16:
        text += " ?"
    elif u < 0.24:
        text = "'' " + text + " ''"
    else:
        text += " ."
    return text


def build_synth_documents(
    params: SynthParams, test: bool = False
) -> tuple[list[Document], dict[str, list[list[int]]], list[dict]]:
    """Documents plus per-document extracts and gold sentence labels.

    Each sentence is truly important (y=1) with probability positive_rate and
    draws mostly from the imp pool if so, the bkg pool otherwise. A truly
    important sentence enters the (single) extract with probability
    label_rate; the extract's texts double as the reference summary.
    """
    rng = np.random.default_rng((params.seed, 101 if test else 59))
    n_docs = params.n_test_docs if test else params.n_train_docs
    prefix = "test" if test else "train"
    documents = []
    extracts: dict[str, list[list[int]]] = {}
    gold: list[dict] = []
    for d in range(n_docs):
        doc_id = f"{prefix}-{d:04d}"
        section = "business" if d % 2 == 0 else "politics"
        texts = []
        ys = []
        for _ in range(params.sentences_per_doc):
            y = 1 if rng.random() < params.positive_rate else 0
            ys.append(y)
            texts.append(_make_sentence_words(rng, y == 1, params))
        extract = [
            i for i, y in enumerate(ys) if y == 1 and rng.random() < params.label_rate
        ]
        summary = [texts[i] for i in extract] or None
        documents.append(build_document(doc_id, section, texts, summary))
        extracts[doc_id] = [extract]
        gold.extend(
            {"doc_id": doc_id, "sentence_id": i, "label": y} for i, y in enumerate(ys)
        )
    return documents, extracts, gold


def write_synth_bundle(out_dir: str | Path, params: SynthParams) -> dict[str, str]:
    """Write corpora, lexicons, extracts, gold labels and a pipeline config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scored, category = build_synth_lexicons(params.seed)
    paths = {
        "scored_lexicon": out / "synthmrc.tsv",
        "category_lexicon": out / "synthcats.tsv",
        "train_corpus": out / "corpus_train.jsonl",
        "test_corpus": out / "corpus_test.jsonl",
        "extracts": out / "extracts_train.jsonl",
        "gold_labels": out / "gold_test.jsonl",
        "config": out / "config.json",
    }
    paths["scored_lexicon"].write_text(scored_lexicon_to_tsv(scored), encoding="utf-8")
    paths["category_lexicon"].write_text(
        category_lexicon_to_tsv(category), encoding="utf-8"
    )

    train_docs, train_extracts, _ = build_synth_documents(params, test=False)
    test_docs, _, test_gold = build_synth_documents(params, test=True)
    save_corpus(Corpus(tuple(train_docs)), paths["train_corpus"])
    save_corpus(Corpus(tuple(test_docs)), paths["test_corpus"])
    extracts = ({"doc_id": d.doc_id, "extracts": train_extracts[d.doc_id]} for d in train_docs)
    paths["extracts"].write_text(to_jsonl(extracts), encoding="utf-8")
    paths["gold_labels"].write_text(to_jsonl(test_gold), encoding="utf-8")

    config = {
        "seed": params.seed,
        "out_dir": str(out / "run"),
        "train_corpus": str(paths["train_corpus"]),
        "test_corpus": str(paths["test_corpus"]),
        "lexicons": {
            "scored": [str(paths["scored_lexicon"])],
            "category": [str(paths["category_lexicon"])],
        },
        "label": {
            "mode": "extract",
            "extracts": str(paths["extracts"]),
            "t_pos": 14.0,
            "t_unl": 10.0,
            "balance_ratio": 1.2,
        },
        "features": {"mode": "dictionary", "bins": 230},
        "hyper": {
            "stage1": {"l2": 1e-4},
            "stage2": {"l2": 1e-4},
        },
        "budget": {"max_words": 100, "mode": "truncate-words"},
        "systems": ["leadwords", "inforank", "infofilter", "randomrank"],
        "evaluate": {"gold_labels": str(paths["gold_labels"])},
        "synth": {
            "n_train_docs": params.n_train_docs,
            "n_test_docs": params.n_test_docs,
            "sentences_per_doc": params.sentences_per_doc,
            "label_rate": params.label_rate,
        },
    }
    paths["config"].write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {k: str(v) for k, v in paths.items()}
