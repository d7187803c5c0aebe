"""Synthetic data with planted positive-unlabeled structure.

`write_synth_bundle` emits a small text corpus plus matching lexicons,
extracts, gold labels and a ready-to-run pipeline config, so the CLI can be
exercised end to end without licensed data.

Every draw comes from `rng.stream`, the standard library's generator, so
this module imports no numpy. The lexicons, the train split and the test
split each draw from a stream of their own. The texts are written as drawn,
never tokenized. tests/test_synth.py pins the sha256 of every file of two
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import write_json, write_jsonl
from .lexicons import CategoryLexicon, ScoredLexicon, category_lexicon_to_tsv, scored_lexicon_to_tsv
from .rng import SYNTH_LEXICONS, SYNTH_TEST, SYNTH_TRAIN, Stream, stream


SCORED_ATTRIBUTES = ("imagery", "concreteness")
SCORE_RANGE = (100.0, 700.0)
CATEGORIES = ("IMP", "BKG", "COMMON")
# Words per pool: imp, bkg and com are lexicon words, puff is filler.
POOL_SIZES = {"imp": 160, "bkg": 160, "com": 40, "puff": 60}
# Each lexicon pool's category and the band its scores are drawn from.
LEXICON_POOLS = (("imp", 0, (520.0, 680.0)), ("bkg", 1, (120.0, 280.0)), ("com", 2, (350.0, 450.0)))


def _vocab(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(n)]


def build_synth_lexicons(seed: int = 0) -> tuple[ScoredLexicon, CategoryLexicon]:
    """Scored and category lexicons whose word pools separate two sentence classes."""
    rand = stream(seed, SYNTH_LEXICONS)
    entries: dict[str, dict[str, float]] = {}
    categories: dict[str, frozenset[int]] = {}
    for pool, category, (lo, hi) in LEXICON_POOLS:
        for word in _vocab(pool, POOL_SIZES[pool]):
            entries[word] = {attr: lo + (hi - lo) * rand() for attr in SCORED_ATTRIBUTES}
            categories[word] = frozenset({category})
    scored = ScoredLexicon(name="synthmrc", attributes=SCORED_ATTRIBUTES, entries=entries,
                           ranges={attr: SCORE_RANGE for attr in SCORED_ATTRIBUTES})
    return scored, CategoryLexicon(name="synthcats", categories=CATEGORIES, entries=categories, wildcards={})


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

    def __post_init__(self) -> None:
        for name in ("n_train_docs", "n_test_docs", "sentences_per_doc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)!r}")
        for name in ("label_rate", "positive_rate", "signal_rate", "crossover_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], not {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")


def _make_sentence(rand: Stream, pools: tuple[list[str], ...], thresholds: tuple[float, float, float]) -> str:
    """A sentence of 8 to 14 words. A word comes from the pool of `pools` (own,
    other, com, puff) whose cumulative threshold its draw first falls below."""
    own, other, com, puff = pools
    signal, crossover, common = thresholds
    words = []
    for _ in range(8 + int(rand() * 7)):
        u = rand()
        pool = own if u < signal else other if u < crossover else com if u < common else puff
        words.append(pool[int(rand() * len(pool))])
    text = " ".join(words)
    u = rand()
    if u < 0.08:
        text += " !"
    elif u < 0.16:
        text += " ?"
    elif u < 0.24:
        text = "'' " + text + " ''"
    else:
        text += " ."
    return text


def synth_records(params: SynthParams, test: bool = False) -> tuple[list[dict], list[dict], list[dict]]:
    """The corpus, extracts and gold label records of the train or test split.

    Each sentence is truly important (y=1) with probability positive_rate and
    draws mostly from the imp pool if so, the bkg pool otherwise. A truly
    important sentence enters the (single) extract with probability
    label_rate; the extract's texts double as the reference summary, and a
    document with an empty extract has none.
    """
    rand = stream(params.seed, SYNTH_TEST if test else SYNTH_TRAIN)
    vocab = {pool: _vocab(pool, size) for pool, size in POOL_SIZES.items()}
    pools = {y: (vocab[own], vocab[other], vocab["com"], vocab["puff"])
             for y, (own, other) in ((1, ("imp", "bkg")), (0, ("bkg", "imp")))}
    thresholds = (params.signal_rate, params.signal_rate + params.crossover_rate,
                  params.signal_rate + params.crossover_rate + 0.14)
    n_docs = params.n_test_docs if test else params.n_train_docs
    prefix = "test" if test else "train"
    documents: list[dict] = []
    extracts: list[dict] = []
    gold: list[dict] = []
    for d in range(n_docs):
        doc_id = f"{prefix}-{d:04d}"
        section = "business" if d % 2 == 0 else "politics"
        texts = []
        ys = []
        for _ in range(params.sentences_per_doc):
            y = 1 if rand() < params.positive_rate else 0
            ys.append(y)
            texts.append(_make_sentence(rand, pools[y], thresholds))
        extract = [i for i, y in enumerate(ys) if y == 1 and rand() < params.label_rate]
        document = {"doc_id": doc_id, "section": section, "sentences": texts}
        if extract:
            document["summary"] = [texts[i] for i in extract]
        documents.append(document)
        extracts.append({"doc_id": doc_id, "extracts": [extract]})
        gold.extend({"doc_id": doc_id, "sentence_id": i, "label": y} for i, y in enumerate(ys))
    return documents, extracts, gold


def write_synth_bundle(out_dir: str | Path, params: SynthParams) -> dict[str, str]:
    """Write corpora, lexicons, extracts, gold labels and a pipeline config.

    The config names the seed, the out dir, the input paths and extract
    labels; every other setting keeps the run config's own default.
    """
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

    train_docs, train_extracts, _ = synth_records(params, test=False)
    test_docs, _, test_gold = synth_records(params, test=True)
    write_jsonl(train_docs, paths["train_corpus"])
    write_jsonl(test_docs, paths["test_corpus"])
    write_jsonl(train_extracts, paths["extracts"])
    write_jsonl(test_gold, paths["gold_labels"])

    config = {
        "seed": params.seed,
        "out_dir": str(out / "run"),
        "train_corpus": str(paths["train_corpus"]),
        "test_corpus": str(paths["test_corpus"]),
        "lexicons": {
            "scored": [str(paths["scored_lexicon"])],
            "category": [str(paths["category_lexicon"])],
        },
        "label": {"mode": "extract", "extracts": str(paths["extracts"])},
        "evaluate": {"gold_labels": str(paths["gold_labels"])},
    }
    write_json(config, paths["config"])
    return {k: str(v) for k, v in paths.items()}
