"""Command-line pipeline: corpus -> labels -> features -> model -> summaries -> report.

Subcommands: synth, label, train, predict, summarize, evaluate. Each
command after synth reads its inputs and writes its artifacts in the out
dir:

    label      train corpus (extracts in extract mode) -> labels.jsonl
    train      train corpus, lexicons, labels.jsonl    -> model.json
    predict    test corpus, lexicons, model.json       -> predictions.jsonl
    summarize  test corpus, predictions.jsonl          -> summaries_<system>.jsonl
    evaluate   test corpus, gold labels, predictions.jsonl,
               summaries_<system>.jsonl                -> report.json, report.txt

Predict is the only command that scores test sentences. It scores each
sentence's sparse feature row in pure Python, with the bits of train's
numpy product for that row (`model.SentenceClassifier.prob`). No
artifact's bytes depend on the BLAS kernel; `pu` says what still varies by
host.
Summarize takes each sentence's probability for InfoRank and InfoFilter
from the `prob` fields of predictions.jsonl; LeadWords and RandomRank need
no predictions.

Each record file is checked against its corpus as it is read, by
`corpus.read_records`: extracts (`compute_labels`), labels
(`weak_label.read_labels`), predictions and gold labels here, and summaries
through `summarize.read_summaries`, which also checks each summary with the
cut rule beside `lead_words`. A line naming a sentence or document its
corpus lacks, or one an earlier line named, fails at that line. Here,
summarize and evaluate check only that the predictions cover every test
sentence, and evaluate that a summaries file covers every test document.

Train builds a dictionary layout with `features.bins` intervals per scored
attribute; the layout, not the lexicon, holds the bins, so predict bins as
the model's layout says and reads no `features.bins`.

Each command runs in a process of its own and imports only the modules it
runs. This file's top level imports the config schema's modules, none of
which loads numpy: `constants`, `corpus`, `rng` and `summarize`. The rest
is imported inside the command that uses it:

    label      weak_label (no numpy)
    train      weak_label, lexicons, features, model, sparse, pu and numpy
    predict    lexicons, features, model (no numpy)
    summarize  nothing more (no numpy)
    evaluate   report and metrics (no numpy)
    synth      synth and lexicons (no numpy)

So a command pays neither the import nor, without a bytecode cache, the
compile time of code it never runs; at the package root `infosum` imports
only `corpus`. No command loads numpy.random, since `rng` draws from the
standard library's `random.Random`, nor OpenSSL, since `lexicons` hashes
with CPython's own SHA-256.

Every command takes a JSON config (-c) plus optional `--set dotted.key=value`
overrides, writes a resolved-config copy next to its outputs, and is a pure
function of (config, input files, seed): rerunning reproduces identical
bytes. Exit codes: 0 success, 2 validation error, 1 runtime error. An
input file that does not parse (bytes that are not UTF-8, bad JSON, a key
given twice in one object, a bad field) is a validation error named by file
kind and line. So are a labels file without both positive and unlabeled
sentences, a `label.balance_ratio` that samples none of the unlabeled
ones, and a `seed` whose calibration split holds out every sampled
unlabeled one, which leaves stage 2 nothing but positives to fit; train
fails on them before it extracts a feature. So are features
that leave every training sentence's row empty (a `features.bow_min_df`
above every word's document count, or lexicons that match no word); train
fails on them before it fits a stage.

The config is `RunConfig`, one frozen dataclass per JSON object, read by
the decoder of every record (`corpus.decode`; its rule is in the `corpus`
docstring). An unknown key at any depth, a value of the wrong JSON type or
one out of its range is a ConfigError naming the dotted key, raised when
the config is loaded, and so is a `--set` value that gives a key twice in
one object; every config error exits 2. Each default is declared once, by
its field here: `hyper.l2`, the penalty of both PU stages, included. The
config synth writes names only the seed, the out dir, the input paths and
`label.mode`, and a synth flag left out keeps the `SynthParams` default.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Literal

from .constants import FEATURE_MODES, MODE_BOW, MODE_DICTIONARY
from .corpus import (
    Corpus,
    Document,
    InputFormatError,
    _parse_json,
    compute_idf,
    decode,
    load_corpus,
    read_json,
    read_records,
    write_jsonl,
)
from .rng import RANDOMRANK_ORDER, stream
from .summarize import (
    INFOFILTER,
    INFORANK,
    LEADWORDS,
    RANDOMRANK,
    SYSTEMS,
    SummaryBudget,
    SummaryResult,
    info_filter,
    info_rank,
    lead_words,
    predicted_important,
    random_rank,
    read_summaries,
    write_summaries,
)

if TYPE_CHECKING:
    import numpy as np

    from .features import FeatureExtractor, FeatureLayout
    from .sparse import CsrMatrix

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

LABEL_MODES = ("alignment", "extract")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class LexiconsSection:
    scored: tuple[str, ...] = ()
    category: tuple[str, ...] = ()


@dataclass(frozen=True)
class LabelSection:
    mode: Literal[LABEL_MODES] = "alignment"
    extracts: str | None = None
    t_pos: float = 14.0
    t_unl: float = 10.0
    balance_ratio: float = 1.2

    def __post_init__(self) -> None:
        if not self.t_unl < self.t_pos:
            raise ValueError(f"t_unl ({self.t_unl}) must be strictly below t_pos ({self.t_pos})")
        if self.balance_ratio <= 0:
            raise ValueError("balance_ratio must be positive")


@dataclass(frozen=True)
class FeaturesSection:
    mode: Literal[FEATURE_MODES] = MODE_DICTIONARY
    # the intervals of each scored attribute in the layout train builds; predict bins as its model says
    bins: int = 230
    bow_min_df: int = 2

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.bow_min_df < 1:
            raise ValueError("bow_min_df must be >= 1")


@dataclass(frozen=True)
class HyperSection:
    """The L2 penalty of both PU training stages: the whole penalty of the objective each solves."""

    # Of {1e-3, 2e-3, 5e-3, 1e-2, 1.3e-2}, the one that lost least detector F1
    # against the descent schedule the exact solves replaced (see CHANGES.md).
    l2: float = 1e-2

    def __post_init__(self) -> None:
        if not self.l2 > 0:
            raise ValueError(f"l2 must be > 0, not {self.l2!r}; without a penalty the fit may have no optimum")


@dataclass(frozen=True)
class EvaluateSection:
    gold_labels: str | None = None
    rouge: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        if not self.rouge:
            raise ValueError("rouge must hold at least one order")
        if any(n < 1 for n in self.rouge):
            raise ValueError("rouge must hold orders >= 1")
        if len(set(self.rouge)) < len(self.rouge):
            raise ValueError(f"rouge must not repeat an order: {list(self.rouge)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: str
    train_corpus: str | None = None
    test_corpus: str | None = None
    lexicons: LexiconsSection = LexiconsSection()
    label: LabelSection = LabelSection()
    features: FeaturesSection = FeaturesSection()
    hyper: HyperSection = HyperSection()
    budget: SummaryBudget = SummaryBudget()
    systems: tuple[Literal[SYSTEMS], ...] = SYSTEMS
    evaluate: EvaluateSection = EvaluateSection()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.systems:
            raise ValueError("systems must hold at least one system")
        if len(set(self.systems)) < len(self.systems):
            raise ValueError(f"systems must not repeat a system: {list(self.systems)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return decode(cls, raw, "config")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def path(self, name: str) -> Path:
        return Path(self.out_dir) / name


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise ConfigError(f"config does not name a {what}")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _apply_override(raw: dict, dotted: str, value: str) -> None:
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key {key!r}")
    try:
        node[keys[-1]] = _parse_json(value)
    except json.JSONDecodeError:
        node[keys[-1]] = value
    except ValueError as exc:  # a repeated key
        raise ConfigError(f"config key {dotted!r}: {exc}") from None


def load_config(args: argparse.Namespace) -> RunConfig:
    raw = read_json(_require_file(args.config, "config file"), "config")
    for override in args.set or ():
        if "=" not in override:
            raise ConfigError(f"--set expects dotted.key=value, got {override!r}")
        dotted, value = override.split("=", 1)
        _apply_override(raw, dotted, value)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out_dir", None) is not None:
        raw["out_dir"] = args.out_dir
    return RunConfig.from_dict(raw)


def _make_out_dir(path: str) -> Path:
    """The directory `path`, made with its parents if missing; a ConfigError if a file is in the way."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make out dir {path}: {exc.strerror}") from None
    return out


def _write_resolved_config(cfg: RunConfig, command: str) -> None:
    out = _make_out_dir(cfg.out_dir)
    payload = json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
    (out / f"resolved_config.{command}.json").write_text(payload, encoding="utf-8")


@dataclass(frozen=True)
class Extracts:
    """An extracts line: the human extracts of a training document, each a list of sentence ids."""

    doc_id: str
    extracts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SentenceLabel:
    """A gold labels line: the 0/1 label of a test sentence."""

    doc_id: str
    sentence_id: int
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, not {self.label}")


@dataclass(frozen=True)
class Prediction(SentenceLabel):
    """A predictions line: prob in [0, 1] and label `int(predicted_important(prob))`, as predict writes them."""

    prob: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be a number in [0, 1], not {self.prob!r}")
        if self.label != int(predicted_important(self.prob)):
            raise ValueError(f"label {self.label} disagrees with prob {self.prob!r}: label must be int(prob >= 0.5)")


def compute_labels(cfg: RunConfig, corpus: Corpus):
    """Weak labels for every document, per the configured labeling mode."""
    from .weak_label import label_by_alignment, label_by_extract

    labels = []
    if cfg.label.mode == "extract":
        by_doc: dict[str, list] = {}

        def label(record: Extracts, doc: Document) -> None:
            by_doc[doc.doc_id] = label_by_extract(doc, record.extracts)

        read_records(_require_file(cfg.label.extracts, "extracts file"), "extracts", Extracts, corpus, "train", label)
        for doc in corpus:
            labels.extend(by_doc[doc.doc_id] if doc.doc_id in by_doc else label_by_extract(doc, ()))
    else:
        idf = compute_idf(corpus.documents)
        for doc in corpus:
            if not doc.summary:
                raise ConfigError(
                    f"alignment labeling needs summaries; document {doc.doc_id!r} has none"
                )
            labels.extend(label_by_alignment(doc, cfg.label.t_pos, cfg.label.t_unl, idf))
    return labels


def cmd_label(cfg: RunConfig) -> int:
    from .weak_label import EXCLUDED, POSITIVE, UNLABELED, label_counts, write_labels

    corpus = load_corpus(_require_file(cfg.train_corpus, "train corpus"))
    labels = compute_labels(cfg, corpus)
    _write_resolved_config(cfg, "label")
    write_labels(labels, cfg.path("labels.jsonl"))
    counts = label_counts(labels)
    print(
        f"labels: positive={counts[POSITIVE]} unlabeled={counts[UNLABELED]} "
        f"excluded={counts[EXCLUDED]} -> {cfg.path('labels.jsonl')}"
    )
    return EXIT_OK


def build_extractor(cfg: RunConfig, train_corpus: Corpus | None = None, layout: FeatureLayout | None = None) -> FeatureExtractor:
    """Extractor for the configured feature mode, or for a trained model's `layout`.

    A model's layout comes from its model file: BOW layouts embed their
    vocabulary, and the extractor checks the lexicon files against a
    dictionary layout's specs, each binned as its spec says, so any content
    change surfaces as a hash mismatch and `features.bins` is not read.
    """
    from .features import FeatureExtractor, bow_layout, bow_vocabulary, dictionary_layout
    from .lexicons import read_category_lexicon, read_scored_lexicon

    if layout is not None and layout.mode == MODE_BOW:
        return FeatureExtractor(layout)
    if layout is None and cfg.features.mode == MODE_BOW:
        if train_corpus is None:
            raise ConfigError("bow feature mode needs the training corpus")
        return FeatureExtractor(bow_layout(bow_vocabulary(train_corpus, cfg.features.bow_min_df)))
    scored = [read_scored_lexicon(_require_file(p, "scored lexicon")) for p in cfg.lexicons.scored]
    category = [read_category_lexicon(_require_file(p, "category lexicon")) for p in cfg.lexicons.category]
    if layout is None:
        if not scored and not category:
            raise ConfigError("dictionary feature mode needs at least one lexicon")
        layout = dictionary_layout(scored, category, cfg.features.bins, cfg.features.mode == MODE_DICTIONARY)
    return FeatureExtractor(layout, scored, category)


def build_examples(corpus: Corpus, labels, extractor: FeatureExtractor) -> tuple[CsrMatrix, np.ndarray]:
    """Feature matrix X and 0/1 vector o over the non-excluded labels, in label order.

    X is a CsrMatrix of each sentence's sparse `extract` row.
    """
    import numpy as np

    from .sparse import CsrMatrix
    from .weak_label import EXCLUDED, POSITIVE

    kept = [lab for lab in labels if lab.flag != EXCLUDED]
    rows = (extractor.extract(corpus.document(lab.doc_id).sentences[lab.sentence_id]) for lab in kept)
    o = np.array([lab.flag == POSITIVE for lab in kept], dtype=np.int64)
    return CsrMatrix.from_rows(rows, extractor.layout.total_dim), o


def training_rows(cfg: RunConfig) -> tuple[CsrMatrix, np.ndarray, FeatureExtractor]:
    """The rows train fits: X and o over the positives and the sampled unlabeled
    sentences of labels.jsonl, in label order, and the extractor of X's columns.

    The checks of the labels, the sample, the calibration split and the
    features that the module docstring names raise their ConfigError here.
    """
    from .pu import calibration_split
    from .weak_label import POSITIVE, UNLABELED, label_counts, read_labels, sample_unlabeled

    corpus = load_corpus(_require_file(cfg.train_corpus, "train corpus"))
    labels = read_labels(_require_file(str(cfg.path("labels.jsonl")), "labels file"), corpus)
    held = label_counts(labels)
    for flag in (POSITIVE, UNLABELED):
        if not held[flag]:
            raise ConfigError(f"labels.jsonl holds no {flag} label; training needs positive and unlabeled ones")
    sampled = sample_unlabeled(labels, cfg.label.balance_ratio, cfg.seed)
    if not label_counts(sampled)[UNLABELED]:
        raise ConfigError(
            f"label.balance_ratio {cfg.label.balance_ratio} samples none of the {held[UNLABELED]} unlabeled "
            f"sentences for {held[POSITIVE]} positive ones; training needs at least one"
        )
    fit, _ = calibration_split(len(sampled), cfg.seed)
    if all(sampled[i].flag == POSITIVE for i in fit):
        raise ConfigError(
            f"seed {cfg.seed} holds out every sampled unlabeled sentence for calibration: stage 2 would fit "
            f"{len(fit)} of the {len(sampled)} sampled rows, all positive; it needs an unlabeled one"
        )
    extractor = build_extractor(cfg, train_corpus=corpus)
    X, o = build_examples(corpus, sampled, extractor)
    if not X.data.size:
        if cfg.features.mode == MODE_BOW:
            cause = f"features.bow_min_df {cfg.features.bow_min_df} keeps {extractor.layout.total_dim} words"
        else:
            cause = (f"lexicons.scored {list(cfg.lexicons.scored)} and lexicons.category "
                     f"{list(cfg.lexicons.category)} match none of their words")
        raise ConfigError(f"none of the {len(o)} training sentences has a nonzero feature: {cause}")
    return X, o, extractor


def cmd_train(cfg: RunConfig) -> int:
    from .pu import save_model, train_pu_model

    X, o, extractor = training_rows(cfg)
    model, _ = train_pu_model(X, o, cfg.hyper.l2, cfg.seed)
    _write_resolved_config(cfg, "train")
    save_model(model, extractor.layout, cfg.path("model.json"))
    positives = int(o.sum())
    print(
        f"train: positives={positives} unlabeled={len(o) - positives} "
        f"dim={extractor.layout.total_dim} e={model.e:.6f} -> {cfg.path('model.json')}"
    )
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    from .model import SentenceClassifier, load_model

    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    model, layout = load_model(_require_file(str(cfg.path("model.json")), "model file"))
    classifier = SentenceClassifier(model, build_extractor(cfg, layout=layout))
    sentences = [(doc.doc_id, sent) for doc in corpus for sent in doc.sentences]
    probs = classifier.prob([sent for _, sent in sentences])
    records = [
        {"doc_id": doc_id, "sentence_id": sent.id, "prob": prob, "label": int(predicted_important(prob))}
        for (doc_id, sent), prob in zip(sentences, probs)
    ]
    _write_resolved_config(cfg, "predict")
    write_jsonl(records, cfg.path("predictions.jsonl"))
    print(f"predict: {len(records)} sentences -> {cfg.path('predictions.jsonl')}")
    return EXIT_OK


def _read_predictions(path: Path, corpus: Corpus) -> dict[tuple[str, int], Prediction]:
    """The predictions at `path`, which must hold exactly the test corpus's sentences."""
    preds = read_records(path, "predictions", Prediction, corpus, "test")
    for doc in corpus:
        for sent in doc.sentences:
            if (doc.doc_id, sent.id) not in preds:
                raise ConfigError(
                    f"predictions lack sentence {sent.id} of document {doc.doc_id!r}; run predict again"
                )
    return preds


def _test_probs(cfg: RunConfig, corpus: Corpus) -> list[list[float]]:
    """Each test document's probabilities in sentence order."""
    path = cfg.path("predictions.jsonl")
    if not path.is_file():
        raise ConfigError(f"predictions not found: {path}; run predict first")
    preds = _read_predictions(path, corpus)
    return [[preds[(doc.doc_id, sent.id)].prob for sent in doc.sentences] for doc in corpus]


def cmd_summarize(cfg: RunConfig) -> int:
    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    probs: list[list[float]] = []
    if any(s in (INFORANK, INFOFILTER) for s in cfg.systems):
        probs = _test_probs(cfg, corpus)
    _write_resolved_config(cfg, "summarize")
    rand = stream(cfg.seed, RANDOMRANK_ORDER)
    summarizers = {
        LEADWORDS: lambda di, doc: lead_words(doc, cfg.budget),
        INFORANK: lambda di, doc: info_rank(doc, probs[di], cfg.budget),
        INFOFILTER: lambda di, doc: info_filter(doc, probs[di], cfg.budget),
        RANDOMRANK: lambda di, doc: random_rank(doc, cfg.budget, rand),
    }
    for system in cfg.systems:
        summarize = summarizers[system]
        results = [summarize(di, doc) for di, doc in enumerate(corpus)]
        path = cfg.path(f"summaries_{system}.jsonl")
        write_summaries(results, path)
        extra = ""
        if system == INFOFILTER:
            hist = Counter(len(r.removed) for r in results)
            extra = " removed-histogram " + json.dumps(hist, sort_keys=True)
        print(f"summarize[{system}]: {len(results)} documents -> {path}{extra}")
    return EXIT_OK


def _evaluated_summaries(cfg: RunConfig, corpus: Corpus) -> dict[str, list[SummaryResult]]:
    """Each configured system's summaries of the test documents that have a
    reference summary, in system order; a system with no file is left out.

    `read_summaries` checks each summary against its document; a file must
    also summarize every test document.
    """
    summaries = {}
    for system in cfg.systems:
        path = cfg.path(f"summaries_{system}.jsonl")
        if not path.is_file():
            continue
        try:
            results = read_summaries(path, system, corpus)
        except InputFormatError as exc:
            raise InputFormatError(f"{exc}; run summarize again") from None
        missing = {doc.doc_id for doc in corpus}.difference(result.doc_id for result in results)
        if missing:
            raise ConfigError(f"{path.name} lacks test document {min(missing)!r}; run summarize again")
        kept = [result for result in results if corpus.document(result.doc_id).summary is not None]
        if kept:
            summaries[system] = kept
    return summaries


def _classification(cfg: RunConfig, corpus: Corpus, pred_path: Path) -> dict:
    """The report's classification section: gold labels against predictions.
    A function of its own, so their records are freed before the ROUGE section."""
    from .report import classification_section

    gold_path = _require_file(cfg.evaluate.gold_labels, "gold labels file")
    gold = read_records(gold_path, "gold labels", SentenceLabel, corpus, "test")
    if not gold:
        raise ConfigError(f"gold labels file {gold_path} holds no labels")
    return classification_section(gold, _read_predictions(pred_path, corpus))


def cmd_evaluate(cfg: RunConfig) -> int:
    from .report import render_table, rouge_section, wilcoxon_section

    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    report: dict = {}
    pred_path = cfg.path("predictions.jsonl")
    if cfg.evaluate.gold_labels is not None and pred_path.is_file():
        report["classification"] = _classification(cfg, corpus, pred_path)
    summaries = _evaluated_summaries(cfg, corpus)
    if summaries:
        report["rouge"] = rouge_section(corpus, summaries, cfg.evaluate.rouge)
        report["wilcoxon"] = wilcoxon_section(report["rouge"], cfg.evaluate.rouge)
    if not report:
        raise ConfigError(
            "nothing to evaluate: run predict (with gold labels configured) or summarize first"
        )
    _write_resolved_config(cfg, "evaluate")
    cfg.path("report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    table = render_table(report, cfg.evaluate.rouge)
    cfg.path("report.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    print(f"report -> {cfg.path('report.json')}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthParams, write_synth_bundle

    given = {name: value for name, value in vars(args).items() if name not in ("command", "out_dir")}
    try:
        params = SynthParams(**given)
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}") from None
    paths = write_synth_bundle(_make_out_dir(args.out_dir), params)
    print(f"synth bundle -> {args.out_dir} (config: {paths['config']})")
    return EXIT_OK


CONFIG_COMMANDS = {
    "label": cmd_label,
    "train": cmd_train,
    "predict": cmd_predict,
    "summarize": cmd_summarize,
    "evaluate": cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosum",
        description="Summary-worthiness detection and extractive summarization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An absent flag sets no SynthParams field, which so keeps its default.
    synth = sub.add_parser("synth", help="write a synthetic corpus bundle and config",
                           argument_default=argparse.SUPPRESS)
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--train-docs", type=int, dest="n_train_docs")
    synth.add_argument("--test-docs", type=int, dest="n_test_docs")
    synth.add_argument("--sentences", type=int, dest="sentences_per_doc")
    synth.add_argument("--label-rate", type=float, dest="label_rate")

    def add_common(p):
        p.add_argument("-c", "--config", required=True, help="JSON run config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a dotted config key, e.g. label.t_pos=12")
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir")
        return p

    add_common(sub.add_parser("label", help="produce weak PU labels"))
    add_common(sub.add_parser("train", help="train the two-stage detector"))
    add_common(sub.add_parser("predict", help="score test-corpus sentences"))
    add_common(sub.add_parser("summarize", help="run summarizers"))
    add_common(sub.add_parser("evaluate", help="write evaluation report"))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        return CONFIG_COMMANDS[args.command](load_config(args))
    except (ConfigError, InputFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures: degenerate training, ...
        print(f"error: {exc}", file=sys.stderr)
        logger.debug("traceback", exc_info=exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
