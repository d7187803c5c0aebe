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

Predict is the only command that scores test sentences. Summarize takes
each sentence's probability for InfoRank and InfoFilter from the `prob`
fields of predictions.jsonl; LeadWords and RandomRank need no predictions.

Each command runs in a process of its own and imports only the modules it
runs. This file's top level imports the config schema's modules, none of
which loads numpy: `constants`, `corpus`, `weak_label` and `summarize`.
The rest is imported inside the command that uses it:

    label      nothing more (no numpy)
    train      lexicons, features, sparse, pu and numpy
    predict    lexicons, features, sparse, pu and numpy
    summarize  numpy, for RandomRank only
    evaluate   report, with metrics and numpy
    synth      synth and numpy

So a command pays neither the import nor, without a bytecode cache, the
compile time of code it never runs; at the package root `infosum` imports
only `corpus`.

Every command takes a JSON config (-c) plus optional `--set dotted.key=value`
overrides, writes a resolved-config copy next to its outputs, and is a pure
function of (config, input files, seed): rerunning reproduces identical
bytes. Exit codes: 0 success, 2 validation error, 1 runtime error. An
input file that does not parse (bytes that are not UTF-8, bad JSON, a bad
field) is a validation error named by file kind and line, and so is a
labels file without both positive and unlabeled sentences.

The config accepts only the keys that `RunConfig` and its sections, one
frozen dataclass per JSON object, declare. A field's type hint is the JSON
type its key takes (a tuple is a list, a Literal a set of choices), its
default the value of an absent key, and a section's __post_init__ checks
ranges, each message starting with the field's name. An unknown key at any
depth, a section that is not an object, a value of the wrong JSON type
(numeric strings are not converted) or one out of its range is a
ConfigError naming the dotted key, raised when the config is loaded; every
config error exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Literal, get_args, get_origin, get_type_hints

from .constants import DEFAULT_BINS, FEATURE_MODES, L2, MODE_BOW, MODE_DICTIONARY
from .corpus import (
    Corpus,
    InputFormatError,
    compute_idf,
    json_int,
    load_corpus,
    read_json,
    read_jsonl,
    write_jsonl,
)
from .summarize import (
    INFOFILTER,
    INFORANK,
    LEADWORDS,
    RANDOMRANK,
    SYSTEMS,
    WHOLE_SENTENCE,
    SummaryBudget,
    SummaryResult,
    info_filter,
    info_rank,
    lead_words,
    random_rank,
    read_summaries,
    write_summaries,
)
from .weak_label import (
    EXCLUDED,
    POSITIVE,
    UNLABELED,
    LabelConfig,
    label_by_alignment,
    label_by_extract,
    label_counts,
    read_labels,
    sample_unlabeled,
    write_labels,
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
    t_pos: float = LabelConfig.t_pos
    t_unl: float = LabelConfig.t_unl
    balance_ratio: float = LabelConfig.balance_ratio

    def __post_init__(self) -> None:
        LabelConfig(self.t_pos, self.t_unl, self.balance_ratio)  # for its range checks


@dataclass(frozen=True)
class FeaturesSection:
    mode: Literal[FEATURE_MODES] = MODE_DICTIONARY
    bins: int = DEFAULT_BINS
    bow_min_df: int = 2

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.bow_min_df < 1:
            raise ValueError("bow_min_df must be >= 1")


@dataclass(frozen=True)
class StageSection:
    l2: float = L2

    def __post_init__(self) -> None:
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


@dataclass(frozen=True)
class HyperSection:
    """The L2 penalty of each training stage; the training schedule is fixed."""

    stage1: StageSection = StageSection()
    stage2: StageSection = StageSection()


@dataclass(frozen=True)
class EvaluateSection:
    gold_labels: str | None = None
    rouge: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        if not self.rouge:
            raise ValueError("rouge must hold at least one order")
        if any(n < 1 for n in self.rouge):
            raise ValueError("rouge must hold orders >= 1")


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

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return _resolve(cls, raw, "")

    def label_config(self) -> LabelConfig:
        return LabelConfig(self.label.t_pos, self.label.t_unl, self.label.balance_ratio, self.seed)

    def path(self, name: str) -> Path:
        return Path(self.out_dir) / name


def _resolve(cls, raw, where: str):
    """The `cls` instance that the JSON object `raw` at dotted key `where` declares."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    prefix = f"{where}." if where else ""
    names = [f.name for f in fields(cls)]
    for key in raw:
        if key not in names:
            raise ConfigError(
                f"unknown config key {prefix + key!r}; {where or 'the config'} takes {', '.join(names)}"
            )
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in raw:
            values[f.name] = _typed(hints[f.name], raw[f.name], prefix + f.name)
        elif f.default is MISSING:
            raise ConfigError(f"config field {prefix + f.name!r} is mandatory")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"config key {prefix}{exc}") from None


def _typed(hint, value, key: str):
    """`value` as the type `hint` of config key `key`, or a ConfigError."""
    if is_dataclass(hint):
        return _resolve(hint, value, key)
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"config key {key!r} must be a list, not {value!r}")
        return tuple(_typed(args[0], v, key) for v in value)
    if get_origin(hint) is Literal:
        ok, want = value in args, f"one of {', '.join(map(repr, args))}"
    elif hint is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        want = "a finite number"
        value = float(value) if ok else value
    else:
        ok, want = type(value) is hint, f"of type {hint.__name__}"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, not {value!r}")
    return value


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
        node[keys[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[keys[-1]] = value


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


def _write_resolved_config(cfg: RunConfig, command: str) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
    (out / f"resolved_config.{command}.json").write_text(payload, encoding="utf-8")


def _read_extracts(path: Path) -> dict[str, list[list[int]]]:
    def parse(rec):
        return rec["doc_id"], [[json_int(i, "extract id") for i in ext] for ext in rec["extracts"]]

    return dict(read_jsonl(path, "extracts", parse))


def _read_sentence_labels(path: Path, kind: str) -> dict[tuple[str, int], tuple[int, float | None]]:
    """(label, prob) per (doc_id, sentence_id), in file order, from predictions or gold labels.

    A label is 0 or 1. A prediction's prob is a finite number in [0, 1] and
    its label is `int(prob >= 0.5)`, as predict writes it; gold labels carry
    no prob (None). A repeated (doc_id, sentence_id) is an error.
    """
    seen: set[tuple[str, int]] = set()

    def parse(rec):
        key = (rec["doc_id"], json_int(rec["sentence_id"], "sentence_id"))
        label = json_int(rec["label"], "label")
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, not {label}")
        prob = None
        if kind == "predictions":
            prob = rec["prob"]
            if type(prob) not in (int, float) or not 0.0 <= prob <= 1.0:  # a nan fails the range
                raise ValueError(f"prob must be a number in [0, 1], not {prob!r}")
            prob = float(prob)
            if label != int(prob >= 0.5):
                raise ValueError(f"label {label} disagrees with prob {prob!r}: label must be int(prob >= 0.5)")
        if key in seen:
            raise ValueError(f"sentence {key[1]} of document {key[0]!r} appears twice")
        seen.add(key)
        return key, (label, prob)

    return dict(read_jsonl(path, kind, parse))


def compute_labels(cfg: RunConfig, corpus: Corpus):
    """Weak labels for every document, per the configured labeling mode."""
    label_cfg = cfg.label_config()
    labels = []
    if cfg.label.mode == "extract":
        extracts = _read_extracts(_require_file(cfg.label.extracts, "extracts file"))
        for doc in corpus:
            try:
                labels.extend(label_by_extract(doc, extracts.get(doc.doc_id, [])))
            except ValueError as exc:
                raise ConfigError(f"extracts: {exc}") from None
    else:
        idf = compute_idf(corpus.documents)
        for doc in corpus:
            if not doc.summary:
                raise ConfigError(
                    f"alignment labeling needs summaries; document {doc.doc_id!r} has none"
                )
            labels.extend(label_by_alignment(doc, label_cfg, idf))
    return labels


def cmd_label(cfg: RunConfig) -> int:
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
    vocabulary, and dictionary layouts are re-validated against the lexicon
    files, binned as the model was, so any content change surfaces as a
    hash mismatch.
    """
    from .features import FeatureExtractor, bow_layout, bow_vocabulary, dictionary_layout
    from .lexicons import read_category_lexicon, read_scored_lexicon

    if layout is not None and layout.mode == MODE_BOW:
        return FeatureExtractor(layout)
    if layout is None and cfg.features.mode == MODE_BOW:
        if train_corpus is None:
            raise ConfigError("bow feature mode needs the training corpus")
        return FeatureExtractor(bow_layout(bow_vocabulary(train_corpus, cfg.features.bow_min_df)))
    scored = [
        read_scored_lexicon(_require_file(p, "scored lexicon"), bins=cfg.features.bins)
        for p in cfg.lexicons.scored
    ]
    category = [read_category_lexicon(_require_file(p, "category lexicon")) for p in cfg.lexicons.category]
    if layout is not None:
        bins = {spec.name: spec.bins for spec in layout.scored}
        scored = [replace(lex, bins=bins.get(lex.name, lex.bins)) for lex in scored]
        return FeatureExtractor(layout, scored, category)
    if not scored and not category:
        raise ConfigError("dictionary feature mode needs at least one lexicon")
    layout = dictionary_layout(scored, category, include_general=cfg.features.mode == MODE_DICTIONARY)
    return FeatureExtractor(layout, scored, category)


def _check_in_corpus(corpus: Corpus, keys, what: str, corpus_name: str) -> None:
    """Every (doc_id, sentence_id) of `keys` names a sentence of the corpus."""
    for doc_id, sentence_id in keys:
        try:
            found = 0 <= sentence_id < len(corpus.document(doc_id).sentences)
        except KeyError:
            found = False
        if not found:
            raise ConfigError(
                f"{what} names sentence {sentence_id} of document {doc_id!r}, "
                f"which the {corpus_name} corpus lacks"
            )


def build_examples(corpus: Corpus, labels, extractor: FeatureExtractor) -> tuple[CsrMatrix, np.ndarray]:
    """Feature matrix X and 0/1 vector o over the non-excluded labels, in label order.

    X is a CsrMatrix: each row keeps the nonzero columns and values of the
    sentence's `extract` vector. No dense n x d matrix is built.
    """
    import numpy as np

    from .sparse import CsrMatrix

    kept = [lab for lab in labels if lab.flag != EXCLUDED]
    rows = []
    for lab in kept:
        x = extractor.extract(corpus.document(lab.doc_id).sentences[lab.sentence_id])
        cols = np.flatnonzero(x)
        rows.append((cols, x[cols]))
    o = np.array([lab.flag == POSITIVE for lab in kept], dtype=np.int64)
    return CsrMatrix.from_rows(rows, extractor.layout.total_dim), o


def cmd_train(cfg: RunConfig) -> int:
    from .pu import save_model, train_pu_model

    corpus = load_corpus(_require_file(cfg.train_corpus, "train corpus"))
    labels = read_labels(_require_file(str(cfg.path("labels.jsonl")), "labels file"))
    _check_in_corpus(corpus, ((lab.doc_id, lab.sentence_id) for lab in labels), "a label", "train")
    held = label_counts(labels)
    for flag in (POSITIVE, UNLABELED):
        if not held[flag]:
            raise ConfigError(f"labels.jsonl holds no {flag} label; training needs positive and unlabeled ones")
    sampled = sample_unlabeled(labels, cfg.label_config())
    extractor = build_extractor(cfg, train_corpus=corpus)
    X, o = build_examples(corpus, sampled, extractor)
    model = train_pu_model(X, o, cfg.hyper.stage1.l2, cfg.hyper.stage2.l2, seed=cfg.seed)
    _write_resolved_config(cfg, "train")
    save_model(model, extractor.layout, cfg.path("model.json"))
    counts = label_counts(sampled)
    print(
        f"train: positives={counts[POSITIVE]} unlabeled={counts[UNLABELED]} "
        f"dim={extractor.layout.total_dim} e={model.e:.6f} -> {cfg.path('model.json')}"
    )
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    from .pu import SentenceClassifier, load_model

    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    model, layout = load_model(_require_file(str(cfg.path("model.json")), "model file"))
    classifier = SentenceClassifier(model, build_extractor(cfg, layout=layout))
    records = []
    for doc in corpus:
        for sent in doc.sentences:
            prob = classifier.prob(sent)
            records.append(
                {"doc_id": doc.doc_id, "sentence_id": sent.id, "prob": prob, "label": int(prob >= 0.5)}
            )
    _write_resolved_config(cfg, "predict")
    write_jsonl(records, cfg.path("predictions.jsonl"))
    print(f"predict: {len(records)} sentences -> {cfg.path('predictions.jsonl')}")
    return EXIT_OK


def _test_probs(cfg: RunConfig, corpus: Corpus) -> list[list[float]]:
    """Each test document's probabilities in sentence order, from predictions of exactly its sentences."""
    path = cfg.path("predictions.jsonl")
    if not path.is_file():
        raise ConfigError(f"predictions not found: {path}; run predict first")
    preds = _read_sentence_labels(path, "predictions")
    _check_in_corpus(corpus, preds, "predictions.jsonl is stale: a prediction", "test")
    probs = []
    for doc in corpus:
        row = []
        for sent in doc.sentences:
            pred = preds.get((doc.doc_id, sent.id))
            if pred is None:
                raise ConfigError(
                    f"predictions lack sentence {sent.id} of document {doc.doc_id!r}; run predict again"
                )
            row.append(pred[1])
        probs.append(row)
    return probs


def cmd_summarize(cfg: RunConfig, only_system: str | None = None) -> int:
    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    systems = (only_system,) if only_system else cfg.systems
    probs: list[list[float]] = []
    if any(s in (INFORANK, INFOFILTER) for s in systems):
        probs = _test_probs(cfg, corpus)
    whole = replace(cfg.budget, mode=WHOLE_SENTENCE)
    _write_resolved_config(cfg, "summarize")
    for system in systems:
        results = []
        for di, doc in enumerate(corpus):
            if system == LEADWORDS:
                results.append(lead_words(doc, cfg.budget))
            elif system == INFORANK:
                results.append(info_rank(doc, probs[di], whole))
            elif system == INFOFILTER:
                results.append(info_filter(doc, probs[di], whole))
            elif system == RANDOMRANK:
                results.append(random_rank(doc, whole, seed=(cfg.seed, di)))
        path = cfg.path(f"summaries_{system}.jsonl")
        write_summaries(results, path)
        extra = ""
        if system == INFOFILTER:
            removed_counts = sorted(len(r.removed) for r in results)
            hist: dict[int, int] = {}
            for c in removed_counts:
                hist[c] = hist.get(c, 0) + 1
            extra = " removed-histogram " + json.dumps(hist, sort_keys=True)
        print(f"summarize[{system}]: {len(results)} documents -> {path}{extra}")
    return EXIT_OK


def _evaluated_summaries(cfg: RunConfig, corpus: Corpus) -> dict[str, list[SummaryResult]]:
    """Each configured system's summaries of the test documents that have a
    reference summary, in system order; a system with none is left out."""
    referenced = {doc.doc_id: doc for doc in corpus if doc.summary is not None}
    summaries = {}
    for system in cfg.systems:
        path = cfg.path(f"summaries_{system}.jsonl")
        if not path.is_file():
            continue
        kept = []
        for result in read_summaries(path, system):
            doc = referenced.get(result.doc_id)
            if doc is None:
                continue
            if not all(0 <= i < len(doc.sentences) for i in result.selected):
                raise ConfigError(
                    f"{path.name}: document {result.doc_id!r} selects sentences "
                    "the test corpus does not have"
                )
            kept.append(result)
        if kept:
            summaries[system] = kept
    return summaries


def cmd_evaluate(cfg: RunConfig) -> int:
    from .report import classification_section, render_table, rouge_section, wilcoxon_section

    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    report: dict = {}
    pred_path = cfg.path("predictions.jsonl")
    if cfg.evaluate.gold_labels is not None and pred_path.is_file():
        gold = _read_sentence_labels(_require_file(cfg.evaluate.gold_labels, "gold labels file"), "gold labels")
        preds = _read_sentence_labels(pred_path, "predictions")
        _check_in_corpus(corpus, preds, "predictions.jsonl is stale: a prediction", "test")
        if gold.keys().isdisjoint(preds):
            raise ConfigError("gold labels and predictions share no sentences")
        report["classification"] = classification_section(gold, preds)
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

    params = SynthParams(
        n_train_docs=args.train_docs,
        n_test_docs=args.test_docs,
        sentences_per_doc=args.sentences,
        label_rate=args.label_rate,
        seed=args.seed if args.seed is not None else 0,
    )
    paths = write_synth_bundle(args.out_dir, params)
    print(f"synth bundle -> {args.out_dir} (config: {paths['config']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosum",
        description="Summary-worthiness detection and extractive summarization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic corpus bundle and config")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--train-docs", type=int, default=120)
    synth.add_argument("--test-docs", type=int, default=60)
    synth.add_argument("--sentences", type=int, default=12)
    synth.add_argument("--label-rate", type=float, default=0.7)

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
    summ = add_common(sub.add_parser("summarize", help="run summarizers"))
    summ.add_argument("--system", choices=SYSTEMS)
    add_common(sub.add_parser("evaluate", help="write evaluation report"))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = load_config(args)
        if args.command == "label":
            return cmd_label(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        if args.command == "summarize":
            return cmd_summarize(cfg, getattr(args, "system", None))
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InputFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures: degenerate training, ...
        print(f"error: {exc}", file=sys.stderr)
        logger.debug("traceback", exc_info=exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
