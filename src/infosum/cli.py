"""Command-line pipeline: corpus -> labels -> features -> model -> summaries -> report.

Subcommands: synth, label, train, predict, summarize, evaluate. Every
command takes a JSON config (-c) plus optional `--set dotted.key=value`
overrides, writes a resolved-config copy next to its outputs, and is a pure
function of (config, input files, seed): rerunning reproduces identical
bytes. Exit codes: 0 success, 2 validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    Corpus,
    CorpusFormatError,
    JsonlFormatError,
    compute_idf,
    load_corpus,
    parse_jsonl,
    to_jsonl,
)
from .features import (
    FeatureExtractor,
    LayoutMismatchError,
    MODE_BOW,
    MODE_DICTIONARY,
    MODE_DICTIONARY_NO_GENERAL,
    bow_layout,
    bow_vocabulary,
    dictionary_layout,
)
from .lexicons import LexiconFormatError, read_category_lexicon, read_scored_lexicon
from .metrics import mcnemar, prf, rouge_n, wilcoxon_signed_rank
from .pu import (
    L2,
    ModelFormatError,
    PUModel,
    SentenceClassifier,
    load_model,
    save_model,
    train_pu_model,
)
from .summarize import (
    INFOFILTER,
    INFORANK,
    LEADWORDS,
    RANDOMRANK,
    SYSTEMS,
    TRUNCATE_WORDS,
    WHOLE_SENTENCE,
    SummaryBudget,
    info_filter,
    info_rank,
    lead_words,
    random_rank,
    read_summaries,
    summary_sentences,
    write_summaries,
)
from .synth import SynthParams, write_synth_bundle
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

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

FEATURE_MODES = (MODE_DICTIONARY, MODE_DICTIONARY_NO_GENERAL, MODE_BOW)
LABEL_MODES = ("alignment", "extract")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _read_l2(hyper) -> tuple[float, float]:
    """The stage-1 and stage-2 L2 penalties, the only settable training values."""
    if not isinstance(hyper, dict) or not set(hyper) <= {"stage1", "stage2"}:
        raise ConfigError("'hyper' may only hold 'stage1' and 'stage2'")
    penalties = []
    for stage in ("stage1", "stage2"):
        block = hyper.get(stage, {})
        if not isinstance(block, dict):
            raise ConfigError(f"'hyper.{stage}' must be an object")
        unknown = sorted(set(block) - {"l2"})
        if unknown:
            raise ConfigError(
                f"unknown config key 'hyper.{stage}.{unknown[0]}': only l2 can be set, "
                "the training schedule is fixed"
            )
        try:
            l2 = float(block.get("l2", L2))
        except (TypeError, ValueError):
            l2 = math.nan
        if not (math.isfinite(l2) and l2 >= 0.0):
            raise ConfigError(f"'hyper.{stage}.l2' must be a finite number >= 0")
        penalties.append(l2)
    return penalties[0], penalties[1]


@dataclass
class RunConfig:
    seed: int
    out_dir: str
    train_corpus: str | None = None
    test_corpus: str | None = None
    scored_lexicons: tuple[str, ...] = ()
    category_lexicons: tuple[str, ...] = ()
    label_mode: str = "alignment"
    extracts: str | None = None
    t_pos: float = 14.0
    t_unl: float = 10.0
    balance_ratio: float = 1.2
    feature_mode: str = MODE_DICTIONARY
    bins: int = 230
    bow_min_df: int = 2
    stage1_l2: float = L2
    stage2_l2: float = L2
    max_words: int = 100
    budget_mode: str = TRUNCATE_WORDS
    systems: tuple[str, ...] = SYSTEMS
    gold_labels: str | None = None
    rouge_orders: tuple[int, ...] = (1, 2)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if "seed" not in raw:
            raise ConfigError("config field 'seed' is mandatory")
        if "out_dir" not in raw:
            raise ConfigError("config field 'out_dir' is mandatory")
        lex = raw.get("lexicons", {})
        label = raw.get("label", {})
        feats = raw.get("features", {})
        stage1_l2, stage2_l2 = _read_l2(raw.get("hyper", {}))
        budget = raw.get("budget", {})
        ev = raw.get("evaluate", {})
        try:
            cfg = cls(
                seed=int(raw["seed"]),
                out_dir=str(raw["out_dir"]),
                train_corpus=raw.get("train_corpus"),
                test_corpus=raw.get("test_corpus"),
                scored_lexicons=tuple(lex.get("scored", ())),
                category_lexicons=tuple(lex.get("category", ())),
                label_mode=label.get("mode", "alignment"),
                extracts=label.get("extracts"),
                t_pos=float(label.get("t_pos", 14.0)),
                t_unl=float(label.get("t_unl", 10.0)),
                balance_ratio=float(label.get("balance_ratio", 1.2)),
                feature_mode=feats.get("mode", MODE_DICTIONARY),
                bins=int(feats.get("bins", 230)),
                bow_min_df=int(feats.get("bow_min_df", 2)),
                stage1_l2=stage1_l2,
                stage2_l2=stage2_l2,
                max_words=int(budget.get("max_words", 100)),
                budget_mode=budget.get("mode", TRUNCATE_WORDS),
                systems=tuple(raw.get("systems", SYSTEMS)),
                gold_labels=ev.get("gold_labels"),
                rouge_orders=tuple(ev.get("rouge", (1, 2))),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        if cfg.label_mode not in LABEL_MODES:
            raise ConfigError(f"label mode must be one of {LABEL_MODES}")
        if cfg.feature_mode not in FEATURE_MODES:
            raise ConfigError(f"feature mode must be one of {FEATURE_MODES}")
        if cfg.budget_mode not in (TRUNCATE_WORDS, WHOLE_SENTENCE):
            raise ConfigError("budget mode must be truncate-words or whole-sentence")
        unknown = set(cfg.systems) - set(SYSTEMS)
        if unknown:
            raise ConfigError(f"unknown systems {sorted(unknown)}")
        return cfg

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "train_corpus": self.train_corpus,
            "test_corpus": self.test_corpus,
            "lexicons": {
                "scored": list(self.scored_lexicons),
                "category": list(self.category_lexicons),
            },
            "label": {
                "mode": self.label_mode,
                "extracts": self.extracts,
                "t_pos": self.t_pos,
                "t_unl": self.t_unl,
                "balance_ratio": self.balance_ratio,
            },
            "features": {
                "mode": self.feature_mode,
                "bins": self.bins,
                "bow_min_df": self.bow_min_df,
            },
            "hyper": {"stage1": {"l2": self.stage1_l2}, "stage2": {"l2": self.stage2_l2}},
            "budget": {"max_words": self.max_words, "mode": self.budget_mode},
            "systems": list(self.systems),
            "evaluate": {
                "gold_labels": self.gold_labels,
                "rouge": list(self.rouge_orders),
            },
        }

    def label_config(self) -> LabelConfig:
        return LabelConfig(
            t_pos=self.t_pos,
            t_unl=self.t_unl,
            balance_ratio=self.balance_ratio,
            seed=self.seed,
        )

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
        node[keys[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[keys[-1]] = value


def load_config(args: argparse.Namespace) -> RunConfig:
    path = _require_file(args.config, "config file")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for override in args.set or ():
        if "=" not in override:
            raise ConfigError(f"--set expects dotted.key=value, got {override!r}")
        dotted, value = override.split("=", 1)
        _apply_override(raw, dotted, value)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out_dir", None) is not None:
        raw["out_dir"] = args.out_dir
    if getattr(args, "label_mode", None) is not None:
        raw.setdefault("label", {})["mode"] = args.label_mode
    if getattr(args, "feature_mode", None) is not None:
        raw.setdefault("features", {})["mode"] = args.feature_mode
    return RunConfig.from_dict(raw)


def _write_resolved_config(cfg: RunConfig, command: str) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    (out / f"resolved_config.{command}.json").write_text(payload, encoding="utf-8")


def _read_jsonl(path: Path, kind: str, parse) -> list:
    return parse_jsonl(path.read_text(encoding="utf-8").splitlines(), kind, parse)


def _read_extracts(path: Path) -> dict[str, list[list[int]]]:
    def parse(rec):
        return rec["doc_id"], [[int(i) for i in ext] for ext in rec["extracts"]]

    return dict(_read_jsonl(path, "extracts", parse))


def _read_sentence_labels(path: Path, kind: str) -> dict[tuple[str, int], int]:
    """0/1 label per (doc_id, sentence_id), from predictions or gold labels."""

    def parse(rec):
        return (rec["doc_id"], int(rec["sentence_id"])), int(rec["label"])

    return dict(_read_jsonl(path, kind, parse))


def compute_labels(cfg: RunConfig, corpus: Corpus):
    """Weak labels for every document, per the configured labeling mode."""
    label_cfg = cfg.label_config()
    labels = []
    if cfg.label_mode == "extract":
        extracts = _read_extracts(_require_file(cfg.extracts, "extracts file"))
        for doc in corpus:
            labels.extend(label_by_extract(doc, extracts.get(doc.doc_id, [])))
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


def build_extractor(cfg: RunConfig, train_corpus: Corpus | None = None, model: PUModel | None = None) -> FeatureExtractor:
    """Extractor for the configured feature mode.

    With a trained model the extractor is built against the model's own
    layout: BOW layouts embed their vocabulary, and dictionary layouts are
    re-validated against the lexicon files so any content change surfaces as
    a hash mismatch.
    """
    if model is not None:
        if model.layout.mode == MODE_BOW:
            return FeatureExtractor(model.layout)
        scored = [
            read_scored_lexicon(_require_file(p, "scored lexicon"), bins=cfg.bins)
            for p in cfg.scored_lexicons
        ]
        category = [
            read_category_lexicon(_require_file(p, "category lexicon"))
            for p in cfg.category_lexicons
        ]
        return FeatureExtractor(model.layout, scored, category)
    if cfg.feature_mode == MODE_BOW:
        if train_corpus is None:
            raise ConfigError("bow feature mode needs the training corpus")
        return FeatureExtractor(bow_layout(bow_vocabulary(train_corpus, cfg.bow_min_df)))
    scored = [read_scored_lexicon(_require_file(p, "scored lexicon"), bins=cfg.bins) for p in cfg.scored_lexicons]
    category = [read_category_lexicon(_require_file(p, "category lexicon")) for p in cfg.category_lexicons]
    if not scored and not category:
        raise ConfigError("dictionary feature mode needs at least one lexicon")
    layout = dictionary_layout(scored, category, include_general=cfg.feature_mode == MODE_DICTIONARY)
    return FeatureExtractor(layout, scored, category)


def build_examples(corpus: Corpus, labels, extractor: FeatureExtractor) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix X and 0/1 vector o over the non-excluded labels, in label order."""
    kept = [lab for lab in labels if lab.flag != EXCLUDED]
    X = np.empty((len(kept), extractor.layout.total_dim))
    for i, lab in enumerate(kept):
        X[i] = extractor.extract_or_zero(corpus.document(lab.doc_id).sentences[lab.sentence_id])
    o = np.array([lab.flag == POSITIVE for lab in kept], dtype=np.int64)
    return X, o


def cmd_train(cfg: RunConfig) -> int:
    corpus = load_corpus(_require_file(cfg.train_corpus, "train corpus"))
    labels = read_labels(_require_file(str(cfg.path("labels.jsonl")), "labels file"))
    sampled = sample_unlabeled(labels, cfg.label_config())
    extractor = build_extractor(cfg, train_corpus=corpus)
    X, o = build_examples(corpus, sampled, extractor)
    model = train_pu_model(X, o, extractor.layout, cfg.stage1_l2, cfg.stage2_l2, seed=cfg.seed)
    _write_resolved_config(cfg, "train")
    save_model(model, cfg.path("model.json"))
    counts = label_counts(sampled)
    print(
        f"train: positives={counts[POSITIVE]} unlabeled={counts[UNLABELED]} "
        f"dim={extractor.layout.total_dim} e={model.e:.6f} -> {cfg.path('model.json')}"
    )
    return EXIT_OK


def _load_classifier(cfg: RunConfig) -> tuple[PUModel, SentenceClassifier]:
    model = load_model(_require_file(str(cfg.path("model.json")), "model file"))
    extractor = build_extractor(cfg, model=model)
    return model, SentenceClassifier(model, extractor)


def cmd_predict(cfg: RunConfig) -> int:
    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    _, classifier = _load_classifier(cfg)
    records = []
    for doc in corpus:
        for sent in doc.sentences:
            prob = classifier.prob(sent)
            records.append(
                {"doc_id": doc.doc_id, "sentence_id": sent.id, "prob": prob, "label": int(prob >= 0.5)}
            )
    _write_resolved_config(cfg, "predict")
    cfg.path("predictions.jsonl").write_text(to_jsonl(records), encoding="utf-8")
    print(f"predict: {len(records)} sentences -> {cfg.path('predictions.jsonl')}")
    return EXIT_OK


def cmd_summarize(cfg: RunConfig, only_system: str | None = None) -> int:
    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    systems = (only_system,) if only_system else cfg.systems
    probs: list[list[float]] = []
    if any(s in (INFORANK, INFOFILTER) for s in systems):
        _, classifier = _load_classifier(cfg)
        probs = [[classifier.prob(s) for s in doc.sentences] for doc in corpus]
    budget = SummaryBudget(cfg.max_words, cfg.budget_mode)
    whole = SummaryBudget(cfg.max_words, WHOLE_SENTENCE)
    _write_resolved_config(cfg, "summarize")
    for system in systems:
        results = []
        for di, doc in enumerate(corpus):
            if system == LEADWORDS:
                results.append(lead_words(doc, budget))
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


def _classification_section(cfg: RunConfig) -> dict | None:
    pred_path = cfg.path("predictions.jsonl")
    if cfg.gold_labels is None or not pred_path.is_file():
        return None
    gold = _read_sentence_labels(_require_file(cfg.gold_labels, "gold labels file"), "gold labels")
    preds = _read_sentence_labels(pred_path, "predictions")
    keys = sorted(k for k in gold if k in preds)
    if not keys:
        raise ConfigError("gold labels and predictions share no sentences")
    truth = [gold[k] for k in keys]
    model_pred = [preds[k] for k in keys]
    baseline_pred = [1] * len(keys)

    def report(pred):
        tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
        tn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 0)
        r = prf(tp, fp, fn, tn)
        return {
            "tp": r.tp, "fp": r.fp, "fn": r.fn, "tn": r.tn,
            "precision": r.precision, "recall": r.recall, "f1": r.f1,
        }

    test = mcnemar(model_pred, baseline_pred, truth)
    return {
        "n": len(keys),
        "model": report(model_pred),
        "baseline_all_positive": report(baseline_pred),
        "mcnemar_model_vs_baseline": {
            "statistic": test.statistic,
            "p_value": test.p_value,
            "method": test.method,
        },
    }


def _rouge_section(cfg: RunConfig, corpus: Corpus) -> dict:
    rouge: dict = {}
    references = {
        doc.doc_id: list(doc.summary) for doc in corpus if doc.summary is not None
    }
    for system in cfg.systems:
        path = cfg.path(f"summaries_{system}.jsonl")
        if not path.is_file():
            continue
        per_doc: dict[str, dict] = {}
        for result in read_summaries(path):
            ref = references.get(result.doc_id)
            if ref is None:
                continue
            doc = corpus.document(result.doc_id)
            if not all(0 <= i < len(doc.sentences) for i in result.selected):
                raise ConfigError(
                    f"{path.name}: document {result.doc_id!r} selects sentences "
                    "the test corpus does not have"
                )
            cand = summary_sentences(doc, result)
            scores = {}
            for n in cfg.rouge_orders:
                sc = rouge_n(ref, cand, n)
                scores[f"r{n}"] = {
                    "recall": sc.recall,
                    "precision": sc.precision,
                    "f1": sc.f1,
                }
            per_doc[result.doc_id] = scores
        if not per_doc:
            continue
        means = {}
        for n in cfg.rouge_orders:
            key = f"r{n}"
            doc_ids = sorted(per_doc)
            means[key] = {
                stat: float(np.mean([per_doc[d][key][stat] for d in doc_ids]))
                for stat in ("recall", "precision", "f1")
            }
        rouge[system] = {"n_docs": len(per_doc), "mean": means, "per_doc": per_doc}
    return rouge


def _wilcoxon_section(cfg: RunConfig, rouge: dict) -> list[dict]:
    tests = []
    present = [s for s in cfg.systems if s in rouge]
    for sys_a, sys_b in itertools.combinations(present, 2):
        shared = sorted(
            set(rouge[sys_a]["per_doc"]) & set(rouge[sys_b]["per_doc"])
        )
        if not shared:
            continue
        for n in cfg.rouge_orders:
            key = f"r{n}"
            xs = [rouge[sys_a]["per_doc"][d][key]["recall"] for d in shared]
            ys = [rouge[sys_b]["per_doc"][d][key]["recall"] for d in shared]
            result = wilcoxon_signed_rank(xs, ys)
            tests.append(
                {
                    "system_a": sys_a,
                    "system_b": sys_b,
                    "metric": f"{key}-recall",
                    "n": len(shared),
                    "statistic": result.statistic,
                    "p_value": result.p_value,
                    "method": result.method,
                }
            )
    return tests


def _render_table(report: dict, rouge_orders) -> str:
    lines = []
    cls = report.get("classification")
    if cls:
        lines.append("Importance detection")
        lines.append(f"{'model':<22}{'precision':>10}{'recall':>10}{'f-1':>10}")
        for name, row in (
            ("detector", cls["model"]),
            ("baseline-all-pos", cls["baseline_all_positive"]),
        ):
            lines.append(
                f"{name:<22}{row['precision']:>10.3f}{row['recall']:>10.3f}{row['f1']:>10.3f}"
            )
        test = cls["mcnemar_model_vs_baseline"]
        lines.append(
            f"mcnemar detector vs baseline: statistic={test['statistic']:.4f} "
            f"p={test['p_value']:.6g}"
        )
        lines.append("")
    if report.get("rouge"):
        header = f"{'system':<14}" + "".join(f"{'R-' + str(n):>8}" for n in rouge_orders)
        lines.append("Summarization (ROUGE recall, %)")
        lines.append(header)
        for system, row in report["rouge"].items():
            cells = "".join(
                f"{100.0 * row['mean'][f'r{n}']['recall']:>8.1f}" for n in rouge_orders
            )
            lines.append(f"{system:<14}{cells}")
        lines.append("")
    if report.get("wilcoxon"):
        lines.append("Paired Wilcoxon signed-rank (per-document ROUGE recall)")
        for t in report["wilcoxon"]:
            lines.append(
                f"{t['system_a']} vs {t['system_b']:<12} {t['metric']:<10} "
                f"n={t['n']:<4} W={t['statistic']:<8.1f} p={t['p_value']:.6g}"
            )
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def cmd_evaluate(cfg: RunConfig) -> int:
    corpus = load_corpus(_require_file(cfg.test_corpus, "test corpus"))
    report: dict = {}
    classification = _classification_section(cfg)
    if classification:
        report["classification"] = classification
    rouge = _rouge_section(cfg, corpus)
    if rouge:
        report["rouge"] = rouge
        report["wilcoxon"] = _wilcoxon_section(cfg, rouge)
    if not report:
        raise ConfigError(
            "nothing to evaluate: run predict (with gold labels configured) or summarize first"
        )
    _write_resolved_config(cfg, "evaluate")
    cfg.path("report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    table = _render_table(report, cfg.rouge_orders)
    cfg.path("report.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    print(f"report -> {cfg.path('report.json')}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
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

    label = add_common(sub.add_parser("label", help="produce weak PU labels"))
    label.add_argument("--label-mode", choices=LABEL_MODES)
    train = add_common(sub.add_parser("train", help="train the two-stage detector"))
    train.add_argument("--feature-mode", choices=FEATURE_MODES)
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
    except (
        ConfigError, CorpusFormatError, JsonlFormatError, LexiconFormatError, ModelFormatError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures: degenerate training, layout mismatch, ...
        print(f"error: {exc}", file=sys.stderr)
        logger.debug("traceback", exc_info=exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
