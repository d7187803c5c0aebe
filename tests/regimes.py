"""The nine regime bundles: `paper-150`, `bow-align-hivocab` and the weak regime, each at seeds 0-2.

`paper-150` and `bow-align-hivocab` are built as `perfbench/run.py` builds
the workloads of those names: the synth sizes and `--set` overrides come
from its `WORKLOADS`, and a high-vocabulary workload's bundle is rewritten by
the `hivocab` module it runs. The weak regime is the shipped config on a
150/300-document bundle whose sentences draw a word from their own class's
pool at a rate of 0.22 instead of synth's 0.55. `infosum label` labels each
bundle, and its training rows are `cli.training_rows`, the rows `infosum
train` fits. `tests/conftest.py` builds each bundle once per session.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from infosum.cli import RunConfig, SentenceLabel, build_parser, load_config, main, training_rows
from infosum.corpus import Sentence, load_corpus, read_records
from infosum.synth import SynthParams, synth_records, write_synth_bundle
from infosum.weak_label import POSITIVE, read_labels, sample_unlabeled

if TYPE_CHECKING:
    import numpy as np

    from infosum.features import FeatureExtractor
    from infosum.sparse import CsrMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WEAK = "weak"
WEAK_PARAMS = {"n_train_docs": 150, "n_test_docs": 300, "signal_rate": 0.22}


@functools.cache
def perfbench_run():
    """`perfbench/run.py` as a module, loaded once; it imports its siblings by name."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return run


@dataclass(frozen=True)
class Regime:
    """One bundle's training rows and test sentences.

    `c` is Elkan & Noto's label frequency as synth drew it: the share of the
    truly important sampled training sentences that carry a positive label.
    """

    cfg: RunConfig
    X: CsrMatrix
    o: np.ndarray
    extractor: FeatureExtractor
    test: list[Sentence]
    gold: list[int]
    c: float


def build(root: Path, name: str, seed: int) -> Regime:
    """The regime `name` at `seed`, its bundle written and labelled under `root`."""
    if name == WEAK:
        params, overrides, hivocab = SynthParams(seed=seed, **WEAK_PARAMS), (), False
    else:
        workload = perfbench_run().WORKLOADS[name]
        train_docs, test_docs = workload.sizes["full"]
        params = SynthParams(n_train_docs=train_docs, n_test_docs=test_docs, seed=seed)
        overrides, hivocab = workload.overrides, workload.hivocab
    bundle = root / f"{name}-seed{seed}"
    config = write_synth_bundle(bundle, params)["config"]
    if hivocab:
        perfbench_run().hivocab.rewrite_bundle(bundle, seed)
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["label", "-c", config, *sets]) == 0
    cfg = load_config(build_parser().parse_args(["train", "-c", config, *sets]))
    X, o, extractor = training_rows(cfg)

    # The sentences train sampled, drawn again with its arguments; their flags must be o.
    labels = read_labels(cfg.path("labels.jsonl"), load_corpus(cfg.train_corpus))
    sampled = sample_unlabeled(labels, cfg.label.balance_ratio, cfg.seed)
    assert [lab.flag == POSITIVE for lab in sampled] == [bool(flag) for flag in o]
    truth = {(g["doc_id"], g["sentence_id"]): g["label"] for g in synth_records(params)[2]}
    important = [lab.flag == POSITIVE for lab in sampled if truth[lab.doc_id, lab.sentence_id]]

    corpus = load_corpus(cfg.test_corpus)
    gold = read_records(Path(cfg.evaluate.gold_labels), "gold labels", SentenceLabel, corpus, "test")
    test = [(doc.doc_id, sent) for doc in corpus for sent in doc.sentences]
    return Regime(cfg, X, o, extractor, [sent for _, sent in test],
                  [gold[doc_id, sent.id].label for doc_id, sent in test], sum(important) / len(important))
