"""Run one `infosum` CLI command in-process with its layers timed.

Usage: python3 perfbench/tracer.py TRACE_JSON -- CLI_ARGS...

Before calling `infosum.cli.main(argv)`, the public functions that mark a
layer boundary (every name in LAYER_METRICS, plus `cli.main` as the root) are
replaced by timing wrappers. A function wrapper is bound in every `infosum`
module namespace that holds the original (`cli` does `from .corpus import
load_corpus`); a method is patched on its class. A name that no longer exists
is listed as missing instead of failing the run. Per wrapped name the trace
records calls, busy time (outermost calls only) and self time (busy minus
wrapped children), so the self times of one command add up to the busy time
of `cli.main`. Stats stay in memory and are written to TRACE_JSON when the
command returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter

EXTRACT = ("features.FeatureExtractor.extract", "features.FeatureExtractor.extract_or_zero")

# metric -> (unit, aggregate, wrapped names); the aggregate sums the names'
# "self_s", "busy_s" or "calls" over every command of the traced pipeline.
LAYER_METRICS = {
    "corpus.tokenize.self_s": ("s", "self_s", ("corpus.tokenize",)),
    "corpus.tokenize.calls": ("count", "calls", ("corpus.tokenize",)),
    "corpus.load_corpus.busy_s": ("s", "busy_s", ("corpus.load_corpus",)),
    "corpus.load_corpus.calls": ("count", "calls", ("corpus.load_corpus",)),
    "corpus.compute_idf.self_s": ("s", "self_s", ("corpus.compute_idf",)),
    "features.extract.self_s": ("s", "self_s", EXTRACT),
    "features.extract.calls": ("count", "calls", EXTRACT),
    "features.bow_vocabulary.self_s": ("s", "self_s", ("features.bow_vocabulary",)),
    "pu.train_stage1.busy_s": ("s", "busy_s", ("pu.train_stage1",)),
    "pu.train_stage2.busy_s": ("s", "busy_s", ("pu.train_stage2",)),
    "pu.loss_evals": ("count", "calls", ("pu.logistic_loss", "pu.hinge_loss")),
    "pu.estimate_e.self_s": ("s", "self_s", ("pu.estimate_e",)),
    "pu.build_relabeled.self_s": ("s", "self_s", ("pu.build_relabeled",)),
    "pu.calibrate.self_s": ("s", "self_s", ("pu.calibrate",)),
    "pu.model_io_s": ("s", "busy_s", ("pu.save_model", "pu.load_model")),
    "pu.prob.self_s": ("s", "self_s", ("pu.SentenceClassifier.prob",)),
    "pu.prob.calls": ("count", "calls", ("pu.SentenceClassifier.prob",)),
    "weak_label.label.self_s": (
        "s", "self_s", ("weak_label.label_by_alignment", "weak_label.label_by_extract")
    ),
    "weak_label.sample_unlabeled.self_s": ("s", "self_s", ("weak_label.sample_unlabeled",)),
    "weak_label.io_s": ("s", "busy_s", ("weak_label.write_labels", "weak_label.read_labels")),
    "summarize.leadwords.self_s": ("s", "self_s", ("summarize.lead_words",)),
    "summarize.inforank.self_s": ("s", "self_s", ("summarize.info_rank",)),
    "summarize.infofilter.self_s": ("s", "self_s", ("summarize.info_filter",)),
    "summarize.randomrank.self_s": ("s", "self_s", ("summarize.random_rank",)),
    "summarize.io_s": ("s", "busy_s", ("summarize.write_summaries", "summarize.read_summaries")),
    "metrics.rouge_n.self_s": ("s", "self_s", ("metrics.rouge_n",)),
    "metrics.rouge_n.calls": ("count", "calls", ("metrics.rouge_n",)),
    "metrics.tests.self_s": ("s", "self_s", ("metrics.mcnemar", "metrics.wilcoxon_signed_rank")),
    "lexicons.read_s": (
        "s", "busy_s", ("lexicons.read_scored_lexicon", "lexicons.read_category_lexicon")
    ),
    "synth.write_bundle_s": ("s", "busy_s", ("synth.write_synth_bundle",)),
}
ROOT_NAME = "cli.main"
# Wrapped only so their time is not counted as CLI orchestration.
ATTRIBUTION_ONLY = ("pu.train_pu_model",)


def traced_names() -> list[str]:
    names = {ROOT_NAME, *ATTRIBUTION_ONLY}
    for _, _, members in LAYER_METRICS.values():
        names.update(members)
    return sorted(names)


class Tracer:
    """Aggregated call stats for wrapped functions, keyed by `module.qualname`."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self._stack: list[list[float]] = []  # [child_s] per active call
        self._depth: Counter[str] = Counter()
        self.sentence_keys: set[str] = set()
        self.infofilter_fallbacks = 0
        self._hooks = {name: self._record_sentence for name in EXTRACT}
        self._hooks["summarize.info_filter"] = self._record_fallback

    def _record_sentence(self, args, result) -> None:
        text = args[1].text.encode("utf-8")
        self.sentence_keys.add(hashlib.blake2b(text, digest_size=8).hexdigest())

    def _record_fallback(self, args, result) -> None:
        self.infofilter_fallbacks += bool(getattr(result, "fallback", False))

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth, hook = self._stack, self._depth, self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not depth[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return timed

    def to_json(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "sentence_keys": sorted(self.sentence_keys),
            "infofilter_fallbacks": self.infofilter_fallbacks,
        }


def _resolve(package, name: str):
    """(owner, attribute, object) for `module.func` or `module.Class.method`, or None."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{package.__name__}.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if not isinstance(owner, type):
            return None
    obj = getattr(owner, path[-1], None)
    return (owner, path[-1], obj) if callable(obj) else None


def install(tracer: Tracer, package, names) -> list[str]:
    """Wrap each name; return the names that could not be found."""
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    missing = []
    for name in names:
        found = _resolve(package, name)
        if found is None:
            missing.append(name)
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    import infosum
    import infosum.cli

    tracer = Tracer()
    missing = install(tracer, infosum, traced_names())
    try:
        rc = infosum.cli.main(argv[2:]) if ROOT_NAME not in missing else 2
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, **tracer.to_json()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
