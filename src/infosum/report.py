"""The evaluation report: detector scores, ROUGE per system, paired tests, text table.

`infosum evaluate` reads and checks its inputs, then builds report.json
from these sections and report.txt with `render_table`. Each score and
test entry is the dict a `metrics` function returned, placed as it is.
Only evaluate imports this module, so no other command loads `metrics` or
compiles it. The ROUGE section scores each summary's `summary_words` with
`metrics.rouge_n`; each mean is the exact sum of its scores (`math.fsum`),
rounded once and divided by their number. Neither module loads numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import Corpus
from .metrics import mcnemar, prf, rouge_n, wilcoxon_signed_rank
from .summarize import SummaryResult, summary_words

if TYPE_CHECKING:
    from .cli import SentenceLabel

SentenceLabels = Mapping[tuple[str, int], "SentenceLabel"]
ROUGE_STATS = ("recall", "precision", "f1")


def classification_section(gold: SentenceLabels, preds: SentenceLabels) -> dict:
    """Detector and all-positive baseline scores over the gold-labeled sentences, each of
    which `preds` holds, and McNemar's test between the two."""
    keys = sorted(gold)
    truth = [gold[k].label for k in keys]
    model_pred = [preds[k].label for k in keys]
    baseline_pred = [1] * len(keys)

    def report(pred):
        tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
        tn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 0)
        return prf(tp, fp, fn, tn)

    return {
        "n": len(keys),
        "model": report(model_pred),
        "baseline_all_positive": report(baseline_pred),
        "mcnemar_model_vs_baseline": mcnemar(model_pred, baseline_pred, truth),
    }


def rouge_section(corpus: Corpus, summaries: Mapping[str, Sequence[SummaryResult]], orders) -> dict:
    """Per-document and mean ROUGE-n of each system's summaries against their
    documents' reference summaries, for each n in `orders`, and the summaries'
    mean word_total (`mean_words`).

    `summaries` maps each system to its summaries of documents that have a
    reference summary; the report keeps its system order.
    """
    rouge: dict = {}
    for system, results in summaries.items():
        per_doc = {}
        for result in results:
            doc = corpus.document(result.doc_id)
            reference = [sent.words for sent in doc.summary]
            candidate = summary_words(doc, result)
            per_doc[result.doc_id] = {f"r{n}": rouge_n(reference, candidate, n) for n in orders}
        means = {
            f"r{n}": {
                stat: math.fsum(row[f"r{n}"][stat] for row in per_doc.values()) / len(per_doc)
                for stat in ROUGE_STATS
            }
            for n in orders
        }
        rouge[system] = {
            "n_docs": len(per_doc),
            "mean": means,
            "mean_words": math.fsum(result.word_total for result in results) / len(per_doc),
            "per_doc": per_doc,
        }
    return rouge


def wilcoxon_section(rouge: dict, orders) -> list[dict]:
    """A paired Wilcoxon signed-rank test on per-document ROUGE-n recall for
    each pair of systems in `rouge` and each n in `orders`."""
    tests = []
    for sys_a, sys_b in itertools.combinations(rouge, 2):
        shared = sorted(
            set(rouge[sys_a]["per_doc"]) & set(rouge[sys_b]["per_doc"])
        )
        if not shared:
            continue
        for n in orders:
            key = f"r{n}"
            xs = [rouge[sys_a]["per_doc"][d][key]["recall"] for d in shared]
            ys = [rouge[sys_b]["per_doc"][d][key]["recall"] for d in shared]
            tests.append(
                {"system_a": sys_a, "system_b": sys_b, "metric": f"{key}-recall", "n": len(shared)}
                | wilcoxon_signed_rank(xs, ys)
            )
    return tests


def render_table(report: dict, rouge_orders) -> str:
    """report.txt: the detector, ROUGE recall and Wilcoxon sections of `report` as text."""
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
        header = f"{'system':<14}" + "".join(f"{'R-' + str(n):>8}" for n in rouge_orders) + f"{'words':>8}"
        lines.append("Summarization (ROUGE recall, %)")
        lines.append(header)
        for system, row in report["rouge"].items():
            cells = "".join(
                f"{100.0 * row['mean'][f'r{n}']['recall']:>8.1f}" for n in rouge_orders
            )
            lines.append(f"{system:<14}{cells}{row['mean_words']:>8.1f}")
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
