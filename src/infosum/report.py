"""The evaluation report: detector scores, ROUGE per system, paired tests, text table.

`infosum evaluate` reads and checks its inputs, then builds report.json
from these sections and report.txt with `render_table`. Only evaluate
imports this module, so no other command loads `metrics` or compiles it.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .metrics import mcnemar, prf, rouge_n, wilcoxon_signed_rank
from .summarize import SummaryResult, summary_sentences

SentenceLabels = Mapping[tuple[str, int], tuple[int, float | None]]


def classification_section(gold: SentenceLabels, preds: SentenceLabels) -> dict:
    """Detector and all-positive baseline scores over the sentences both files label,
    and McNemar's test between the two."""
    keys = sorted(k for k in gold if k in preds)
    truth = [gold[k][0] for k in keys]
    model_pred = [preds[k][0] for k in keys]
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


def rouge_section(corpus: Corpus, summaries: Mapping[str, Sequence[SummaryResult]], orders) -> dict:
    """Per-document and mean ROUGE-n of each system's summaries against their
    documents' reference summaries, for each n in `orders`.

    `summaries` maps each system to its summaries of documents that have a
    reference summary; the report keeps its system order.
    """
    rouge: dict = {}
    for system, results in summaries.items():
        per_doc: dict[str, dict] = {}
        for result in results:
            doc = corpus.document(result.doc_id)
            cand = summary_sentences(doc, result)
            scores = {}
            for n in orders:
                sc = rouge_n(list(doc.summary), cand, n)
                scores[f"r{n}"] = {
                    "recall": sc.recall,
                    "precision": sc.precision,
                    "f1": sc.f1,
                }
            per_doc[result.doc_id] = scores
        means = {}
        for n in orders:
            key = f"r{n}"
            doc_ids = sorted(per_doc)
            means[key] = {
                stat: float(np.mean([per_doc[d][key][stat] for d in doc_ids]))
                for stat in ("recall", "precision", "f1")
            }
        rouge[system] = {"n_docs": len(per_doc), "mean": means, "per_doc": per_doc}
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
