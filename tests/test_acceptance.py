"""Acceptance suite: one test per criterion, each printing a PASS line.

Paper-scale corpus numbers are not reproducible without licensed data, so
these checks are property-based with formula anchors: planted-parameter
recovery on synthetic clusters, independent brute-force oracles for the
metrics and tests, and byte-level determinism of the full pipeline.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from infosum.cli import EXIT_OK, main
from infosum.corpus import build_document, make_sentence
from infosum.metrics import f1_score, mcnemar, prf, rouge_n, spearman, wilcoxon_signed_rank
from infosum.pu import (
    hinge_loss,
    load_model,
    logistic_loss,
    save_model,
    train_pu_model,
    unlabeled_weight,
)
from infosum.summarize import (
    WHOLE_SENTENCE,
    SummaryBudget,
    info_filter,
    info_rank,
    lead_words,
    random_rank,
    summaries_to_jsonl,
)
from infosum.synth import SynthParams, gaussian_pu_dataset, write_synth_bundle

# The recovery criteria pin their own recorded L2 penalty (strong L2
# shrinks probabilities toward the base rate); training runs the fixed
# schedule of `infosum.pu`.
ACCEPT_L2 = 1e-4
SEEDS = range(5)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _f1(preds: np.ndarray, truth: np.ndarray) -> float:
    tp = int(np.sum((preds == 1) & (truth == 1)))
    fp = int(np.sum((preds == 1) & (truth == 0)))
    fn = int(np.sum((preds == 0) & (truth == 1)))
    tn = int(np.sum((preds == 0) & (truth == 0)))
    return prf(tp, fp, fn, tn).f1


def test_criterion_1_estimator_recovery():
    start = time.time()
    errors = []
    for seed in SEEDS:
        data = gaussian_pu_dataset(seed=seed)
        model = train_pu_model(
            data.X_train, data.o, data.layout, ACCEPT_L2, ACCEPT_L2, seed=seed
        )
        errors.append(abs(model.e - 0.7))
    elapsed = time.time() - start
    _report(
        "criterion-1 estimator recovery |e - 0.7| <= 0.1 over 5 seeds",
        max(errors) <= 0.1 and elapsed < 30.0,
        f"max|e-c|={max(errors):.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_pu_gain():
    start = time.time()
    gains = []
    for seed in SEEDS:
        data = gaussian_pu_dataset(seed=seed)
        model = train_pu_model(
            data.X_train, data.o, data.layout, ACCEPT_L2, ACCEPT_L2, seed=seed
        )
        X = data.X_test
        naive = (model.stage1.predict_proba(X) >= 0.5).astype(int)
        two_stage = (np.asarray(model.prob_from_margin(model.margins(X))) >= 0.5).astype(int)
        gains.append(_f1(two_stage, data.test_y) - _f1(naive, data.test_y))
    elapsed = time.time() - start
    median_gain = float(np.median(gains))
    _report(
        "criterion-2 two-stage F1 gain >= 0.02 (5-seed median)",
        median_gain >= 0.02 and elapsed < 60.0,
        f"median gain={median_gain:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_formula_anchors():
    nyt_f1 = f1_score(0.582, 0.846)
    baseline = prf(tp=451, fp=549, fn=0, tn=0)
    ok = abs(nyt_f1 - 0.689) <= 1e-3 and abs(baseline.f1 - 0.621) <= 1e-3
    _report(
        "criterion-3 formula anchors (0.582/0.846 -> 0.689; 451/549 all-positive -> 0.621)",
        ok,
        f"nyt_f1={nyt_f1:.4f}, baseline_f1={baseline.f1:.4f}",
    )


def test_criterion_4_unlabeled_weight_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        lr_x = float(rng.uniform(1e-9, 1 - 1e-9))
        e = float(rng.uniform(1e-9, 1 - 1e-9))
        expected = min(1.0, (lr_x * (1.0 - e)) / (e * (1.0 - lr_x)))
        worst = max(worst, abs(unlabeled_weight(lr_x, e) - expected))
    exact_at_e = all(unlabeled_weight(v, v) == 1.0 for v in rng.uniform(0.01, 0.99, 50))
    _report(
        "criterion-4 unlabeled weight equals clamped Elkan ratio (1e-12) and 1 at lr=e",
        worst <= 1e-12 and exact_at_e,
        f"worst |diff|={worst:.2e}",
    )


def _grad_rel_err(analytic, numeric):
    flat_a = np.append(analytic[0], analytic[1])
    flat_n = np.append(numeric[0], numeric[1])
    denom = max(np.linalg.norm(flat_a), np.linalg.norm(flat_n), 1e-12)
    return float(np.linalg.norm(flat_a - flat_n) / denom)


def _central_diff(fun, w, b, h=1e-5):
    grad_w = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad_w[i] = (fun(up, b) - fun(down, b)) / (2 * h)
    grad_b = (fun(w, b + h) - fun(w, b - h)) / (2 * h)
    return grad_w, grad_b


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    while checked < 20:
        n, d = int(rng.integers(3, 12)), int(rng.integers(1, 11))
        X = rng.normal(size=(n, d))
        sw = rng.uniform(0.1, 1.0, size=n)
        l2 = float(rng.uniform(0.0, 1.0))
        w = rng.normal(size=d)
        b = float(rng.normal())
        y01 = rng.integers(0, 2, size=n).astype(float)
        _, gw, gb = logistic_loss(w, b, X, y01, sw, l2)
        num = _central_diff(lambda w_, b_: logistic_loss(w_, b_, X, y01, sw, l2)[0], w, b)
        worst = max(worst, _grad_rel_err((gw, gb), num))

        ypm = 2.0 * y01 - 1.0
        if np.min(np.abs(1.0 - ypm * (X @ w + b))) < 1e-3:
            continue  # hinge kink too close for central differences
        _, gw, gb = hinge_loss(w, b, X, ypm, sw, l2)
        num = _central_diff(lambda w_, b_: hinge_loss(w_, b_, X, ypm, sw, l2)[0], w, b)
        worst = max(worst, _grad_rel_err((gw, gb), num))
        checked += 1
    _report(
        "criterion-5 stage-1/stage-2 gradients match central differences (1e-5)",
        worst < 1e-5,
        f"worst rel err={worst:.2e}",
    )


def _brute_force_rouge(reference, candidate, n):
    def grams(sentences):
        out = []
        for s in sentences:
            words = [t.lower for t in s.tokens if t.is_word]
            out.extend(tuple(words[i : i + n]) for i in range(len(words) - n + 1))
        return out

    ref, cand = grams(reference), grams(candidate)
    overlap = sum(min(ref.count(g), cand.count(g)) for g in set(ref))
    recall = overlap / len(ref) if ref else 0.0
    precision = overlap / len(cand) if cand else 0.0
    return overlap, recall, precision


def test_criterion_6_rouge_oracle():
    rng = np.random.default_rng(6)
    vocab = [f"w{i}" for i in range(10)]
    mismatches = 0
    for _ in range(50):
        ref = [make_sentence(0, " ".join(rng.choice(vocab, size=int(rng.integers(1, 13)))))]
        cand = [make_sentence(0, " ".join(rng.choice(vocab, size=int(rng.integers(1, 13)))))]
        for n in (1, 2):
            got = rouge_n(ref, cand, n)
            overlap, recall, precision = _brute_force_rouge(ref, cand, n)
            if (got.overlap_count, got.recall, got.precision) != (overlap, recall, precision):
                mismatches += 1
    _report(
        "criterion-6 ROUGE matches brute-force n-gram oracle exactly (n in {1,2})",
        mismatches == 0,
        f"{mismatches} mismatches over 50 pairs",
    )


def test_criterion_7_statistics_oracles():
    # exact Wilcoxon by full sign enumeration
    diffs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    ranks = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    hits = 0
    for signs in itertools.product((1, -1), repeat=5):
        w_pos = sum(r for s, r in zip(signs, ranks) if s > 0)
        if min(w_pos, ranks.sum() - w_pos) <= 0:
            hits += 1
    enumerated = hits / 2**5
    got_w = wilcoxon_signed_rank(diffs.tolist(), [0.0] * 5, mode="exact")
    wilcoxon_ok = got_w.p_value == pytest.approx(0.0625, abs=1e-15) and enumerated == 0.0625

    truth = [1] * 12 + [0] * 8
    pred_a = [1] * 10 + [0] * 2 + [0] * 8
    pred_b = [0] * 10 + [1] * 2 + [0] * 8
    got_m = mcnemar(pred_a, pred_b, truth)
    tail, _ = integrate.quad(
        lambda t: math.exp(-t / 2.0) / math.sqrt(2.0 * math.pi * t), 49 / 12, np.inf
    )
    mcnemar_ok = abs(got_m.statistic - 49 / 12) <= 1e-9 and abs(got_m.p_value - tail) <= 1e-6

    rho = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    spearman_ok = abs(rho - 0.8) <= 1e-12

    _report(
        "criterion-7 statistics oracles (Wilcoxon 1/16, McNemar 49/12, Spearman 0.8)",
        wilcoxon_ok and mcnemar_ok and spearman_ok,
        f"wilcoxon p={got_w.p_value}, mcnemar stat={got_m.statistic:.6f} "
        f"p={got_m.p_value:.6f}, spearman={rho}",
    )


def _random_documents(n, seed):
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n):
        n_sents = int(rng.integers(1, 12))
        texts = [
            " ".join(f"t{d}s{i}w{j}" for j in range(int(rng.integers(3, 40)))) + " ."
            for i in range(n_sents)
        ]
        docs.append(build_document(f"doc{d}", "", texts))
    return docs


def test_criterion_8_summarizer_invariants():
    rng = np.random.default_rng(8)
    docs = _random_documents(100, seed=88)
    budget_ok = lead_equiv_ok = monotone_ok = True
    for doc in docs:
        budget = SummaryBudget(int(rng.integers(5, 120)))
        probs = [float(rng.uniform(0.05, 0.95)) for _ in doc.sentences]
        results = [
            lead_words(doc, budget),
            info_rank(doc, probs, budget),
            info_filter(doc, probs, budget),
            random_rank(doc, budget, seed=doc.doc_id.encode().hex().__hash__() % 2**31),
        ]
        budget_ok &= all(r.word_total <= budget.max_words for r in results)

        filt = info_filter(doc, [0.99] * len(doc.sentences), budget)
        lead_whole = lead_words(doc, SummaryBudget(budget.max_words, WHOLE_SENTENCE))
        lead_equiv_ok &= filt.text == lead_whole.text and filt.selected == lead_whole.selected

        squashed = [v / (1.0 + v) for v in probs]
        monotone_ok &= (
            info_rank(doc, probs, budget).selected
            == info_rank(doc, squashed, budget).selected
        )

    fixed = [random_rank(doc, SummaryBudget(40), seed=9) for doc in docs]
    again = [random_rank(doc, SummaryBudget(40), seed=9) for doc in docs]
    bytes_ok = summaries_to_jsonl(fixed).encode() == summaries_to_jsonl(again).encode()

    _report(
        "criterion-8 summarizer invariants on 100 random documents",
        budget_ok and lead_equiv_ok and monotone_ok and bytes_ok,
        f"budget={budget_ok} lead-equivalence={lead_equiv_ok} "
        f"monotone={monotone_ok} bytes={bytes_ok}",
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.time()
    bundle_dir = tmp_path / "bundle"
    params = SynthParams(n_train_docs=60, n_test_docs=24, sentences_per_doc=10, seed=9)
    paths = write_synth_bundle(bundle_dir, params)
    cfg = paths["config"]
    run_dir = Path(json.loads(Path(cfg).read_text())["out_dir"])

    def run_all():
        for command in ("label", "train", "predict", "summarize", "evaluate"):
            assert main([command, "-c", cfg]) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}

    first = run_all()
    second = run_all()
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )

    model = load_model(run_dir / "model.json")
    reload_path = tmp_path / "reload.json"
    save_model(model, reload_path)
    reloaded = load_model(reload_path)
    rng = np.random.default_rng(9)
    probes = rng.normal(size=(100, model.layout.total_dim))
    bit_exact = np.array_equal(
        model.prob_from_margin(model.margins(probes)),
        reloaded.prob_from_margin(reloaded.margins(probes)),
    )
    elapsed = time.time() - start
    _report(
        "criterion-9 pipeline reruns byte-identical; save/load bit-exact on 100 probes",
        identical and bit_exact and elapsed < 150.0,
        f"identical={identical} bit_exact={bit_exact} {elapsed:.1f}s",
    )
