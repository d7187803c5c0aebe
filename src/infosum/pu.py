"""Two-stage learning from positive and unlabeled sentences.

Training data is a feature matrix X (one row per sentence) and a 0/1 vector
o marking the labeled positives. Every fit here reads its rows in one form,
(pos, neg): row i is a positive of weight pos[i] and a negative of weight
neg[i] at once. Stage 1 trains a logistic regression on the rows (o, 1 - o),
unlabeled treated as negative (`logistic_loss`), and turns it into a
label-frequency estimate e = mean LR(x) over the labeled positives. Stage 2
weights a labeled positive 1 and 0, and an unlabeled row w and 1 - w, where

    w = clamp01( (LR(x) / e) / ((1 - LR(x)) / (1 - e)) )

is the posterior that the unlabeled example is truly positive. This is
Elkan & Noto's weighting, which counts an unlabeled example once as a
positive of weight w and once as a negative of weight 1 - w; here both
counts sit on the one row. Stage 2 trains a linear SVM on the two-sided
weighted, smoothed hinge loss of those rows (`hinge_loss`), and a sigmoid
fitted on the held-out rows' margins and weights (`calibrate`, Platt's
logistic regression of the rows on their margins) converts SVM scores into
probabilities.

The learner sees only (X, o): a `PUModel` holds no feature layout. Each
stage is a `Linear` score, X @ weights + bias (`decision`, and
`predict_proba` its sigmoid), and the calibration is a `Calib`.
`train_pu_model` returns the model, and stage 1 beside it. Of the model
predict reads the SVM and its calibration; e and the split's seed are the
record of the training, checked when model.json is loaded.
Those records, model.json's reader and writer and predict's scorer live in
`model`, which imports no numpy; this module re-exports them. The CLI
passes X as a `sparse.CsrMatrix` of one sparse row per sentence; the
functions here use only `len`, `.shape`, `X[rows]`, `X @ w` and `X.T @ r`,
so a dense array works as well.
Stage 1 scores X once: e and the unlabeled weights both read that one
vector of probabilities. Stage 2 reads only its fit rows: `train_pu_model`
copies them out of X once, so no loss evaluation multiplies a row held out
for calibration, and each multiplies each fit row once.

Predict scores with train's product, in pure Python: `model.Linear.margin`
adds a sentence's products in the order `np.add.reduceat` adds its row of
`decision`'s CSR product, so each margin has the bits train computes for
that row, and `Calib.prob` takes the sigmoid with `math.exp`. With X a
CsrMatrix, no step that writes model.json calls BLAS: the CSR products are
numpy gathers and `reduceat`, and every other sum, the loss values and the
solver's dot products included, is a numpy reduction (`_dot`), so
model.json's bytes do not depend on the OpenBLAS kernel the CPU selects.
They still depend on numpy's float64 `exp`, which takes an AVX-512 path on
a CPU that has one and a scalar path elsewhere. Predictions depend on the
host only through the model and libm's `exp`.

Each fit's objective is its loss plus 0.5 * l2 * |w|^2, l2 the whole
penalty, and `_minimize` solves it by L-BFGS to a stated gradient tolerance,
logging its iterations, loss evaluations and whether it met the tolerance;
stage 2's hinge is smoothed so that it has a gradient everywhere. Both
stages need l2 > 0; the calibration, whose smoothed targets give every row
weight on both sides, has a minimum at l2 = 0 and takes no penalty. Exact
solves at the l2 of 1e-4 that a fixed descent schedule used before gave a
worse detector (on bow-align-hivocab, Newton on stage 1 moved F1 from 0.969
to 0.891), because stopping gradient descent early is itself a ridge penalty
of about 1 / (sum of the learning rates), 0.013 for that schedule (Yao,
Rosasco & Caponnetto, Constructive Approximation 2007). Both stages take
one l2, the run config's `hyper.l2`, whose default of 1e-2 stands in for
that term.

Objectives normalize the data term by the total weight, so duplicating
the dataset or rescaling all weights leaves the optimum unchanged.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from typing import Sequence

import numpy as np

# The model record and predict's scorer, re-exported: the trainer's callers and
# perfbench/tracer.py read them from here.
from .model import (
    PROB_EPS,
    Calib,
    Linear,
    ModelFormatError,
    PUModel,
    SentenceClassifier,
    load_model,
    save_model,
)
from .rng import CALIBRATION_SPLIT, choice, stream
from .sparse import CsrMatrix

logger = logging.getLogger(__name__)

# `_minimize`, the solver of both stages and the calibration: its gradient
# tolerance relative to the gradient at zero, its iteration cap, the
# correction pairs it keeps, its Armijo fraction and the step cuts it tries
# per iteration; and the half-width of the quadratic zone of stage 2's
# smoothed hinge (`hinge_loss`).
GRAD_TOL = 1e-8
MAX_ITER = 1000
MEMORY = 10
ARMIJO = 1e-4
MAX_BACKTRACKS = 40
HINGE_H = 0.5


class DegenerateTrainingSetError(ValueError):
    """Training or calibration data carries only one effective class."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), as 1 / (1 + ez) for z >= 0 and ez / (1 + ez) below.

    ez = exp(-|z|) never overflows; it is taken as exp(min(z, -z)), so a nan
    keeps its sign and every value has the bits of the two-branch form.
    """
    ez = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def decision(linear: Linear, X: np.ndarray) -> np.ndarray:
    """X @ weights + bias: stage 1's logits or the SVM's margins of every row of X."""
    return X @ np.array(linear.weights) + linear.bias


def predict_proba(linear: Linear, X: np.ndarray) -> np.ndarray:
    """The logistic probability of `decision`, clipped into [PROB_EPS, 1 - PROB_EPS]."""
    return np.clip(_sigmoid(decision(linear, X)), PROB_EPS, 1.0 - PROB_EPS)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as a numpy reduction: a 1-d `a @ b` calls BLAS, whose kernel varies by CPU."""
    return float(np.add.reduce(a * b))


def logistic_loss(
    w: np.ndarray, b: float, X: np.ndarray, pos: np.ndarray, neg: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Two-sided weighted logistic loss with an L2 penalty on w (not b).

    Row i, with logit z_i = X[i] @ w + b, is a positive of weight pos[i] and
    a negative of weight neg[i] at once:

        sum_i pos[i] * log(1 + exp(-z_i)) + neg[i] * log(1 + exp(z_i)),

    divided by the total weight. Returns (loss, grad_w, grad_b). Row i's
    gradient term is ((pos[i] + neg[i]) * sigmoid(z_i) - pos[i]) / total; for
    0/1 labels y given as (y, 1 - y), it rounds as (sigmoid(z_i) - y) / n does.
    """
    total = float(pos.sum()) + float(neg.sum())
    z = X @ w
    z += b
    data = _dot(pos, np.logaddexp(0.0, -z)) + _dot(neg, np.logaddexp(0.0, z))
    loss = data / total + 0.5 * l2 * _dot(w, w)
    resid = _sigmoid(z)
    resid *= pos + neg
    resid -= pos
    resid /= total
    grad_w = X.T @ resid
    grad_w += l2 * w
    return loss, grad_w, float(resid.sum())


def _smoothed_hinge(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H(t) and H'(t) of `hinge_loss`; (t + h)^2 / (4h) is h * H'(t)^2 where |t| < h."""
    slope = np.clip((t + HINGE_H) / (2.0 * HINGE_H), 0.0, 1.0)
    return np.where(t >= HINGE_H, t, HINGE_H * slope * slope), slope


def hinge_loss(
    w: np.ndarray, b: float, X: np.ndarray, pos: np.ndarray, neg: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Two-sided weighted smoothed hinge loss with an L2 penalty on w (not b).

    Row i, with margin m_i = X[i] @ w + b, is a positive of weight pos[i] and
    a negative of weight neg[i] at once:

        sum_i pos[i] * H(1 - m_i) + neg[i] * H(1 + m_i),

    divided by the total weight. H is the hinge max(0, t) made quadratic
    within h = HINGE_H of its kink, in the line of Chapelle (Neural
    Computation 2007): H(t) = 0 for t <= -h, (t + h)^2 / (4h) for -h < t < h
    and t for t >= h. H is C1, so the loss has a gradient everywhere. Returns
    (loss, grad_w, grad_b).
    """
    total = float(pos.sum()) + float(neg.sum())
    margins = X @ w
    margins += b
    h_pos, d_pos = _smoothed_hinge(1.0 - margins)
    h_neg, d_neg = _smoothed_hinge(1.0 + margins)
    loss = (_dot(pos, h_pos) + _dot(neg, h_neg)) / total + 0.5 * l2 * _dot(w, w)
    coef = neg * d_neg
    coef -= pos * d_pos
    coef /= total
    grad_w = X.T @ coef
    grad_w += l2 * w
    return loss, grad_w, float(coef.sum())


def _require_both_sides(pos: np.ndarray, neg: np.ndarray, what: str) -> None:
    """A DegenerateTrainingSetError unless the rows carry weight as a positive and as a
    negative; an empty set carries neither."""
    if not (pos.sum() > 0.0 and neg.sum() > 0.0):
        raise DegenerateTrainingSetError(
            f"{what} needs weight on both sides, not {pos.sum()} and {neg.sum()} over {len(pos)} rows"
        )


def _minimize(loss, X, pos, neg, l2: float, tag: str) -> tuple[np.ndarray, float]:
    """(w, b) minimizing `loss(w, b, X, pos, neg, l2)`, by L-BFGS from zero.

    pos and neg are each row's weight as a positive and as a negative; a set
    of rows without weight on both sides is rejected. So is an l2 that is not
    finite and >= 0, and an l2 of 0 unless each row carries weight on both
    sides or on neither: a one-sided row's term keeps falling as its score
    moves its way, so without a penalty the loss may have no minimum, while a
    two-sided row's term grows in both directions. Each iteration takes the
    two-loop direction of the last MEMORY steps (Nocedal, Math. Comp. 1980)
    and backtracks from a step of 1, to the minimum of a quadratic fit kept
    within [0.1, 0.5] of the last try, until the loss falls by ARMIJO of its
    slope, less 1e-13 of the loss, so that a rise of rounding size rejects no
    step. It stops when the sup-norm of (grad_w, grad_b) is GRAD_TOL of its
    value at zero or less; it stops short of that, and logs a WARNING, after
    MAX_ITER iterations or when no step lowers the loss.
    """
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    _require_both_sides(pos, neg, tag)
    if not (math.isfinite(l2) and (l2 > 0.0 or (l2 == 0.0 and np.all((pos > 0.0) == (neg > 0.0))))):
        raise ValueError(f"l2 must be finite and > 0, got {l2} (0 only when each weighted row is two-sided)")

    def at(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_w, grad_b = loss(x[:-1], float(x[-1]), X, pos, neg, l2)
        return value, np.append(grad_w, grad_b)

    x = np.zeros(X.shape[1] + 1)
    value, g = at(x)
    evals, iterations = 1, 0
    gnorm = float(np.abs(g).max())
    tol = GRAD_TOL * gnorm
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)  # (s, y, 1 / s.y)
    scale = 1.0 / gnorm if gnorm else 0.0  # s.y / y.y of the newest pair; at first, a step of sup-norm 1
    while gnorm > tol and iterations < MAX_ITER:
        p = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * _dot(s, p))
            p -= alphas[-1] * y
        p *= scale
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            p += (alpha - rho * _dot(y, p)) * s
        slope = _dot(g, p)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            cand = x + step * p
            cand_value, cand_g = at(cand)
            evals += 1
            if cand_value <= value + ARMIJO * step * slope + 1e-13 * abs(value):
                break
            curv = cand_value - value - step * slope  # > 0 when the test fails on a descent direction
            step = min(0.5 * step, max(0.1 * step, -0.5 * slope * step * step / curv)) if curv > 0 else 0.5 * step
        else:
            break
        s, y = cand - x, cand_g - g
        sy = _dot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            scale = sy / _dot(y, y)
        x, value, g = cand, cand_value, cand_g
        gnorm = float(np.abs(g).max())
        iterations += 1
        logger.debug("%s iteration %d loss %.6f, gradient sup-norm %.3e", tag, iterations, value, gnorm)
    met = gnorm <= tol
    logger.log(logging.INFO if met else logging.WARNING,
               "%s %s: %d iterations (cap %d), %d loss evaluations, loss %.6f, gradient sup-norm %.3e "
               "(tolerance %.3e)", tag, "converged" if met else "did not meet its gradient tolerance",
               iterations, MAX_ITER, evals, value, gnorm, tol)
    return x[:-1], float(x[-1])


def train_stage1(X: np.ndarray, o: np.ndarray, l2: float) -> Linear:
    """Logistic regression on o labels, treating unlabeled rows as negative: the
    rows (o, 1 - o) of `logistic_loss`."""
    o = np.asarray(o, dtype=float)
    w, b = _minimize(logistic_loss, X, o, 1.0 - o, l2, "stage1")
    return Linear(tuple(w.tolist()), b)


def estimate_e(p_pos: np.ndarray) -> float:
    """Label frequency p(o=1 | y=1): the mean of the positives' stage-1 probabilities."""
    if len(p_pos) == 0:
        raise ValueError("cannot estimate e from an empty positive set")
    return float(np.mean(p_pos))


def unlabeled_weight(lr_x: np.ndarray | float, e: float) -> np.ndarray:
    """Posterior weight p(y=1 | o=0) per unlabeled example, clamped to [0, 1].

    At e = 1 the clamped ratio's continuous limit is lr_x, which is returned
    directly to avoid the division by zero.
    """
    lr = np.asarray(lr_x, dtype=float)
    if not np.all((lr >= 0.0) & (lr <= 1.0)):
        raise ValueError(f"lr_x must be in [0, 1], got {lr_x}")
    if not 0.0 < e <= 1.0:
        raise ValueError(f"e must be in (0, 1], got {e}")
    if e == 1.0:
        return lr.copy()
    with np.errstate(divide="ignore"):
        raw = (lr * (1.0 - e)) / (e * (1.0 - lr))
    return np.where(lr == 1.0, 1.0, np.clip(raw, 0.0, 1.0))


def build_relabeled(p1: np.ndarray, o: np.ndarray, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's weight as a positive and its weight as a negative, (pos, neg).

    p1 holds each row's stage-1 probability. A labeled positive gets 1 and 0;
    an unlabeled row gets w = `unlabeled_weight(p1, e)` and 1 - w.
    """
    pos = np.where(np.asarray(o) == 1, 1.0, unlabeled_weight(p1, e))
    return pos, 1.0 - pos


def train_stage2(X: np.ndarray, pos: np.ndarray, neg: np.ndarray, l2: float) -> Linear:
    """Linear SVM on rows weighted as positives by `pos` and as negatives by
    `neg`: the minimum of the smoothed `hinge_loss`."""
    w, b = _minimize(hinge_loss, X, pos, neg, l2, "stage2")
    return Linear(tuple(w.tolist()), b)


def calibrate(margins: Sequence[float], pos: Sequence[float], neg: Sequence[float]) -> tuple[float, float]:
    """Fit p = 1 / (1 + exp(A*m + B)) on margins by weighted logistic regression.

    Row i, at margin m_i, is a positive of weight pos[i] and a negative of
    weight neg[i]. With n+ and n- the two weight totals, Platt's smoothed
    targets (Platt, "Probabilistic outputs for SVMs", 1999) move each row's
    weight t = pos * (n+ + 1)/(n+ + 2) + neg / (n- + 2) to the positive side
    and pos + neg - t to the negative side, so every weighted row carries
    both and perfectly separated margins still give a finite slope. The fit
    is the `logistic_loss` solve of those rows on the one-column matrix of
    the margins, with no penalty, and (A, B) is minus its (w, b).
    """
    m = np.asarray(margins, dtype=float)
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    if m.ndim != 1 or pos.shape != m.shape or neg.shape != m.shape:
        raise ValueError("margins, pos and neg must be equal-length 1-d sequences")
    _require_both_sides(pos, neg, "calibration")
    n_pos = float(pos.sum())
    n_neg = float(neg.sum())
    t = pos * ((n_pos + 1.0) / (n_pos + 2.0)) + neg / (n_neg + 2.0)
    M = CsrMatrix(np.arange(len(m) + 1), np.zeros(len(m), np.intp), m, 1)  # a dense column's product calls BLAS
    w, b = _minimize(logistic_loss, M, t, pos + neg - t, 0.0, "calibration")
    return -float(w[0]), -b


def calibration_split(n_rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(fit, calibration) row indices, each ascending.

    A seeded 20% of the n_rows rows, at least one, is held out for
    calibration: `rng.choice` of the rows, drawn from the (seed,
    CALIBRATION_SPLIT) stream.
    """
    n_cal = max(1, round(0.2 * n_rows))
    held = np.zeros(n_rows, dtype=bool)
    held[choice(stream(seed, CALIBRATION_SPLIT), n_rows, n_cal)] = True
    return np.flatnonzero(~held), np.flatnonzero(held)


def train_pu_model(X: CsrMatrix | np.ndarray, o: np.ndarray, l2: float, seed: int) -> tuple[PUModel, Linear]:
    """Full two-stage pipeline with a 20% held-out calibration split: the model
    and, beside it, stage 1, which nothing reads after training.

    X holds one feature row per example, o its 0/1 labels; both stages take
    the penalty l2, and `seed` draws the split. The SVM trains on
    80% of the rows, with their weights from `build_relabeled`, and the
    sigmoid is fitted on the margins of the rest (`calibration_split`). If
    the held-out rows lack weight on one side, calibration falls back to the
    margins of all rows.
    """
    if not isinstance(X, CsrMatrix):
        X = np.asarray(X, dtype=float)
    o = np.asarray(o)
    if not np.isin(o, (0, 1)).all():
        raise ValueError("o must hold only 0 and 1")
    stage1 = train_stage1(X, o, l2)
    p1 = predict_proba(stage1, X)
    e = estimate_e(p1[o == 1])
    pos, neg = build_relabeled(p1, o, e)
    logger.info(
        "stage1 trained on %d positives + %d unlabeled; e=%.6f",
        int(o.sum()),
        int(len(o) - o.sum()),
        e,
    )
    fit, cal = calibration_split(len(X), seed)
    svm = train_stage2(X[fit], pos[fit], neg[fit], l2)
    margins = decision(svm, X)
    try:
        calib = Calib(*calibrate(margins[cal], pos[cal], neg[cal]))
    except DegenerateTrainingSetError:
        logger.info("held-out calibration rows degenerate; calibrating on all rows")
        calib = Calib(*calibrate(margins, pos, neg))
    return PUModel(e=e, svm=svm, calib=calib, seed=seed), stage1
