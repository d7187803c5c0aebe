"""Two-stage learning from positive and unlabeled sentences.

Training data is a feature matrix X (one row per sentence) and a 0/1 vector
o marking the labeled positives. Stage 1 trains a logistic regression on o
(unlabeled treated as negative) and turns it into a label-frequency
estimate e = mean LR(x) over the labeled positives. Each unlabeled row then
enters the relabeled set twice, carrying complementary weights w and 1 - w,
where

    w = clamp01( (LR(x) / e) / ((1 - LR(x)) / (1 - e)) )

is the posterior that the unlabeled example is truly positive. The relabeled
set is kept as row indices into X with labels y and weights, never as a
copy of X. Stage 2 trains a weighted linear SVM on the relabeled data, and a
sigmoid fitted on held-out margins converts SVM scores into probabilities.

The learner sees only (X, o): a `PUModel` holds no feature layout, and
`save_model` writes it beside the `FeatureLayout` of X's columns. The CLI
passes X as a `sparse.CsrMatrix`; the functions here use only `len`,
`.shape`, `X[rows]`, `X @ w` and `X.T @ r`, so a dense array works as well.
Stage 1 scores X once: e and the unlabeled weights both read that one
vector of probabilities. Stage 2 reads only its fit rows: `train_pu_model`
copies the distinct source rows of the fit entries out of X once, so no
epoch multiplies a row held out for calibration. The relabeled entries are
a `sparse.SelectedRows` view of that copy, since each unlabeled row enters
twice: margins are `(X_fit @ w)[rows]`, and the gradient sums each entry's
coefficient into its source row before one `X_fit.T` product.

Both stages run one fixed schedule of full-batch (sub)gradient descent,
EPOCHS steps from zero at learning rate LR0 / (1 + t / LR_TAU); only each
stage's L2 penalty can be set. The schedule is part of the model: stopping
after a fixed budget regularizes it, and exact solvers of the same
objectives give a worse detector. On the benchmark bundles at seed 0,
Newton on stage 1 (l2 = 1e-4) moves e from 0.73 to 0.96 and detector F1
from 0.969 to 0.891 on bow-align-hivocab; pure-Python dual coordinate
descent for the hinge SVM had not converged after 10,000 epochs (97 s) on
paper-150; Newton on a squared hinge loses at least 3.5 % F1 on
bow-align-hivocab at every l2 in {1e-4, 1e-3, 1e-2, 1e-1}.

One epoch computes two products, X @ w and X.T @ r, and O(n) elementwise
work on the n margins, in place where it can be; a step changes w and b
exactly as the out-of-place formulas would. The loss value itself is
computed only on the epochs that `_gradient_descent` logs: the first, every
50th and the last at DEBUG, and the last, with its gradient norm, at INFO.

Objectives normalize the data term by total sample weight, so duplicating
the dataset or rescaling all weights leaves the optimization path unchanged.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .constants import L2
from .corpus import InputFormatError, Sentence, read_json
from .features import (
    FeatureExtractor,
    FeatureLayout,
    LayoutMismatchError,
    layout_from_json,
    layout_hash,
    layout_to_json,
)
from .sparse import CsrMatrix, SelectedRows

logger = logging.getLogger(__name__)

MODEL_VERSION = 1
PROB_EPS = 1e-12

# The fixed training schedule of both stages (see the module docstring);
# the default L2 penalty of each is `constants.L2`.
EPOCHS = 4000
LR0 = 0.08
LR_TAU = 400.0


class DegenerateTrainingSetError(ValueError):
    """Training or calibration data carries only one effective class."""


class ModelFormatError(InputFormatError):
    """Model file is corrupted, has a bad version, or fails its hash check."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), as 1 / (1 + ez) for z >= 0 and ez / (1 + ez) below.

    ez = exp(-|z|) never overflows; it is taken as exp(min(z, -z)), so a nan
    keeps its sign and every value has the bits of the two-branch form.
    """
    ez = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


@dataclass
class Stage1Model:
    weights: np.ndarray
    bias: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities, clipped into the open interval (0, 1)."""
        return np.clip(_sigmoid(self.decision(X)), PROB_EPS, 1.0 - PROB_EPS)


def logistic_loss(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    l2: float,
    value: bool = True,
) -> tuple[float | None, np.ndarray, float]:
    """Weight-normalized logistic loss with an L2 penalty on w (not b).

    Returns (loss, grad_w, grad_b); the loss is None unless `value`.
    """
    total = float(sample_weight.sum())
    z = X @ w
    z += b
    loss = None
    if value:
        per = np.logaddexp(0.0, z) - y * z
        loss = float(sample_weight @ per) / total + 0.5 * l2 * float(w @ w)
    resid = _sigmoid(z)
    resid -= y
    resid *= sample_weight
    resid /= total
    grad_w = X.T @ resid
    grad_w += l2 * w
    return loss, grad_w, float(resid.sum())


def hinge_loss(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y_pm: np.ndarray,
    sample_weight: np.ndarray,
    l2: float,
    value: bool = True,
) -> tuple[float | None, np.ndarray, float]:
    """Weight-normalized hinge loss with an L2 penalty; labels in {-1, +1}.

    Returns (loss, grad_w, grad_b); the loss is None unless `value`. The
    subgradient at the hinge point (margin exactly 1) is taken as 0.
    """
    total = float(sample_weight.sum())
    margins = X @ w
    margins += b
    margins *= y_pm
    loss = None
    if value:
        slack = np.maximum(0.0, 1.0 - margins)
        loss = float(sample_weight @ slack) / total + 0.5 * l2 * float(w @ w)
    coef = np.where(margins < 1.0, -y_pm, 0.0)
    coef *= sample_weight
    coef /= total
    grad_w = X.T @ coef
    grad_w += l2 * w
    return loss, grad_w, float(coef.sum())


def _gradient_descent(loss, X, y, sample_weight, l2: float, tag: str) -> tuple[np.ndarray, float]:
    """EPOCHS full-batch steps of `loss` from zero, learning rate LR0 / (1 + t / LR_TAU).

    The loss value is asked for only on the epochs that are logged (see the
    module docstring).
    """
    if not (math.isfinite(l2) and l2 >= 0.0):
        raise ValueError(f"l2 must be finite and >= 0, got {l2}")
    debug = logger.isEnabledFor(logging.DEBUG)
    w = np.zeros(X.shape[1])
    b = 0.0
    for t in range(EPOCHS):
        lr = LR0 / (1.0 + t / LR_TAU)
        last = t == EPOCHS - 1
        logged = last or (debug and (t == 0 or (t + 1) % 50 == 0))
        value, grad_w, grad_b = loss(w, b, X, y, sample_weight, l2, value=logged)
        if logged:
            logger.debug("%s epoch %d loss %.6f", tag, t + 1, value)
        if last:
            grad_norm = math.hypot(float(np.linalg.norm(grad_w)), grad_b)
            logger.info("%s final loss %.6f, gradient norm %.3e", tag, value, grad_norm)
        grad_w *= lr
        w -= grad_w
        b = b - lr * grad_b
    return w, b


def train_stage1(X: np.ndarray, o: np.ndarray, l2: float = L2) -> Stage1Model:
    """Logistic regression on o labels, treating unlabeled rows as negative."""
    if len(X) == 0:
        raise DegenerateTrainingSetError("empty training set")
    o = np.asarray(o, dtype=float)
    if o.min() == o.max():
        raise DegenerateTrainingSetError(
            "stage 1 needs at least one positive and one unlabeled example"
        )
    w, b = _gradient_descent(logistic_loss, X, o, np.ones(len(X)), l2, "stage1")
    return Stage1Model(weights=w, bias=b)


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


def build_relabeled(
    p1: np.ndarray, o: np.ndarray, e: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabeled set as (rows into X, labels y, weights), in row order.

    p1 holds each row's stage-1 probability. Positives keep weight 1; each
    unlabeled row becomes a y=1 entry with weight w followed by a y=0 entry
    with weight 1 - w.
    """
    unl = np.flatnonzero(np.asarray(o) == 0)
    w_unl = unlabeled_weight(p1[unl], e)
    copies = np.ones(len(o), dtype=np.intp)
    copies[unl] = 2
    rows = np.repeat(np.arange(len(o)), copies)
    first = np.cumsum(copies)[unl] - 2  # the y=1 entry of each unlabeled row
    y = np.ones(len(rows))
    y[first + 1] = 0.0
    w = np.ones(len(rows))
    w[first] = w_unl
    w[first + 1] = 1.0 - w_unl
    return rows, y, w


def train_stage2(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, l2: float = L2
) -> tuple[np.ndarray, float]:
    """Instance-weighted linear SVM on relabeled rows by subgradient descent."""
    if len(X) == 0:
        raise DegenerateTrainingSetError("empty relabeled set")
    y = np.asarray(y, dtype=float)
    sw = np.asarray(sample_weight, dtype=float)
    if sw[y == 1].sum() <= 0.0 or sw[y == 0].sum() <= 0.0:
        raise DegenerateTrainingSetError(
            "stage 2 needs positive total weight on both labels"
        )
    return _gradient_descent(hinge_loss, X, 2.0 * y - 1.0, sw, l2, "stage2")


def calibrate(
    margins: Sequence[float],
    labels: Sequence[int],
    sample_weight: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Fit p = 1 / (1 + exp(A*m + B)) on margins by weighted logistic regression.

    Uses smoothed targets (n+1)/(n+2) and 1/(n+2) so perfectly separated
    margins still give a finite slope; solved by damped Newton iterations.
    """
    m = np.asarray(margins, dtype=float)
    y = np.asarray(labels, dtype=float)
    if m.shape != y.shape or m.ndim != 1 or len(m) == 0:
        raise ValueError("margins and labels must be equal-length 1-d sequences")
    sw = np.ones_like(m) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    n_pos = float(sw[y == 1].sum())
    n_neg = float(sw[y == 0].sum())
    if n_pos <= 0.0 or n_neg <= 0.0:
        raise DegenerateTrainingSetError("calibration needs weight on both labels")
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def loss_at(a: float, b: float) -> float:
        u = -(a * m + b)
        per = np.logaddexp(0.0, u) - t * u
        return float(sw @ per)

    A = 0.0
    B = math.log((n_neg + 1.0) / (n_pos + 1.0))
    prev = loss_at(A, B)
    for _ in range(100):
        p = _sigmoid(-(A * m + B))
        d = sw * (p - t)
        grad_a = -float(d @ m)
        grad_b = -float(d.sum())
        h = sw * p * (1.0 - p)
        h_aa = float(h @ (m * m))
        h_ab = float(h @ m)
        h_bb = float(h.sum())
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 1e-24:
            break
        step_a = (h_bb * grad_a - h_ab * grad_b) / det
        step_b = (h_aa * grad_b - h_ab * grad_a) / det
        scale = 1.0
        for _ in range(30):
            cand = loss_at(A - scale * step_a, B - scale * step_b)
            if cand <= prev:
                break
            scale *= 0.5
        A -= scale * step_a
        B -= scale * step_b
        prev = loss_at(A, B)
        if max(abs(scale * step_a), abs(scale * step_b)) < 1e-13:
            break
    return A, B


@dataclass
class PUModel:
    stage1: Stage1Model
    e: float
    svm_weights: np.ndarray
    svm_bias: float
    calib: tuple[float, float]
    seed: int

    def margins(self, X: np.ndarray) -> np.ndarray:
        return X @ self.svm_weights + self.svm_bias

    def prob_from_margin(self, margin: np.ndarray | float) -> np.ndarray | float:
        a, b = self.calib
        return np.clip(_sigmoid(-(a * np.asarray(margin, dtype=float) + b)), PROB_EPS, 1.0 - PROB_EPS)


def calibration_split(rows: np.ndarray, n_rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(fit, calibration) indices into relabeled entries whose source rows are `rows`.

    A seeded 20% of the n_rows source rows is held out, and every entry of a
    held-out row goes to calibration, so both copies of an unlabeled row fall
    on the same side.
    """
    n_cal = max(1, round(0.2 * n_rows))
    held = np.zeros(n_rows, dtype=bool)
    held[np.random.default_rng(seed).permutation(n_rows)[:n_cal]] = True
    return np.flatnonzero(~held[rows]), np.flatnonzero(held[rows])


def train_pu_model(
    X: CsrMatrix | np.ndarray,
    o: np.ndarray,
    stage1_l2: float = L2,
    stage2_l2: float = L2,
    seed: int = 0,
) -> PUModel:
    """Full two-stage pipeline with a 20% held-out calibration split.

    X holds one feature row per example, o its 0/1 labels. The SVM trains on
    the relabeled entries of 80% of the rows and the sigmoid is fitted on
    those of the rest (`calibration_split`). If the held-out slice lacks one
    label, calibration falls back to margins over the full relabeled set.
    """
    if not isinstance(X, CsrMatrix):
        X = np.asarray(X, dtype=float)
    o = np.asarray(o)
    if not np.isin(o, (0, 1)).all():
        raise ValueError("o must hold only 0 and 1")
    stage1 = train_stage1(X, o, stage1_l2)
    p1 = stage1.predict_proba(X)
    e = estimate_e(p1[o == 1])
    rows, y, w = build_relabeled(p1, o, e)
    logger.info(
        "stage1 trained on %d positives + %d unlabeled; e=%.6f; relabeled size %d",
        int(o.sum()),
        int(len(o) - o.sum()),
        e,
        len(rows),
    )
    fit_idx, cal_idx = calibration_split(rows, len(X), seed)
    fit_rows, fit_entries = np.unique(rows[fit_idx], return_inverse=True)
    svm_w, svm_b = train_stage2(SelectedRows(X[fit_rows], fit_entries), y[fit_idx], w[fit_idx], stage2_l2)
    margins = X @ svm_w + svm_b
    try:
        A, B = calibrate(margins[rows[cal_idx]], y[cal_idx], w[cal_idx])
    except DegenerateTrainingSetError:
        logger.info("held-out calibration slice degenerate; calibrating on all relabeled data")
        A, B = calibrate(margins[rows], y, w)
    return PUModel(
        stage1=stage1,
        e=e,
        svm_weights=svm_w,
        svm_bias=svm_b,
        calib=(A, B),
        seed=seed,
    )


class SentenceClassifier:
    """Couples a trained model with an extractor on the layout `load_model` returned with it."""

    def __init__(self, model: PUModel, extractor: FeatureExtractor):
        if extractor.layout.total_dim != len(model.svm_weights):
            raise LayoutMismatchError(
                f"extractor gives {extractor.layout.total_dim} features, the model takes {len(model.svm_weights)}"
            )
        self.model = model
        self.extractor = extractor

    def prob(self, sentence: Sentence) -> float:
        x = self.extractor.extract(sentence)
        return float(self.model.prob_from_margin(self.model.margins(x)))


def model_to_json(model: PUModel, layout: FeatureLayout) -> dict:
    return {
        "version": MODEL_VERSION,
        "layout": layout_to_json(layout),
        "layout_hash": layout_hash(layout),
        "lexicon_hashes": {
            **{s.name: s.content_hash for s in layout.scored},
            **{c.name: c.content_hash for c in layout.category},
        },
        "stage1": {
            "weights": model.stage1.weights.tolist(),
            "bias": model.stage1.bias,
        },
        "e": model.e,
        "svm": {
            "weights": model.svm_weights.tolist(),
            "bias": model.svm_bias,
        },
        "calib": {"A": model.calib[0], "B": model.calib[1]},
        "seed": model.seed,
    }


def _finite(value, field: str):
    """`value` as a float, or as a float array if it is a list.

    NaN or an infinity anywhere in it is a ModelFormatError naming `field`.
    """
    out = np.array(value, dtype=float)
    if not np.isfinite(out).all():
        raise ModelFormatError(f"model field {field!r} holds NaN or an infinity; it must be finite")
    return out if out.ndim else float(out)


def model_from_json(obj: dict) -> tuple[PUModel, FeatureLayout]:
    try:
        if obj["version"] != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {obj['version']!r}")
        layout = layout_from_json(obj["layout"])
        if layout_hash(layout) != obj["layout_hash"]:
            raise ModelFormatError("layout hash mismatch: model file is inconsistent")
        stage1 = Stage1Model(
            weights=_finite(obj["stage1"]["weights"], "stage1.weights"),
            bias=_finite(obj["stage1"]["bias"], "stage1.bias"),
        )
        svm_w = _finite(obj["svm"]["weights"], "svm.weights")
        if len(stage1.weights) != layout.total_dim or len(svm_w) != layout.total_dim:
            raise ModelFormatError("weight vector length does not match the layout")
        return PUModel(
            stage1=stage1,
            e=_finite(obj["e"], "e"),
            svm_weights=svm_w,
            svm_bias=_finite(obj["svm"]["bias"], "svm.bias"),
            calib=(_finite(obj["calib"]["A"], "calib.A"), _finite(obj["calib"]["B"], "calib.B")),
            seed=int(obj["seed"]),
        ), layout
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def save_model(model: PUModel, layout: FeatureLayout, path: str | Path) -> None:
    """Versioned JSON of a model and its layout; shortest round-trip floats make reloads bit-exact."""
    payload = json.dumps(
        model_to_json(model, layout), indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False
    )
    Path(path).write_text(payload + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[PUModel, FeatureLayout]:
    """The model and the feature layout that `save_model` wrote to `path`."""
    return model_from_json(read_json(path, "model"))
