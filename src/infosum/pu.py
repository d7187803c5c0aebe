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

Both trainers are deterministic full-batch (sub)gradient descent with a
1/t learning-rate decay; objectives normalize the data term by total sample
weight, so duplicating the dataset or rescaling all weights leaves the
optimization path unchanged.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Sentence
from .features import (
    FeatureExtractor,
    FeatureLayout,
    LayoutMismatchError,
    layout_from_json,
    layout_hash,
    layout_to_json,
)

logger = logging.getLogger(__name__)

MODEL_VERSION = 1
PROB_EPS = 1e-12


class DegenerateTrainingSetError(ValueError):
    """Training or calibration data carries only one effective class."""


class ModelFormatError(ValueError):
    """Model file is corrupted, has a bad version, or fails its hash check."""


@dataclass(frozen=True)
class Hyper:
    """Gradient-descent settings.

    The learning rate at epoch t is lr0 / (1 + t / lr_tau): harmonic (1/t)
    decay with a time constant. The default lr_tau of 1 decays from the
    first epoch; raw count-valued features are ill-conditioned for plain
    gradient descent and want a larger lr_tau with more epochs.
    """

    l2: float = 1.0
    epochs: int = 200
    lr0: float = 0.1
    lr_tau: float = 1.0

    def __post_init__(self) -> None:
        if self.l2 < 0 or self.epochs < 1 or self.lr0 <= 0 or self.lr_tau <= 0:
            raise ValueError(f"invalid hyperparameters {self}")

    def to_json(self) -> dict:
        return {"l2": self.l2, "epochs": self.epochs, "lr0": self.lr0, "lr_tau": self.lr_tau}

    @classmethod
    def from_json(cls, obj: dict) -> "Hyper":
        return cls(
            l2=obj["l2"],
            epochs=obj["epochs"],
            lr0=obj["lr0"],
            lr_tau=obj.get("lr_tau", 1.0),
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class Stage1Model:
    weights: np.ndarray
    bias: float
    hyper: Hyper

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
) -> tuple[float, np.ndarray, float]:
    """Weight-normalized logistic loss with an L2 penalty on w (not b)."""
    total = float(sample_weight.sum())
    z = X @ w + b
    per = np.logaddexp(0.0, z) - y * z
    loss = float(sample_weight @ per) / total + 0.5 * l2 * float(w @ w)
    resid = sample_weight * (_sigmoid(z) - y) / total
    grad_w = X.T @ resid + l2 * w
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


def hinge_loss(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y_pm: np.ndarray,
    sample_weight: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Weight-normalized hinge loss with an L2 penalty; labels in {-1, +1}.

    The subgradient at the hinge point (margin exactly 1) is taken as 0.
    """
    total = float(sample_weight.sum())
    margins = y_pm * (X @ w + b)
    slack = np.maximum(0.0, 1.0 - margins)
    loss = float(sample_weight @ slack) / total + 0.5 * l2 * float(w @ w)
    coef = np.where(margins < 1.0, -y_pm, 0.0) * sample_weight / total
    grad_w = X.T @ coef + l2 * w
    grad_b = float(coef.sum())
    return loss, grad_w, grad_b


def _gradient_descent(loss_and_grad, dim: int, hyper: Hyper, tag: str) -> tuple[np.ndarray, float]:
    w = np.zeros(dim)
    b = 0.0
    for t in range(hyper.epochs):
        lr = hyper.lr0 / (1.0 + t / hyper.lr_tau)
        loss, grad_w, grad_b = loss_and_grad(w, b)
        w = w - lr * grad_w
        b = b - lr * grad_b
        if t == 0 or (t + 1) % 50 == 0 or t == hyper.epochs - 1:
            logger.debug("%s epoch %d loss %.6f", tag, t + 1, loss)
    return w, b


def train_stage1(X: np.ndarray, o: np.ndarray, hyper: Hyper = Hyper()) -> Stage1Model:
    """Logistic regression on o labels, treating unlabeled rows as negative."""
    if len(X) == 0:
        raise DegenerateTrainingSetError("empty training set")
    o = np.asarray(o, dtype=float)
    if o.min() == o.max():
        raise DegenerateTrainingSetError(
            "stage 1 needs at least one positive and one unlabeled example"
        )
    sw = np.ones(len(X))
    w, b = _gradient_descent(
        lambda w, b: logistic_loss(w, b, X, o, sw, hyper.l2), X.shape[1], hyper, "stage1"
    )
    return Stage1Model(weights=w, bias=b, hyper=hyper)


def estimate_e(model: Stage1Model, X_pos: np.ndarray) -> float:
    """Label frequency p(o=1 | y=1): mean stage-1 probability over the positive rows."""
    if len(X_pos) == 0:
        raise ValueError("cannot estimate e from an empty positive set")
    return float(model.predict_proba(X_pos).mean())


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
    X: np.ndarray, o: np.ndarray, model: Stage1Model, e: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabeled set as (rows into X, labels y, weights), in row order.

    Positives keep weight 1; each unlabeled row becomes a y=1 entry with
    weight w followed by a y=0 entry with weight 1 - w.
    """
    unl = np.flatnonzero(np.asarray(o) == 0)
    w_unl = unlabeled_weight(model.predict_proba(X)[unl], e)
    copies = np.ones(len(X), dtype=np.intp)
    copies[unl] = 2
    rows = np.repeat(np.arange(len(X)), copies)
    first = np.cumsum(copies)[unl] - 2  # the y=1 entry of each unlabeled row
    y = np.ones(len(rows))
    y[first + 1] = 0.0
    w = np.ones(len(rows))
    w[first] = w_unl
    w[first + 1] = 1.0 - w_unl
    return rows, y, w


def train_stage2(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, hyper: Hyper = Hyper()
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
    y_pm = 2.0 * y - 1.0
    return _gradient_descent(
        lambda w, b: hinge_loss(w, b, X, y_pm, sw, hyper.l2), X.shape[1], hyper, "stage2"
    )


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
    layout: FeatureLayout
    layout_hash: str
    stage1: Stage1Model
    e: float
    svm_weights: np.ndarray
    svm_bias: float
    calib: tuple[float, float]
    stage2_hyper: Hyper
    seed: int

    def margins(self, X: np.ndarray) -> np.ndarray:
        return X @ self.svm_weights + self.svm_bias

    def prob_from_margin(self, margin: np.ndarray | float) -> np.ndarray | float:
        a, b = self.calib
        return np.clip(_sigmoid(-(a * np.asarray(margin, dtype=float) + b)), PROB_EPS, 1.0 - PROB_EPS)


def train_pu_model(
    X: np.ndarray,
    o: np.ndarray,
    layout: FeatureLayout,
    stage1_hyper: Hyper = Hyper(),
    stage2_hyper: Hyper = Hyper(),
    seed: int = 0,
) -> PUModel:
    """Full two-stage pipeline with a 20% held-out calibration split.

    X holds one feature row per example in `layout`, o its 0/1 labels. The
    relabeled entries are permuted with the given seed; the SVM trains on the
    remaining 80%. If the held-out slice lacks one label, calibration falls
    back to margins over the full relabeled set.
    """
    X = np.asarray(X, dtype=float)
    o = np.asarray(o)
    if X.ndim != 2 or X.shape[1] != layout.total_dim or len(o) != len(X):
        raise LayoutMismatchError("training matrix does not match the given layout")
    if not np.isin(o, (0, 1)).all():
        raise ValueError("o must hold only 0 and 1")
    stage1 = train_stage1(X, o, stage1_hyper)
    e = estimate_e(stage1, X[o == 1])
    rows, y, w = build_relabeled(X, o, stage1, e)
    logger.info(
        "stage1 trained on %d positives + %d unlabeled; e=%.6f; relabeled size %d",
        int(o.sum()),
        int(len(o) - o.sum()),
        e,
        len(rows),
    )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(rows))
    n_cal = max(1, int(round(0.2 * len(rows))))
    cal_idx = np.sort(perm[:n_cal])
    fit_idx = np.sort(perm[n_cal:])
    svm_w, svm_b = train_stage2(X[rows[fit_idx]], y[fit_idx], w[fit_idx], stage2_hyper)
    margins = X @ svm_w + svm_b
    try:
        A, B = calibrate(margins[rows[cal_idx]], y[cal_idx], w[cal_idx])
    except DegenerateTrainingSetError:
        logger.info("held-out calibration slice degenerate; calibrating on all relabeled data")
        A, B = calibrate(margins[rows], y, w)
    return PUModel(
        layout=layout,
        layout_hash=layout_hash(layout),
        stage1=stage1,
        e=e,
        svm_weights=svm_w,
        svm_bias=svm_b,
        calib=(A, B),
        stage2_hyper=stage2_hyper,
        seed=seed,
    )


class SentenceClassifier:
    """Couples a trained model with a feature extractor for the same layout."""

    def __init__(self, model: PUModel, extractor: FeatureExtractor):
        if extractor.layout_hash != model.layout_hash:
            raise LayoutMismatchError(
                "extractor layout does not match the model (lexicon content changed?)"
            )
        self.model = model
        self.extractor = extractor

    def prob(self, sentence: Sentence) -> float:
        x = self.extractor.extract_or_zero(sentence)
        return float(self.model.prob_from_margin(self.model.margins(x)))


def model_to_json(model: PUModel) -> dict:
    return {
        "version": MODEL_VERSION,
        "layout": layout_to_json(model.layout),
        "layout_hash": model.layout_hash,
        "lexicon_hashes": {
            **{s.name: s.content_hash for s in model.layout.scored},
            **{c.name: c.content_hash for c in model.layout.category},
        },
        "stage1": {
            "weights": model.stage1.weights.tolist(),
            "bias": model.stage1.bias,
            "hyper": model.stage1.hyper.to_json(),
        },
        "e": model.e,
        "svm": {
            "weights": model.svm_weights.tolist(),
            "bias": model.svm_bias,
            "hyper": model.stage2_hyper.to_json(),
        },
        "calib": {"A": model.calib[0], "B": model.calib[1]},
        "seed": model.seed,
    }


def model_from_json(obj: dict) -> PUModel:
    try:
        if obj["version"] != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {obj['version']!r}")
        layout = layout_from_json(obj["layout"])
        lhash = layout_hash(layout)
        if lhash != obj["layout_hash"]:
            raise ModelFormatError("layout hash mismatch: model file is inconsistent")
        stage1 = Stage1Model(
            weights=np.array(obj["stage1"]["weights"], dtype=float),
            bias=float(obj["stage1"]["bias"]),
            hyper=Hyper.from_json(obj["stage1"]["hyper"]),
        )
        svm_w = np.array(obj["svm"]["weights"], dtype=float)
        if len(stage1.weights) != layout.total_dim or len(svm_w) != layout.total_dim:
            raise ModelFormatError("weight vector length does not match the layout")
        return PUModel(
            layout=layout,
            layout_hash=lhash,
            stage1=stage1,
            e=float(obj["e"]),
            svm_weights=svm_w,
            svm_bias=float(obj["svm"]["bias"]),
            calib=(float(obj["calib"]["A"]), float(obj["calib"]["B"])),
            stage2_hyper=Hyper.from_json(obj["svm"]["hyper"]),
            seed=int(obj["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def save_model(model: PUModel, path: str | Path) -> None:
    """Versioned JSON; floats use shortest round-trip decimals so reloads are bit-exact."""
    payload = json.dumps(
        model_to_json(model), indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False
    )
    Path(path).write_text(payload + "\n", encoding="utf-8")


def load_model(path: str | Path) -> PUModel:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError("model file must contain a JSON object")
    return model_from_json(obj)
