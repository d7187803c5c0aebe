import logging
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from infosum import pu
from infosum.corpus import InputFormatError, make_sentence
from infosum.features import (
    FeatureExtractor,
    LayoutMismatchError,
    bow_layout,
    dictionary_layout,
)
from infosum.lexicons import CategoryLexicon, ScoredLexicon
from infosum.pu import (
    GRAD_TOL,
    DegenerateTrainingSetError,
    Linear,
    ModelFormatError,
    PUModel,
    SentenceClassifier,
    build_relabeled,
    calibrate,
    calibration_split,
    decision,
    estimate_e,
    hinge_loss,
    load_model,
    logistic_loss,
    predict_proba,
    save_model,
    train_pu_model,
    train_stage1,
    train_stage2,
    unlabeled_weight,
)
from infosum.sparse import CsrMatrix

from test_model import math_sigmoid_prob

TOY_L2 = 0.01


TOY_LAYOUT = bow_layout(("alpha", "beta"))  # a layout as wide as separable_set's X


def separable_set(n_per_side=20, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=(1.0, 1.0), scale=spread, size=(n_per_side, 2))
    neg = rng.normal(loc=(-1.0, -1.0), scale=spread, size=(n_per_side, 2))
    X = np.vstack([pos, neg])
    o = np.array([1] * n_per_side + [0] * n_per_side)
    return X, o


class TestStage1:
    def test_separable_positives_above_half(self):
        X, o = separable_set()
        model = train_stage1(X, o, TOY_L2)
        probs = predict_proba(model, X[:20])
        assert np.all(probs > 0.5)

    def test_single_class_rejected(self):
        X, _ = separable_set()
        with pytest.raises(DegenerateTrainingSetError):
            train_stage1(X, np.ones(len(X)), TOY_L2)

    def test_duplicated_dataset_same_boundary(self):
        X, o = separable_set()
        m1 = train_stage1(X, o, TOY_L2)
        m2 = train_stage1(np.vstack([X, X]), np.concatenate([o, o]), TOY_L2)
        assert np.allclose(m1.weights, m2.weights, atol=1e-6)
        assert m1.bias == pytest.approx(m2.bias, abs=1e-6)

    def test_outputs_in_open_interval(self):
        X, o = separable_set()
        model = train_stage1(X, o, TOY_L2)
        probs = predict_proba(model, np.array([[1e6, 1e6], [-1e6, -1e6]]))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_deterministic(self):
        X, o = separable_set()
        m1 = train_stage1(X, o, TOY_L2)
        m2 = train_stage1(X.copy(), o.copy(), TOY_L2)
        assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def central_diff(fun, w, b, h=1e-5):
    grad_w = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad_w[i] = (fun(up, b) - fun(down, b)) / (2 * h)
    grad_b = (fun(w, b + h) - fun(w, b - h)) / (2 * h)
    return grad_w, grad_b


def rel_err(a, b):
    num = np.linalg.norm(np.append(a[0] - b[0], a[1] - b[1]))
    den = max(np.linalg.norm(np.append(a[0], a[1])), np.linalg.norm(np.append(b[0], b[1])), 1e-12)
    return num / den


class TestGradients:
    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 11))
            X = rng.normal(size=(n, d))
            pos, neg = rng.uniform(0.1, 1.0, size=(2, n))
            l2 = float(rng.uniform(0.0, 1.0))
            w = rng.normal(size=d)
            b = float(rng.normal())
            loss, gw, gb = logistic_loss(w, b, X, pos, neg, l2)
            num = central_diff(lambda w_, b_: logistic_loss(w_, b_, X, pos, neg, l2)[0], w, b)
            assert rel_err((gw, gb), num) < 1e-5

    def test_hinge_subgradient_matches_at_differentiable_points(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 11))
            X = rng.normal(size=(n, d))
            pos, neg = rng.uniform(0.1, 1.0, size=(2, n))
            l2 = float(rng.uniform(0.0, 1.0))
            w = rng.normal(size=d)
            b = float(rng.normal())
            if np.min(np.abs(1.0 - np.abs(X @ w + b))) < 1e-3:
                continue  # too close to a hinge kink for finite differences
            _, gw, gb = hinge_loss(w, b, X, pos, neg, l2)
            num = central_diff(lambda w_, b_: hinge_loss(w_, b_, X, pos, neg, l2)[0], w, b)
            assert rel_err((gw, gb), num) < 1e-5
            checked += 1


# The losses in their plain out-of-place form, with the two-branch sigmoid and
# the smoothed hinge written piece by piece. The in-place losses must give the
# same bits.


def masked_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reduce_dot(a, b):
    return float(np.add.reduce(a * b))


def eager_logistic_loss(w, b, X, pos, neg, l2):
    total = float(pos.sum()) + float(neg.sum())
    z = X @ w + b
    data = reduce_dot(pos, np.logaddexp(0.0, -z)) + reduce_dot(neg, np.logaddexp(0.0, z))
    loss = data / total + 0.5 * l2 * reduce_dot(w, w)
    resid = ((pos + neg) * masked_sigmoid(z) - pos) / total
    return loss, X.T @ resid + l2 * w, float(resid.sum())


def labeled_logistic_loss(w, b, X, y, sample_weight, l2):
    """Stage 1's loss in the form it had before its rows were (pos, neg): 0/1 labels
    y and sample weights."""
    total = float(sample_weight.sum())
    z = X @ w + b
    per = np.logaddexp(0.0, z) - y * z
    loss = reduce_dot(sample_weight, per) / total + 0.5 * l2 * reduce_dot(w, w)
    resid = sample_weight * (masked_sigmoid(z) - y) / total
    return loss, X.T @ resid + l2 * w, float(resid.sum())


def smoothed_hinge(t, h=0.5):
    """0 for t <= -h, (t + h)^2 / (4h) within h of 0, t for t >= h; and its derivative."""
    value = np.where(t >= h, t, np.where(t > -h, (t + h) ** 2 / (4.0 * h), 0.0))
    slope = np.where(t >= h, 1.0, np.where(t > -h, (t + h) / (2.0 * h), 0.0))
    return value, slope


def eager_hinge_loss(w, b, X, pos, neg, l2):
    total = float(pos.sum()) + float(neg.sum())
    margins = X @ w + b
    h_pos, d_pos = smoothed_hinge(1.0 - margins)
    h_neg, d_neg = smoothed_hinge(1.0 + margins)
    loss = (reduce_dot(pos, h_pos) + reduce_dot(neg, h_neg)) / total + 0.5 * l2 * reduce_dot(w, w)
    coef = (neg * d_neg - pos * d_pos) / total
    return loss, X.T @ coef + l2 * w, float(coef.sum())


def overlapping_set(n=120, d=6, seed=0):
    """Sparse rows (one of them empty) whose classes overlap, so hinge terms stay active."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
    X[5] = 0.0
    y = X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n) > 0
    return X, (y & (rng.random(n) < 0.6)).astype(int)


def logistic_data(rng, n):
    """Positive and negative weights drawn on their own, about a fifth of them 0."""
    return rng.uniform(0.0, 1.0, size=(2, n)) * (rng.random((2, n)) < 0.8)


def hinge_data(rng, n):
    """Positive and negative weights as `build_relabeled` gives them: 1 and 0 for a
    labeled row, w and 1 - w for an unlabeled one; w is drawn and may be 0 or 1."""
    w = rng.choice((0.0, 1.0, *rng.uniform(0.0, 1.0, size=8)), size=n)
    labeled = rng.random(n) < 0.3
    return np.where(labeled, 1.0, w), np.where(labeled, 0.0, 1.0 - w)


def as_csr(X):
    return CsrMatrix.from_rows([(np.flatnonzero(x), x[x != 0]) for x in X], X.shape[1])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestEagerReference:
    @given(arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_nan=True, allow_infinity=True)))
    @example(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308]))
    @example(np.array([5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, 1.0, -1.0]))
    def test_sigmoid_has_the_bits_of_the_masked_form(self, z):
        assert same_bits(pu._sigmoid(z), masked_sigmoid(z))

    @pytest.mark.parametrize(
        "loss, eager, draw",
        [(logistic_loss, eager_logistic_loss, logistic_data), (hinge_loss, eager_hinge_loss, hinge_data)],
    )
    @pytest.mark.parametrize("matrix", ["dense", "csr", "selected"])
    def test_value_and_gradient_bits_of_the_plain_form(self, loss, eager, draw, matrix):
        """"selected" is the rows `train_pu_model` copies out for stage 2: a CsrMatrix of
        chosen rows of another, here with repeats."""
        rng = np.random.default_rng(3)
        X, _ = overlapping_set()
        X = {"dense": X, "csr": as_csr(X), "selected": as_csr(X)[rng.integers(0, len(X), 150)]}[matrix]
        u, v = draw(rng, len(X))
        w, b = rng.normal(size=X.shape[1]), float(rng.normal())
        ref_value, ref_gw, ref_gb = eager(w, b, X, u, v, 0.01)
        value, gw, gb = loss(w, b, X, u, v, 0.01)
        assert value == ref_value and same_bits(gw, ref_gw) and same_bits(gb, ref_gb)

    @pytest.mark.parametrize("matrix", ["dense", "csr"])
    def test_zero_one_rows_give_the_gradient_bits_of_labels(self, matrix):
        """Stage 1's rows (y, 1 - y) step as its labels y with unit weights did."""
        rng = np.random.default_rng(4)
        X, o = overlapping_set()
        X = X if matrix == "dense" else as_csr(X)
        y = o * 1.0
        for _ in range(5):
            w, b = rng.normal(size=X.shape[1]), float(rng.normal())
            _, ref_gw, ref_gb = labeled_logistic_loss(w, b, X, y, np.ones(len(y)), 0.01)
            _, gw, gb = logistic_loss(w, b, X, y, 1.0 - y, 0.01)
            assert same_bits(gw, ref_gw) and same_bits(gb, ref_gb)


def gradient_ratio(loss, fitted, X, pos, neg, l2):
    """The sup-norm of (grad_w, grad_b) of `loss` at a fitted Linear over its sup-norm at
    zero, the ratio the solver stops at GRAD_TOL."""

    def sup_norm(w, b):
        _, gw, gb = loss(w, b, X, pos, neg, l2)
        return max(float(np.abs(gw).max()), abs(gb))

    return sup_norm(np.array(fitted.weights), fitted.bias) / sup_norm(np.zeros(X.shape[1]), 0.0)


def stage_ratios(X, o, model, stage1, l2, seed):
    """`gradient_ratio` of stage 1 on every row, of the SVM on the fit rows and of the
    calibration on its rows of a `train_pu_model` result.

    The calibration is the unpenalized `logistic_loss` of the held-out rows, or of
    every row when the held-out ones lack weight on a side, on the one-column matrix
    of their margins, with Platt's targets as weights; its fit is (-A, -B)."""
    pos, neg = build_relabeled(predict_proba(stage1, X), o, model.e)
    fit, cal = calibration_split(len(o), seed)
    if not (pos[cal].sum() > 0.0 and neg[cal].sum() > 0.0):
        cal = np.arange(len(o))
    cal_pos, cal_neg = pos[cal], neg[cal]
    t = cal_pos * (cal_pos.sum() + 1.0) / (cal_pos.sum() + 2.0) + cal_neg / (cal_neg.sum() + 2.0)
    margins = decision(model.svm, X)[cal]
    calib = Linear((-model.calib.A,), -model.calib.B)
    return (
        gradient_ratio(logistic_loss, stage1, X, o * 1.0, 1.0 - o, l2),
        gradient_ratio(hinge_loss, model.svm, X[fit], pos[fit], neg[fit], l2),
        gradient_ratio(logistic_loss, calib, margins[:, None], t, cal_pos + cal_neg - t, 0.0),
    )


class TestSolver:
    @pytest.mark.parametrize("matrix", ["dense", "csr"])
    def test_each_stage_meets_its_gradient_tolerance(self, matrix):
        X, o = overlapping_set()
        X = X if matrix == "dense" else as_csr(X)
        model, stage1 = train_pu_model(X, o, TOY_L2, 2)
        assert all(ratio <= GRAD_TOL for ratio in stage_ratios(X, o, model, stage1, TOY_L2, 2))

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    def test_log_reports_the_returned_solution(self, caplog, monkeypatch, stage):
        X, o = overlapping_set()
        pos, neg = (o * 1.0, 1.0 - o) if stage == "stage1" else hinge_data(np.random.default_rng(1), len(X))
        loss = logistic_loss if stage == "stage1" else hinge_loss
        calls = []
        monkeypatch.setattr(pu, loss.__name__, lambda *args: (calls.append(1), loss(*args))[1])
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            fitted = train_stage1(X, o, TOY_L2) if stage == "stage1" else train_stage2(X, pos, neg, TOY_L2)
        value, gw, gb = loss(np.array(fitted.weights), fitted.bias, X, pos, neg, TOY_L2)
        _, gw0, gb0 = loss(np.zeros(X.shape[1]), 0.0, X, pos, neg, TOY_L2)
        sup_norm = max(float(np.abs(gw).max()), abs(gb))
        tol = GRAD_TOL * max(float(np.abs(gw0).max()), abs(gb0))
        [record] = caplog.records
        match = re.fullmatch(
            rf"{stage} converged: (\d+) iterations \(cap {pu.MAX_ITER}\), (\d+) loss evaluations, "
            r"loss (\S+), gradient sup-norm (\S+) \(tolerance (\S+)\)",
            record.getMessage(),
        )
        assert record.levelno == logging.INFO and match
        assert int(match[1]) < int(match[2]) == len(calls)
        assert match.group(3, 4, 5) == (f"{value:.6f}", f"{sup_norm:.3e}", f"{tol:.3e}")
        assert sup_norm <= tol

    def test_a_zero_gradient_at_zero_is_already_solved(self, caplog):
        """Empty rows with as much positive as negative weight: zero is the optimum."""
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            stage1 = train_stage1(np.zeros((4, 2)), np.array([1, 1, 0, 0]), TOY_L2)
        assert stage1 == Linear((0.0, 0.0), 0.0)
        [record] = caplog.records
        assert record.getMessage().startswith("stage1 converged: 0 iterations (cap ")

    def test_the_cap_stops_each_stage_with_a_warning_and_a_finite_model(self, caplog, monkeypatch):
        monkeypatch.setattr(pu, "MAX_ITER", 2)
        X, o = overlapping_set()
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            model, stage1 = train_pu_model(X, o, TOY_L2, 0)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [w.split(":")[0] for w in warnings] == [
            f"{stage} did not meet its gradient tolerance" for stage in ("stage1", "stage2", "calibration")
        ]
        assert all(" 2 iterations (cap 2), " in w for w in warnings)
        values = [stage1.weights, stage1.bias, model.e, model.svm.weights, model.svm.bias, astuple(model.calib)]
        assert all(np.isfinite(v).all() for v in values)


def duplicated_entry_hinge_loss(w, b, X, pos, neg, l2):
    """Stage 2's objective in the form it had before a row carried two weights: each
    row enters twice, as a +1 entry of weight pos and a -1 entry of weight neg, and the
    one-sided weighted smoothed hinge loss sums over the entries."""
    rows = np.repeat(np.arange(len(X)), 2)
    y_pm = np.tile([1.0, -1.0], len(X))
    sw = np.column_stack([pos, neg]).ravel()
    total = float(sw.sum())
    value, slope = smoothed_hinge(1.0 - y_pm * (X[rows] @ w + b))
    loss = float(sw @ value) / total + 0.5 * l2 * float(w @ w)
    coef = -y_pm * slope * sw / total
    return loss, X[rows].T @ coef + l2 * w, float(coef.sum())


class TestTwoSidedHinge:
    def test_equals_the_duplicated_entry_objective(self):
        rng = np.random.default_rng(13)
        exact = set()
        for _ in range(20):
            n, d = int(rng.integers(4, 40)), int(rng.integers(1, 11))
            X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
            X[0] = 0.0  # an empty row
            pos, neg = hinge_data(rng, n)
            exact.update({0.0, 1.0}.intersection(pos))  # 1 on every labeled row, 0 on an unlabeled one
            l2 = float(rng.uniform(0.0, 1.0))
            w, b = rng.normal(size=d), float(rng.normal())
            loss, gw, gb = hinge_loss(w, b, X, pos, neg, l2)
            ref_loss, ref_gw, ref_gb = duplicated_entry_hinge_loss(w, b, X, pos, neg, l2)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            assert rel_err((gw, gb), (ref_gw, ref_gb)) <= 1e-12
        assert exact == {0.0, 1.0}


class TestEstimateE:
    def test_arithmetic_mean(self):
        # weights chosen so the two positives score 0.8 and 0.6 exactly
        model = Linear(weights=(1.0,), bias=0.0)
        positives = np.array([[np.log(0.8 / 0.2)], [np.log(0.6 / 0.4)]])
        assert estimate_e(predict_proba(model, positives)) == pytest.approx(0.7, abs=1e-12)

    def test_empty_positive_set(self):
        X, o = separable_set()
        model = train_stage1(X, o, TOY_L2)
        with pytest.raises(ValueError):
            estimate_e(predict_proba(model, X[:0]))

    def test_upper_limit(self):
        X, o = separable_set(spread=0.05)
        model = train_stage1(X, o, 1e-6)
        e = estimate_e(predict_proba(model, X)[o == 1])
        assert 0.9 < e < 1.0


class TestUnlabeledWeight:
    def test_equals_one_at_lr_equal_e(self):
        for v in (0.1, 0.35, 0.9):
            assert unlabeled_weight(v, v) == 1.0

    def test_limit_zero(self):
        assert unlabeled_weight(1e-9, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_formula(self):
        assert unlabeled_weight(0.5, 0.8) == pytest.approx(0.25, abs=1e-15)

    def test_clamped_to_one(self):
        assert unlabeled_weight(0.9, 0.5) == 1.0

    def test_e_one_limit_policy(self):
        assert unlabeled_weight(0.42, 1.0) == 0.42

    def test_monotone_in_lr_and_e(self):
        grid = np.linspace(0.05, 0.95, 19)
        for e in (0.3, 0.6, 0.9):
            ws = [unlabeled_weight(v, e) for v in grid]
            assert all(b >= a for a, b in zip(ws, ws[1:]))
        for lr in (0.2, 0.5, 0.8):
            ws = [unlabeled_weight(lr, e) for e in grid]
            assert all(b <= a for a, b in zip(ws, ws[1:]))

    def test_array_matches_elementwise(self):
        lr = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
        assert np.array_equal(unlabeled_weight(lr, 0.5), [unlabeled_weight(v, 0.5) for v in lr])
        assert unlabeled_weight(lr, 0.5)[-1] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unlabeled_weight(np.array([0.5, 1.5]), 0.5)
        with pytest.raises(ValueError):
            unlabeled_weight(0.5, 0.0)

    def test_oracle_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            lr_x = float(rng.uniform(1e-6, 1 - 1e-6))
            e = float(rng.uniform(1e-6, 1 - 1e-6))
            expected = min(1.0, (lr_x * (1 - e)) / (e * (1 - lr_x)))
            assert unlabeled_weight(lr_x, e) == pytest.approx(expected, abs=1e-12)


class TestBuildRelabeled:
    def setup_method(self):
        X, o = separable_set(n_per_side=5)
        # interleave so positive and unlabeled rows alternate
        order = np.array([0, 5, 1, 6, 2, 7, 3, 8, 4, 9])
        self.X, self.o = X[order], o[order]
        self.model = train_stage1(self.X, self.o, TOY_L2)
        self.p1 = predict_proba(self.model, self.X)
        self.e = estimate_e(self.p1[self.o == 1])

    def test_one_pair_of_weights_per_row(self):
        pos, neg = build_relabeled(self.p1, self.o, self.e)
        assert pos.shape == neg.shape == (10,)

    def test_positives_get_one_and_zero(self):
        pos, neg = build_relabeled(self.p1, self.o, self.e)
        labeled = self.o == 1
        assert labeled.sum() == 5
        assert np.all(pos[labeled] == 1.0) and np.all(neg[labeled] == 0.0)

    def test_unlabeled_rows_get_w_and_one_minus_w(self):
        pos, neg = build_relabeled(self.p1, self.o, self.e)
        for i in np.flatnonzero(self.o == 0):
            lr_x = predict_proba(self.model, self.X[i][None, :])[0]
            assert pos[i] == pytest.approx(unlabeled_weight(lr_x, self.e), abs=1e-15)
            assert neg[i] == 1.0 - pos[i]


class TestStage2:
    def test_separable_every_margin_has_its_sign(self):
        """The smoothed hinge still charges margins below 1.5, so the optimum may leave
        some in (0.5, 1); none has the wrong sign."""
        X, o = separable_set()
        margins = (2.0 * o - 1.0) * decision(train_stage2(X, o, 1 - o, 1e-4), X)
        assert np.all(margins > 0)

    def test_zero_weight_example_is_inert(self):
        X, o = separable_set(n_per_side=8)
        m1 = train_stage2(X, o, 1 - o, TOY_L2)
        m2 = train_stage2(np.vstack([X, [[5.0, -5.0]]]), np.append(o, 0), np.append(1 - o, 0), TOY_L2)
        assert np.allclose(m1.weights, m2.weights, atol=1e-6) and m1.bias == pytest.approx(m2.bias, abs=1e-6)

    def test_doubling_weights_keeps_boundary(self):
        X, o = separable_set(n_per_side=8)
        # weight-normalized objective: doubling all weights changes nothing
        m1 = train_stage2(X, o, 1 - o, TOY_L2)
        m2 = train_stage2(X, 0.5 * o, 0.5 * (1 - o), TOY_L2)
        assert np.allclose(m1.weights, m2.weights, atol=1e-6) and m1.bias == pytest.approx(m2.bias, abs=1e-6)

    def test_degenerate_rejected(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateTrainingSetError):
            train_stage2(X, np.array([1.0, 0.0]), np.array([0.0, 0.0]), TOY_L2)


class TestPenalty:
    @pytest.mark.parametrize("l2", [0.0, -1e-3, float("nan"), float("inf")])
    def test_a_penalty_not_finite_and_positive_is_rejected_before_training(self, l2):
        X, o = separable_set()
        with pytest.raises(ValueError, match=re.escape(f"l2 must be finite and > 0, got {l2}")):
            train_stage1(X, o, l2)
        with pytest.raises(ValueError, match=re.escape(f"l2 must be finite and > 0, got {l2}")):
            train_stage2(X, o, 1 - o, l2)

    @pytest.mark.parametrize("l2", [1e-6, 25.0])
    def test_weak_and_strong_penalties_meet_the_tolerance(self, l2):
        """Separable rows at 1e-6 put the logistic optimum far from zero; 25 puts it
        close to it."""
        X, o = separable_set()
        model, stage1 = train_pu_model(X, o, l2, 0)
        assert all(ratio <= GRAD_TOL for ratio in stage_ratios(X, o, model, stage1, l2, 0))

    @pytest.mark.parametrize("loss", [logistic_loss, hinge_loss])
    def test_no_penalty_on_two_sided_rows_meets_the_tolerance(self, loss):
        """Each row weighs on both sides or on neither, so every term grows both ways."""
        X, _ = overlapping_set()
        rng = np.random.default_rng(7)
        pos = rng.uniform(0.05, 1.0, size=len(X)) * (np.arange(len(X)) % 10 != 3)
        neg = np.where(pos > 0.0, rng.uniform(0.05, 1.0, size=len(X)), 0.0)
        w, b = pu._minimize(loss, X, pos, neg, 0.0, "two-sided")
        assert gradient_ratio(loss, Linear(tuple(w.tolist()), b), X, pos, neg, 0.0) <= GRAD_TOL

    def test_no_penalty_is_refused_when_one_row_is_one_sided(self):
        X, _ = overlapping_set()
        pos, neg = np.full(len(X), 0.5), np.full(len(X), 0.5)
        neg[17] = 0.0
        with pytest.raises(ValueError, match=re.escape("l2 must be finite and > 0, got 0.0")):
            pu._minimize(logistic_loss, X, pos, neg, 0.0, "one-sided")


class TestPaperScaleSolve:
    def test_each_stage_meets_its_tolerance_within_1000_loss_evaluations(self, regime, monkeypatch, caplog):
        """The rows `infosum train` fits on the paper-150 benchmark bundle (150 train and
        300 test documents, seed 0), at its penalty and seed. The fixed descent schedule
        took 8000 loss evaluations there."""
        rows = regime("paper-150", 0)
        calls = []
        for name in ("logistic_loss", "hinge_loss"):
            loss = getattr(pu, name)
            monkeypatch.setattr(pu, name, lambda *args, loss=loss: (calls.append(1), loss(*args))[1])
        l2, seed = rows.cfg.hyper.l2, rows.cfg.seed
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            model, stage1 = train_pu_model(rows.X, rows.o, l2, seed)
        assert all(ratio <= GRAD_TOL for ratio in stage_ratios(rows.X, rows.o, model, stage1, l2, seed))
        assert len(calls) < 1000
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestCalibrate:
    def test_symmetric_margins_give_zero_intercept(self):
        margins = np.concatenate([np.linspace(0.2, 2.0, 40), -np.linspace(0.2, 2.0, 40)])
        labels = np.array([1] * 40 + [0] * 40)
        a, b = calibrate(margins, labels, 1 - labels)
        assert a < 0
        assert b == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_margin(self):
        rng = np.random.default_rng(5)
        margins = rng.normal(size=200)
        labels = (margins + rng.normal(scale=0.5, size=200) > 0).astype(int)
        a, b = calibrate(margins, labels, 1 - labels)
        assert a < 0
        grid = np.linspace(-3, 3, 50)
        probs = 1.0 / (1.0 + np.exp(a * grid + b))
        assert np.all(np.diff(probs) > 0)

    def test_separated_margins_threshold(self):
        margins = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        a, b = calibrate(margins, labels, 1 - labels)
        probs = 1.0 / (1.0 + np.exp(a * margins + b))
        assert np.all(probs[labels == 1] > 0.5)
        assert np.all(probs[labels == 0] < 0.5)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateTrainingSetError, match="calibration needs weight on both sides"):
            calibrate([0.5, 1.0], [1, 1], [0, 0])

    @pytest.mark.parametrize("seed", [17, 19])
    def test_input_order_moves_the_fit_by_rounding_alone(self, seed):
        """Reordering the rows reorders every sum; the fit must still land on the same optimum.
        On these draws A moves by at most 1.7e-16 of itself."""
        rng = np.random.default_rng(seed)
        labels = (rng.random(500) < 0.5).astype(float)
        margins = rng.normal(size=500) + 1.5 * (2 * labels - 1)
        weights = rng.random(500)
        pos, neg = weights * labels, weights * (1 - labels)
        fits = []
        for k in range(8):
            order = np.random.default_rng(100 + k).permutation(500)
            fits.append(calibrate(margins[order], pos[order], neg[order]))
        a, b = np.array(fits).T
        assert max(np.ptp(a), np.ptp(b)) <= 1e-13 * abs(a[0])  # B is near 0: measured on A's scale

    @pytest.mark.parametrize("seed", [17, 19, 23])
    def test_splitting_rows_into_one_sided_rows_moves_the_fit_by_rounding_alone(self, seed):
        """A row that is a positive of weight pos and a negative of weight neg fits as the
        two rows (pos, 0) and (0, neg) at its margin, the form calibration once took."""
        rng = np.random.default_rng(seed)
        pos, neg = hinge_data(rng, 500)
        margins = rng.normal(size=500) + 1.5 * (pos - neg)
        a, b = calibrate(margins, pos, neg)
        zeros = np.zeros(500)
        split_a, split_b = calibrate(np.concatenate([margins, margins]), np.concatenate([pos, zeros]),
                                     np.concatenate([zeros, neg]))
        assert max(abs(split_a - a), abs(split_b - b)) <= 1e-13 * abs(a)  # B is near 0: measured on A's scale


class TestCalibrationSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_disjoint_row_sets_that_cover_every_row(self, seed):
        fit, cal = calibration_split(40, seed)
        assert not set(fit) & set(cal)
        assert sorted(np.concatenate([fit, cal])) == list(range(40))
        assert len(cal) == round(0.2 * 40)

    def test_seeded(self):
        a, b = calibration_split(40, 3), calibration_split(40, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], calibration_split(40, 4)[1])

    def test_holds_out_at_least_one_row(self):
        fit, cal = calibration_split(2, 0)
        assert len(cal) == 1 and len(fit) == 1


def trained_toy_model(seed=0):
    X, o = separable_set(seed=seed)
    return train_pu_model(X, o, TOY_L2, seed)[0], X, o


def calibrated(model, margins):
    """`Calib.prob` of each margin, as an array."""
    return np.array([model.calib.prob(m) for m in np.asarray(margins).tolist()])


class TestPUModel:
    def test_predict_prob_deterministic_and_monotone_in_margin(self):
        model, X, o = trained_toy_model()
        assert same_bits(calibrated(model, decision(model.svm, X[:1])), calibrated(model, decision(model.svm, X[:1])))
        margins = decision(model.svm, X)
        probs = calibrated(model, margins)
        order = np.argsort(margins)
        assert np.all(np.diff(probs[order]) >= 0)

    def test_training_positives_score_higher(self):
        model, X, o = trained_toy_model()
        probs = calibrated(model, decision(model.svm, X))
        assert probs[o == 1].mean() > probs[o == 0].mean()

    def test_layout_mismatch_on_predict(self):
        model, _, _ = trained_toy_model()
        alien = FeatureExtractor(bow_layout(("alpha", "beta", "gamma")))  # 3 features, model takes 2
        with pytest.raises(LayoutMismatchError):
            SentenceClassifier(model, alien)

    def test_labels_must_be_zero_or_one(self):
        X, o = separable_set()
        with pytest.raises(ValueError):
            train_pu_model(X, o + 1, TOY_L2, 0)

    def test_sparse_and_dense_matrices_train_the_same_model(self):
        X, o = separable_set()
        X = np.hstack([X, np.zeros((len(X), 1)), (X[:, :1] > 1.2) * 1.0])  # an empty column, a sparse one
        X[3] = 0.0  # an empty row
        sparse = CsrMatrix.from_rows([(np.flatnonzero(x), x[x != 0]) for x in X], X.shape[1])
        dense_model, dense_stage1 = train_pu_model(X, o, TOY_L2, 1)
        sparse_model, sparse_stage1 = train_pu_model(sparse, o, TOY_L2, 1)
        assert sparse_model.e == pytest.approx(dense_model.e, rel=1e-12)
        np.testing.assert_allclose(sparse_stage1.weights, dense_stage1.weights, atol=1e-10)
        np.testing.assert_allclose(sparse_model.svm.weights, dense_model.svm.weights, atol=1e-10)
        np.testing.assert_allclose(astuple(sparse_model.calib), astuple(dense_model.calib), rtol=1e-9)

    @pytest.mark.parametrize("matrix", ["dense", "csr"])
    def test_stage2_multiplies_only_the_fit_rows(self, monkeypatch, matrix):
        X, o = overlapping_set()
        seen = []
        monkeypatch.setattr(pu, "train_stage2", lambda *args: (seen.append(args), train_stage2(*args))[1])
        _, stage1 = train_pu_model(X if matrix == "dense" else as_csr(X), o, TOY_L2, 2)
        p1 = predict_proba(stage1, X if matrix == "dense" else as_csr(X))
        pos, neg = build_relabeled(p1, o, estimate_e(p1[o == 1]))
        fit, cal = calibration_split(len(X), 2)
        [(X_fit, pos_fit, neg_fit, _)] = seen
        assert len(X_fit) == len(fit) == len(X) - len(cal)
        held = np.column_stack([X_fit @ unit for unit in np.eye(X.shape[1])])
        assert np.array_equal(held, X[fit])
        assert np.array_equal(pos_fit, pos[fit]) and np.array_equal(neg_fit, neg[fit])

    def test_fixed_seed_identical_model_bytes(self, tmp_path):
        m1, _, _ = trained_toy_model(seed=3)
        m2, _, _ = trained_toy_model(seed=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(m1, TOY_LAYOUT, p1)
        save_model(m2, TOY_LAYOUT, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSaveLoad:
    def test_round_trip_bit_exact_predictions(self, tmp_path):
        model, X, o = trained_toy_model()
        path = tmp_path / "model.json"
        save_model(model, TOY_LAYOUT, path)
        loaded, layout = load_model(path)
        assert layout == TOY_LAYOUT
        rows = np.random.default_rng(0).normal(size=(100, 2))
        assert loaded == model
        assert same_bits(calibrated(loaded, decision(loaded.svm, rows)), calibrated(model, decision(model.svm, rows)))

    @pytest.mark.parametrize("mode", ["dictionary", "dictionary-no-general", "bow"])
    def test_resaving_a_loaded_model_rewrites_its_bytes(self, tmp_path, mode):
        if mode == "bow":
            model, layout = trained_toy_model()[0], TOY_LAYOUT
        else:
            model, ex = TestSentenceClassifier().train_text_model(SCORED_V1, include_general=mode == "dictionary")
            layout = ex.layout
        assert layout.mode == mode
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, layout, path)
        save_model(*load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not valid json", encoding="utf-8")
        with pytest.raises(InputFormatError, match="model: invalid JSON"):
            load_model(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 1}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model, _, _ = trained_toy_model()
        path = tmp_path / "model.json"
        save_model(model, TOY_LAYOUT, path)
        import json

        obj = json.loads(path.read_text())
        obj["version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda lay: lay.update(mode="bogus"), "model key 'layout.mode' must be one of"),
        (lambda lay: lay.update(mode="dictionary"), "layout.vocab must be null in dictionary mode, not 2 words"),
        (lambda lay: lay.update(vocab=None), "layout.vocab must be a list of words in bow mode, not None"),
        (lambda lay: lay.update(vocab=["alpha", "alpha"]), "layout.vocab must not repeat a word: 'alpha'"),
        (lambda lay: lay.update(vocab=["alpha", 2]), "model key 'layout.vocab' must be of type str, not 2"),
        (lambda lay: lay.update(vocab=["alpha"]), "model field 'svm.weights' holds 2 weights; its layout has 1 columns"),
        (lambda lay: lay.update(extra=1), "unknown model key 'layout.extra'"),
        (lambda lay: lay.update(total_dim=2), "unknown model key 'layout.total_dim'; layout takes mode, scored, category, vocab"),
        (lambda lay: lay.clear(), "model field 'layout.mode' is mandatory"),
    ])
    def test_inconsistent_layout_is_rejected(self, tmp_path, model_text, mutate, message):
        """A layout is decoded and checked field by field, and its width is derived, not read."""
        import json

        obj = json.loads(model_text)
        mutate(obj["layout"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert message in str(info.value)

    @pytest.fixture(scope="class")
    def model_text(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(trained_toy_model()[0], TOY_LAYOUT, path)
        return path.read_text()

    @pytest.mark.parametrize("field", ["e", "svm.weights", "svm.bias", "calib.A", "calib.B"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_names_its_field(self, tmp_path, model_text, field, value):
        import json

        obj = json.loads(model_text)
        *parents, key = field.split(".")
        node = obj
        for name in parents:
            node = node[name]
        if isinstance(node[key], list):
            node[key][-1] = value
        else:
            node[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))  # json writes NaN, Infinity and -Infinity
        with pytest.raises(ModelFormatError, match=re.escape(f"model key '{field}' must be a finite number, not {value!r}")):
            load_model(path)

    @pytest.mark.parametrize("section, key, message", [
        (None, "stage1", "unknown model key 'stage1'; the model takes version, layout, e, svm, calib, seed"),
        (None, "layout_hash", "unknown model key 'layout_hash'; the model takes"),
        (None, "lexicon_hashes", "unknown model key 'lexicon_hashes'; the model takes"),
        ("svm", "hyper", "unknown model key 'svm.hyper'; svm takes weights, bias"),
        ("layout", "version", "unknown model key 'layout.version'; layout takes mode, scored, category, vocab"),
        ("layout", "blocks", "unknown model key 'layout.blocks'; layout takes"),
        ("layout", "general_width", "unknown model key 'layout.general_width'; layout takes"),
    ])
    def test_a_key_of_older_files_is_rejected_not_ignored(self, tmp_path, model_text, section, key, message):
        """Each key that older files carry and no reader uses fails the load by name,
        so no stored copy of a derived fact can disagree with the one derived."""
        import json

        obj = json.loads(model_text)
        (obj if section is None else obj[section])[key] = {}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert message in str(info.value)

    @pytest.fixture(scope="class")
    def dictionary_model_text(self, tmp_path_factory):
        """A dictionary model of 17 columns: 10 imagery bins, one category, the general block."""
        path = tmp_path_factory.mktemp("model") / "model.json"
        model, ex = TestSentenceClassifier().train_text_model(SCORED_V1)
        assert ex.layout.total_dim == 17
        save_model(model, ex.layout, path)
        return path.read_text()

    @pytest.mark.parametrize("mutate, message", [
        (lambda lay: lay["scored"][0].update(bins="10"), "model key 'layout.scored.bins' must be of type int, not '10'"),
        (lambda lay: lay["scored"][0].pop("content_hash"), "model field 'layout.scored.content_hash' is mandatory"),
        (lambda lay: lay["scored"][0].update(width=10), "unknown model key 'layout.scored.width'; layout.scored takes"),
        (lambda lay: lay["category"][0].update(categories="NEG"), "model key 'layout.category.categories' must be a list"),
        (lambda lay: lay["scored"][0].update(bins=11), "model field 'svm.weights' holds 17 weights; its layout has 18 columns"),
        (lambda lay: lay["category"][0]["categories"].append("POS"),
         "model field 'svm.weights' holds 17 weights; its layout has 18 columns"),
        (lambda lay: lay.update(mode="dictionary-no-general"),
         "model field 'svm.weights' holds 17 weights; its layout has 11 columns"),
    ])
    def test_inconsistent_lexicon_spec_is_rejected(self, tmp_path, dictionary_model_text, mutate, message):
        """A dictionary layout's specs are decoded field by field, and a spec that
        widens or narrows the row no longer matches the SVM's weight count."""
        import json

        obj = json.loads(dictionary_model_text)
        mutate(obj["layout"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert message in str(info.value)


def imagery_lexicon(alpha_score):
    """A one-attribute scored lexicon of two words, alpha at `alpha_score` and beta at 90."""
    return ScoredLexicon(
        "mrc", ("imagery",), {"alpha": {"imagery": alpha_score}, "beta": {"imagery": 90.0}},
        {"imagery": (0.0, 100.0)},
    )


SCORED_V1 = imagery_lexicon(10.0)
SCORED_V2 = imagery_lexicon(11.0)
CATS = CategoryLexicon("inq", ("NEG",), {"alpha": frozenset({0})}, {})


class TestSentenceClassifier:
    def train_text_model(self, scored, include_general=True):
        layout = dictionary_layout([scored], [CATS], 10, include_general)
        ex = FeatureExtractor(layout, [scored], [CATS])
        sents = [make_sentence(i, "alpha alpha alpha beta") for i in range(8)]
        sents += [make_sentence(i, "beta beta gamma delta epsilon") for i in range(8)]
        X = CsrMatrix.from_rows([ex.extract(s) for s in sents], layout.total_dim)
        o = np.array([1] * 8 + [0] * 8)
        model, _ = train_pu_model(X, o, TOY_L2, 0)
        return model, ex

    def test_mutated_lexicon_rejected_at_predict(self, tmp_path):
        model, ex = self.train_text_model(SCORED_V1)
        save_model(model, ex.layout, tmp_path / "model.json")
        _, layout = load_model(tmp_path / "model.json")
        with pytest.raises(LayoutMismatchError):
            FeatureExtractor(layout, [SCORED_V2], [CATS])

    def test_classifier_probabilities(self):
        model, ex = self.train_text_model(SCORED_V1)
        clf = SentenceClassifier(model, ex)
        sents = [make_sentence(0, "alpha alpha alpha beta"), make_sentence(1, "..."), make_sentence(2, "beta gamma")]
        probs = clf.prob(sents)
        assert type(probs) is list and len(probs) == 3 and all(0.0 < p < 1.0 for p in probs)
        for sent, p in zip(sents, probs):
            row = CsrMatrix.from_rows([ex.extract(sent)], ex.layout.total_dim)
            assert same_bits(p, math_sigmoid_prob(model.calib, decision(model.svm, row)[0]))
        assert clf.prob([]) == []

    def test_scores_as_one_matrix(self):
        """Each probability is the math.exp sigmoid of the sentence's margin in the
        training product of one matrix of all the rows."""
        model, ex = self.train_text_model(SCORED_V1)
        draw = np.random.default_rng(5)
        words = np.array(["alpha", "beta", "gamma", "delta", "epsilon", "!", "?", ":", '"'])
        sents = [make_sentence(i, " ".join(draw.choice(words, size=draw.integers(1, 12)))) for i in range(1031)]
        X = CsrMatrix.from_rows([ex.extract(s) for s in sents], ex.layout.total_dim)
        whole = [math_sigmoid_prob(model.calib, m) for m in decision(model.svm, X).tolist()]
        assert len(set(whole)) > 100
        assert same_bits(SentenceClassifier(model, ex).prob(sents), whole)
