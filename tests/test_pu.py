import io

import numpy as np
import pytest

from infosum.corpus import make_sentence
from infosum.features import (
    FeatureExtractor,
    LayoutMismatchError,
    bow_layout,
    dictionary_layout,
    raw_layout,
)
from infosum.lexicons import load_category_lexicon, load_scored_lexicon
from infosum.pu import (
    DegenerateTrainingSetError,
    ModelFormatError,
    PUModel,
    SentenceClassifier,
    build_relabeled,
    calibrate,
    calibration_split,
    estimate_e,
    hinge_loss,
    load_model,
    logistic_loss,
    save_model,
    train_pu_model,
    train_stage1,
    train_stage2,
    unlabeled_weight,
)

TOY_L2 = 0.01


def toy_layout(dim=2):
    return raw_layout(dim, name="toy")


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
        probs = model.predict_proba(X[:20])
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
        probs = model.predict_proba(np.array([[1e6, 1e6], [-1e6, -1e6]]))
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
            y = rng.integers(0, 2, size=n).astype(float)
            sw = rng.uniform(0.1, 1.0, size=n)
            l2 = float(rng.uniform(0.0, 1.0))
            w = rng.normal(size=d)
            b = float(rng.normal())
            loss, gw, gb = logistic_loss(w, b, X, y, sw, l2)
            num = central_diff(lambda w_, b_: logistic_loss(w_, b_, X, y, sw, l2)[0], w, b)
            assert rel_err((gw, gb), num) < 1e-5

    def test_hinge_subgradient_matches_at_differentiable_points(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 11))
            X = rng.normal(size=(n, d))
            y = rng.choice([-1.0, 1.0], size=n)
            sw = rng.uniform(0.1, 1.0, size=n)
            l2 = float(rng.uniform(0.0, 1.0))
            w = rng.normal(size=d)
            b = float(rng.normal())
            if np.min(np.abs(1.0 - y * (X @ w + b))) < 1e-3:
                continue  # too close to a hinge kink for finite differences
            _, gw, gb = hinge_loss(w, b, X, y, sw, l2)
            num = central_diff(lambda w_, b_: hinge_loss(w_, b_, X, y, sw, l2)[0], w, b)
            assert rel_err((gw, gb), num) < 1e-5
            checked += 1


class TestEstimateE:
    def test_arithmetic_mean(self):
        # weights chosen so the two positives score 0.8 and 0.6 exactly
        from infosum.pu import Stage1Model

        model = Stage1Model(weights=np.array([1.0]), bias=0.0)
        positives = np.array([[np.log(0.8 / 0.2)], [np.log(0.6 / 0.4)]])
        assert estimate_e(model, positives) == pytest.approx(0.7, abs=1e-12)

    def test_empty_positive_set(self):
        X, o = separable_set()
        model = train_stage1(X, o, TOY_L2)
        with pytest.raises(ValueError):
            estimate_e(model, X[:0])

    def test_upper_limit(self):
        X, o = separable_set(spread=0.05)
        model = train_stage1(X, o, 1e-6)
        e = estimate_e(model, X[o == 1])
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
        self.e = estimate_e(self.model, self.X[self.o == 1])

    def test_size_formula(self):
        rows, y, w = build_relabeled(self.X, self.o, self.model, self.e)
        assert len(rows) == len(y) == len(w) == 5 + 2 * 5

    def test_pair_weights_sum_to_one(self):
        rows, y, w = build_relabeled(self.X, self.o, self.model, self.e)
        pairs = [i for i in range(len(rows)) if self.o[rows[i]] == 0]
        for a, b in zip(pairs[::2], pairs[1::2]):
            assert rows[a] == rows[b] and b == a + 1
            assert y[a] == 1 and y[b] == 0
            assert w[a] + w[b] == pytest.approx(1.0, abs=1e-15)
            lr_x = self.model.predict_proba(self.X[rows[a]][None, :])[0]
            assert w[a] == pytest.approx(unlabeled_weight(lr_x, self.e), abs=1e-15)

    def test_positives_keep_weight_one(self):
        rows, y, w = build_relabeled(self.X, self.o, self.model, self.e)
        pos = self.o[rows] == 1
        assert pos.sum() == 5
        assert np.all(y[pos] == 1) and np.all(w[pos] == 1.0)

    def test_rows_in_source_order(self):
        rows, _, _ = build_relabeled(self.X, self.o, self.model, self.e)
        assert rows.tolist() == [0, 1, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 8, 9, 9]


class TestStage2:
    def test_separable_no_hinge_violations(self):
        X, o = separable_set()
        w, b = train_stage2(X, o, np.ones(len(X)), 1e-4)
        margins = (2.0 * o - 1.0) * (X @ w + b)
        assert np.all(margins > 0)
        assert float(np.mean(margins >= 1.0)) > 0.95

    def test_zero_weight_example_is_inert(self):
        X, o = separable_set(n_per_side=8)
        ones = np.ones(len(X))
        w1, b1 = train_stage2(X, o, ones, TOY_L2)
        w2, b2 = train_stage2(
            np.vstack([X, [[5.0, -5.0]]]), np.append(o, 1), np.append(ones, 0.0), TOY_L2
        )
        assert np.allclose(w1, w2, atol=1e-6) and b1 == pytest.approx(b2, abs=1e-6)

    def test_doubling_weights_keeps_boundary(self):
        X, o = separable_set(n_per_side=8)
        # weight-normalized objective: doubling all weights changes nothing
        w1, b1 = train_stage2(X, o, np.ones(len(X)), TOY_L2)
        w2, b2 = train_stage2(X, o, np.full(len(X), 0.5), TOY_L2)
        assert np.allclose(w1, w2, atol=1e-6) and b1 == pytest.approx(b2, abs=1e-6)

    def test_degenerate_rejected(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateTrainingSetError):
            train_stage2(X, np.array([1, 0]), np.array([1.0, 0.0]), TOY_L2)


class TestCalibrate:
    def test_symmetric_margins_give_zero_intercept(self):
        margins = np.concatenate([np.linspace(0.2, 2.0, 40), -np.linspace(0.2, 2.0, 40)])
        labels = np.array([1] * 40 + [0] * 40)
        a, b = calibrate(margins, labels)
        assert a < 0
        assert b == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_margin(self):
        rng = np.random.default_rng(5)
        margins = rng.normal(size=200)
        labels = (margins + rng.normal(scale=0.5, size=200) > 0).astype(int)
        a, b = calibrate(margins, labels)
        assert a < 0
        grid = np.linspace(-3, 3, 50)
        probs = 1.0 / (1.0 + np.exp(a * grid + b))
        assert np.all(np.diff(probs) > 0)

    def test_separated_margins_threshold(self):
        margins = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        a, b = calibrate(margins, labels)
        probs = 1.0 / (1.0 + np.exp(a * margins + b))
        assert np.all(probs[labels == 1] > 0.5)
        assert np.all(probs[labels == 0] < 0.5)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateTrainingSetError):
            calibrate([0.5, 1.0], [1, 1])


@pytest.fixture(scope="module")
def relabeled_rows():
    X, o = separable_set()
    model = train_stage1(X, o, TOY_L2)
    rows, _, _ = build_relabeled(X, o, model, estimate_e(model, X[o == 1]))
    return rows, len(X)


class TestCalibrationSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_row_on_both_sides(self, relabeled_rows, seed):
        rows, n_rows = relabeled_rows
        fit, cal = calibration_split(rows, n_rows, seed)
        assert not set(rows[fit]) & set(rows[cal])
        assert sorted(np.concatenate([fit, cal])) == list(range(len(rows)))
        assert len(set(rows[cal])) == round(0.2 * n_rows)

    def test_seeded(self, relabeled_rows):
        rows, n_rows = relabeled_rows
        a, b = calibration_split(rows, n_rows, 3), calibration_split(rows, n_rows, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], calibration_split(rows, n_rows, 4)[1])

    def test_holds_out_at_least_one_row(self):
        fit, cal = calibration_split(np.array([0, 1, 1]), 2, 0)
        assert len(cal) >= 1 and len(fit) + len(cal) == 3


def trained_toy_model(seed=0):
    X, o = separable_set(seed=seed)
    return train_pu_model(X, o, toy_layout(), TOY_L2, TOY_L2, seed=seed), X, o


class TestPUModel:
    def test_predict_prob_deterministic_and_monotone_in_margin(self):
        model, X, o = trained_toy_model()
        assert model.prob_from_margin(model.margins(X[0])) == model.prob_from_margin(
            model.margins(X[0])
        )
        margins = model.margins(X)
        probs = np.asarray(model.prob_from_margin(margins))
        order = np.argsort(margins)
        assert np.all(np.diff(probs[order]) >= 0)

    def test_training_positives_score_higher(self):
        model, X, o = trained_toy_model()
        probs = np.asarray(model.prob_from_margin(model.margins(X)))
        assert probs[o == 1].mean() > probs[o == 0].mean()

    def test_layout_mismatch_on_predict(self):
        model, _, _ = trained_toy_model()
        alien = FeatureExtractor(bow_layout(("alpha", "beta")))  # same width, other layout
        with pytest.raises(LayoutMismatchError):
            SentenceClassifier(model, alien)

    def test_training_matrix_must_match_layout(self):
        X, o = separable_set()
        with pytest.raises(LayoutMismatchError):
            train_pu_model(X, o, toy_layout(3), TOY_L2, TOY_L2)
        with pytest.raises(ValueError):
            train_pu_model(X, o + 1, toy_layout(), TOY_L2, TOY_L2)

    def test_fixed_seed_identical_model_bytes(self, tmp_path):
        m1, _, _ = trained_toy_model(seed=3)
        m2, _, _ = trained_toy_model(seed=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSaveLoad:
    def test_round_trip_bit_exact_predictions(self, tmp_path):
        model, X, o = trained_toy_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(0)
        for row in rng.normal(size=(100, 2)):
            assert loaded.prob_from_margin(loaded.margins(row)) == model.prob_from_margin(
                model.margins(row)
            )

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not valid json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 1}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model, _, _ = trained_toy_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        obj = json.loads(path.read_text())
        obj["version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_ignores_schedule_blocks_of_older_files(self, tmp_path):
        model, X, _ = trained_toy_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        obj = json.loads(path.read_text())
        schedule = {"l2": 0.01, "epochs": 300, "lr0": 0.5, "lr_tau": 1.0}
        obj["stage1"]["hyper"] = obj["svm"]["hyper"] = schedule
        path.write_text(json.dumps(obj))
        loaded = load_model(path)
        assert np.array_equal(loaded.margins(X), model.margins(X))

    def test_tampered_layout_hash(self, tmp_path):
        model, _, _ = trained_toy_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        obj = json.loads(path.read_text())
        obj["layout_hash"] = "0" * 64
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError, match="hash"):
            load_model(path)


SCORED_V1 = "#scored mrc imagery imagery:0:100\nalpha\timagery\t10\nbeta\timagery\t90\n"
SCORED_V2 = "#scored mrc imagery imagery:0:100\nalpha\timagery\t11\nbeta\timagery\t90\n"
CATS_TSV = "#categories inq NEG\nalpha\tNEG\n"


class TestSentenceClassifier:
    def train_text_model(self, scored_tsv):
        scored = load_scored_lexicon(io.StringIO(scored_tsv), bins=10)
        cats = load_category_lexicon(io.StringIO(CATS_TSV))
        layout = dictionary_layout([scored], [cats])
        ex = FeatureExtractor(layout, [scored], [cats])
        sents = [make_sentence(i, "alpha alpha alpha beta") for i in range(8)]
        sents += [make_sentence(i, "beta beta gamma delta epsilon") for i in range(8)]
        X = np.array([ex.extract(s) for s in sents])
        o = np.array([1] * 8 + [0] * 8)
        model = train_pu_model(X, o, layout, TOY_L2, TOY_L2, seed=0)
        return model, ex

    def test_mutated_lexicon_rejected_at_predict(self):
        model, _ = self.train_text_model(SCORED_V1)
        scored2 = load_scored_lexicon(io.StringIO(SCORED_V2), bins=10)
        cats = load_category_lexicon(io.StringIO(CATS_TSV))
        layout2 = dictionary_layout([scored2], [cats])
        ex2 = FeatureExtractor(layout2, [scored2], [cats])
        with pytest.raises(LayoutMismatchError):
            SentenceClassifier(model, ex2)

    def test_classifier_probabilities(self):
        model, ex = self.train_text_model(SCORED_V1)
        clf = SentenceClassifier(model, ex)
        sent = make_sentence(0, "alpha alpha alpha beta")
        p = clf.prob(sent)
        assert 0.0 < p < 1.0
        assert p == float(model.prob_from_margin(model.margins(ex.extract(sent))))
