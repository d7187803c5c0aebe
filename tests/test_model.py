import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from infosum.cli import EXIT_OK, FeaturesSection, main
from infosum.corpus import load_corpus
from infosum.features import FeatureExtractor, bow_layout, bow_vocabulary, dictionary_layout
from infosum.lexicons import read_category_lexicon, read_scored_lexicon
from infosum.model import PROB_EPS, Calib, Linear, PUModel, load_model, pairwise_sum, save_model
from infosum.sparse import CsrMatrix
from infosum.synth import SynthParams, write_synth_bundle


def bits(values):
    return [float(v).hex() for v in values]


def math_sigmoid_prob(calib, margin):
    """1 / (1 + exp(A * margin + B)) with `math.exp`, as the masked two-branch form,
    clipped into [PROB_EPS, 1 - PROB_EPS]."""
    z = -(calib.A * margin + calib.B)
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        p = ez / (1.0 + ez)
    return min(max(p, PROB_EPS), 1.0 - PROB_EPS)


def left_fold(linear, cols, values):
    total = 0.0
    for col, value in zip(cols, values):
        total += value * linear.weights[col]
    return total + linear.bias


def numpy_margins(linear, rows, n_cols):
    """The training product of the rows: one CsrMatrix of all of them, @ w + b."""
    X = CsrMatrix.from_rows(rows, n_cols)
    return (X @ np.array(linear.weights) + linear.bias).tolist()


class TestMarginInNumpysOrder:
    """`Linear.margin` must keep the bits of numpy's CSR product, whose `reduceat` adds
    each row pairwise; a numpy release that changed that order fails here."""

    SIZES = (0, 1, 7, 8, 9, 127, 128, 129, 300)

    def random_rows(self, n_cols, seed):
        draw = np.random.default_rng(seed)
        rows = []
        for n in self.SIZES:
            for _ in range(40):
                cols = np.sort(draw.choice(n_cols, size=n, replace=False))
                values = draw.normal(size=n) * 10.0 ** draw.uniform(-4, 4, size=n)
                rows.append((cols.tolist(), values.tolist()))
        linear = Linear(tuple(draw.normal(size=n_cols).tolist()), float(draw.normal()))
        return linear, rows

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_rows_of_every_length_class(self, seed):
        linear, rows = self.random_rows(400, seed)
        assert bits(linear.margin(*row) for row in rows) == bits(numpy_margins(linear, rows, 400))
        # The order matters on these rows: adding them in sequence moves some margins.
        assert bits(left_fold(linear, *row) for row in rows) != bits(numpy_margins(linear, rows, 400))

    @pytest.mark.parametrize("bias", [0.25, 0.0, -0.0])
    def test_empty_row_is_zero_plus_bias(self, bias):
        linear = Linear((1.0, 2.0), bias)
        assert bits([linear.margin([], [])]) == bits(numpy_margins(linear, [([], [])], 2)) == bits([0.0 + bias])

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 130])
    def test_signed_zeros(self, n):
        """Numpy's pairwise sum starts from -0.0, so a row of -0.0 products stays -0.0."""
        linear = Linear((1.0,) * 200, -0.0)
        row = (list(range(n)), [-0.0] * n)
        assert bits([linear.margin(*row)]) == bits(numpy_margins(linear, [row], 200)) == bits([-0.0])

    @pytest.mark.parametrize("mode", ["dictionary", "bow"])
    def test_extract_rows_of_both_feature_modes(self, tmp_path, mode):
        paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=20, n_test_docs=5))
        if mode == "bow":
            extractor = FeatureExtractor(bow_layout(bow_vocabulary(load_corpus(paths["train_corpus"]), 1)))
        else:
            scored = [read_scored_lexicon(paths["scored_lexicon"])]
            category = [read_category_lexicon(paths["category_lexicon"])]
            extractor = FeatureExtractor(dictionary_layout(scored, category, FeaturesSection().bins), scored, category)
        n_cols = extractor.layout.total_dim
        rows = [extractor.extract(sent) for doc in load_corpus(paths["test_corpus"]) for sent in doc.sentences]
        assert max(len(cols) for cols, _ in rows) >= 9
        draw = np.random.default_rng(3)
        linear = Linear(tuple(draw.normal(size=n_cols).tolist()), 0.125)
        margins = numpy_margins(linear, rows, n_cols)
        assert bits(linear.margin(*row) for row in rows) == bits(margins)
        calib = Calib(-1.25, 0.5)
        assert bits(calib.prob(m) for m in margins) == bits(math_sigmoid_prob(calib, m) for m in margins)


def test_pairwise_sum_is_numpys_on_long_sums():
    """`np.add.reduce` of a non-empty vector is numpy's pairwise sum of all of it."""
    terms = (np.random.default_rng(7).normal(size=5000) * 1e3).tolist()
    for n in (1, 7, 8, 9, 15, 16, 128, 129, 130, 1000, 5000):
        assert pairwise_sum(terms[:n]).hex() == float(np.add.reduce(np.array(terms[:n]))).hex()


@pytest.mark.parametrize("margin", [0.0, -0.0, 1e-300, 0.5, -3.0, 40.0, -40.0, 700.0, -745.0, 1e6, -1e6, 1e308])
def test_prob_is_the_clipped_math_sigmoid(margin):
    calib = Calib(-1.5, 0.25)
    assert calib.prob(margin).hex() == math_sigmoid_prob(calib, margin).hex()
    assert PROB_EPS <= calib.prob(margin) <= 1.0 - PROB_EPS


# A fixed model over the shipped layout of synth's lexicons, and the predictions it
# gives on the test corpus of the bundle `tests/test_synth.py` pins as "a". Predict
# runs no numpy, so these bytes are the same on every Python the package supports.
PINNED_SHA256 = {
    "model.json": "6a987b68381753fc1dddfae4078a7fc5b3cbe17c4b8a6f87d13ee06f3a4020a3",
    "predictions.jsonl": "a5c45a0a6dd1f704d8595591b9c6169676ced0df3f4aeb5c3da0799a17caf6f3",
}


def pinned_model(layout):
    weights = tuple((i % 7 - 3) / 8 for i in range(layout.total_dim))
    return PUModel(e=0.5, svm=Linear(weights, 3.0), calib=Calib(-2.0, 0.125), seed=0)


def test_predictions_of_a_fixed_model_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paths = write_synth_bundle("a", SynthParams(n_train_docs=20, n_test_docs=5))
    scored = [read_scored_lexicon(paths["scored_lexicon"])]
    category = [read_category_lexicon(paths["category_lexicon"])]
    layout = dictionary_layout(scored, category, FeaturesSection().bins)
    run = Path("run")
    run.mkdir()
    save_model(pinned_model(layout), layout, run / "model.json")
    assert main(["predict", "-c", paths["config"], "--out-dir", str(run)]) == EXIT_OK
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    labels = [json.loads(line)["label"] for line in (run / "predictions.jsonl").read_text().splitlines()]
    assert 0 < sum(labels) < len(labels)
    assert load_model(run / "model.json") == (pinned_model(layout), layout)
    assert got == PINNED_SHA256
