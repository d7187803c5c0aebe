"""The trained model's record, its file, and the scorer predict runs, without numpy.

A `PUModel` is a trained model: the SVM (a `Linear`) and its calibration (a
`Calib`), which predict reads, and the label frequency e and the seed of the
calibration split, which `load_model` checks and keeps as the record of its
training; predict reads neither. `save_model` writes a `ModelFile`, the model
beside the `FeatureLayout` of its columns, and `load_model` reads it back
with `corpus.decode`, so model.json's fields are declared once, by that
record, for the writer and the reader alike. `pu` trains the model and
re-exports the names its callers read.

`SentenceClassifier.prob` scores each test sentence's sparse `extract` row
in pure Python, so predict loads no numpy. `Linear.margin` adds the row's
products `value * weights[column]` in the order numpy's `np.add.reduceat`
adds one row of train's CSR product (`pu.decision`): the first product,
plus `pairwise_sum` of the rest, plus the bias. So each margin has the bits
train computes for that row, whatever the CPU. `Calib.prob` is the
two-branch sigmoid of `pu._sigmoid` with `math.exp` in place of `np.exp`:
a probability can differ from numpy's in its last one or two bits, and
depends on libm as IDF's `math.log` does.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Literal, Sequence

from .corpus import InputFormatError, Sentence, decode, read_json, write_json
from .features import FeatureExtractor, FeatureLayout, LayoutMismatchError

# Version 2 dropped stage 1, `layout_hash` and the layout's derived fields
# (`version`, `blocks`, `total_dim`, `general_width`). `decode` looks for
# undeclared keys before it reads any field, so a version-1 file fails at the
# first key it holds that version 2 dropped; the new number still marks the
# format, and a file that lost those keys but says version 1 fails on it.
MODEL_VERSION = 2
PROB_EPS = 1e-12


class ModelFormatError(InputFormatError):
    """Model file is corrupted, has a bad version, or fails a check of its fields."""


def pairwise_sum(terms: Sequence[float]) -> float:
    """The float sum of `terms` in numpy's pairwise order (its `pairwise_sum` of float64).

    Fewer than 8 terms are added in sequence from -0.0. Up to 128, 8 running
    sums start at the first 8 terms and add each next 8 in turn, and
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) of them takes the tail
    in sequence. Above 128, the halves, split at a multiple of 8, are summed
    so and added.
    """
    n = len(terms)
    if n < 8:
        return reduce(add, terms, -0.0)
    if n <= 128:
        end = n - n % 8
        r = terms[:8]
        for i in range(8, end, 8):
            r = list(map(add, r, terms[i:i + 8]))
        r0, r1, r2, r3, r4, r5, r6, r7 = r
        return reduce(add, terms[end:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])


def _sigmoid(z: float) -> float:
    """1 / (1 + exp(-z)), as 1 / (1 + ez) for z >= 0 and ez / (1 + ez) below, ez = exp(-|z|)."""
    ez = math.exp(min(z, -z))
    return (1.0 if z >= 0 else ez) / (1.0 + ez)


@dataclass(frozen=True)
class Linear:
    """The affine score X @ weights + bias: stage 1's logit and the SVM's margin."""

    weights: tuple[float, ...]
    bias: float

    def margin(self, cols: Sequence[int], values: Sequence[float]) -> float:
        """The score of the sparse row (cols, values), with the bits of its row of
        `pu.decision` on a CsrMatrix: an empty row scores 0.0 + bias."""
        w = self.weights
        products = [value * w[col] for col, value in zip(cols, values)]
        if not products:
            return 0.0 + self.bias
        return products[0] + pairwise_sum(products[1:]) + self.bias


@dataclass(frozen=True)
class Calib:
    """The sigmoid p = 1 / (1 + exp(A * margin + B)) that `pu.calibrate` fits."""

    A: float
    B: float

    def prob(self, margin: float) -> float:
        """The calibrated probability of a margin, clipped into [PROB_EPS, 1 - PROB_EPS]."""
        return min(max(_sigmoid(-(self.A * margin + self.B)), PROB_EPS), 1.0 - PROB_EPS)


@dataclass(frozen=True)
class PUModel:
    """A trained model: the SVM and its calibration, which predict reads, and the
    label frequency e and the calibration split's seed, the record of its training."""

    e: float
    svm: Linear
    calib: Calib
    seed: int


@dataclass(frozen=True)
class ModelFile:
    """model.json: its format version, the FeatureLayout of the model's columns,
    then the fields of a `PUModel`. `save_model` writes `asdict` of one, and
    `load_model` decodes one, so `decode` reads the version and the layout
    before the numbers.
    """

    version: Literal[MODEL_VERSION]
    layout: FeatureLayout
    e: float
    svm: Linear
    calib: Calib
    seed: int

    def __post_init__(self) -> None:
        count = len(self.svm.weights)
        if count != self.layout.total_dim:
            raise ValueError(
                f"model field 'svm.weights' holds {count} weights; its layout has {self.layout.total_dim} columns"
            )
        if not 0.0 < self.e <= 1.0:
            raise ValueError(f"model field 'e' must be in (0, 1], not {self.e!r}")
        if self.seed < 0:
            raise ValueError(f"model field 'seed' must be >= 0, not {self.seed!r}")


class SentenceClassifier:
    """Couples a trained model with an extractor on the layout `load_model` returned with it."""

    def __init__(self, model: PUModel, extractor: FeatureExtractor):
        if extractor.layout.total_dim != len(model.svm.weights):
            raise LayoutMismatchError(
                f"extractor gives {extractor.layout.total_dim} features, the model takes {len(model.svm.weights)}"
            )
        self.model = model
        self.extractor = extractor

    def prob(self, sentences: Sequence[Sentence]) -> list[float]:
        """Each sentence's probability: the calibrated margin of its `extract` row."""
        svm, calib = self.model.svm, self.model.calib
        return [calib.prob(svm.margin(*self.extractor.extract(sent))) for sent in sentences]


def save_model(model: PUModel, layout: FeatureLayout, path: str | Path) -> None:
    """`asdict` of the ModelFile of a model and its layout, as JSON with sorted keys;
    shortest round-trip floats make reloads bit-exact."""
    record = ModelFile(MODEL_VERSION, layout, model.e, model.svm, model.calib, model.seed)
    write_json(asdict(record), path)


def load_model(path: str | Path) -> tuple[PUModel, FeatureLayout]:
    """The model and the feature layout that `save_model` wrote to `path`.

    A key the ModelFile does not declare, or a field that fails its checks, is a
    ModelFormatError naming the dotted key; a version-1 file fails at the first
    key that version 2 dropped (see MODEL_VERSION).
    """
    obj = read_json(path, "model")
    try:
        record = decode(ModelFile, obj, "model")
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    return PUModel(record.e, record.svm, record.calib, record.seed), record.layout
