"""Positive-unlabeled data drawn directly in feature space, for estimator tests.

Two Gaussian clusters with positives labeled at a known frequency, so a test
can check that the PU learner recovers that frequency (criteria 1 and 2 of
the acceptance suite).
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class GaussianPUData:
    X_train: np.ndarray
    o: np.ndarray
    train_y: np.ndarray
    X_test: np.ndarray
    test_y: np.ndarray


def gaussian_pu_dataset(
    n_train: int = 2000,
    n_test: int = 1000,
    label_rate: float = 0.7,
    separation: float = 3.5,
    dim: int = 4,
    seed: int = 0,
) -> GaussianPUData:
    """Two unit-variance Gaussian clusters `separation` apart along the diagonal.

    Half the points are truly positive (y=1) around the +mean; each truly
    positive training point carries a positive label o=1 with probability
    label_rate. Test points keep their full y labels.
    """
    if not 0.0 < label_rate <= 1.0:
        raise ValueError("label_rate must be in (0, 1]")
    rng = np.random.default_rng(seed)
    direction = np.ones(dim) / math.sqrt(dim)

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        half = n // 2
        y = np.array([1] * half + [0] * (n - half))
        shift = np.where(y[:, None] == 1, separation / 2.0, -separation / 2.0)
        X = rng.standard_normal((n, dim)) + shift * direction
        return X, y

    X_train, y_train = draw(n_train)
    o = ((y_train == 1) & (rng.random(n_train) < label_rate)).astype(int)
    if o.sum() == 0 or o.sum() == n_train:
        raise ValueError("degenerate draw: adjust n_train or label_rate")
    X_test, y_test = draw(n_test)
    return GaussianPUData(X_train=X_train, o=o, train_y=y_train, X_test=X_test, test_y=y_test)
