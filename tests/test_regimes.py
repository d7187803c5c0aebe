"""Detector F1 on the nine regime bundles of `regimes.py`, each against a floor.

Each bundle's training rows are fitted at the shipped `hyper.l2`, as
`infosum train` fits them, and its test sentences are scored by predict's
scorer. Each floor is the F1 measured when the floor was set, less 0.02,
rounded down; a change may raise a floor when it lifts the F1, and must not
lower one. A failure gives e, the true label frequency c (Elkan & Noto, KDD
2008) and a 10-bin expected calibration error. All-positive predictions,
which score the base rate's F1, must fail every floor.
"""

import pytest

from infosum.metrics import prf
from infosum.model import SentenceClassifier
from infosum.pu import train_pu_model
from infosum.summarize import predicted_important

# F1 at the tree that set them (seeds 0/1/2): paper-150 0.990/0.993/0.991,
# bow-align-hivocab 0.965/0.975/0.976, weak 0.728/0.734/0.733.
FLOORS = {
    ("paper-150", 0): 0.970, ("paper-150", 1): 0.973, ("paper-150", 2): 0.970,
    ("bow-align-hivocab", 0): 0.944, ("bow-align-hivocab", 1): 0.955, ("bow-align-hivocab", 2): 0.955,
    ("weak", 0): 0.707, ("weak", 1): 0.713, ("weak", 2): 0.713,
}


def detector_f1(probs, gold) -> float:
    """F1 of the labels `int(prob >= 0.5)` that predict writes, against the gold labels."""
    pred = [predicted_important(p) for p in probs]
    tp = sum(1 for p, y in zip(pred, gold) if p and y)
    fp = sum(1 for p, y in zip(pred, gold) if p and not y)
    fn = sum(1 for p, y in zip(pred, gold) if not p and y)
    return prf(tp, fp, fn, len(gold) - tp - fp - fn)["f1"]


def calibration_error(probs, gold, bins: int = 10) -> float:
    """Expected calibration error: the share-weighted |mean prob - gold rate| over equal-width bins."""
    gaps = [0.0] * bins
    for p, y in zip(probs, gold):
        gaps[min(int(p * bins), bins - 1)] += p - y
    return sum(abs(gap) for gap in gaps) / len(probs)


@pytest.mark.parametrize("name, seed", sorted(FLOORS))
def test_detector_meets_its_floor(regime, name, seed):
    r = regime(name, seed)
    model, _ = train_pu_model(r.X, r.o, r.cfg.hyper.l2, r.cfg.seed)
    probs = SentenceClassifier(model, r.extractor).prob(r.test)
    f1 = detector_f1(probs, r.gold)
    assert f1 >= FLOORS[name, seed], (
        f"{name} seed {seed}: detector F1 {f1:.4f} below its floor {FLOORS[name, seed]}; "
        f"e {model.e:.4f}, c {r.c:.4f}, 10-bin ECE {calibration_error(probs, r.gold):.4f}"
    )


def test_all_positive_predictions_fail_every_floor(regime):
    passed = []
    for key, floor in FLOORS.items():
        gold = regime(*key).gold
        if detector_f1([1.0] * len(gold), gold) >= floor:
            passed.append(key)
    assert passed == []
