"""The bytes of label, summarize and evaluate on one small synth bundle, pinned.

Label (in extract and in alignment mode), summarize and evaluate run no
numpy, so their files must be the same on every Python the package
supports and on every CPU. This module imports neither numpy nor pytest: CI
runs it on each of its Pythons with `sys.modules["numpy"] = None`. The
bundle is the one `tests/test_synth.py` pins as "a". Summarize and evaluate
read a predictions file that the test writes from the gold labels, so no
trained model enters these bytes; `tests/test_model.py` pins predict's.
"""

import hashlib
import json
from pathlib import Path

from infosum.cli import EXIT_OK, main
from infosum.corpus import write_jsonl
from infosum.synth import SynthParams, write_synth_bundle

PINNED_SHA256 = {
    "extract/labels.jsonl": "d2b13d23ddefc0d54094fa271ed371fe6e177b48aa71604597e5d3705754ef22",
    "alignment/labels.jsonl": "f7253770b3d64e038e37f0efe813e22d977bb58fd29578f50fb208cabbde6845",
    "run/summaries_leadwords.jsonl": "ffc40226133947eadcd68a712fdab24925e18b406a1b4f6bf7a705d389422b1b",
    "run/summaries_inforank.jsonl": "6610dcef043abae2140ea2e6ce3cd4b60d41ed17ffe4e8f56e4cf4c1dfb3476e",
    "run/summaries_infofilter.jsonl": "771156842a58b4317dfb10f73f072fb9940706a3f1fb02940b51f03421e788d2",
    "run/summaries_randomrank.jsonl": "db67e3a53c48c3f7498454f2f02cdd69b4b022e82e706e12c74b1b812d3bf18a",
    "run/report.json": "a4b9d8f0da0402d0dc0334c08e7a18f5b95664bc566c6c8c0c8585cb226a4217",
    "run/report.txt": "0d86e612c6c0169cfb387e89c9a859dd1544e1a74651f7b58a22fc586748b2d7",
}


def test_label_summarize_and_evaluate_bytes_are_pinned(tmp_path):
    paths = write_synth_bundle(tmp_path / "a", SynthParams(n_train_docs=20, n_test_docs=5))
    config = paths["config"]
    for mode in ("extract", "alignment"):
        out = str(tmp_path / mode)
        assert main(["label", "-c", config, "--out-dir", out, "--set", f"label.mode={mode}"]) == EXIT_OK
    run = tmp_path / "run"
    run.mkdir()
    gold = [json.loads(line) for line in Path(paths["gold_labels"]).read_text(encoding="utf-8").splitlines()]
    # Above 0.5 for a gold 1 and at most 0.25 for a 0, falling with the sentence id.
    write_jsonl([{**g, "prob": (g["label"] + 1 / (2 + g["sentence_id"])) / 2} for g in gold], run / "predictions.jsonl")
    for command in ("summarize", "evaluate"):
        assert main([command, "-c", config, "--out-dir", str(run)]) == EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert got == PINNED_SHA256
