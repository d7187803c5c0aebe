"""The CLI as a property over generated inputs.

Each example writes a tiny synth bundle (down to one document of one
sentence, every rate on a grid across [0, 1]), mutates its corpora, and runs
the five commands in-process under each config variant, twice, into two out
dirs.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

from hypothesis import given, settings, strategies as st

from infosum.cli import EXIT_OK, EXIT_VALIDATION, RunConfig, main
from infosum.corpus import write_jsonl
from infosum.synth import SynthParams, write_synth_bundle

from test_cli import _leaves
from variants import COMMANDS, VARIANTS, out_files, set_args

# A rate on a grid of twentieths, so that the ends, 0 and 1, take 2 of its 21 values.
RATES = st.integers(0, 20).map(lambda k: k / 20)
PARAMS = st.builds(SynthParams, n_train_docs=st.integers(1, 4), n_test_docs=st.integers(1, 3),
                   sentences_per_doc=st.integers(1, 6), label_rate=RATES, positive_rate=RATES,
                   signal_rate=RATES, crossover_rate=RATES, seed=st.integers(0, 7))
WORDLESS = st.sampled_from(["", "...", "— !"])
# (corpus, mutation, wordless text, document index, sentence index); each index is
# taken modulo the number of documents or sentences.
MUTATIONS = st.lists(st.tuples(st.sampled_from(["train_corpus", "test_corpus"]),
                               st.sampled_from(["wordless sentence", "wordless summary", "no summary"]),
                               WORDLESS, st.integers(0, 3), st.integers(0, 3)), max_size=3)

DEFAULTS = RunConfig(seed=0, out_dir=".")
CONFIG_KEYS = tuple(key for key, _ in _leaves(asdict(DEFAULTS)))
# What an exit-2 message names: a file kind and its line at fault, a config key,
# or a labels file that lacks a flag as a whole.
CAUSES = (r"\b[a-z]+(?: [a-z]+)* line \d+: ", *(rf"(?<![\w.]){re.escape(key)}\b" for key in CONFIG_KEYS),
          r"\blabels\.jsonl holds no ")


def mutate(paths: dict[str, str], mutations) -> None:
    """Apply each drawn mutation to the bundle's corpus files in place."""
    for split, mutation, text, d, s in mutations:
        path = Path(paths[split])
        docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        doc = docs[d % len(docs)]
        if mutation == "wordless sentence":
            doc["sentences"][s % len(doc["sentences"])] = text
        elif mutation == "wordless summary":
            doc["summary"] = [text]
        else:
            doc.pop("summary", None)
        write_jsonl(docs, path)


def run(config: str, out: Path, variant: str) -> list[tuple[str, int, str]]:
    """Each command's (name, exit code, stderr) in turn, up to the first that fails."""
    runs = []
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "-c", config, "--out-dir", str(out), *set_args(variant)])
        runs.append((command, code, err.getvalue()))
        if code != EXIT_OK:
            break
    return runs


def has_reference(doc: dict) -> bool:
    """A summary with a word: every word the generated texts hold has a letter or a digit."""
    return any(any(ch.isalnum() for ch in sentence) for sentence in doc.get("summary", ()))


def scores(report: dict):
    """Every recall, precision, F1 and p-value in the report."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from scores(value)
        elif key in ("recall", "precision", "f1", "p_value"):
            yield key, value


def check_variant(paths: dict[str, str], root: Path, variant: str) -> None:
    """Run the pipeline twice under `variant`, in two out dirs under `root`, and check
    its exit codes, its bytes and, when evaluate ran, its report."""
    first = run(paths["config"], root / "run", variant)
    second = run(paths["config"], root / "rerun", variant)
    assert [code for _, code, _ in second] == [code for _, code, _ in first]
    assert (root / "rerun").exists() == (root / "run").exists()
    if (root / "run").exists():  # label makes it unless it fails
        assert out_files(root / "rerun") == out_files(root / "run")

    command, code, err = first[-1]
    assert code in (EXIT_OK, EXIT_VALIDATION), (command, err)
    if code == EXIT_VALIDATION:
        assert any(re.search(cause, err) for cause in CAUSES), (command, err)
        return
    report = json.loads((root / "run" / "report.json").read_text(encoding="utf-8"))
    assert [(key, value) for key, value in scores(report) if not 0.0 <= value <= 1.0] == []
    test_docs = [json.loads(line) for line in Path(paths["test_corpus"]).read_text(encoding="utf-8").splitlines()]
    n_docs = sum(map(has_reference, test_docs))
    for row in report.get("rouge", {}).values():
        assert row["n_docs"] == n_docs
        assert row["mean_words"] <= DEFAULTS.budget.max_words
    assert ("rouge" in report) == (n_docs > 0)


# 12 examples take 2 to 3 s on a 2-core host. In 7 of them the default and nogeneral
# variants run all five commands, and in 3 the bow variant does.
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(PARAMS, MUTATIONS)
def test_each_command_exits_0_or_2_and_reruns_to_the_same_bytes(params, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_synth_bundle(root / "bundle", params)
        mutate(paths, mutations)
        for variant in VARIANTS:
            check_variant(paths, root / variant, variant)
