import json
import logging
import math
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from infosum.cli import EXIT_OK, EXIT_VALIDATION, RunConfig, build_extractor, main
from infosum.corpus import load_corpus, write_jsonl
from infosum.pu import decision, load_model, train_pu_model, save_model
from infosum.sparse import CsrMatrix
from infosum.synth import SynthParams, write_synth_bundle

from test_model import math_sigmoid_prob
from variants import COMMANDS, VARIANTS, out_files, set_args


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    params = SynthParams(n_train_docs=60, n_test_docs=24, sentences_per_doc=10, seed=11)
    paths = write_synth_bundle(root, params)
    return paths


SEPARATORS = ("\u2028", "\u2029", "\x85")
NON_ASCII_DOC_ID = "tést-ü∑-0000"
# Each word of letters and digits in sentence 1 of the first test document gains one
# of these endings, in turn: a non-ASCII letter, Arabic-Indic and ASCII digits, an
# inner curly apostrophe and a letter that casefolds to two, and a run of dashes.
NON_ASCII_ENDINGS = ("{}É", "{}٣4", "{}’ß", "{}——ø")


@pytest.fixture(scope="module")
def rewritten_bundle(tmp_path_factory):
    """A 20/5-document bundle whose first test document has a non-ASCII id, in the test
    corpus and the gold labels, and holds U+2028, U+2029 and U+0085 in place of three
    spaces of sentence 0 and non-ASCII words in sentence 1. So every command reads
    chunks of letters and digits alone and chunks that the punctuation rule splits."""
    paths = write_synth_bundle(tmp_path_factory.mktemp("rewritten"), SynthParams(n_train_docs=20, n_test_docs=5))
    gold = [json.loads(line) for line in Path(paths["gold_labels"]).read_text(encoding="utf-8").splitlines()]
    test_corpus = Path(paths["test_corpus"])
    lines = test_corpus.read_bytes().split(b"\n")
    doc = json.loads(lines[0])
    for record in gold:
        if record["doc_id"] == doc["doc_id"]:
            record["doc_id"] = NON_ASCII_DOC_ID
    write_jsonl(gold, paths["gold_labels"])
    doc["doc_id"] = NON_ASCII_DOC_ID
    for separator in SEPARATORS:
        doc["sentences"][0] = doc["sentences"][0].replace(" ", separator, 1)
    doc["sentences"][1] = " ".join(NON_ASCII_ENDINGS[k % 4].format(word) if word.isalnum() else word
                                   for k, word in enumerate(doc["sentences"][1].split()))
    lines[0] = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    test_corpus.write_bytes(b"\n".join(lines))
    return paths


@pytest.fixture(scope="module")
def summarized_corpus(bundle, tmp_path_factory):
    """The bundle's train corpus without the documents that have no summary, which
    alignment labeling rejects (perfbench's high-vocabulary rewrite drops them too)."""
    docs = [json.loads(line) for line in Path(bundle["train_corpus"]).read_text(encoding="utf-8").splitlines()]
    path = tmp_path_factory.mktemp("summarized") / "corpus_train.jsonl"
    write_jsonl([doc for doc in docs if "summary" in doc], path)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(bundle):
    """Run the full pipeline once; tests inspect the artifacts."""
    cfg_path = bundle["config"]
    for command in ("label", "train", "predict", "summarize", "evaluate"):
        assert main([command, "-c", cfg_path]) == EXIT_OK
    run_dir = Path(json.loads(Path(cfg_path).read_text())["out_dir"])
    return cfg_path, run_dir


def _leaves(obj: dict, prefix: str = ""):
    """Each (dotted key, value) of a JSON object whose value is not an object."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


class TestSynthCommand:
    @pytest.fixture
    def built(self, monkeypatch):
        """The SynthParams of each bundle the synth command writes, which writes none."""
        from infosum import synth

        built = []
        monkeypatch.setattr(synth, "write_synth_bundle", lambda out, params: built.append(params) or {"config": ""})
        return built

    def test_absent_flags_keep_the_params_defaults(self, tmp_path, built):
        assert main(["synth", "--out-dir", str(tmp_path / "x")]) == EXIT_OK
        assert built == [SynthParams()]

    def test_each_flag_sets_its_params_field(self, tmp_path, built):
        assert main(["synth", "--out-dir", str(tmp_path / "x"), "--seed", "3", "--train-docs", "8",
                     "--test-docs", "4", "--sentences", "5", "--label-rate", "0.25"]) == EXIT_OK
        assert built == [SynthParams(n_train_docs=8, n_test_docs=4, sentences_per_doc=5, label_rate=0.25, seed=3)]

    def test_config_sets_only_what_the_run_config_cannot_default(self, tmp_path):
        """Each key is an input path, the seed, the out dir or the label mode, and none
        restates its RunConfig default, which so stays the one that runs."""
        paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=2, n_test_docs=1))
        raw = json.loads(Path(paths["config"]).read_text())
        inputs = set(paths.values()) - {paths["config"]}
        defaults = dict(_leaves(asdict(RunConfig(seed=0, out_dir=""))))
        for key, value in _leaves(raw):
            assert key in ("seed", "out_dir", "label.mode") or set(value if isinstance(value, list) else [value]) <= inputs, key
            assert key in ("seed", "out_dir") or value != defaults[key], key
        assert RunConfig.from_dict(raw).label.mode == "extract"

    def test_writes_bundle(self, tmp_path):
        out = tmp_path / "b"
        assert main(["synth", "--out-dir", str(out), "--seed", "3",
                     "--train-docs", "8", "--test-docs", "4"]) == EXIT_OK
        for name in ("config.json", "corpus_train.jsonl", "corpus_test.jsonl",
                     "extracts_train.jsonl", "gold_test.jsonl",
                     "synthmrc.tsv", "synthcats.tsv"):
            assert (out / name).is_file()

    def test_out_dir_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "f"
        out.write_text("")
        assert main(["synth", "--out-dir", str(out)]) == EXIT_VALIDATION
        assert f"error: cannot make out dir {out}: " in capsys.readouterr().err
        assert out.read_text() == ""

    def test_out_dir_under_a_file_exits_2_naming_it(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "sub"
        assert main(["synth", "--out-dir", str(out)]) == EXIT_VALIDATION
        assert f"error: cannot make out dir {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--sentences", "0", "sentences_per_doc must be >= 1, not 0"),
        ("--train-docs", "-3", "n_train_docs must be >= 1, not -3"),
        ("--test-docs", "0", "n_test_docs must be >= 1, not 0"),
        ("--label-rate", "1.5", "label_rate must lie in [0, 1], not 1.5"),
        ("--label-rate", "nan", "label_rate must lie in [0, 1], not nan"),
        ("--seed", "-1", "seed must be >= 0, not -1"),
    ])
    def test_out_of_range_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "b"
        assert main(["synth", "--out-dir", str(out), flag, value]) == EXIT_VALIDATION
        assert f"error: synth: {message}" in capsys.readouterr().err
        assert not out.exists()


# What each command must leave unimported: only train loads numpy and runs the
# learner, predict reads lexicons and scores without numpy in either feature mode,
# synth writes lexicons but reads none, and only evaluate scores ROUGE. No command
# needs numpy.random (`infosum.rng` draws its streams) or `_hashlib`, which maps
# OpenSSL's libcrypto, and none imports the test extra or pytest: scipy.sparse
# alone would cost a command about 22 MB of resident memory.
TEST_ONLY = ("scipy", "hypothesis", "pytest")
LEARNER = ("infosum.lexicons", "infosum.features", "infosum.model", "infosum.pu", "infosum.sparse")
PREDICT_NOT_LOADED = ("numpy", "infosum.pu", "infosum.sparse", "infosum.metrics", "infosum.synth",
                      "infosum.weak_label", "_hashlib", *TEST_ONLY)
NOT_LOADED = {
    ("label", "default"): ("numpy", *LEARNER, "infosum.metrics", "infosum.synth", "_hashlib", *TEST_ONLY),
    ("train", "default"): ("numpy.random", "infosum.metrics", "infosum.synth", "_hashlib", *TEST_ONLY),
    ("predict", "default"): PREDICT_NOT_LOADED,
    ("predict", "bow"): PREDICT_NOT_LOADED,
    ("summarize", "default"): ("numpy", *LEARNER, "infosum.metrics", "infosum.synth", "infosum.weak_label", "_hashlib",
                               *TEST_ONLY),
    ("evaluate", "default"): ("numpy", *LEARNER, "infosum.synth", "infosum.weak_label", "_hashlib", *TEST_ONLY),
    ("synth", "default"): ("numpy", "infosum.features", "infosum.model", "infosum.pu", "infosum.sparse",
                           "infosum.metrics", "infosum.weak_label", "_hashlib", *TEST_ONLY),
}


def test_each_command_imports_only_what_it_runs(tmp_path):
    """Each command runs in a fresh interpreter; a variant other than the default runs
    in an out dir of its own, which holds what its upstream commands wrote in-process."""
    paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=20, n_test_docs=5))
    code = (
        "import json, sys, infosum.cli\n"
        "rc = infosum.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for (command, variant), unwanted in NOT_LOADED.items():
        if command == "synth":
            args = ["--out-dir", str(tmp_path / "synth"), "--train-docs", "2"]
        elif variant == "default":
            args = ["-c", paths["config"]]
        else:
            args = ["-c", paths["config"], "--out-dir", str(tmp_path / variant), *set_args(variant)]
            for upstream in COMMANDS[:COMMANDS.index(command)]:
                assert main([upstream, *args]) == EXIT_OK, (upstream, variant)
        proc = subprocess.run([sys.executable, "-c", code, command, *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc == EXIT_OK, proc.stderr
        assert sorted(set(unwanted) & set(loaded)) == [], (command, variant)


@pytest.mark.parametrize("text", ["", "abc", "ü ∑ 😀 \u2028", '{"a":[1,2]}' * 5000])
def test_sha256_hex_is_hashlibs_digest(text):
    """The content and layout hashes keep their values without OpenSSL."""
    import hashlib

    from infosum.lexicons import sha256_hex

    assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    """Train and predict write the same bytes whichever OpenBLAS kernel runs them.

    The three kernels' runs go side by side, one command at a time.
    """
    paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=20, n_test_docs=5))
    assert main(["label", "-c", paths["config"], "--out-dir", str(tmp_path / "labels")]) == EXIT_OK
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("OPENBLAS_CORETYPE", None)
    runs = {}
    for coretype in (None, "Nehalem", "Prescott"):
        out = tmp_path / (coretype or "default")
        out.mkdir()
        (out / "labels.jsonl").write_bytes((tmp_path / "labels" / "labels.jsonl").read_bytes())
        runs[coretype] = (out, env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype})
    for command in ("train", "predict"):
        procs = [subprocess.Popen([sys.executable, "-m", "infosum.cli", command, "-c", paths["config"],
                                   "--out-dir", str(out)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, env=run_env)
                 for out, run_env in runs.values()]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == EXIT_OK, err
    artifacts = {
        coretype: [(out / name).read_bytes() for name in ("model.json", "predictions.jsonl")]
        for coretype, (out, _) in runs.items()
    }
    assert artifacts["Nehalem"] == artifacts[None]
    assert artifacts["Prescott"] == artifacts[None]


class TestPipelineArtifacts:
    def test_all_artifacts_exist(self, pipeline):
        _, run_dir = pipeline
        expected = [
            "labels.jsonl",
            "model.json",
            "predictions.jsonl",
            "report.json",
            "report.txt",
        ] + [f"summaries_{s}.jsonl" for s in ("leadwords", "inforank", "infofilter", "randomrank")]
        for name in expected:
            assert (run_dir / name).is_file(), name

    def test_resolved_config_written_per_command(self, pipeline):
        _, run_dir = pipeline
        for command in ("label", "train", "predict", "summarize", "evaluate"):
            assert (run_dir / f"resolved_config.{command}.json").is_file()

    def test_label_counts_printed(self, bundle, capsys):
        assert main(["label", "-c", bundle["config"]]) == EXIT_OK
        out = capsys.readouterr().out
        assert "positive=" in out and "unlabeled=" in out and "excluded=" in out

    def test_label_counts_match_hand_labels(self, bundle, pipeline):
        _, run_dir = pipeline
        extracts = {}
        for line in Path(bundle["extracts"]).read_text().splitlines():
            rec = json.loads(line)
            extracts[rec["doc_id"]] = {i for ext in rec["extracts"] for i in ext}
        expected_pos = sum(len(v) for v in extracts.values())
        labels = [json.loads(l) for l in (run_dir / "labels.jsonl").read_text().splitlines()]
        assert sum(1 for l in labels if l["flag"] == "positive") == expected_pos

    def test_model_e_recovers_label_rate(self, pipeline):
        _, run_dir = pipeline
        model, _ = load_model(run_dir / "model.json")
        assert abs(model.e - 0.7) <= 0.1

    def test_report_classification_beats_baseline(self, pipeline):
        _, run_dir = pipeline
        report = json.loads((run_dir / "report.json").read_text())
        cls = report["classification"]
        assert cls["model"]["f1"] > cls["baseline_all_positive"]["f1"]
        assert cls["mcnemar_model_vs_baseline"]["p_value"] < 0.0001

    def test_report_has_rouge_for_all_systems(self, pipeline):
        _, run_dir = pipeline
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report["rouge"]) == {"leadwords", "inforank", "infofilter", "randomrank"}
        for row in report["rouge"].values():
            assert 0.0 <= row["mean"]["r1"]["recall"] <= 1.0

    def test_report_mean_words_is_the_summaries_mean_word_total(self, pipeline):
        _, run_dir = pipeline
        report = json.loads((run_dir / "report.json").read_text())
        table = (run_dir / "report.txt").read_text().splitlines()
        header = table.index("Summarization (ROUGE recall, %)") + 1
        assert table[header].endswith("   words")
        for system, row in report["rouge"].items():
            lines = (run_dir / f"summaries_{system}.jsonl").read_text().splitlines()
            totals = [json.loads(line)["word_total"] for line in lines]
            assert row["n_docs"] == len(totals)
            assert row["mean_words"] == math.fsum(totals) / len(totals)
            row_line = next(line for line in table[header + 1:] if line.startswith(f"{system:<14}"))
            assert row_line.endswith(f"{row['mean_words']:>8.1f}")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_byte_identical_rerun(self, rewritten_bundle, tmp_path, caplog, variant):
        """Run twice into two out dirs, the pipeline writes the same bytes, and its model
        keeps them when loaded and saved again. Each train run logs that stage 1,
        stage 2 and the calibration met their gradient tolerance, and nothing logs a
        warning."""
        runs = []
        for out in (tmp_path / "run", tmp_path / "rerun"):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="infosum"):
                for command in COMMANDS:
                    assert main([command, "-c", rewritten_bundle["config"], "--out-dir", str(out),
                                 *set_args(variant)]) == EXIT_OK, command
            solved = [r.getMessage().split(":")[0] for r in caplog.records if " converged: " in r.getMessage()]
            assert solved == ["stage1 converged", "stage2 converged", "calibration converged"]
            assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
            runs.append(out_files(out))
        assert runs[1].keys() == runs[0].keys()
        assert [name for name, blob in runs[0].items() if runs[1][name] != blob] == []
        save_model(*load_model(tmp_path / "run" / "model.json"), tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == runs[0]["model.json"]

    def test_each_prediction_is_its_row_scored_by_the_training_product(self, pipeline):
        """Each prediction is the math.exp sigmoid of the margin train's numpy product
        gives the sentence's row, to the bit."""
        cfg_path, run_dir = pipeline
        cfg = RunConfig.from_dict(json.loads(Path(cfg_path).read_text()))
        model, layout = load_model(run_dir / "model.json")
        extractor = build_extractor(cfg, layout=layout)
        sentences = [(doc.doc_id, sent) for doc in load_corpus(cfg.test_corpus) for sent in doc.sentences]
        predictions = [json.loads(line) for line in (run_dir / "predictions.jsonl").read_text().splitlines()]
        assert len(predictions) == len(sentences)
        for pred, (doc_id, sent) in zip(predictions, sentences):
            row = CsrMatrix.from_rows([extractor.extract(sent)], layout.total_dim)
            assert (pred["doc_id"], pred["sentence_id"]) == (doc_id, sent.id)
            expected = math_sigmoid_prob(model.calib, decision(model.svm, row)[0])
            assert pred["prob"].hex() == expected.hex(), (doc_id, sent.id)


class TestPipelineCompositionality:
    def test_cmd_train_equals_in_process_pipeline(self, bundle, pipeline, tmp_path):
        cfg_path, run_dir = pipeline
        from infosum.cli import training_rows

        cfg = RunConfig.from_dict(json.loads(Path(cfg_path).read_text()))
        X, o, extractor = training_rows(cfg)
        model, _ = train_pu_model(X, o, cfg.hyper.l2, cfg.seed)
        path = tmp_path / "inprocess.json"
        save_model(model, extractor.layout, path)
        assert path.read_bytes() == (run_dir / "model.json").read_bytes()


class TestModesAndOverrides:
    def test_alignment_mode_smoke(self, bundle, summarized_corpus, tmp_path, capsys):
        out = tmp_path / "alignrun"
        code = main([
            "label", "-c", bundle["config"], "--set", "label.mode=alignment",
            "--set", f"train_corpus={summarized_corpus}",
            "--out-dir", str(out), "--set", "label.t_pos=6", "--set", "label.t_unl=3",
        ])
        assert code == EXIT_OK
        resolved = json.loads((out / "resolved_config.label.json").read_text())
        assert resolved["label"]["mode"] == "alignment"
        assert resolved["label"]["t_pos"] == 6
        labels = (out / "labels.jsonl").read_text().splitlines()
        # alignment labels every sentence of every document that has a summary
        assert len(labels) > 0

    def test_bow_mode(self, bundle, tmp_path):
        out = tmp_path / "bowrun"
        cfg = bundle["config"]
        assert main(["label", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK
        assert main([
            "train", "-c", cfg, "--out-dir", str(out), "--set", "features.mode=bow",
        ]) == EXIT_OK
        _, layout = load_model(out / "model.json")
        assert layout.mode == "bow"
        assert layout.vocab is not None
        assert main(["predict", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK

    def test_no_general_mode_shrinks_layout_by_six(self, bundle, tmp_path):
        out = tmp_path / "ngrun"
        cfg = bundle["config"]
        assert main(["label", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK
        assert main([
            "train", "-c", cfg, "--out-dir", str(out),
            "--set", "features.mode=dictionary-no-general",
        ]) == EXIT_OK
        _, small = load_model(out / "model.json")
        assert main(["train", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK
        _, full = load_model(out / "model.json")
        assert full.total_dim - small.total_dim == 6

    def test_summarize_single_system_without_model(self, bundle, tmp_path):
        out = tmp_path / "leadonly"
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["leadwords"]']) == EXIT_OK
        assert (out / "summaries_leadwords.jsonl").is_file()
        assert not (out / "model.json").exists()


class TestSummarizeFromPredictions:
    """InfoRank and InfoFilter read each test sentence's probability from predictions.jsonl."""

    def out_dir(self, run_dir, out, predictions, model=True):
        """`out` holding `predictions` (None: no file) and, if `model`, a copy of the trained
        model, so that only the predictions can make summarize fail."""
        out.mkdir()
        if predictions is not None:
            (out / "predictions.jsonl").write_text(predictions)
        if model:
            (out / "model.json").write_bytes((run_dir / "model.json").read_bytes())
        return out

    def test_needs_no_model_and_no_lexicon(self, bundle, pipeline, tmp_path):
        _, run_dir = pipeline
        predictions = (run_dir / "predictions.jsonl").read_text()
        out = self.out_dir(run_dir, tmp_path / "only", predictions, model=False)
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'lexicons.scored=["missing.tsv"]']) == EXIT_OK
        for system in ("leadwords", "inforank", "infofilter", "randomrank"):
            name = f"summaries_{system}.jsonl"
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_only_leadwords_reads_the_budget_mode(self, bundle, pipeline, tmp_path):
        """InfoRank and RandomRank take whole sentences in rank order in either mode, and only
        LeadWords cuts a sentence. InfoFilter reads the mode through LeadWords, but on this
        bundle its kept sentences never reach the 100-word budget, so it writes the same
        summaries in both modes too."""
        _, run_dir = pipeline
        predictions = (run_dir / "predictions.jsonl").read_text()
        runs = {}
        for name, overrides in (("default", []), ("whole", ["--set", "budget.mode=whole-sentence"])):
            out = self.out_dir(run_dir, tmp_path / name, predictions, model=False)
            assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out), *overrides]) == EXIT_OK
            runs[name] = {system: (out / f"summaries_{system}.jsonl").read_bytes()
                          for system in ("leadwords", "inforank", "infofilter", "randomrank")}
        for system in ("inforank", "infofilter", "randomrank"):
            assert runs["default"][system] == runs["whole"][system], system
        assert runs["default"]["leadwords"] != runs["whole"]["leadwords"]

    def test_without_predictions_exits_2(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = self.out_dir(run_dir, tmp_path / "none", None)
        capsys.readouterr()
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["inforank"]']) == EXIT_VALIDATION
        assert "run predict first" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summarize", "evaluate"])
    def test_missing_sentence_exits_2_names_it(self, bundle, pipeline, tmp_path, capsys, command):
        _, run_dir = pipeline
        lines = (run_dir / "predictions.jsonl").read_text().splitlines()
        dropped = json.loads(lines.pop(3))
        out = self.out_dir(run_dir, tmp_path / "short", "\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert (f"predictions lack sentence {dropped['sentence_id']} of document {dropped['doc_id']!r}"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    def test_extra_document_exits_2_names_it(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        extra = {"doc_id": "test-9999", "sentence_id": 0, "prob": 0.75, "label": 1}
        predictions = (run_dir / "predictions.jsonl").read_text() + json.dumps(extra) + "\n"
        line = predictions.count("\n")
        out = self.out_dir(run_dir, tmp_path / "stale", predictions)
        capsys.readouterr()
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert (f"predictions line {line}: sentence 0 of document 'test-9999' is not in the test corpus"
                in capsys.readouterr().err)

    def test_evaluate_rejects_stale_predictions_as_summarize_does(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        extra = {"doc_id": "test-9999", "sentence_id": 0, "prob": 0.75, "label": 1}
        predictions = (run_dir / "predictions.jsonl").read_text() + json.dumps(extra) + "\n"
        line = predictions.count("\n")
        out = self.out_dir(run_dir, tmp_path / "stale", predictions, model=False)
        capsys.readouterr()
        assert main(["evaluate", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert (f"predictions line {line}: sentence 0 of document 'test-9999' is not in the test corpus"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()


class TestTrainingConfig:
    def test_l2_defaults_to_the_shipped_penalty(self):
        cfg = RunConfig.from_dict({"seed": 0, "out_dir": "x"})
        assert cfg.hyper.l2 == 1e-2
        assert asdict(cfg)["hyper"] == {"l2": 1e-2}

    def test_l2_of_25_trains_each_stage_to_its_tolerance(self, bundle, pipeline, tmp_path, caplog):
        """25 was the largest penalty the descent schedule took; the solve takes any
        finite positive one."""
        _, run_dir = pipeline
        out = tmp_path / "run"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            assert main(["train", "-c", bundle["config"], "--out-dir", str(out),
                         "--set", "hyper.l2=25"]) == EXIT_OK
        solved = [r.getMessage().split(":")[0] for r in caplog.records if " converged: " in r.getMessage()]
        assert solved == ["stage1 converged", "stage2 converged", "calibration converged"]
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert (out / "model.json").exists()

    def test_l2_override(self, bundle, tmp_path):
        out = tmp_path / "l2"
        assert main(["label", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", "hyper.l2=0.05"]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.label.json").read_text())
        assert resolved["hyper"] == {"l2": 0.05}

    @pytest.mark.parametrize("override, key", [
        ("hyper.epochs=50", "hyper.epochs"),
        ("hyper.lr0=0.1", "hyper.lr0"),
        ("hyper.l2=-1", "hyper.l2"),
        ("hyper.l2=NaN", "hyper.l2"),
        ("hyper.l2=high", "hyper.l2"),
        ("hyper.stage1.l2=1", "hyper.stage1"),
        ("hyper.stage2.l2=1", "hyper.stage2"),
    ])
    def test_bad_training_key_is_validation_error(self, bundle, tmp_path, capsys, override, key):
        code = main(["label", "-c", bundle["config"], "--out-dir", str(tmp_path / "run"),
                     "--set", override])
        assert code == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


# (override, what stderr must say): each names its dotted key
BAD_CONFIG_OVERRIDES = [
    ("label.tpos=6", "unknown config key 'label.tpos'"),
    ("budget.max_word=50", "unknown config key 'budget.max_word'"),
    ("featurs.mode=bow", "unknown config key 'featurs'"),
    ('synth={"n_train_docs": 60}', "unknown config key 'synth'"),
    ("systems=leadwords", "'systems' must be a list"),
    ('lexicons.scored="x.tsv"', "'lexicons.scored' must be a list"),
    ("seed=1.7", "'seed' must be of type int"),
    ("seed=true", "'seed' must be of type int"),
    ("seed=-1", "seed must be >= 0"),
    ("budget.max_words=0", "budget.max_words must be >= 1"),
    ("label.balance_ratio=0", "label.balance_ratio must be positive"),
    ("label.t_unl=20", "label.t_unl (20.0) must be strictly below t_pos"),
    ("features.bins=0", "features.bins must be >= 1"),
    ("features.bow_min_df=0", "features.bow_min_df must be >= 1"),
    ("evaluate.rouge=[0]", "evaluate.rouge must hold orders >= 1"),
    ("evaluate.rouge=[]", "evaluate.rouge must hold at least one order"),
    ("evaluate.rouge=[1,1]", "evaluate.rouge must not repeat an order: [1, 1]"),
    ('systems=["leadwords","leadwords"]', "systems must not repeat a system: ['leadwords', 'leadwords']"),
    ('label.t_pos="14"', "'label.t_pos' must be a finite number"),
    ('label={"mode": "extract", "mode": "alignment"}', "config key 'label': key 'mode' is given twice"),
    pytest.param("label.t_pos=1" + "0" * 400, "'label.t_pos' must be a finite number", id="huge-int"),
    ("label.mode=bogus", "'label.mode' must be one of"),
    ("systems=[]", "systems must hold at least one system"),
    ("hyper.l2=0", "hyper.l2 must be > 0, not 0.0"),
    ("hyper.l2=-1e-3", "hyper.l2 must be > 0, not -0.001"),
    ("hyper.stage1.l2=1", "unknown config key 'hyper.stage1'; hyper takes l2"),
]


class TestConfigSchema:
    @pytest.mark.parametrize("override, message", BAD_CONFIG_OVERRIDES)
    def test_bad_key_or_value_exits_2_at_load(self, bundle, tmp_path, capsys, override, message):
        code = main(["label", "-c", bundle["config"], "--out-dir", str(tmp_path / "run"),
                     "--set", override])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resolved_config_resolves_to_itself(self, bundle):
        cfg = RunConfig.from_dict(json.loads(Path(bundle["config"]).read_text()))
        assert RunConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_numbers_keep_their_declared_type(self):
        cfg = RunConfig.from_dict({"seed": 0, "out_dir": "x", "label": {"t_pos": 12}})
        assert type(cfg.label.t_pos) is float and cfg.label.t_pos == 12.0


class TestRougeCandidate:
    def test_bigrams_stay_inside_sentences(self, tmp_path):
        from infosum.corpus import make_sentence
        from infosum.metrics import rouge_n

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(
            {"doc_id": "d", "sentences": ["a b", "c d"], "summary": ["a b", "c d"]}
        ) + "\n")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"seed": 0, "out_dir": str(tmp_path / "run"), "test_corpus": str(corpus)}
        ))
        assert main(["summarize", "-c", str(cfg), "--set", 'systems=["leadwords"]']) == EXIT_OK
        assert main(["evaluate", "-c", str(cfg)]) == EXIT_OK
        scores = json.loads((tmp_path / "run" / "report.json").read_text())
        scores = scores["rouge"]["leadwords"]["per_doc"]["d"]
        ref = [make_sentence(0, "a b").words, make_sentence(1, "c d").words]
        joined = [make_sentence(0, "a b c d").words]  # the summary text as one sentence
        assert scores["r1"]["precision"] == rouge_n(ref, joined, 1)["precision"] == 1.0
        assert rouge_n(ref, joined, 2)["precision"] == pytest.approx(2 / 3)
        assert scores["r2"]["precision"] == 1.0


BAD_LINES = ['{"doc_id": "train-0000"}', "{not json"]


STRICT_FIELDS = [
    ("extracts", {"extracts": [["1"]]}),
    ("extracts", {"extracts": [[1.7]]}),
    ("extracts", {"extracts": [[True]]}),
    ("labels", {"sentence_id": "1"}),
    ("labels", {"sentence_id": 1.0}),
    ("labels", {"sentence_id": True}),
    ("labels", {}),  # line 2 repeats line 1's sentence
    ("gold labels", {"label": 2}),
    ("gold labels", {"label": True}),
    ("gold labels", {"sentence_id": 1.9}),
    ("gold labels", {}),  # line 2 repeats line 1's sentence
    ("predictions", {}),
    ("predictions", {"label": -1}),
    ("predictions", {"sentence_id": "0"}),
    ("predictions", {"prob": True}),
    ("predictions", {"prob": "0.5"}),
    ("predictions", {"prob": None}),
    ("predictions", {"prob": 1.5}),
    ("predictions", {"prob": -0.25}),
    ("predictions", {"prob": float("nan")}),
    ("summaries", {"selected": [0.0, 1.0]}),
    ("summaries", {"selected": [True]}),
    ("summaries", {"selected": "01"}),
    ("summaries", {"removed": ["1"]}),
    ("summaries", {"word_total": 12.0}),
    # Every decoded kind: a doc_id that is not a string, and a key the record does not
    # declare. A label is positive, a gold label or prediction names sentence 1, and a
    # summary a document the corpus lacks, so that only the bad field can fail the file.
    ("extracts", {"doc_id": ["train-0000"]}),
    ("extracts", {"doc_id": 5}),
    ("extracts", {"extract": [[1]]}),
    ("labels", {"doc_id": ["train-0000"]}),
    ("labels", {"doc_id": 5}),
    ("labels", {"flag": "positive", "score": 1.0}),
    ("labels", {"flag": "positive", "align_score": float("nan")}),
    ("labels", {"flag": "bogus"}),
    ("gold labels", {"sentence_id": 1, "doc_id": ["test-0000"]}),
    ("gold labels", {"sentence_id": 1, "doc_id": 5}),
    ("gold labels", {"sentence_id": 1, "prob": 0.5}),
    ("predictions", {"sentence_id": 1, "doc_id": ["test-0000"]}),
    ("predictions", {"sentence_id": 1, "doc_id": 5}),
    ("predictions", {"sentence_id": 1, "score": 0.5}),
    ("summaries", {"doc_id": ["test-0000"]}),
    ("summaries", {"doc_id": 5}),
    ("summaries", {"doc_id": "test-9999", "rouge": 1.0}),
    ("summaries", {"doc_id": "test-9999", "text": 5}),
    ("summaries", {"doc_id": "test-9999", "fallback": "no"}),
]


class TestBadJsonlLines:
    """A malformed line in any JSONL input exits 2 and names the file kind and line."""

    def run_with_line_2(self, bundle, run_dir, tmp_path, kind, line2, command=None):
        """Run `command` (by default the one that reads `kind`) on its first line followed by `line2`."""
        out = tmp_path / "run"
        out.mkdir()
        source, dest, args = {
            "extracts": (Path(bundle["extracts"]), tmp_path / "extracts.jsonl",
                         ["label", "--set", f"label.extracts={tmp_path / 'extracts.jsonl'}"]),
            "labels": (run_dir / "labels.jsonl", out / "labels.jsonl", ["train"]),
            "predictions": (run_dir / "predictions.jsonl", out / "predictions.jsonl", ["evaluate"]),
            "gold labels": (Path(bundle["gold_labels"]), tmp_path / "gold.jsonl",
                            ["evaluate", "--set", f"evaluate.gold_labels={tmp_path / 'gold.jsonl'}"]),
            "summaries": (run_dir / "summaries_leadwords.jsonl", out / "summaries_leadwords.jsonl",
                          ["evaluate", "--set", 'systems=["leadwords"]']),
        }[kind]
        if kind == "gold labels":
            (out / "predictions.jsonl").write_bytes((run_dir / "predictions.jsonl").read_bytes())
        first = source.read_text().splitlines()[0]
        dest.write_text(f"{first}\n{line2(json.loads(first))}\n")
        return main([command or args[0], "-c", bundle["config"], "--out-dir", str(out), *args[1:]])

    @pytest.mark.parametrize("bad_line", BAD_LINES)
    @pytest.mark.parametrize("kind", ["extracts", "labels", "predictions", "gold labels", "summaries"])
    def test_exit_2_names_line(self, bundle, pipeline, tmp_path, capsys, kind, bad_line):
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(bundle, run_dir, tmp_path, kind, lambda first: bad_line)
        assert code == EXIT_VALIDATION
        assert f"{kind} line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,fields", STRICT_FIELDS, ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
    def test_ill_typed_id_or_label_exits_2_names_line(self, bundle, pipeline, tmp_path, capsys, kind, fields):
        """Every field has its exact JSON type: ids, summary id lists and word totals are JSON
        integers, a gold or predicted label is 0 or 1, a prediction's prob is a number in [0, 1],
        and no record holds a key its kind does not declare; nothing is converted. A sentence is
        labeled or predicted once."""
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(bundle, run_dir, tmp_path, kind, lambda first: json.dumps({**first, **fields}))
        assert code == EXIT_VALIDATION
        assert f"{kind} line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{}, {"prob": True}], ids=["repeat", "bool-prob"])
    def test_summarize_reads_predictions_as_evaluate_does(self, bundle, pipeline, tmp_path, capsys, fields):
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(bundle, run_dir, tmp_path, "predictions",
                                    lambda first: json.dumps({**first, **fields}), command="summarize")
        assert code == EXIT_VALIDATION
        assert "predictions line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "summarize"])
    def test_label_disagreeing_with_prob_exits_2_names_line(self, bundle, pipeline, tmp_path, capsys, command):
        """Evaluate reads a prediction's label and InfoFilter its prob, so the two must agree."""
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(
            bundle, run_dir, tmp_path, "predictions",
            lambda first: json.dumps({**first, "sentence_id": first["sentence_id"] + 1, "label": 1 - first["label"]}),
            command=command,
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "predictions line 2" in err and "disagrees with prob" in err

    def test_document_summarized_twice_exits_2_names_file_line_and_document(self, bundle, pipeline, tmp_path,
                                                                              capsys):
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(bundle, run_dir, tmp_path, "summaries", lambda first: json.dumps(first))
        assert code == EXIT_VALIDATION
        first = json.loads((run_dir / "summaries_leadwords.jsonl").read_text().splitlines()[0])
        assert (f"summaries_leadwords.jsonl: summaries line 2: document {first['doc_id']!r} appears twice"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fields, message", [
        ({"extracts": []}, "document 'train-0000' appears twice"),
        ({"doc_id": "nope"}, "document 'nope' is not in the train corpus"),
    ], ids=["repeat", "unknown"])
    def test_extracts_of_a_repeated_or_unknown_document_exit_2_names_line(self, bundle, pipeline, tmp_path, capsys,
                                                                          fields, message):
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(bundle, run_dir, tmp_path, "extracts", lambda first: json.dumps({**first, **fields}))
        assert code == EXIT_VALIDATION
        assert f"extracts line 2: {message}" in capsys.readouterr().err

    def test_extract_id_out_of_range_exits_2_names_document(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(
            bundle, run_dir, tmp_path, "extracts",
            lambda first: json.dumps({**first, "doc_id": "train-0001", "extracts": [[99]]}),
        )
        assert code == EXIT_VALIDATION
        assert ("extracts line 2: extract sentence id 99 out of range for document 'train-0001'"
                in capsys.readouterr().err)


# (dotted field of the trained model.json set to value, or None and the whole
# file's text, or the text as a function of the trained model's; the error line
# predict must print). A value for a weight vector replaces its first weight.
BAD_MODEL_FILES = [
    (None, "{not json",
     "model: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    pytest.param(None, lambda text: '{"seed": 7,' + text[1:], "model: key 'seed' is given twice", id="repeated-key"),
    (None, '{"version": 2}', "model field 'layout' is mandatory"),
    ("version", 1, "model key 'version' must be one of 2, not 1"),
    ("version", 99, "model key 'version' must be one of 2, not 99"),
    ("svm.weights", float("-inf"), "model key 'svm.weights' must be a finite number, not -inf"),
    ("svm.bias", float("nan"), "model key 'svm.bias' must be a finite number, not nan"),
    ("calib.A", float("nan"), "model key 'calib.A' must be a finite number, not nan"),
    ("calib.B", float("inf"), "model key 'calib.B' must be a finite number, not inf"),
    ("e", float("nan"), "model key 'e' must be a finite number, not nan"),
    ("seed", 3.9, "model key 'seed' must be of type int, not 3.9"),
    ("seed", "3", "model key 'seed' must be of type int, not '3'"),
    ("seed", True, "model key 'seed' must be of type int, not True"),
    ("seed", -1, "model field 'seed' must be >= 0, not -1"),
    ("e", 7.5, "model field 'e' must be in (0, 1], not 7.5"),
    ("e", 0, "model field 'e' must be in (0, 1], not 0.0"),
    ("e", True, "model key 'e' must be a finite number, not True"),
    ("extra", 1, "unknown model key 'extra'; the model takes version, layout, e, svm, calib, seed"),
    ("calib.C", 0.5, "unknown model key 'calib.C'; calib takes A, B"),
    ("calib", [0.5], "model section 'calib' must be an object"),
    ("svm", {"weights": "0.5", "bias": 0.5}, "model key 'svm.weights' must be a list, not '0.5'"),
    pytest.param(None, lambda text: json.dumps({**json.loads(text), "layout": {
        **json.loads(text)["layout"], "mode": "bow", "vocab": ["a"]}}),
        "layout.scored must be empty in bow mode, not 1 lexicon specs", id="bow-layout-with-lexicon-specs"),
]


class TestExitCodes:
    @pytest.mark.parametrize("selected", [[99], [0, 0], [1, 0]], ids=["outside", "repeated", "descending"])
    def test_summary_ids_outside_corpus_is_validation_error(self, bundle, pipeline, tmp_path, capsys, selected):
        """A selection must name sentences of the document, each once, in ascending order."""
        _, run_dir = pipeline
        out = tmp_path / "badids"
        out.mkdir()
        rec = json.loads((run_dir / "summaries_inforank.jsonl").read_text().splitlines()[0])
        rec["selected"] = selected
        (out / "summaries_inforank.jsonl").write_text(json.dumps(rec) + "\n")
        code = main(["evaluate", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["inforank"]'])
        assert code == EXIT_VALIDATION
        assert (f"summaries_inforank.jsonl: summaries line 1: document {rec['doc_id']!r} selects sentences"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("word_total", ["zero", "all but the last sentence", "too many", "negative"])
    def test_impossible_word_total_exits_2_naming_file_and_document(
        self, bundle, pipeline, tmp_path, capsys, word_total
    ):
        """A summary's word_total must come from cutting its last sentence to one word or more."""
        from infosum.corpus import load_corpus

        _, run_dir = pipeline
        out = tmp_path / "badtotal"
        out.mkdir()
        rec = json.loads((run_dir / "summaries_leadwords.jsonl").read_text().splitlines()[0])
        doc = load_corpus(bundle["test_corpus"]).document(rec["doc_id"])
        lengths = [len(doc.sentences[i].words) for i in rec["selected"]]
        rec["word_total"] = {
            "zero": 0,
            "all but the last sentence": sum(lengths) - lengths[-1],
            "too many": 5000,
            "negative": -3,
        }[word_total]
        (out / "summaries_leadwords.jsonl").write_text(json.dumps(rec) + "\n")
        code = main(["evaluate", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["leadwords"]'])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert (f"summaries_leadwords.jsonl: summaries line 1: document {rec['doc_id']!r} "
                f"has word_total {rec['word_total']}") in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("stale", ["document the corpus lacks", "document missing"])
    def test_stale_summaries_exit_2_naming_file_and_document(self, bundle, pipeline, tmp_path, capsys, stale):
        """A summaries file summarizes exactly the test documents, as predictions cover exactly
        the test sentences."""
        _, run_dir = pipeline
        out = tmp_path / "stale"
        out.mkdir()
        lines = (run_dir / "summaries_leadwords.jsonl").read_text().splitlines()
        if stale == "document the corpus lacks":
            lines.append(json.dumps({**json.loads(lines[0]), "doc_id": "nope"}))
            message = f"summaries_leadwords.jsonl: summaries line {len(lines)}: document 'nope' is not in the test corpus"
        else:
            message = f"summaries_leadwords.jsonl lacks test document {json.loads(lines[1])['doc_id']!r}"
            lines = lines[:1]
        (out / "summaries_leadwords.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "-c", bundle["config"], "--out-dir", str(out), "--set", 'systems=["leadwords"]'])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and "run summarize again" in err
        assert not (out / "report.json").exists()

    def test_single_score_lexicon_is_validation_error(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "onescore"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        lex = tmp_path / "one.tsv"
        lex.write_text("#scored m a\nx\ta\t5\n")
        code = main(["train", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.scored={json.dumps([str(lex)])}"])
        assert code == EXIT_VALIDATION
        assert "attribute 'a' has the single score 5.0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, message", [
        ("scored", "two lexicons are named 'synthmrc'"),
        ("category", "two lexicons are named 'synthcats'"),
    ])
    def test_clashing_lexicon_name_is_validation_error(self, bundle, pipeline, tmp_path, capsys, kind, message):
        _, run_dir = pipeline
        out = tmp_path / "clash"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        lex = str(bundle[f"{kind}_lexicon"])
        capsys.readouterr()
        code = main(["train", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.{kind}={json.dumps([lex, lex])}"])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", BAD_MODEL_FILES)
    def test_bad_model_file_exits_2_with_its_message(self, bundle, pipeline, tmp_path, capsys, field, value, message):
        _, run_dir = pipeline
        out = tmp_path / "badmodel"
        out.mkdir()
        if field is None:
            content = value((run_dir / "model.json").read_text()) if callable(value) else value
        else:
            model = json.loads((run_dir / "model.json").read_text())
            *parents, last = field.split(".")
            parent = model
            for key in parents:
                parent = parent[key]
            if isinstance(parent.get(last), list):  # a weight vector: its first weight
                parent[last][0] = value
            else:
                parent[last] = value
            content = json.dumps(model)
        (out / "model.json").write_text(content)
        capsys.readouterr()
        assert main(["predict", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err.splitlines()
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("general_width", 7, "unknown model key 'layout.general_width'; layout takes mode, scored, category, vocab"),
        ("mode", "bogus", "model key 'layout.mode' must be one of"),
        ("vocab", ["a"], "layout.vocab must be null in dictionary mode, not 1 words"),
    ])
    def test_inconsistent_layout_exits_2_naming_field(self, bundle, pipeline, tmp_path, capsys, field, value, message):
        """A layout is decoded and checked field by field, and stores no width of its own."""
        _, run_dir = pipeline
        out = tmp_path / "badlayout"
        out.mkdir()
        model = json.loads((run_dir / "model.json").read_text())
        model["layout"][field] = value
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert main(["predict", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("field, delta", [("svm", -1), ("svm", 1)])
    def test_wrong_weight_count_exits_2_naming_field(self, bundle, pipeline, tmp_path, capsys, field, delta):
        """The weights must match the width the layout's specs imply: the sparse product
        would not notice extra ones."""
        _, run_dir = pipeline
        out = tmp_path / "badweights"
        out.mkdir()
        model = json.loads((run_dir / "model.json").read_text())
        weights = model[field]["weights"]
        dim = len(weights)
        model[field]["weights"] = weights[:delta] if delta < 0 else weights + [0.5] * delta
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert main(["predict", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        message = f"model field '{field}.weights' holds {dim + delta} weights; its layout has {dim} columns"
        assert message in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()

    def test_model_of_version_1_exits_2_at_its_first_dropped_key(self, bundle, pipeline, tmp_path, capsys):
        """A version-1 model.json also held stage 1, `layout_hash` and the layout's version,
        blocks, total_dim and general_width. It fails at `layout_hash`, the first of those
        keys in its sorted order, before its version is read: `decode` checks for
        undeclared keys before it reads any field."""
        import hashlib

        _, run_dir = pipeline
        out = tmp_path / "version1"
        out.mkdir()
        model = json.loads((run_dir / "model.json").read_text())
        layout = model["layout"]
        blocks, offset = [], 0
        for spec in layout["scored"]:
            for attr in spec["attributes"]:
                blocks.append({"name": f"{spec['name']}:{attr}", "offset": offset, "width": spec["bins"]})
                offset += spec["bins"]
        for spec in layout["category"]:
            blocks.append({"name": spec["name"], "offset": offset, "width": len(spec["categories"])})
            offset += len(spec["categories"])
        blocks.append({"name": "general", "offset": offset, "width": 6})
        layout.update(version=1, blocks=blocks, total_dim=offset + 6, general_width=6)
        blob = json.dumps(layout, sort_keys=True, separators=(",", ":"))
        model.update(version=1, layout_hash=hashlib.sha256(blob.encode("utf-8")).hexdigest(),
                     stage1={"weights": [0.0] * (offset + 6), "bias": 0.0})
        (out / "model.json").write_text(json.dumps(model, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(["predict", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        message = "error: unknown model key 'layout_hash'; the model takes version, layout, e, svm, calib, seed"
        assert message in capsys.readouterr().err.splitlines()
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("section", ["lexicons", "label", "features", "budget", "evaluate"])
    def test_non_object_config_section_is_validation_error(self, bundle, tmp_path, capsys, section):
        code = main(["label", "-c", bundle["config"], "--out-dir", str(tmp_path / "run"),
                     "--set", f"{section}=5"])
        assert code == EXIT_VALIDATION
        assert f"config section {section!r} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command, mode, section", [
        ("label", "extract", "label"),
        ("train", "bow", "features"),
    ])
    def test_mode_override_through_non_object_section_is_validation_error(
        self, bundle, tmp_path, capsys, command, mode, section
    ):
        code = main([command, "-c", bundle["config"], "--out-dir", str(tmp_path / "run"),
                     "--set", f"{section}=5", "--set", f"{section}.mode={mode}"])
        assert code == EXIT_VALIDATION
        assert f"cannot override through non-object key {section!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("doc_id, sentence_id", [("train-9999", 0), ("train-0000", 99)])
    def test_labels_outside_corpus_are_validation_error(
        self, bundle, pipeline, tmp_path, capsys, doc_id, sentence_id
    ):
        _, run_dir = pipeline
        out = tmp_path / "stray"
        out.mkdir()
        stray = {"doc_id": doc_id, "sentence_id": sentence_id, "flag": "positive", "align_score": None}
        labels = (run_dir / "labels.jsonl").read_text() + json.dumps(stray) + "\n"
        (out / "labels.jsonl").write_text(labels)
        capsys.readouterr()
        line = labels.count("\n")
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert (f"labels line {line}: sentence {sentence_id} of document {doc_id!r} is not in the train corpus"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("conflict", [False, True], ids=["repeat", "conflict"])
    def test_sentence_labeled_twice_exits_2_naming_line(self, bundle, pipeline, tmp_path, capsys, conflict):
        """A sentence has one label: a repeated line, or a line that labels it again with the
        other flag, would change the positive and unlabeled counts train learns from."""
        _, run_dir = pipeline
        out = tmp_path / "twice"
        out.mkdir()
        labels = (run_dir / "labels.jsonl").read_text()
        first = json.loads(labels.splitlines()[0])
        if conflict:
            first["flag"] = "unlabeled" if first["flag"] == "positive" else "positive"
        labels += json.dumps(first) + "\n"
        (out / "labels.jsonl").write_text(labels)
        line = labels.count("\n")
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert (f"labels line {line}: sentence {first['sentence_id']} of document {first['doc_id']!r} appears twice"
                in capsys.readouterr().err)
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("doc_id, sentence_id", [("nope", 0), ("test-0000", 99)])
    def test_gold_label_outside_test_corpus_exits_2(self, bundle, pipeline, tmp_path, capsys, doc_id, sentence_id):
        _, run_dir = pipeline
        out = tmp_path / "stray"
        out.mkdir()
        (out / "predictions.jsonl").write_bytes((run_dir / "predictions.jsonl").read_bytes())
        gold = tmp_path / "gold.jsonl"
        stray = {"doc_id": doc_id, "sentence_id": sentence_id, "label": 1}
        gold.write_text(Path(bundle["gold_labels"]).read_text() + json.dumps(stray) + "\n")
        line = gold.read_text().count("\n")
        capsys.readouterr()
        code = main(["evaluate", "-c", bundle["config"], "--out-dir", str(out), "--set", f"evaluate.gold_labels={gold}"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"gold labels line {line}: sentence {sentence_id} of document {doc_id!r} is not in the test corpus" in err
        assert not (out / "report.json").exists()

    def test_empty_gold_labels_file_exits_2_naming_it(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "nogold"
        out.mkdir()
        (out / "predictions.jsonl").write_bytes((run_dir / "predictions.jsonl").read_bytes())
        gold = tmp_path / "gold.jsonl"
        gold.write_text("")
        capsys.readouterr()
        code = main(["evaluate", "-c", bundle["config"], "--out-dir", str(out), "--set", f"evaluate.gold_labels={gold}"])
        assert code == EXIT_VALIDATION
        assert f"gold labels file {gold} holds no labels" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_unlabeled_label_outside_corpus_exits_2_for_any_seed(
        self, bundle, pipeline, tmp_path, capsys, seed
    ):
        _, run_dir = pipeline
        out = tmp_path / "stray"
        out.mkdir()
        stray = {"doc_id": "nope", "sentence_id": 0, "flag": "unlabeled", "align_score": None}
        labels = (run_dir / "labels.jsonl").read_text() + json.dumps(stray) + "\n"
        (out / "labels.jsonl").write_text(labels)
        capsys.readouterr()
        line = labels.count("\n")
        code = main(["train", "-c", bundle["config"], "--out-dir", str(out), "--seed", str(seed)])
        assert code == EXIT_VALIDATION
        assert f"labels line {line}: sentence 0 of document 'nope'" in capsys.readouterr().err

    def test_edited_lexicon_at_predict_is_validation_error(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "edited"
        out.mkdir()
        (out / "model.json").write_bytes((run_dir / "model.json").read_bytes())
        lex = tmp_path / "edited.tsv"
        lines = Path(bundle["scored_lexicon"]).read_text().splitlines()
        word, attr, score = lines[1].split("\t")
        lines[1] = "\t".join([word, attr, str(float(score) + 1.0)])
        lex.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.scored={json.dumps([str(lex)])}"])
        assert code == EXIT_VALIDATION
        assert "does not match layout" in capsys.readouterr().err

    def test_predict_bins_the_lexicons_as_the_model_was_trained(self, bundle, pipeline, tmp_path):
        _, run_dir = pipeline
        out = tmp_path / "bins"
        out.mkdir()
        (out / "model.json").write_bytes((run_dir / "model.json").read_bytes())
        code = main(["predict", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", "features.bins=100"])
        assert code == EXIT_OK
        predictions = (out / "predictions.jsonl").read_bytes()
        assert predictions == (run_dir / "predictions.jsonl").read_bytes()

    @pytest.mark.parametrize("edited_first", [True, False], ids=["edited-first", "edited-last"])
    def test_predict_refuses_two_lexicons_of_one_name_in_either_order(self, bundle, pipeline, tmp_path, capsys,
                                                                     edited_first):
        """As train does: the matching one of two lexicons named alike does not rescue the other."""
        _, run_dir = pipeline
        out = tmp_path / "samename"
        out.mkdir()
        (out / "model.json").write_bytes((run_dir / "model.json").read_bytes())
        lex = tmp_path / "edited.tsv"
        lines = Path(bundle["scored_lexicon"]).read_text().splitlines()
        word, attr, score = lines[1].split("\t")
        lines[1] = "\t".join([word, attr, str(float(score) + 1.0)])
        lex.write_text("\n".join(lines) + "\n")
        paths = [str(lex), str(bundle["scored_lexicon"])]
        capsys.readouterr()
        code = main(["predict", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.scored={json.dumps(paths if edited_first else paths[::-1])}"])
        assert code == EXIT_VALIDATION
        assert "two lexicons are named 'synthmrc'" in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()

    def test_predict_ignores_a_lexicon_its_model_does_not_name(self, bundle, pipeline, tmp_path):
        _, run_dir = pipeline
        out = tmp_path / "extra"
        out.mkdir()
        (out / "model.json").write_bytes((run_dir / "model.json").read_bytes())
        extra = tmp_path / "extra.tsv"
        extra.write_text("#scored extra imagery imagery:0:10\nalpha\timagery\t3\n")
        code = main(["predict", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.scored={json.dumps([str(extra), str(bundle['scored_lexicon'])])}"])
        assert code == EXIT_OK
        assert (out / "predictions.jsonl").read_bytes() == (run_dir / "predictions.jsonl").read_bytes()

    def test_negative_label_sentence_id_names_line(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "negative"
        out.mkdir()
        lines = (run_dir / "labels.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        rec["sentence_id"] = -1
        lines[1] = json.dumps(rec)
        (out / "labels.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert "labels line 2: negative sentence_id -1" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["train", "-c", "/nonexistent/config.json"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("command, key, what", [
        ("label", "label.extracts", "extracts file"),
        ("label", "train_corpus", "train corpus"),
        ("predict", "test_corpus", "test corpus"),
    ])
    def test_config_without_an_input_path_exits_2_naming_the_input(self, bundle, tmp_path, capsys, command, key,
                                                                    what):
        capsys.readouterr()
        assert main([command, "-c", bundle["config"], "--out-dir", str(tmp_path / "run"),
                     "--set", f"{key}=null"]) == EXIT_VALIDATION
        assert f"error: config names no {what}\n" in capsys.readouterr().err

    def test_seed_mandatory(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"out_dir": "x"}')
        assert main(["label", "-c", str(cfg)]) == EXIT_VALIDATION

    def test_train_before_label_is_validation_error(self, bundle, tmp_path):
        out = tmp_path / "fresh"
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION

    def test_evaluate_with_nothing_to_do(self, bundle, tmp_path):
        out = tmp_path / "empty"
        assert main(["evaluate", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION

    def test_labels_without_unlabeled_exit_2_at_train(self, bundle, tmp_path, capsys):
        out = tmp_path / "degen"
        out.mkdir()
        labels = [
            json.dumps({"doc_id": "train-0000", "sentence_id": i, "flag": "positive", "align_score": None})
            for i in range(4)
        ]
        (out / "labels.jsonl").write_text("\n".join(labels) + "\n")
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert "labels.jsonl holds no unlabeled label" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_balance_ratio_sampling_no_unlabeled_exits_2_at_train(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "tiny-ratio"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", "label.balance_ratio=0.0001"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: label.balance_ratio 0.0001 samples none of the" in err
        assert not (out / "model.json").exists()

    def test_a_bow_vocabulary_that_keeps_no_word_exits_2_before_training(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "no-vocab"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out), "--set", "features.mode=bow",
                     "--set", "features.bow_min_df=100000"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "training sentences has a nonzero feature: features.bow_min_df 100000 keeps 0 words" in err
        assert not (out / "model.json").exists()

    def test_lexicons_that_match_no_word_exit_2_before_training(self, bundle, pipeline, tmp_path, capsys, caplog):
        _, run_dir = pipeline
        out = tmp_path / "no-match"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        lexicon = tmp_path / "nomatch.tsv"
        lexicon.write_text("#categories nomatch IMP\nzzzqqq\tIMP\n", encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            assert main(["train", "-c", bundle["config"], "--out-dir", str(out),
                         "--set", "features.mode=dictionary-no-general", "--set", "lexicons.scored=[]",
                         "--set", f"lexicons.category={json.dumps([str(lexicon)])}"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert (f"training sentences has a nonzero feature: lexicons.scored [] and lexicons.category "
                f"[{str(lexicon)!r}] match none of their words") in err
        assert not caplog.records  # no stage ran
        assert not (out / "model.json").exists()

    def test_alignment_labels_without_positives_exit_2_at_train(self, bundle, summarized_corpus, tmp_path, capsys):
        out = tmp_path / "nopos"
        corpus = f"train_corpus={summarized_corpus}"
        assert main(["label", "-c", bundle["config"], "--out-dir", str(out), "--set", "label.mode=alignment",
                     "--set", corpus, "--set", "label.t_pos=1000", "--set", "label.t_unl=999"]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out), "--set", corpus]) == EXIT_VALIDATION
        assert "labels.jsonl holds no positive label" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.fixture
    def one_doc_labels(self, tmp_path):
        """A one-document bundle, labeled: one positive and one unlabeled sentence."""
        out = tmp_path / "tiny"
        assert main(["synth", "--out-dir", str(out), "--train-docs", "1", "--test-docs", "2",
                     "--sentences", "2", "--label-rate", "1.0", "--seed", "1"]) == EXIT_OK
        config = str(out / "config.json")
        assert main(["label", "-c", config]) == EXIT_OK
        return config, Path(json.loads(Path(config).read_text())["out_dir"])

    def test_a_split_that_fits_stage_2_on_positives_alone_exits_2_before_training(
            self, one_doc_labels, capsys, caplog):
        config, run_dir = one_doc_labels
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="infosum.pu"):
            assert main(["train", "-c", config, "--set", "seed=0"]) == EXIT_VALIDATION
        assert ("error: seed 0 holds out every sampled unlabeled sentence for calibration: stage 2 would fit "
                "1 of the 2 sampled rows, all positive") in capsys.readouterr().err
        assert not [r for r in caplog.records if r.getMessage().startswith("stage1")]
        assert not (run_dir / "model.json").exists()

    def test_label_out_dir_that_is_a_file_exits_2_naming_it(self, bundle, tmp_path, capsys):
        out = tmp_path / "f"
        out.write_text("")
        assert main(["label", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert f"error: cannot make out dir {out}: " in capsys.readouterr().err

    def test_a_split_that_fits_stage_2_on_both_flags_trains(self, one_doc_labels):
        config, run_dir = one_doc_labels
        assert main(["train", "-c", config, "--set", "seed=3"]) == EXIT_OK
        assert (run_dir / "model.json").is_file()

    def test_summaries_of_another_system_exit_2_naming_file_and_line(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "swapped"
        out.mkdir()
        (out / "summaries_inforank.jsonl").write_bytes((run_dir / "summaries_leadwords.jsonl").read_bytes())
        capsys.readouterr()
        assert main(["evaluate", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert ("summaries_inforank.jsonl: summaries line 1: system is 'leadwords'"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    def test_unknown_system_rejected(self, bundle, tmp_path):
        out = tmp_path / "badsys"
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["leadwords","bogus"]']) == EXIT_VALIDATION


def with_bad_byte_on_line_2(source, dest):
    """`source` copied to `dest` with a byte that is not UTF-8 in the middle of its line 2."""
    lines = Path(source).read_bytes().split(b"\n")
    mid = len(lines[1]) // 2
    lines[1] = lines[1][:mid] + b"\xff" + lines[1][mid:]
    Path(dest).write_bytes(b"\n".join(lines))


def run_on_bad_copy(bundle, run_dir, tmp_path, kind, write_copy):
    """Run the command that reads the input `kind` on a copy of it that `write_copy(source, dest)`
    writes; every other input is the pipeline's own."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("labels.jsonl", "model.json", "predictions.jsonl"):
        (out / name).write_bytes((run_dir / name).read_bytes())
    # kind -> (file read, where its bad copy goes, command that reads it, config key naming the copy)
    source, dest, command, key = {
        "corpus": (bundle["train_corpus"], tmp_path / "corpus.jsonl", "label", "train_corpus"),
        "extracts": (bundle["extracts"], tmp_path / "extracts.jsonl", "label", "label.extracts"),
        "labels": (run_dir / "labels.jsonl", out / "labels.jsonl", "train", None),
        "scored lexicon": (bundle["scored_lexicon"], tmp_path / "scored.tsv", "train", "lexicons.scored"),
        "category lexicon": (bundle["category_lexicon"], tmp_path / "category.tsv", "train", "lexicons.category"),
        "predictions": (run_dir / "predictions.jsonl", out / "predictions.jsonl", "summarize", None),
        "gold labels": (bundle["gold_labels"], tmp_path / "gold.jsonl", "evaluate", "evaluate.gold_labels"),
        "summaries": (run_dir / "summaries_leadwords.jsonl", out / "summaries_leadwords.jsonl", "evaluate", None),
        "model": (run_dir / "model.json", out / "model.json", "predict", None),
        "config": (bundle["config"], tmp_path / "config.json", "label", None),
    }[kind]
    write_copy(source, dest)
    config = dest if kind == "config" else bundle["config"]
    args = [command, "-c", str(config), "--out-dir", str(out)]
    if key is not None:
        value = json.dumps([str(dest)]) if key.startswith("lexicons.") else str(dest)
        args += ["--set", f"{key}={value}"]
    return main(args)


@pytest.mark.parametrize("kind", [
    "corpus", "extracts", "labels", "scored lexicon", "category lexicon",
    "predictions", "gold labels", "summaries", "model", "config",
])
def test_input_not_utf8_exits_2_naming_kind_and_line(bundle, pipeline, tmp_path, capsys, kind):
    """Every input kind is decoded by one reader: a stray byte is a validation error, not a crash."""
    _, run_dir = pipeline
    capsys.readouterr()
    assert run_on_bad_copy(bundle, run_dir, tmp_path, kind, with_bad_byte_on_line_2) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{kind} line 2: not valid UTF-8" in err


def test_config_key_given_twice_exits_2_naming_it(bundle, pipeline, tmp_path, capsys):
    """A repeated key is an error, not its last value silently taken."""
    _, run_dir = pipeline

    def write_copy(source, dest):
        Path(dest).write_text('{"seed": 7,' + Path(source).read_text(encoding="utf-8")[1:], encoding="utf-8")

    capsys.readouterr()
    assert run_on_bad_copy(bundle, run_dir, tmp_path, "config", write_copy) == EXIT_VALIDATION
    assert "error: config: key 'seed' is given twice" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "run" / "resolved_config.label.json").exists()


def scored_header(lines, ranges):
    """The synth scored lexicon's header with the range declarations `ranges`."""
    return " ".join(lines[0].split()[:3] + [ranges])


# (input kind, line number N, line N of its copy as a function of the source's lines, what
# stderr says after "<kind> line N: "): the checks of the corpus reader and the lexicon readers.
BAD_CORPUS_AND_LEXICON_LINES = [
    pytest.param("corpus", 2, lambda lines: lines[0], "duplicate doc_id 'train-0000'", id="repeated-doc_id"),
    pytest.param("corpus", 2, lambda lines: '{"section": "other",' + lines[1][1:],
                 "key 'section' is given twice", id="repeated-key"),
    pytest.param("corpus", 2, lambda lines: json.dumps({**json.loads(lines[1]), "sentences": []}),
                 "sentences must be a non-empty array of strings", id="no-sentences"),
    pytest.param("corpus", 2, lambda lines: json.dumps({k: v for k, v in json.loads(lines[1]).items() if k != "doc_id"}),
                 "missing or invalid doc_id", id="no-doc_id"),
    pytest.param("corpus", 2, lambda lines: json.dumps({**json.loads(lines[1]), "summary": "one string"}),
                 "summary must be an array of strings", id="summary-not-strings"),
    pytest.param("scored lexicon", 2, lambda lines: lines[1].split("\t")[0] + "\tbogus\t300",
                 "unknown attribute 'bogus'", id="unknown-attribute"),
    pytest.param("scored lexicon", 1, lambda lines: lines[1], "data before #scored header", id="row-before-header"),
    pytest.param("scored lexicon", 2, lambda lines: lines[1].replace("\t", " "),
                 "expected word<TAB>attribute<TAB>score", id="row-without-tabs"),
    pytest.param("scored lexicon", 2, lambda lines: lines[1].rsplit("\t", 1)[0] + "\thigh",
                 "non-numeric score 'high'", id="non-numeric-score"),
    pytest.param("scored lexicon", 2, lambda lines: lines[1].rsplit("\t", 1)[0] + "\tnan",
                 "non-finite score 'nan'", id="non-finite-score"),
    pytest.param("scored lexicon", 2, lambda lines: lines[1].rsplit("\t", 1)[0] + "\t900",
                 "score 900.0 outside declared range [100.0, 700.0]", id="score-out-of-range"),
    pytest.param("scored lexicon", 1, lambda lines: scored_header(lines, "imagery:100"),
                 "bad range declaration 'imagery:100'", id="bad-header-range"),
    pytest.param("scored lexicon", 1, lambda lines: scored_header(lines, "imagery:100:inf"),
                 "non-finite range in 'imagery:100:inf'", id="non-finite-header-range"),
    pytest.param("scored lexicon", 1, lambda lines: scored_header(lines, "imagery:100:700 imagery:0:1000"),
                 "second range for attribute 'imagery'", id="repeated-header-range"),
    pytest.param("scored lexicon", 1, lambda lines: lines[0].replace(",", ",imagery,", 1),
                 "#scored header lists 'imagery' twice", id="repeated-attribute"),
    pytest.param("category lexicon", 2, lambda lines: lines[1].split("\t")[0] + "\tbogus",
                 "unknown category 'bogus'", id="unknown-category"),
    pytest.param("category lexicon", 1, lambda lines: lines[0] + ",IMP",
                 "#categories header lists 'IMP' twice", id="repeated-category"),
]


@pytest.mark.parametrize("kind, lineno, new_line, message", BAD_CORPUS_AND_LEXICON_LINES)
def test_bad_corpus_or_lexicon_line_exits_2_naming_kind_and_line(bundle, pipeline, tmp_path, capsys, kind, lineno,
                                                                 new_line, message):
    _, run_dir = pipeline

    def write_copy(source, dest):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = new_line(lines)
        Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8")

    capsys.readouterr()
    assert run_on_bad_copy(bundle, run_dir, tmp_path, kind, write_copy) == EXIT_VALIDATION
    assert f"{kind} line {lineno}: {message}" in capsys.readouterr().err


def test_a_summary_without_a_word_is_no_summary(tmp_path, capsys):
    """Evaluate leaves out a test document whose summary holds no word, as it leaves
    out one without a summary, and alignment labeling rejects such a training document."""
    paths = write_synth_bundle(tmp_path / "bundle", SynthParams(n_train_docs=20, n_test_docs=5, seed=0))
    test_corpus = Path(paths["test_corpus"])
    docs = [json.loads(line) for line in test_corpus.read_text(encoding="utf-8").splitlines()]
    assert docs[0]["doc_id"] == "test-0000" and all(doc.get("summary") for doc in docs)
    docs[0]["summary"] = [""]
    write_jsonl(docs, test_corpus)
    for command in ("label", "train", "predict", "summarize", "evaluate"):
        assert main([command, "-c", paths["config"]]) == EXIT_OK, command
    run_dir = Path(json.loads(Path(paths["config"]).read_text())["out_dir"])
    report = json.loads((run_dir / "report.json").read_text())
    for row in report["rouge"].values():
        assert row["n_docs"] == 4 and "test-0000" not in row["per_doc"]

    train = [json.loads(line) for line in Path(paths["train_corpus"]).read_text(encoding="utf-8").splitlines()]
    summarized = [doc for doc in train if "summary" in doc]
    summarized[1]["summary"] = ["...", "!"]
    write_jsonl(summarized, tmp_path / "corpus_train.jsonl")
    capsys.readouterr()
    assert main(["label", "-c", paths["config"], "--set", "label.mode=alignment",
                 "--set", f"train_corpus={tmp_path / 'corpus_train.jsonl'}", "--out-dir", str(tmp_path / "align")]) \
        == EXIT_VALIDATION
    assert f"document {summarized[1]['doc_id']!r} has none" in capsys.readouterr().err


def test_line_separators_and_non_ascii_text_survive_the_pipeline(rewritten_bundle, tmp_path):
    """U+2028, U+2029 and U+0085 are text, not line ends, in every file the pipeline reads
    back; a chunk is one word exactly when it holds no punctuation, or only an inner
    apostrophe, whatever its script; and report.json holds a non-ASCII id as UTF-8."""
    paths = rewritten_bundle
    doc = json.loads(Path(paths["test_corpus"]).read_bytes().split(b"\n")[0])
    assert all(separator in doc["sentences"][0] for separator in SEPARATORS)
    words = load_corpus(paths["test_corpus"]).document(doc["doc_id"]).sentences[1].words
    expected = []
    for chunk in doc["sentences"][1].split():
        if chunk.endswith("——ø"):
            expected += [chunk[:-3], "ø"]
        elif chunk.isalnum() or "’" in chunk:
            expected.append(chunk.casefold())
    assert words == tuple(expected) and any(word.endswith("’ss") for word in words)

    out = tmp_path / "run"
    for command in COMMANDS:
        assert main([command, "-c", paths["config"], "--out-dir", str(out)]) == EXIT_OK, command
    lead = json.loads((out / "summaries_leadwords.jsonl").read_bytes().split(b"\n")[0])
    assert lead["doc_id"] == doc["doc_id"]
    assert " ".join(doc["sentences"][:2]) in lead["text"]
    blob = (out / "report.json").read_bytes()
    assert f'"{NON_ASCII_DOC_ID}": {{'.encode("utf-8") in blob and b"\\u" not in blob
    report = json.loads(blob.decode("utf-8"))
    assert set(report["rouge"]) == {"leadwords", "inforank", "infofilter", "randomrank"}
    for row in report["rouge"].values():
        assert NON_ASCII_DOC_ID in row["per_doc"]
