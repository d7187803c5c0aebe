import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from infosum.cli import EXIT_OK, EXIT_VALIDATION, RunConfig, main
from infosum.pu import load_model, train_pu_model, save_model
from infosum.synth import SynthParams, write_synth_bundle


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    params = SynthParams(n_train_docs=60, n_test_docs=24, sentences_per_doc=10, seed=11)
    paths = write_synth_bundle(root, params)
    return paths


@pytest.fixture(scope="module")
def pipeline(bundle):
    """Run the full pipeline once; tests inspect the artifacts."""
    cfg_path = bundle["config"]
    for command in ("label", "train", "predict", "summarize", "evaluate"):
        assert main([command, "-c", cfg_path]) == EXIT_OK
    run_dir = Path(json.loads(Path(cfg_path).read_text())["out_dir"])
    return cfg_path, run_dir


class TestSynthCommand:
    def test_writes_bundle(self, tmp_path):
        out = tmp_path / "b"
        assert main(["synth", "--out-dir", str(out), "--seed", "3",
                     "--train-docs", "8", "--test-docs", "4"]) == EXIT_OK
        for name in ("config.json", "corpus_train.jsonl", "corpus_test.jsonl",
                     "extracts_train.jsonl", "gold_test.jsonl",
                     "synthmrc.tsv", "synthcats.tsv"):
            assert (out / name).is_file()


def test_cli_import_loads_no_scipy():
    """The CLI's runtime needs numpy alone; importing scipy.sparse would cost every
    command about 22 MB of resident memory."""
    code = "import sys, infosum.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.stdout.strip() == "[]"


# What each command must leave unimported: label needs no numpy, only train
# and predict read lexicons and run the learner, and only evaluate scores ROUGE.
LEARNER = ("infosum.lexicons", "infosum.features", "infosum.pu", "infosum.sparse")
NOT_LOADED = {
    "label": ("numpy", *LEARNER, "infosum.metrics", "infosum.synth"),
    "train": ("infosum.metrics", "infosum.synth"),
    "predict": ("infosum.metrics", "infosum.synth"),
    "summarize": (*LEARNER, "infosum.synth"),
    "evaluate": (*LEARNER, "infosum.synth"),
}


def test_each_command_imports_only_what_it_runs(tmp_path):
    paths = write_synth_bundle(tmp_path, SynthParams(n_train_docs=20, n_test_docs=5))
    code = (
        "import json, sys, infosum.cli\n"
        "rc = infosum.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for command, unwanted in NOT_LOADED.items():
        proc = subprocess.run([sys.executable, "-c", code, command, "-c", paths["config"]],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc == EXIT_OK, proc.stderr
        assert sorted(set(unwanted) & set(loaded)) == [], command


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

    def test_byte_identical_rerun(self, pipeline):
        cfg_path, run_dir = pipeline
        snapshot = {
            p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()
        }
        for command in ("label", "train", "predict", "summarize", "evaluate"):
            assert main([command, "-c", cfg_path]) == EXIT_OK
        for name, blob in snapshot.items():
            assert (run_dir / name).read_bytes() == blob, name


class TestPipelineCompositionality:
    def test_cmd_train_equals_in_process_pipeline(self, bundle, pipeline, tmp_path):
        cfg_path, run_dir = pipeline
        from infosum.cli import build_examples, build_extractor
        from infosum.corpus import load_corpus
        from infosum.weak_label import read_labels, sample_unlabeled

        cfg = RunConfig.from_dict(json.loads(Path(cfg_path).read_text()))
        corpus = load_corpus(cfg.train_corpus)
        labels = read_labels(run_dir / "labels.jsonl")
        sampled = sample_unlabeled(labels, cfg.label_config())
        extractor = build_extractor(cfg, train_corpus=corpus)
        X, o = build_examples(corpus, sampled, extractor)
        model = train_pu_model(X, o, cfg.hyper.stage1.l2, cfg.hyper.stage2.l2, seed=cfg.seed)
        path = tmp_path / "inprocess.json"
        save_model(model, extractor.layout, path)
        assert path.read_bytes() == (run_dir / "model.json").read_bytes()


class TestModesAndOverrides:
    def test_alignment_mode_smoke(self, bundle, tmp_path, capsys):
        out = tmp_path / "alignrun"
        code = main([
            "label", "-c", bundle["config"], "--set", "label.mode=alignment",
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
                     "--system", "leadwords"]) == EXIT_OK
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

    def test_without_predictions_exits_2(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = self.out_dir(run_dir, tmp_path / "none", None)
        capsys.readouterr()
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--system", "inforank"]) == EXIT_VALIDATION
        assert "run predict first" in capsys.readouterr().err

    def test_missing_sentence_exits_2_names_it(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        lines = (run_dir / "predictions.jsonl").read_text().splitlines()
        dropped = json.loads(lines.pop(3))
        out = self.out_dir(run_dir, tmp_path / "short", "\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert (f"sentence {dropped['sentence_id']} of document {dropped['doc_id']!r}"
                in capsys.readouterr().err)

    def test_extra_document_exits_2_names_it(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        extra = {"doc_id": "test-9999", "sentence_id": 0, "prob": 0.75, "label": 1}
        predictions = (run_dir / "predictions.jsonl").read_text() + json.dumps(extra) + "\n"
        out = self.out_dir(run_dir, tmp_path / "stale", predictions)
        capsys.readouterr()
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "sentence 0 of document 'test-9999'" in err and "stale" in err

    def test_evaluate_rejects_stale_predictions_as_summarize_does(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        extra = {"doc_id": "test-9999", "sentence_id": 0, "prob": 0.75, "label": 1}
        predictions = (run_dir / "predictions.jsonl").read_text() + json.dumps(extra) + "\n"
        out = self.out_dir(run_dir, tmp_path / "stale", predictions, model=False)
        capsys.readouterr()
        assert main(["evaluate", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "predictions.jsonl is stale" in err and "sentence 0 of document 'test-9999'" in err
        assert not (out / "report.json").exists()


class TestTrainingConfig:
    def test_l2_defaults_to_the_shipped_penalty(self):
        cfg = RunConfig.from_dict({"seed": 0, "out_dir": "x"})
        assert (cfg.hyper.stage1.l2, cfg.hyper.stage2.l2) == (1e-4, 1e-4)
        assert asdict(cfg)["hyper"] == {"stage1": {"l2": 1e-4}, "stage2": {"l2": 1e-4}}

    def test_l2_override(self, bundle, tmp_path):
        out = tmp_path / "l2"
        assert main(["label", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", "hyper.stage2.l2=0.01"]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.label.json").read_text())
        assert resolved["hyper"] == {"stage1": {"l2": 1e-4}, "stage2": {"l2": 0.01}}

    @pytest.mark.parametrize("override, key", [
        ("hyper.stage1.epochs=50", "hyper.stage1.epochs"),
        ("hyper.stage2.lr0=0.1", "hyper.stage2.lr0"),
        ("hyper.stage1.l2=-1", "hyper.stage1.l2"),
        ("hyper.stage2.l2=NaN", "hyper.stage2.l2"),
        ("hyper.stage1.l2=high", "hyper.stage1.l2"),
        ("hyper.stage3.l2=1", "hyper"),
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
    ('label.t_pos="14"', "'label.t_pos' must be a finite number"),
    pytest.param("label.t_pos=1" + "0" * 400, "'label.t_pos' must be a finite number", id="huge-int"),
    ("label.mode=bogus", "'label.mode' must be one of"),
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
        assert main(["summarize", "-c", str(cfg), "--system", "leadwords"]) == EXIT_OK
        assert main(["evaluate", "-c", str(cfg)]) == EXIT_OK
        scores = json.loads((tmp_path / "run" / "report.json").read_text())
        scores = scores["rouge"]["leadwords"]["per_doc"]["d"]
        ref = [make_sentence(0, "a b"), make_sentence(1, "c d")]
        joined = [make_sentence(0, "a b c d")]  # the summary text as one sentence
        assert scores["r1"]["precision"] == rouge_n(ref, joined, 1).precision == 1.0
        assert rouge_n(ref, joined, 2).precision == pytest.approx(2 / 3)
        assert scores["r2"]["precision"] == 1.0


BAD_LINES = ['{"doc_id": "train-0000"}', "{not json"]


STRICT_FIELDS = [
    ("extracts", {"extracts": [["1"]]}),
    ("extracts", {"extracts": [[1.7]]}),
    ("extracts", {"extracts": [[True]]}),
    ("labels", {"sentence_id": "1"}),
    ("labels", {"sentence_id": 1.0}),
    ("labels", {"sentence_id": True}),
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
        """Ids, summary id lists and word totals are JSON integers, a gold or predicted label is
        0 or 1, and a prediction's prob is a number in [0, 1]: nothing is converted. A sentence
        is labeled or predicted once."""
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
        assert (f"summaries_leadwords.jsonl: summaries line 2: leadwords summarizes document {first['doc_id']!r} twice"
                in capsys.readouterr().err)

    def test_extract_id_out_of_range_exits_2_names_document(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        capsys.readouterr()
        code = self.run_with_line_2(
            bundle, run_dir, tmp_path, "extracts", lambda first: json.dumps({**first, "extracts": [[99]]})
        )
        assert code == EXIT_VALIDATION
        assert "extract sentence id 99 out of range for document 'train-0000'" in capsys.readouterr().err


class TestExitCodes:
    def test_summary_ids_outside_corpus_is_validation_error(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "badids"
        out.mkdir()
        rec = json.loads((run_dir / "summaries_inforank.jsonl").read_text().splitlines()[0])
        rec["selected"] = [99]
        (out / "summaries_inforank.jsonl").write_text(json.dumps(rec) + "\n")
        code = main(["evaluate", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["inforank"]'])
        assert code == EXIT_VALIDATION
        assert "selects sentences" in capsys.readouterr().err

    def test_non_finite_lexicon_score_is_validation_error(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "nanlex"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        lex = tmp_path / "nan.tsv"
        lines = Path(bundle["scored_lexicon"]).read_text().splitlines()
        lex.write_text("\n".join([lines[0], lines[1].rsplit("\t", 1)[0] + "\tnan"]) + "\n")
        code = main(["train", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.scored={json.dumps([str(lex)])}"])
        assert code == EXIT_VALIDATION
        assert "line 2: non-finite score" in capsys.readouterr().err

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

    @pytest.mark.parametrize("kind, rename, message", [
        ("scored", None, "two lexicons are named 'synthmrc'"),
        ("category", None, "two lexicons are named 'synthcats'"),
        ("scored", "general", "lexicon name 'general' is reserved"),
        ("category", "bow", "lexicon name 'bow' is reserved"),
    ])
    def test_clashing_lexicon_name_is_validation_error(
        self, bundle, pipeline, tmp_path, capsys, kind, rename, message
    ):
        _, run_dir = pipeline
        out = tmp_path / "clash"
        out.mkdir()
        (out / "labels.jsonl").write_bytes((run_dir / "labels.jsonl").read_bytes())
        lex = Path(bundle[f"{kind}_lexicon"])
        if rename is None:
            paths = [str(lex), str(lex)]
        else:
            text = lex.read_text()
            name = text.split(" ")[1]  # the header is `#scored <name> ...` or `#categories <name> ...`
            renamed = tmp_path / f"{rename}.tsv"
            renamed.write_text(text.replace(f" {name} ", f" {rename} ", 1))
            paths = [str(renamed)]
        capsys.readouterr()
        code = main(["train", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", f"lexicons.{kind}={json.dumps(paths)}"])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "{not json",
        '{"version": 1}',
        "wrong version",
    ])
    def test_malformed_model_is_validation_error(self, bundle, pipeline, tmp_path, capsys, content):
        _, run_dir = pipeline
        out = tmp_path / "badmodel"
        out.mkdir()
        if content == "wrong version":
            model = json.loads((run_dir / "model.json").read_text())
            model["version"] = 99
            content = json.dumps(model)
        (out / "model.json").write_text(content)
        capsys.readouterr()
        assert main(["predict", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert "model" in capsys.readouterr().err

    def test_non_finite_model_number_exits_2_naming_field(self, bundle, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        out = tmp_path / "nanmodel"
        out.mkdir()
        model = json.loads((run_dir / "model.json").read_text())
        model["calib"]["A"] = float("nan")
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert main(["predict", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert "model field 'calib.A' holds NaN or an infinity" in capsys.readouterr().err
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
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert f"sentence {sentence_id} of document {doc_id!r}" in capsys.readouterr().err

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
        code = main(["train", "-c", bundle["config"], "--out-dir", str(out), "--seed", str(seed)])
        assert code == EXIT_VALIDATION
        assert "document 'nope'" in capsys.readouterr().err

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

    def test_alignment_labels_without_positives_exit_2_at_train(self, bundle, tmp_path, capsys):
        out = tmp_path / "nopos"
        assert main(["label", "-c", bundle["config"], "--out-dir", str(out), "--set", "label.mode=alignment",
                     "--set", "label.t_pos=1000", "--set", "label.t_unl=999"]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_VALIDATION
        assert "labels.jsonl holds no positive label" in capsys.readouterr().err
        assert not (out / "model.json").exists()

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


@pytest.mark.parametrize("kind", [
    "corpus", "extracts", "labels", "scored lexicon", "category lexicon",
    "predictions", "gold labels", "summaries", "model", "config",
])
def test_input_not_utf8_exits_2_naming_kind_and_line(bundle, pipeline, tmp_path, capsys, kind):
    """Every input kind is decoded by one reader: a stray byte is a validation error, not a crash."""
    _, run_dir = pipeline
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
    with_bad_byte_on_line_2(source, dest)
    config = dest if kind == "config" else bundle["config"]
    args = [command, "-c", str(config), "--out-dir", str(out)]
    if key is not None:
        value = json.dumps([str(dest)]) if key.startswith("lexicons.") else str(dest)
        args += ["--set", f"{key}={value}"]
    capsys.readouterr()
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{kind} line 2: not valid UTF-8" in err


def test_line_separators_inside_a_sentence_survive_the_pipeline(tmp_path):
    """U+2028, U+2029 and U+0085 are text, not line ends, in every file the pipeline reads back."""
    paths = write_synth_bundle(tmp_path / "bundle", SynthParams(n_train_docs=20, n_test_docs=5, seed=0))
    test_corpus = Path(paths["test_corpus"])
    lines = test_corpus.read_bytes().split(b"\n")
    doc = json.loads(lines[0])
    sentence = doc["sentences"][0]
    for separator in ("\u2028", "\u2029", "\x85"):
        sentence = sentence.replace(" ", separator, 1)
    doc["sentences"][0] = sentence
    lines[0] = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    test_corpus.write_bytes(b"\n".join(lines))
    for command in ("label", "train", "predict", "summarize", "evaluate"):
        assert main([command, "-c", paths["config"]]) == EXIT_OK, command
    run_dir = Path(json.loads(Path(paths["config"]).read_text())["out_dir"])
    lead = json.loads((run_dir / "summaries_leadwords.jsonl").read_bytes().split(b"\n")[0])
    assert lead["doc_id"] == doc["doc_id"] and sentence in lead["text"]
    report = json.loads((run_dir / "report.json").read_text())
    assert set(report["rouge"]) == {"leadwords", "inforank", "infofilter", "randomrank"}
    for row in report["rouge"].values():
        assert doc["doc_id"] in row["per_doc"]
