import json
from pathlib import Path

import pytest

from infosum.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, RunConfig, main
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
        model = load_model(run_dir / "model.json")
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
        model = train_pu_model(X, o, extractor.layout, cfg.stage1_l2, cfg.stage2_l2, seed=cfg.seed)
        path = tmp_path / "inprocess.json"
        save_model(model, path)
        assert path.read_bytes() == (run_dir / "model.json").read_bytes()


class TestModesAndOverrides:
    def test_alignment_mode_smoke(self, bundle, tmp_path, capsys):
        out = tmp_path / "alignrun"
        code = main([
            "label", "-c", bundle["config"], "--label-mode", "alignment",
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
            "train", "-c", cfg, "--out-dir", str(out), "--feature-mode", "bow",
        ]) == EXIT_OK
        model = load_model(out / "model.json")
        assert model.layout.mode == "bow"
        assert model.layout.vocab is not None
        assert main(["predict", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK

    def test_no_general_mode_shrinks_layout_by_six(self, bundle, tmp_path):
        out = tmp_path / "ngrun"
        cfg = bundle["config"]
        assert main(["label", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK
        assert main([
            "train", "-c", cfg, "--out-dir", str(out),
            "--feature-mode", "dictionary-no-general",
        ]) == EXIT_OK
        small = load_model(out / "model.json")
        assert main(["train", "-c", cfg, "--out-dir", str(out)]) == EXIT_OK
        full = load_model(out / "model.json")
        assert full.layout.total_dim - small.layout.total_dim == 6

    def test_summarize_single_system_without_model(self, bundle, tmp_path):
        out = tmp_path / "leadonly"
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--system", "leadwords"]) == EXIT_OK
        assert (out / "summaries_leadwords.jsonl").is_file()
        assert not (out / "model.json").exists()


class TestTrainingConfig:
    def test_l2_defaults_to_the_shipped_penalty(self):
        cfg = RunConfig.from_dict({"seed": 0, "out_dir": "x"})
        assert (cfg.stage1_l2, cfg.stage2_l2) == (1e-4, 1e-4)
        assert cfg.to_dict()["hyper"] == {"stage1": {"l2": 1e-4}, "stage2": {"l2": 1e-4}}

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


class TestBadJsonlLines:
    """A malformed line in any JSONL input exits 2 and names the file kind and line."""

    @pytest.mark.parametrize("bad_line", BAD_LINES)
    @pytest.mark.parametrize("kind", ["extracts", "labels", "predictions", "gold labels", "summaries"])
    def test_exit_2_names_line(self, bundle, pipeline, tmp_path, capsys, kind, bad_line):
        _, run_dir = pipeline
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
        dest.write_text(f"{first}\n{bad_line}\n")
        capsys.readouterr()
        code = main([args[0], "-c", bundle["config"], "--out-dir", str(out), *args[1:]])
        assert code == EXIT_VALIDATION
        assert f"{kind} line 2" in capsys.readouterr().err


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

    def test_degenerate_training_is_runtime_error(self, bundle, tmp_path):
        out = tmp_path / "degen"
        out.mkdir()
        labels = [
            json.dumps({"doc_id": "train-0000", "sentence_id": i, "flag": "positive", "align_score": None})
            for i in range(4)
        ]
        (out / "labels.jsonl").write_text("\n".join(labels) + "\n")
        assert main(["train", "-c", bundle["config"], "--out-dir", str(out)]) == EXIT_RUNTIME

    def test_unknown_system_rejected(self, bundle, tmp_path):
        out = tmp_path / "badsys"
        assert main(["summarize", "-c", bundle["config"], "--out-dir", str(out),
                     "--set", 'systems=["leadwords","bogus"]']) == EXIT_VALIDATION
