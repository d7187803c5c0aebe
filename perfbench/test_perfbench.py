"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q

It runs every workload at smoke size, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit, and that the
per-layer self times of every command add up to its traced wall time. It also
covers the high-vocabulary rewrite and the tracer's patching rules.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hivocab  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if trace:
        record_path = ROOT / ".perfbench_work" / "results" / f"{workload}-smoke-seed{SEED}-trace1.json"
        record = json.loads(record_path.read_text(encoding="utf-8"))
        for command, layers in record["layers_by_command"].items():
            assert layers["wall_s"] == result["metrics"][f"cli.{command}.wall_s"]["value"]
            assert sum(layers["self_s"].values()) == pytest.approx(layers["wall_s"], rel=1e-9, abs=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_benchmark_json_names_what_run_emits():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    from infosum.synth import SynthParams, write_synth_bundle

    base = tmp_path_factory.mktemp("hivocab")
    params = SynthParams(n_train_docs=30, n_test_docs=20, label_rate=0.3, seed=3)
    write_synth_bundle(base / "plain", params)
    shutil.copytree(base / "plain", base / "rich")
    stats = hivocab.rewrite_bundle(base / "rich", seed=3)
    return base / "plain", base / "rich", stats


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def test_rewrite_replaces_only_filler_words(bundles):
    plain, rich, _ = bundles
    before = {r["doc_id"]: r for r in _records(plain / "corpus_train.jsonl")}
    for rec in _records(rich / "corpus_train.jsonl"):
        for old, new in zip(before[rec["doc_id"]]["sentences"], rec["sentences"]):
            old_chunks, new_chunks = old.split(" "), new.split(" ")
            assert len(old_chunks) == len(new_chunks)
            for o, n in zip(old_chunks, new_chunks):
                if hivocab.FILLER.fullmatch(o):
                    assert n.isalpha() and n.islower()
                else:
                    assert n == o


def test_rewrite_rebuilds_summaries_and_drops_unsummarized_docs(bundles):
    plain, rich, stats = bundles
    for split, corpus_name, side_name in hivocab.SPLITS:
        old = _records(plain / corpus_name)
        new = _records(rich / corpus_name)
        assert stats[f"{split}_dropped_no_summary"] == sum(1 for r in old if not r.get("summary"))
        assert stats[f"{split}_docs"] == len(new)
        kept = {r["doc_id"] for r in new}
        assert {r["doc_id"] for r in _records(rich / side_name)} <= kept
        old_by_id = {r["doc_id"]: r for r in old}
        for rec in new:
            was = old_by_id[rec["doc_id"]]
            members = [was["sentences"].index(s) for s in was["summary"]]
            assert rec["summary"] == [rec["sentences"][i] for i in members]
    assert stats["train_dropped_no_summary"] > 0  # label_rate=0.3 leaves some docs without one
    assert 0.0 < stats["chunk_distinct_ratio"] < 1.0
    assert stats["vocab_size"] > 424


def test_rewrite_is_seeded(bundles, tmp_path):
    plain, rich, _ = bundles
    shutil.copytree(plain, tmp_path / "again")
    hivocab.rewrite_bundle(tmp_path / "again", seed=3)
    for _, corpus_name, _ in hivocab.SPLITS:
        assert (tmp_path / "again" / corpus_name).read_bytes() == (rich / corpus_name).read_bytes()


def test_zipf_ranks_follow_one_over_rank():
    ranks = hivocab.zipf_ranks(np.random.default_rng(0), 200_000)
    assert ranks.min() >= 0 and ranks.max() < hivocab.POOL_SIZE
    harmonic = float(np.sum(1.0 / np.arange(1, hivocab.POOL_SIZE + 1)))
    assert np.mean(ranks == 0) == pytest.approx(1.0 / harmonic, rel=0.05)
    assert np.mean(ranks == 1) == pytest.approx(0.5 / harmonic, rel=0.05)
    assert [hivocab.pool_word(k) for k in (1, 26, 27, 702, 703)] == ["a", "z", "aa", "zz", "aaa"]


def test_self_times_add_up_to_the_root():
    t = tracer.Tracer()
    wrapped = {}

    def leaf(n):
        return sum(range(n))

    def middle(n):
        return wrapped["leaf"](n) + wrapped["leaf"](n)

    wrapped["leaf"] = t.wrap("m.leaf", leaf)
    t.wrap("m.middle", middle)(100_000)
    stats = t.to_json()["stats"]
    assert stats["m.leaf"]["calls"] == 2
    total = stats["m.leaf"]["self_s"] + stats["m.middle"]["self_s"]
    assert total == pytest.approx(stats["m.middle"]["busy_s"], rel=1e-9)


def test_install_rebinds_imports_patches_methods_and_reports_missing():
    code = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import infosum, infosum.cli, infosum.corpus, infosum.pu, tracer
t = tracer.Tracer()
missing = tracer.install(t, infosum, ["corpus.load_corpus", "pu.SentenceClassifier.prob",
                                      "corpus.gone", "pu.Gone.prob", "gone.f"])
print(json.dumps({
    "missing": missing,
    "same": infosum.cli.load_corpus is infosum.corpus.load_corpus is infosum.load_corpus,
    "wrapped": hasattr(infosum.cli.load_corpus, "__wrapped__"),
    "method": hasattr(infosum.pu.SentenceClassifier.prob, "__wrapped__"),
}))
"""
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["missing"] == ["corpus.gone", "pu.Gone.prob", "gone.f"]
    assert got["same"] and got["wrapped"] and got["method"]


def test_missing_layer_is_reported_as_null_metric():
    import run

    stats = {"cli.main": {"calls": 1, "busy_s": 2.0, "self_s": 0.5},
             "corpus.load_corpus": {"calls": 1, "busy_s": 1.5, "self_s": 1.5}}
    trace = {"missing": ["corpus.tokenize"], "stats": stats, "sentence_keys": [],
             "infofilter_fallbacks": 0}
    metrics, breakdown = run.layer_metrics({"label": trace})
    assert metrics["corpus.tokenize.self_s"] is None
    assert metrics["corpus.tokenize.calls"] is None
    assert metrics["corpus.load_corpus.busy_s"] == 1.5
    assert metrics["cli.label.wall_s"] == 2.0 and metrics["cli.train.wall_s"] is None
    assert breakdown["label"]["self_s"] == {"cli.main": 0.5, "corpus.load_corpus": 1.5}
