"""Benchmark of the `infosum` CLI pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

The benchmark generates a synth bundle from the seed (rewritten to a high
vocabulary for the *-hivocab workload), then runs the real CLI one command
after another, each in its own process. Set-up (synth) is repeated SETUP_REPS
times; the pipeline label -> train -> predict -> summarize -> evaluate is
repeated for about `--seconds`. With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it runs the pipeline once untimed and once through
`tracer.py`, and prints the per-layer metrics. Output checks (exit codes,
byte-identical artifacts across repeats and runs of one seed, report sanity)
count towards `failed` and never abort the run. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hivocab
from tracer import LAYER_METRICS, ROOT_NAME

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = Path(".perfbench_work")
SETUP_REPS = 3
BLAS_THREADS = 1
RUN_LIMIT_S = 140.0  # no new repeat may start if it would end past this
SYSTEMS = ("leadwords", "inforank", "infofilter", "randomrank")
ARTIFACTS = (
    "labels.jsonl",
    "model.json",
    "predictions.jsonl",
    *(f"summaries_{s}.jsonl" for s in SYSTEMS),
    "report.json",
)
PIPELINE = ("label", "train", "predict", "summarize", "evaluate")
TRAINING = ("label", "train")
COMMANDS = ("synth", *PIPELINE)


@dataclass(frozen=True)
class Workload:
    sizes: dict[str, tuple[int, int]]  # size -> (train docs, test docs)
    hivocab: bool
    overrides: tuple[str, ...] = ()


WORKLOADS = {
    "paper-150": Workload({"full": (150, 300), "smoke": (40, 20)}, False),
    "bow-align-hivocab": Workload(
        {"full": (80, 300), "smoke": (40, 20)},
        True,
        ("label.mode=alignment", "features.mode=bow"),
    ),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "train_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "detector_f1": "ratio",
    "inforank_r1_recall": "ratio",
    "passed_share": "ratio",
}
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _, _) in LAYER_METRICS.items()},
    "corpus.chunk_distinct_ratio": "ratio",
    "features.extract.distinct_ratio": "ratio",
    "summarize.infofilter_fallbacks": "count",
    **{f"cli.{c}.{kind}": "s" for c in COMMANDS for kind in ("wall_s", "self_s")},
    "tracing_overhead_s": "s",
}


@dataclass
class CommandRun:
    command: str
    wall_s: float
    rc: int
    maxrss_mb: float
    phase: str  # "setup<k>", "rep<k>", "untimed" or "traced"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when the checkout itself is a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def layer_metrics(traces: dict[str, dict]) -> tuple[dict[str, float | None], dict]:
    """Per-layer metrics and per-command self times from the traces of one pipeline.

    A metric over a name that some command could not find is None (missing).
    """
    missing = sorted({m for t in traces.values() for m in t["missing"]})
    if missing:
        print(f"missing layer functions: {missing}", file=sys.stderr)

    def total(names, field) -> float | None:
        if any(n in missing for n in names):
            return None
        return sum(t["stats"].get(n, {}).get(field, 0) for t in traces.values() for n in names)

    metrics: dict[str, float | None] = {
        name: total(names, field) for name, (_, field, names) in LAYER_METRICS.items()
    }
    keys = {k for t in traces.values() for k in t["sentence_keys"]}
    calls = metrics["features.extract.calls"]
    metrics["features.extract.distinct_ratio"] = len(keys) / calls if calls else None
    metrics["summarize.infofilter_fallbacks"] = sum(t["infofilter_fallbacks"] for t in traces.values())
    breakdown = {}
    for command in COMMANDS:
        stats = traces.get(command, {}).get("stats", {})
        root = stats.get(ROOT_NAME)
        metrics[f"cli.{command}.wall_s"] = root["busy_s"] if root else None
        metrics[f"cli.{command}.self_s"] = root["self_s"] if root else None
        breakdown[command] = {
            "wall_s": metrics[f"cli.{command}.wall_s"],
            "self_s": {n: s["self_s"] for n, s in sorted(stats.items()) if s["calls"]},
        }
    return metrics, breakdown


class Bench:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.train_docs, self.test_docs = self.workload.sizes[args.size]
        self.run_dir = WORK / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}
        self.bundle_stats: dict = {}
        self.commands: list[CommandRun] = []
        cpus = os.sched_getaffinity(0)
        threads = str(min(BLAS_THREADS, len(cpus)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads
        self.environment = {
            "nproc": len(cpus),
            "blas_threads": int(threads),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(),
            "src_sha256": source_digest(),
            "workload": args.workload,
            "size": args.size,
            "seed": args.seed,
            "seconds": args.seconds,
            "train_docs": self.train_docs,
            "test_docs": self.test_docs,
            "setup_reps": SETUP_REPS,
        }

    # -- checks -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def check_artifacts(self, out: Path, where: str) -> None:
        """All artifacts are written and match the first bytes seen in this run."""
        found = {name: sha256_file(out / name) for name in ARTIFACTS if (out / name).is_file()}
        absent = [name for name in ARTIFACTS if name not in found]
        self.check(not absent, f"{where}: artifacts not written: {absent}")
        if found:
            differ = sorted(n for n, d in found.items() if self.reference.setdefault(n, d) != d)
            self.check(not differ, f"{where}: artifact bytes differ from the first repeat: {differ}")

    def check_across_runs(self) -> None:
        """Artifacts must match every earlier run of this source, size and seed."""
        key = f"{self.environment['src_sha256'][:16]}-t{self.environment['blas_threads']}"
        name = f"{self.args.workload}-{self.args.size}-seed{self.args.seed}.json"
        path = WORK / "digests" / key / name
        if path.is_file():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            names = set(earlier) | set(self.reference)
            differ = sorted(n for n in names if earlier.get(n) != self.reference.get(n))
            self.check(not differ, f"artifact bytes differ from an earlier run: {differ}")
        elif self.failed == 0:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.reference, indent=1, sort_keys=True), encoding="utf-8")

    def check_report(self, out: Path) -> dict:
        path = out / "report.json"
        if not self.check(path.is_file(), "report.json was written"):
            return {}
        report = json.loads(path.read_text(encoding="utf-8"))
        rouge = report.get("rouge", {})
        cls = report.get("classification", {})
        self.check(all(s in rouge for s in SYSTEMS), f"report has all systems {SYSTEMS}")
        f1 = cls.get("model", {}).get("f1", 0.0)
        self.check(
            f1 > cls.get("baseline_all_positive", {}).get("f1", 1.0),
            "detector F1 is above the all-positive baseline",
        )
        r1 = {s: rouge.get(s, {}).get("mean", {}).get("r1", {}).get("recall", 0.0) for s in SYSTEMS}
        self.check(r1["inforank"] > r1["randomrank"], "InfoRank R-1 recall is above RandomRank")
        return {"detector_f1": f1, "inforank_r1_recall": r1["inforank"]}

    # -- running commands -------------------------------------------------

    def cli_args(self, command: str, bundle: Path) -> list[str]:
        if command == "synth":
            return [
                "synth", "--out-dir", str(bundle), "--seed", str(self.args.seed),
                "--train-docs", str(self.train_docs), "--test-docs", str(self.test_docs),
            ]
        args = [command, "-c", str(bundle / "config.json")]
        for override in self.workload.overrides:
            args += ["--set", override]
        return args

    def run_command(self, command: str, bundle: Path, phase: str, trace_dir: Path | None) -> CommandRun:
        args = self.cli_args(command, bundle)
        if trace_dir is None:
            argv = [sys.executable, "-m", "infosum.cli", *args]
        else:
            argv = [sys.executable, str(TRACER), str(trace_dir / f"{command}.json"), "--", *args]
        log = self.run_dir / "commands.log"
        with open(log, "ab") as fh:
            fh.write(f"$ {' '.join(argv)}\n".encode())
            fh.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.check(proc.returncode == 0, f"{command} exited {proc.returncode}"):
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            print("\n".join(tail), file=sys.stderr)
        run = CommandRun(command, wall, proc.returncode, usage.ru_maxrss / 1024.0, phase)
        self.commands.append(run)
        return run

    def set_up(self, bundle: Path, phase: str, trace_dir: Path | None = None) -> CommandRun:
        """Synth, then the bench's own rewrite, which is not timed."""
        if bundle.exists():
            shutil.rmtree(bundle)
        synth = self.run_command("synth", bundle, phase, trace_dir)
        if synth.rc == 0 and self.workload.hivocab:
            self.bundle_stats = hivocab.rewrite_bundle(bundle, self.args.seed)
        elif synth.rc == 0:
            self.bundle_stats = hivocab.chunk_stats(
                [bundle / "corpus_train.jsonl", bundle / "corpus_test.jsonl"]
            )
        return synth

    def run_pipeline(self, bundle: Path, phase: str, trace_dir: Path | None = None) -> list[CommandRun]:
        runs = [self.run_command(c, bundle, phase, trace_dir) for c in PIPELINE]
        self.check_artifacts(bundle / "run", f"{phase} in {bundle.name}")
        return runs

    # -- workloads --------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        setups = [self.set_up(self.run_dir / f"setup{k}", f"setup{k}") for k in range(SETUP_REPS)]
        bundle = self.run_dir / f"setup{SETUP_REPS - 1}"
        reps: list[list[CommandRun]] = []
        timed_start = time.perf_counter()
        while True:
            reps.append(self.run_pipeline(bundle, f"rep{len(reps)}"))
            per_rep = (time.perf_counter() - timed_start) / len(reps)
            if (
                per_rep * (len(reps) + 1) > self.args.seconds
                or time.perf_counter() - self.started + per_rep > RUN_LIMIT_S
            ):
                break
        quality = self.check_report(bundle / "run")
        self.check_across_runs()
        # Per command, the fastest of its repeats: the CPU speed of a shared
        # host flips between a fast and a slow state every few seconds, and
        # the median of a few repeats lands on either state (see README.md).
        fastest: dict[str, float] = {}
        for rep in reps:
            for r in rep:
                fastest[r.command] = min(r.wall_s, fastest.get(r.command, math.inf))

        def total(names) -> float:
            return sum(fastest[c] for c in names)

        return {
            "pipeline_s": total(PIPELINE),
            "train_s": total(TRAINING),
            "peak_rss_mb": max(r.maxrss_mb for r in self.commands),
            "setup_s": statistics.median(s.wall_s for s in setups),
            "detector_f1": quality.get("detector_f1", 0.0),
            "inforank_r1_recall": quality.get("inforank_r1_recall", 0.0),
            "passed_share": 1.0 - self.failed / max(1, self.attempted),
        }

    def per_layer(self) -> tuple[dict[str, float | None], dict]:
        """One untimed pass, then one traced pass of the same commands."""
        plain = self.run_dir / "plain"
        untimed = [self.set_up(plain, "untimed"), *self.run_pipeline(plain, "untimed")]
        traced_bundle = self.run_dir / "traced"
        trace_dir = self.run_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = [
            self.set_up(traced_bundle, "traced", trace_dir),
            *self.run_pipeline(traced_bundle, "traced", trace_dir),
        ]
        self.check_report(traced_bundle / "run")
        self.check_across_runs()

        traces = {}
        for run in traced:
            path = trace_dir / f"{run.command}.json"
            if self.check(path.is_file(), f"trace of {run.command} was written"):
                traces[run.command] = json.loads(path.read_text(encoding="utf-8"))
        metrics, breakdown = layer_metrics(traces)
        metrics["corpus.chunk_distinct_ratio"] = self.bundle_stats.get("chunk_distinct_ratio")
        metrics["tracing_overhead_s"] = sum(r.wall_s for r in traced) - sum(
            r.wall_s for r in untimed
        )
        return metrics, breakdown

    def run(self) -> dict:
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True)
        try:
            if self.args.trace:
                values, breakdown = self.per_layer()
                units = PER_LAYER_UNITS
            else:
                values, breakdown = self.end_to_end(), None
                units = END_TO_END_UNITS
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
        record = {
            "environment": self.environment,
            "bundle": self.bundle_stats,
            "wall_s": time.perf_counter() - self.started,
            "failures": self.failures,
            "commands": [
                {"command": r.command, "phase": r.phase, "wall_s": r.wall_s, "rc": r.rc}
                for r in self.commands
            ],
            "layers_by_command": breakdown,
            "result": {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            },
        }
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{self.run_dir.name}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
        )
        return record


def print_record(record: dict) -> None:
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("bundle " + json.dumps(record["bundle"], sort_keys=True))
    for command, layers in (record["layers_by_command"] or {}).items():
        print(f"layers {command}: wall_s={layers['wall_s']}")
        for name, self_s in layers["self_s"].items():
            print(f"  {name:<46} self_s={self_s:.6f}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:<40} {metric['value']} {metric['unit']}")
    print(json.dumps(record["result"], sort_keys=True))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "infosum" / "cli.py").is_file():
        print(f"error: no infosum sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    print_record(Bench(args).run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
