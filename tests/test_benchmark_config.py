"""Every config the benchmark runs must load under the strict config schema.

The config rejects unknown keys and ill-typed values, so a benchmark
override that names a renamed key would fail each benchmark command with
exit 2. This test makes it fail here instead: it loads `perfbench/run.py`
through `regimes.perfbench_run`, the loader the regime table builds its
benchmark bundles with, and resolves a fresh synth config with each
workload's overrides, per pipeline command, through the CLI's own argument
parser and `load_config`.
"""

from infosum.cli import build_parser, load_config
from infosum.synth import SynthParams, write_synth_bundle

from regimes import perfbench_run


def test_every_workload_config_loads(tmp_path):
    run = perfbench_run()
    params = SynthParams(n_train_docs=4, n_test_docs=2, sentences_per_doc=4, seed=0)
    config = write_synth_bundle(tmp_path, params)["config"]
    assert run.WORKLOADS
    for workload in run.WORKLOADS.values():
        sets = [arg for override in workload.overrides for arg in ("--set", override)]
        for command in run.PIPELINE:
            cfg = load_config(build_parser().parse_args([command, "-c", config, *sets]))
            assert cfg.out_dir == str(tmp_path / "run")
