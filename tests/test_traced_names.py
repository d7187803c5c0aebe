"""The benchmark tracer wraps layer functions by name; each name must resolve.

A renamed layer function does not fail a benchmark run: its per-layer metric
becomes null. This test makes the rename fail here instead. It resolves the
names only and installs no wrapper.
"""

import importlib.util
from pathlib import Path

import infosum

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name in tracer.traced_names() if tracer._resolve(infosum, name) is None]
    assert missing == []
