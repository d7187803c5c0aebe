"""The config variants every pipeline check runs under, as `--set` overrides of a
synth bundle's config.

`default` runs the config as synth writes it; `bow` takes alignment labels and
BOW features; `nogeneral` drops the general feature block, bins each scored
attribute in 50 intervals (train writes them into the model's layout, and
predict reads them back from it) and budgets whole sentences, which LeadWords
and InfoFilter read.
"""

from __future__ import annotations

from pathlib import Path

COMMANDS = ("label", "train", "predict", "summarize", "evaluate")
VARIANTS = {
    "default": (),
    "bow": ("label.mode=alignment", "features.mode=bow"),
    "nogeneral": ("features.mode=dictionary-no-general", "budget.mode=whole-sentence", "features.bins=50"),
}


def set_args(variant: str) -> list[str]:
    """The variant's overrides as command-line arguments."""
    return [arg for override in VARIANTS[variant] for arg in ("--set", override)]


def out_files(out_dir: Path) -> dict[str, bytes]:
    """The bytes of every file directly in `out_dir`, by name, but the resolved
    configs, which hold the out dir's path."""
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
            if path.is_file() and not path.name.startswith("resolved_config.")}
