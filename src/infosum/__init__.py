"""Detect summary-worthy news sentences from positive-unlabeled data and
drive budget-constrained extractive summarizers with the learned detector.

Import the submodules (`infosum.corpus`, `infosum.pu`, ...) for the API.
The package root imports no submodule but `corpus`, because every CLI
command is a fresh process that imports this file first: re-exporting the
learner here would make `infosum label` load numpy and the PU code it never
runs. `load_corpus` is the one re-export, since `perfbench/test_perfbench.py`
reads it from the package root.
"""

__version__ = "0.1.0"

from .corpus import load_corpus
