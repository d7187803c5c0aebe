import functools

import pytest

from regimes import build


@pytest.fixture(scope="session")
def regime(tmp_path_factory):
    """`regime(name, seed)`: the `regimes.Regime` of that bundle, built once per session."""
    root = tmp_path_factory.mktemp("regimes")
    return functools.cache(lambda name, seed: build(root, name, seed))
