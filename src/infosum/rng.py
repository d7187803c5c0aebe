"""Seeded draws from the standard library's generator, for synth, RandomRank,
train's unlabeled sample and its calibration split.

`stream(seed, salt)` is the `random` method of `random.Random(seed << 8 |
salt)`: MT19937 (Matsumoto & Nishimura 1998), whose `random()` stream for an
int seed the standard library keeps fixed across Python versions. No other
method of `random.Random` is called, since the docs fix none of their
streams. An int in [0, n) is `int(rand() * n)`; `choice` and `permutation`
shuffle by Fisher-Yates on such ints. Each draw site has its own salt below
256, so the map from (seed, salt) to the seed of `Random` is one-to-one.
"""

from __future__ import annotations

from random import Random
from typing import Callable

Stream = Callable[[], float]

SYNTH_LEXICONS, SYNTH_TRAIN, SYNTH_TEST, RANDOMRANK_ORDER, UNLABELED_SAMPLE, CALIBRATION_SPLIT = range(6)


def stream(seed: int, salt: int) -> Stream:
    """A float in [0, 1) with 53 random bits a call, from the stream of (seed, salt)."""
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, not {seed!r}")
    return Random(seed << 8 | salt).random


def choice(rand: Stream, n: int, size: int) -> list[int]:
    """`size` distinct ints of [0, n), uniform without replacement: the last
    `size` places of 0, ..., n - 1 after as many Fisher-Yates steps from the top."""
    if not 0 <= size <= n:
        raise ValueError(f"choice draws 0 to {n} distinct items, not {size}")
    order = list(range(n))
    for i in range(n - 1, n - 1 - size, -1):
        j = int(rand() * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order[n - size:]


def permutation(rand: Stream, n: int) -> list[int]:
    """0, ..., n - 1 in a uniform random order."""
    return choice(rand, n, n)
