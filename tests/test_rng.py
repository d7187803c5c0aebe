"""`infosum.rng` draws what `np.random.default_rng(seed)` draws, bit for bit."""

import random

import numpy as np
import pytest

from infosum.rng import Generator, default_rng

SEEDS = [0, 1, 12345, 2**32 - 1, 2**64 + 3, 2**130 + 7, (0, 17), (3, 59), (7, 101), (2**70, 5), (1, 2, 3, 4, 5)]

# (low, high) pairs of `integers`: the synth draws, negative and shifted ranges, the
# ranges where Lemire's method rejects about half and a quarter of its 32-bit draws,
# and ranges of 1, 2**31 and exactly 2**32.
RANGES = [
    (0, 2), (0, 15), (8, 15), (0, 40), (0, 60), (0, 160), (-5, 7), (7, 8),
    (0, 2**31), (0, 2**31 + 1), (0, 3 * 2**30), (0, 2**32 - 1), (0, 2**32), (2**40, 2**40 + 2**32),
]


def interleaved_draws(seed, n, rng):
    """`n` calls of random, uniform, integers (with one or two bounds) and permutation
    on `rng`, chosen and parametrized by a stream independent of it."""
    script = random.Random(repr(seed))
    out = []
    for _ in range(n):
        op = script.randrange(6)
        if op == 0:
            out.append(float(rng.random()))
        elif op == 1:
            low = script.uniform(-1e3, 1e3)
            out.append(float(rng.uniform(low, low + script.uniform(0.0, 1e3))))
        elif op == 2:
            out.append(int(rng.integers(script.randrange(1, 200))))
        elif op == 5:
            out.append([int(i) for i in rng.permutation(script.randrange(0, 20))])
        else:
            low, high = script.choice(RANGES)
            out.append(int(rng.integers(low, high)))
    return out


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_interleaved_draws_equal_numpy(seed):
    n = 10_000
    assert interleaved_draws(seed, n, default_rng(seed)) == interleaved_draws(seed, n, np.random.default_rng(seed))


@pytest.mark.parametrize("low, high", RANGES)
def test_runs_of_one_range_equal_numpy(low, high):
    """A run of 32-bit draws uses both halves of each 64-bit output, and one random()
    in the middle of the run neither takes nor clears the kept half."""
    seed = (abs(low), high)
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert [ours.integers(low, high) for _ in range(501)] == theirs.integers(low, high, size=501).tolist()
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("span", [2**31 + 1, 3 * 2**30])
def test_lemire_rejects_as_numpy_does(span):
    """These ranges reject about half and a quarter of the 32-bit draws, so the stream
    stays in step with numpy only if every rejection is redrawn as numpy redraws it."""
    class Counting(Generator):
        calls = 0

        def _next32(self):
            self.calls += 1
            return super()._next32()

    ours, theirs = Counting(4), np.random.default_rng(4)
    assert [ours.integers(0, span) for _ in range(1000)] == [int(theirs.integers(0, span)) for _ in range(1000)]
    assert ours.calls > 1100
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (0, 2**40), (-1, 2**32)])
def test_wider_range_than_2_to_32_raises(low, high):
    with pytest.raises(ValueError, match="at most 2\\*\\*32"):
        default_rng(0).integers(low, high)


@pytest.mark.parametrize("low, high", [(5, 5), (5, 4), (0, None)])
def test_empty_range_raises(low, high):
    with pytest.raises(ValueError, match="low < high"):
        default_rng(0).integers(low, high)


def test_uniform_is_low_plus_span_times_random():
    ours, theirs = default_rng(8), np.random.default_rng(8)
    for low, high in [(520.0, 680.0), (120.0, 280.0), (350.0, 450.0), (-3.5, 1e-9), (0.0, 1e300)]:
        assert [ours.uniform(low, high) for _ in range(300)] == theirs.uniform(low, high, size=300).tolist()


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        default_rng((0, -1))


class TestPermutation:
    """`permutation` is numpy's `default_rng(seed).permutation(n)`, drawn without numpy."""

    # Orders numpy 2.4 gives; they pin the contract whatever numpy is installed.
    GOLDEN = [
        (0, 10, [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]),
        ((0, 0), 12, [9, 2, 7, 4, 5, 11, 0, 3, 6, 10, 8, 1]),
        ((3, 299), 16, [11, 9, 5, 1, 15, 7, 10, 6, 14, 3, 2, 13, 4, 12, 8, 0]),
        (2**32, 9, [1, 3, 6, 7, 8, 0, 4, 2, 5]),
        ((2**64 + 1, 7), 14, [6, 12, 10, 8, 2, 11, 5, 1, 13, 3, 0, 7, 4, 9]),
    ]

    @pytest.mark.parametrize("seed, n, order", GOLDEN)
    def test_golden_orders(self, seed, n, order):
        assert default_rng(seed).permutation(n) == order

    @pytest.mark.parametrize("seed", [
        0, 1, 42, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 3, 2**130 + 7,
        (0, 0), (0, 1), (5, 299), (2**32, 3), (1, 2**33), (1, 2, 3, 4, 5),
    ])
    def test_equals_numpy_for_n_up_to_1000(self, seed):
        for n in [*range(40), 63, 64, 65, 255, 256, 257, 1000]:
            assert default_rng(seed).permutation(n) == np.random.default_rng(seed).permutation(n).tolist(), n

    def test_equals_numpy_for_each_document_seed(self):
        for di in range(300):
            for n in (1, 7, 12, 30):
                expected = np.random.default_rng((11, di)).permutation(n).tolist()
                assert default_rng((11, di)).permutation(n) == expected

    def test_more_than_2_to_32_items_raises(self):
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            default_rng(0).permutation(2**32 + 1)


class TestChoice:
    """`choice(n, size)` is numpy's `default_rng(seed).choice(n, size, replace=False)`."""

    # numpy shuffles a tail of 0, ..., n - 1 when n > 10000 and size > n // 50, and
    # otherwise runs Floyd's algorithm: both edges of that rule, from each side, and
    # the smallest and largest samples.
    EDGES = [(n, size) for n in (10_000, 10_001) for size in (1, n // 50, n // 50 + 1, n - 1)]
    SMALL = [(0, 0), (1, 0), (1, 1), (2, 1), (7, 3), (50, 49), (300, 300), (20_000, 20_000)]

    @pytest.mark.parametrize("seed", [0, 42, 2**64 + 3, 2**130 + 7, (0, 17), (2**70, 5)], ids=repr)
    @pytest.mark.parametrize("n, size", EDGES + SMALL)
    def test_equals_numpy(self, seed, n, size):
        ours, theirs = default_rng(seed), np.random.default_rng(seed)
        picked = ours.choice(n, size)
        expected = theirs.choice(n, size, replace=False).tolist()
        assert len(picked) == size and set(picked) == set(expected)
        assert picked == expected  # in numpy's order, which keeps the stream in step
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n, size", [(5, 6), (5, -1), (0, 1)])
    def test_size_out_of_range_raises(self, n, size):
        with pytest.raises(ValueError, match="distinct items"):
            default_rng(0).choice(n, size)

    def test_more_than_2_to_32_items_raises(self):
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            default_rng(0).choice(2**32 + 1, 1)
