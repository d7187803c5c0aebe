"""`infosum.rng` draws from `random.Random(seed << 8 | salt).random` alone."""

import ast
import hashlib
import struct
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from infosum import rng
from infosum.rng import choice, permutation, stream

SRC = Path(__file__).resolve().parents[1] / "src" / "infosum"
SALTS = (rng.SYNTH_LEXICONS, rng.SYNTH_TRAIN, rng.SYNTH_TEST, rng.RANDOMRANK_ORDER, rng.UNLABELED_SAMPLE,
         rng.CALIBRATION_SPLIT)

# The sha256 of the first 1000 draws of stream(17017, 3), each packed as a little-endian
# double. The standard library fixes this stream for an int seed on every Python version
# (checked on 3.10, 3.11, 3.12 and 3.13).
PINNED_SEED, PINNED_SALT = 17017, 3
PINNED_SHA256 = "167f5c314cac95fda49194c46be8a698dd8f9285e38c7c92cb72177d8e08f0c0"


SEEDS = [0, 17, 42, 2**64 + 3, 2**70 + 5, 2**130 + 7]


def draws(rand, n):
    return [rand() for _ in range(n)]


def reference_choice(seed, salt, n, size):
    """The module docstring's rule spelled out on a list of draws taken first: the
    k-th draw u swaps place i = n - 1 - k with place int(u * (i + 1)), and the
    last `size` places are the sample."""
    us = draws(stream(seed, salt), size)
    order = list(range(n))
    for k, u in enumerate(us):
        i = n - 1 - k
        j = int(u * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order[n - size:]


def test_first_1000_draws_are_pinned():
    rand = stream(PINNED_SEED, PINNED_SALT)
    digest = hashlib.sha256(b"".join(struct.pack("<d", rand()) for _ in range(1000))).hexdigest()
    assert digest == PINNED_SHA256


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**33 + 5, 2**130 + 7])
def test_the_same_seed_and_salt_give_the_same_draws(seed):
    for salt in SALTS:
        assert draws(stream(seed, salt), 200) == draws(stream(seed, salt), 200)


def test_each_seed_and_salt_pair_has_its_own_stream():
    firsts = {(seed, salt): tuple(draws(stream(seed, salt), 4)) for seed in (0, 1, 2, 255, 256, 2**40) for salt in SALTS}
    assert len(set(firsts.values())) == len(firsts)


def test_salts_are_distinct_and_below_256():
    """So `seed << 8 | salt` maps each (seed, salt) pair to a seed of its own."""
    assert len(set(SALTS)) == len(SALTS)
    assert all(0 <= salt < 256 for salt in SALTS)


def test_draws_are_53_bit_floats_in_the_unit_interval():
    for x in draws(stream(7, 0), 10_000):
        assert 0.0 <= x < 1.0
        assert (x * 2**53).is_integer()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 160, 1000, 10**6, 2**31 + 1, 3 * 2**40 + 5, 2**53 - 1])
def test_the_largest_draw_maps_below_n(n):
    """`int(rand() * n)` is an index of [0, n) even at the largest draw, 1 - 2**-53."""
    assert int((1 - 2**-53) * n) == n - 1


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        stream(-1, 0)


class TestPermutation:
    # Orders of this generator, pinned: each is a function of the standard library's
    # fixed `random()` stream, so it is the same on every Python version.
    GOLDEN = [
        (0, rng.RANDOMRANK_ORDER, 10, [1, 5, 7, 6, 0, 3, 8, 9, 4, 2]),
        (11, rng.SYNTH_TRAIN, 12, [0, 2, 6, 5, 3, 7, 1, 10, 11, 8, 4, 9]),
        (299, rng.SYNTH_TEST, 16, [15, 13, 8, 4, 0, 14, 3, 7, 2, 6, 1, 12, 5, 9, 11, 10]),
        (2**32, rng.UNLABELED_SAMPLE, 9, [3, 2, 6, 8, 5, 4, 0, 1, 7]),
        (2**64 + 1, rng.CALIBRATION_SPLIT, 14, [0, 3, 7, 6, 10, 1, 2, 13, 9, 11, 5, 8, 12, 4]),
    ]

    @pytest.mark.parametrize("seed, salt, n, order", GOLDEN)
    def test_golden_orders(self, seed, salt, n, order):
        assert permutation(stream(seed, salt), n) == order

    @pytest.mark.parametrize("seed", [
        0, 1, 42, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 3, 2**130 + 7,
        255, 256, 299, 2**33 + 1, 12345, 2**70 + 5,
    ])
    def test_equals_the_reference_for_n_up_to_1000(self, seed):
        for n in [*range(40), 63, 64, 65, 255, 256, 257, 1000]:
            assert permutation(stream(seed, rng.RANDOMRANK_ORDER), n) == reference_choice(
                seed, rng.RANDOMRANK_ORDER, n, n), n

    @pytest.mark.parametrize("n", [*range(12), 63, 64, 65, 1000])
    def test_returns_a_permutation(self, n):
        rand = stream(n, 1)
        for _ in range(5):
            assert sorted(permutation(rand, n)) == list(range(n))

    def test_is_a_function_of_the_stream(self):
        assert permutation(stream(3, 4), 50) == permutation(stream(3, 4), 50)
        assert permutation(stream(3, 4), 50) != permutation(stream(4, 4), 50)

    def test_every_order_of_three_is_about_equally_likely(self):
        rand = stream(11, 0)
        counts = Counter(tuple(permutation(rand, 3)) for _ in range(6000))
        assert len(counts) == 6
        # 5 dof; the 0.999 quantile is 20.52, and the stream is seeded, so this is deterministic
        assert sum((c - 1000) ** 2 / 1000 for c in counts.values()) < 20.52


class TestChoice:
    @pytest.mark.parametrize("n, size", [(0, 0), (1, 0), (1, 1), (2, 1), (7, 3), (50, 49), (300, 300), (20_000, 400)])
    def test_returns_distinct_indices_in_range(self, n, size):
        rand = stream(n, 2)
        for _ in range(3):
            picked = choice(rand, n, size)
            assert len(picked) == len(set(picked)) == size
            assert all(0 <= i < n for i in picked)

    CASES = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 3), (7, 3), (50, 49), (50, 50), (64, 63), (65, 64),
             (300, 300), (1000, 1), (1000, 999), (20_000, 400), (20_000, 20_000)]

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    @pytest.mark.parametrize("n, size", CASES)
    def test_equals_the_reference_and_takes_size_draws(self, seed, n, size):
        """The sample is the reference's, in its order, and the stream is left just
        after its `size`-th draw, so the next draw site reads the same numbers."""
        rand = stream(seed, rng.UNLABELED_SAMPLE)
        assert choice(rand, n, size) == reference_choice(seed, rng.UNLABELED_SAMPLE, n, size)
        assert rand() == draws(stream(seed, rng.UNLABELED_SAMPLE), size + 1)[-1]

    def test_every_pair_of_five_is_about_equally_likely(self):
        rand = stream(5, 0)
        counts = Counter(frozenset(choice(rand, 5, 2)) for _ in range(5000))
        assert set(counts) == {frozenset(pair) for pair in combinations(range(5), 2)}
        # 9 dof; the 0.999 quantile is 27.88
        assert sum((c - 500) ** 2 / 500 for c in counts.values()) < 27.88

    @pytest.mark.parametrize("n, size", [(5, 6), (5, -1), (0, 1)])
    def test_size_out_of_range_raises(self, n, size):
        with pytest.raises(ValueError, match="distinct items"):
            choice(stream(0, 0), n, size)


def test_the_package_calls_no_method_of_random_but_random():
    """The docs fix only `random()`'s stream: `randrange`, `shuffle`, `sample`, `choice`
    and the rest may change between versions. So every `Random(...)` in src is the
    object of `.random` at once, never bound to a name, and nothing else of the
    `random` module is imported."""
    sites = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(alias.name != "random" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                assert [(alias.name, alias.asname) for alias in node.names] == [("Random", None)], path.name
            elif isinstance(node, ast.Name) and node.id == "Random":
                call = parents[node]
                assert isinstance(call, ast.Call) and call.func is node, f"{path.name}:{node.lineno}"
                attribute = parents[call]
                assert isinstance(attribute, ast.Attribute) and attribute.attr == "random", f"{path.name}:{node.lineno}"
                sites += 1
    assert sites == 1
