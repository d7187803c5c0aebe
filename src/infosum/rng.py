"""numpy's `default_rng(seed)` in pure Python, for the draws this package makes.

A Generator's `random`, `uniform`, `integers`, `permutation` and `choice`
return what `np.random.default_rng(seed)` returns from the same calls, bit
for bit, without importing numpy (about 0.1 s a process) or numpy.random
(6 MB of resident memory and 18 ms in a process that has numpy). Synth,
RandomRank, the unlabeled sample of train and its calibration split all
draw from it. It reproduces these numpy internals
(numpy/random/bit_generator.pyx, pcg64.h, distributions.c, _generator.pyx):

- SeedSequence: the 32-bit hash mix of the seed's words into a pool of four,
  and the eight 32-bit words drawn from the pool that seed PCG64;
- PCG64 (O'Neill 2014): a 128-bit LCG with XSL-RR output, 64 bits a step.
  A 32-bit draw takes the low half of a fresh output and keeps its high half
  for the next 32-bit draw; a 64-bit draw neither uses nor clears it;
- `random`: the top 53 bits of a 64-bit draw, times 2**-53;
- `uniform(low, high)`: `low + (high - low) * random()`;
- `integers(low, high)` for int64: Lemire's multiply-and-reject on 32-bit
  draws (Lemire 2019), a range of exactly 2**32 as the raw 32-bit draw;
- `permutation(n)`: Fisher-Yates from the top, each index drawn by masked
  rejection on 32-bit draws;
- `choice(n, size, replace=False)`: for n > 10000 and size > n // 50, a
  Fisher-Yates shuffle of the last `size` places of 0, ..., n - 1 (its
  tail); otherwise Floyd's algorithm, then a Fisher-Yates shuffle of the
  draws. Both draw each index as `integers(0, i + 1)`, Lemire's method.

numpy's 64-bit paths are not reproduced: a range wider than 2**32 in
`integers`, or n > 2**32 in `permutation` or `choice`, raises ValueError.
tests/test_rng.py compares every method with numpy over interleaved draws
and pins golden permutations; tests/test_synth.py pins the bytes of synth
bundles drawn from it.
"""

from __future__ import annotations

# numpy's SeedSequence and PCG64 constants (numpy/random/bit_generator.pyx, pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """A seed as SeedSequence splits it: each non-negative int in 32-bit words, low word
    first (0 is one word), the words of a tuple's items in order."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError("a seed must be non-negative")
        words = [entropy & _MASK32]
        while entropy := entropy >> 32:
            words.append(entropy & _MASK32)
        return words
    return [w for item in entropy for w in _entropy_words(item)]


def _seed_state(entropy) -> list[int]:
    """numpy's `SeedSequence(entropy).generate_state(8, uint32)`: the 32-bit hash mix
    of the seed words into a pool of four, then eight words drawn from the pool."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


class Generator:
    """The PCG64 stream of `np.random.default_rng(seed)` and the draws listed in the module docstring."""

    def __init__(self, seed) -> None:
        words = _seed_state(seed)
        # generate_state(4, uint64) pairs the words little-end first; PCG64 takes
        # the first two as the high and low halves of its initial state, the last
        # two as its stream. Seeding steps from 0, adds the state and steps again.
        init = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
        self._inc = (words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]) << 1 & _MASK128 | 1
        self._state = (self._inc + init) * _PCG_MULT + self._inc & _MASK128
        self._kept: int | None = None  # the high half of the last 64-bit output, if no 32-bit draw took it

    def _next64(self) -> int:
        state = self._state = self._state * _PCG_MULT + self._inc & _MASK128
        rot = state >> 122
        xored = (state >> 64 ^ state) & _MASK64
        return (xored >> rot | xored << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        kept = self._kept
        if kept is not None:
            self._kept = None
            return kept
        out = self._next64()
        self._kept = out >> 32
        return out & _MASK32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) when high is None; the range is at most 2**32."""
        if high is None:
            low, high = 0, low
        span = high - low
        if not 1 < span < 1 << 32:
            if span == 1:
                return low
            if span == 1 << 32:
                return low + self._next32()
            if span < 1:
                raise ValueError(f"integers needs low < high, not {low} and {high}")
            raise ValueError(f"integers draws from a range of at most 2**32, not {span}")
        product = self._next32() * span
        if product & _MASK32 < span:
            threshold = (1 << 32) % span
            while product & _MASK32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)

    def permutation(self, n: int) -> list[int]:
        """`permutation(n)` as a list: 0, ..., n - 1 shuffled; n is at most 2**32."""
        if n > 1 << 32:
            raise ValueError(f"permutation draws at most 2**32 items, not {n}")
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            order[i], order[j] = order[j], order[i]
        return order

    def choice(self, n: int, size: int) -> list[int]:
        """`choice(n, size, replace=False)` as a list: `size` distinct ints of [0, n)."""
        if n > 1 << 32:
            raise ValueError(f"choice draws from at most 2**32 items, not {n}")
        if not 0 <= size <= n:
            raise ValueError(f"choice draws 0 to {n} distinct items, not {size}")
        if n > 10_000 and size > n // 50:
            order = list(range(n))
            self._shuffle_tail(order, max(n - size, 1))
            return order[n - size:]
        picked, seen = [], set()
        for j in range(n - size, n):
            value = self.integers(0, j + 1)
            if value in seen:
                value = j
            seen.add(value)
            picked.append(value)
        self._shuffle_tail(picked, 1)
        return picked

    def _shuffle_tail(self, items: list, first: int) -> None:
        """Swap each of items[-1], ..., items[first] with an earlier or the same place,
        drawn by `integers` (numpy's `_shuffle_int`)."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self.integers(0, i + 1)
            items[i], items[j] = items[j], items[i]


default_rng = Generator  # as numpy names it: default_rng(seed) for an int seed >= 0 or a tuple of them
