"""Seeded, portable PRNG for reproducible sampling.

SplitMix64 (Steele, Lea, Flood's mix finalizer), implemented with plain
integer arithmetic so that identical seeds produce identical sample streams
on every platform and Python version.  Reports embed the seed; replaying a
seed replays the exact samples.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit PRNG with a single word of state."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling.

        Each candidate is ceil(bits/64) words, most significant first; a
        bound up to 2^64 draws one word per candidate.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        words = max(1, -(-(bound - 1).bit_length() // 64))
        span = 1 << (64 * words)
        # largest multiple of bound that fits in the candidate's bits
        limit = span - span % bound
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.next_u64()
            if x < limit:
                return x % bound

    def fork(self, index: int) -> "SplitMix64":
        """Independent substream for sample ``index``.

        Derived from the original seed, not the current state, so substreams
        do not depend on draw order: sample i is a function of the seed and i
        alone, whatever the other samples drew, and so is the theorem's
        w-independence pair, which takes the forks past the last sample.
        """
        child = SplitMix64(self._seed ^ ((0xD6E8FEB86659FD93 * (index + 1)) & _MASK))
        child.next_u64()
        return child
