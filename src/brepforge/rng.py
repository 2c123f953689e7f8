"""Seeded random number generator with a cross-platform draw contract.

Uses the PCG-XSH-RR 32-bit generator (64-bit state, published multiplier
6364136223846793005).  Every derived draw is defined exactly in terms of
successive 32-bit outputs so that a reimplementation in any language
reproduces identical datasets:

  uniform_int(lo, hi) = lo + next_u32() % (hi - lo + 1)
  uniform_index(n)    = next_u32() % n
  unit_float()        = next_u32() / 2**32

A block of k draws (`unit_floats(k)`) is the same k words as k sequential
draws, and leaves the generator where those k draws would.
"""

from __future__ import annotations

import numpy as np

_MULTIPLIER = 6364136223846793005
_MASK64 = (1 << 64) - 1


def _output(old):
    """XSH-RR output word of a state: a Python int or a uint64 array."""
    xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
    rot = old >> 59
    return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF


class SeededRng:
    """PCG32 stream addressed by a (seed, stream) pair.

    One generated sample owns one stream; identical (seed, stream) pairs
    yield identical draw sequences on every platform.
    """

    __slots__ = ("seed", "stream", "_state", "_inc")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._inc = ((self.stream << 1) | 1) & _MASK64
        self._state = 0
        self.next_u32()
        self._state = (self._state + self.seed) & _MASK64
        self.next_u32()

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * _MULTIPLIER + self._inc) & _MASK64
        return _output(old)

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u32() % (hi - lo + 1)

    def uniform_index(self, n: int) -> int:
        """Uniform index in [0, n)."""
        if n <= 0:
            raise ValueError("uniform_index needs n >= 1")
        return self.next_u32() % n

    def unit_float(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u32() / 4294967296.0

    def unit_floats(self, k: int) -> np.ndarray:
        """The next k `unit_float()` values as one float64 array.

        PCG32 jump-ahead: after i steps the state is a^i * s + c * (a^(i-1)
        + ... + 1) mod 2^64, and numpy's uint64 products and sums wrap mod
        2^64 (Brown 1994, "Random number generation with arbitrary strides").
        """
        powers = np.empty(k + 1, dtype=np.uint64)
        powers[0] = 1
        powers[1:] = np.multiply.accumulate(np.full(k, _MULTIPLIER, dtype=np.uint64))
        sums = np.zeros(k + 1, dtype=np.uint64)
        np.cumsum(powers[:-1], out=sums[1:])
        states = powers * np.uint64(self._state) + sums * np.uint64(self._inc)
        self._state = int(states[k])
        return _output(states[:k]) / 4294967296.0

    def coin(self) -> bool:
        return bool(self.next_u32() & 1)
