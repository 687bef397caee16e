"""Deterministic random streams for reproducible instance generation.

Built on the SplitMix64 finalizer (Steele, Lea & Flood 2014), a counter-based
64-bit generator with fixed public constants.  The same (seed, stream, counter)
triple yields the same bits on every platform and Python version, which is what
makes generated instance files byte-identical across machines.  Anything that
feeds coordinates or values draws integers or integer ratios, never floats.
"""
from __future__ import annotations

from fractions import Fraction

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


class Rng:
    """One independent SplitMix64 stream, identified by (seed, stream)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, stream: int = 0):
        self._state = _mix((seed & _MASK) ^ _mix((stream & _MASK) + _GOLDEN))

    def next_u64(self) -> int:
        # `_mix` of the advanced state, written out: one call per draw less
        z = self._state = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection; each draw is
        `next_u64`'s, taken inline."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = _SPAN - _SPAN % n
        state = self._state
        while True:
            state = (state + _GOLDEN) & _MASK
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % n

    def in_range(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive: `below(hi - lo + 1)`'s
        draw, taken inline."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        n = hi - lo + 1
        limit = _SPAN - _SPAN % n
        state = self._state
        while True:
            state = (state + _GOLDEN) & _MASK
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            z ^= z >> 31
            if z < limit:
                self._state = state
                return lo + z % n

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def ratio(self, lo: Fraction, hi: Fraction,
              denominator: int = 1 << 32) -> tuple[int, int]:
        """lo + (hi - lo) * k / denominator, k drawn uniformly from
        0..denominator (a grid from lo to hi, both ends included), as an
        unreduced (numerator, denominator) pair for callers that multiply
        and round it.  lo and hi may be ints or Fractions; the sum is formed
        over the common denominator lo.den * hi.den * denominator.
        """
        k = self.below(denominator + 1)
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        return (ln * hd * denominator + (hn * ld - ln * hd) * k,
                ld * hd * denominator)

    def chance(self, p: Fraction) -> bool:
        """True with probability p; the draw is uniform on [0, 1).

        The draw k / 2**32 is compared with p (an int or a Fraction) by
        cross-multiplying, so no Fraction is built.
        """
        return self.below(1 << 32) * p.denominator < p.numerator << 32

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
