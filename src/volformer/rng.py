"""Fully specified deterministic randomness.

Everything in the package that needs random numbers draws from SplitMix64
run in counter mode: output i of a stream with seed s is

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)        (all arithmetic mod 2**64)

with the standard SplitMix64 finalizer mix64. This is equivalent to the
usual stateful SplitMix64 but lets a whole block of outputs be computed
vectorized. Derived quantities are pinned down exactly:

  * uniform:  top 53 bits scaled by 2**-53, giving float64 in [0, 1)
  * normal:   Box-Muller on consecutive output pairs (u1 from the even
              counter, shifted into (0, 1]; u2 from the odd counter);
              pairs yield (r*cos(theta), r*sin(theta)) in order
  * bounded int: modulo with rejection of the biased tail, so results are
              exactly uniform on [0, n)
  * shuffle:  Fisher-Yates from the top index down
  * truncated normal: repeated Box-Muller draws, keeping values with
              |x| <= cutoff in generation order until filled

Identical seeds therefore reproduce identical streams on any platform,
independent of numpy's own generators.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # numpy uint64 arithmetic wraps mod 2**64, matching mix64 exactly
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *stream_ids: int) -> int:
    """Derive an independent child seed from a base seed.

    Each id folds into the state as s = mix64(s + (id + 1) * GOLDEN), so
    (seed, 0) and (seed, 1) give unrelated streams and the derivation
    chain (seed, a, b) is reproducible from its parts.
    """
    s = seed & _MASK
    for sid in stream_ids:
        s = mix64(s + ((sid + 1) * _GOLDEN & _MASK))
    return s


class Rng:
    """One SplitMix64 stream, consumed sequentially."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs as a uint64 array."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64_array(np.uint64(self._seed) + idx * np.uint64(_GOLDEN))

    def uniform(self, n: int) -> np.ndarray:
        """n float64 values in [0, 1)."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal float64 values via Box-Muller."""
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 shifted into (0, 1] so log() is always finite
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def truncated_normal(self, n: int, std: float = 1.0, cutoff: float = 2.0) -> np.ndarray:
        """n draws from N(0, std^2) with |x| <= cutoff*std, by rejection."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            cand = self.normal(n - filled)
            keep = cand[np.abs(cand) <= cutoff]
            out[filled : filled + keep.size] = keep
            filled += keep.size
        return out * std

    def below(self, n: int) -> int:
        """One uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = int(self._raw(1)[0])
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
