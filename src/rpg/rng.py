"""Deterministic, counter-addressable random streams.

All randomness in the package flows through RngStream, a thin wrapper around
numpy's Philox counter-based bit generator.  A stream is fully described by a
64-bit (seed, counter) pair: reconstructing a stream at the same pair replays
exactly the same draws, which is what makes training runs byte-reproducible
and lets independent concerns (rollouts, probes, evaluation) draw from
non-interfering substreams of one run seed.

Each draw *event* advances the event counter by one and consumes a private
2^64-wide block of the Philox counter space, so no two events can overlap no
matter how much an individual event draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; good avalanche for cheap stream splitting.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        # FNV-1a, 64-bit: stable across processes (unlike built-in hash()).
        h = 0xCBF29CE484222325
        for byte in tag.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        return h
    raise TypeError(f"stream tag must be str or int, got {type(tag).__name__}")


class RngStream:
    """A (seed, counter)-addressed random stream.

    identical (seed, counter) => identical output sequence.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter) & _MASK64

    def __repr__(self):
        return f"RngStream(seed={self.seed}, counter={self.counter})"

    def _next_generator(self) -> np.random.Generator:
        block = self.counter << 64  # private 2^64 draw block per event
        self.counter = (self.counter + 1) & _MASK64
        return np.random.Generator(np.random.Philox(key=self.seed, counter=block))

    def spawn(self, tag) -> "RngStream":
        """Derive an independent child stream from a string/int tag."""
        mixed = _splitmix64(self.seed ^ _splitmix64(_tag_to_int(tag)))
        return RngStream(mixed, 0)

    # -- draw events -------------------------------------------------------

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._next_generator().uniform(low, high, size)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._next_generator().normal(0.0, scale, size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._next_generator().integers(low, high, size)

    def signs(self, size) -> np.ndarray:
        """+-1 entries, each with probability 1/2."""
        g = self._next_generator()
        return 2.0 * g.integers(0, 2, size).astype(np.float64) - 1.0


def rademacher_matrix(rng: RngStream, k: int, n: int) -> np.ndarray:
    """k probe vectors as rows, drawn in one event (order-stable)."""
    if k < 1 or n < 1:
        raise ValueError(f"probe matrix shape must be positive, got ({k}, {n})")
    return rng.signs((k, n))
