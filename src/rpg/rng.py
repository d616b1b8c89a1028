"""Deterministic, counter-addressable random streams.

All randomness in the package flows through RngStream, a thin wrapper around
numpy's Philox counter-based bit generator.  A stream is fully described by a
64-bit (seed, counter) pair: reconstructing a stream at the same pair replays
exactly the same draws, which is what makes training runs byte-reproducible
and lets independent concerns (rollouts, probes, evaluation) draw from
non-interfering substreams of one run seed.

Each draw *event* advances the event counter by one and consumes a private
2^64-wide block of the Philox counter space, so no two events can overlap no
matter how much an individual event draws.  A stream keeps one Philox and
moves it to each event's block by resetting its state, which draws exactly
what a freshly built ``Philox(key=seed, counter=event << 64)`` would.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
# +1 where a byte's top bit is set, -1 elsewhere
_SIGN_OF_TOP_BYTE = np.where(np.arange(256) >= 128, 1.0, -1.0)


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

    __slots__ = ("seed", "counter", "_state", "_generator")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter) & _MASK64
        self._generator = None

    def __repr__(self):
        return f"RngStream(seed={self.seed}, counter={self.counter})"

    def _next_generator(self) -> np.random.Generator:
        if self._generator is None:
            bit_generator = np.random.Philox(key=self.seed)
            self._generator = np.random.Generator(bit_generator)
            # a fresh state: empty buffer, no cached uint32
            self._state = bit_generator.state
        # private 2^64 draw block per event: counter word 1 is the event index
        self._state["state"]["counter"][:] = (0, self.counter, 0, 0)
        self._generator.bit_generator.state = self._state
        self.counter = (self.counter + 1) & _MASK64
        return self._generator

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
        """+-1 entries, each with probability 1/2.

        The draws of ``2 * Generator.integers(0, 2, size) - 1``, without
        its per-call overhead: for the range {0, 1}, numpy's Lemire draw is
        the top bit of each 32-bit half of Philox's 64-bit outputs, low
        half first.  On a little-endian host byte 4i + 3 of the raw outputs
        is the top byte of half i, so one table lookup per entry gives the
        sign.
        """
        shape = tuple(size) if np.iterable(size) else (int(size),)
        count = math.prod(shape)
        raw = self._next_generator().bit_generator.random_raw(
            (count + 1) // 2)
        return _SIGN_OF_TOP_BYTE.take(
            raw.view(np.uint8)[3::4][:count]).reshape(shape)


def rademacher_matrix(rng: RngStream, k: int, n: int) -> np.ndarray:
    """k probe vectors as rows, drawn in one event (order-stable)."""
    if k < 1 or n < 1:
        raise ValueError(f"probe matrix shape must be positive, got ({k}, {n})")
    return rng.signs((k, n))
