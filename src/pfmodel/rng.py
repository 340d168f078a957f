"""Named counter-based random streams.

Every random quantity in the simulator is drawn from a stream addressed by
``(seed, *tags)``; the value at draw index ``i`` is a pure function of the
stream name and ``i``.  Streams are Philox counter-based generators keyed
by a SHA-256 digest of the name, so

* runs with the same seed are bit-identical regardless of evaluation order,
* any contiguous block of a stream can be regenerated in isolation, which
  lets parallel workers split on document index without changing results.

A thread re-keys one numpy ``Generator(Philox())`` for every stream, as a
new ``Philox`` first seeds itself from OS entropy.  :class:`PhiloxStream`
draws the same values in pure Python, without loading numpy.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def stream_key(seed: int, *tags: object) -> list[int]:
    """Two 64-bit Philox key words derived from the seed and the stream name.

    The digest gives 128 bits, but numpy's ``Philox(key=[a, b])`` keeps them
    only when both words are below 2^63 or both are at least 2^63.  Otherwise
    int64 and uint64 promote to float64, and both words are stored rounded
    to 53 significant bits: about half of all streams.  The rounding is
    deterministic, so outputs still reproduce, and :func:`_stored_key`
    rounds the same way for :func:`_generator` and :class:`PhiloxStream`.
    """
    blob = repr((int(seed),) + tags).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return [
        int.from_bytes(digest[0:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    ]


def _stored_key(key: list[int]) -> list[int]:
    """The two key words as ``Philox(key=key)`` stores them (see :func:`stream_key`)."""
    return key if key[0] >> 63 == key[1] >> 63 else [int(float(word)) for word in key]


_MASK64 = 2**64 - 1
_thread = threading.local()  # .generator: the thread's Generator(Philox())


def _generator(seed: int, tags: tuple[object, ...], block: int = 0) -> np.random.Generator:
    """This thread's generator, set to draw what
    ``Generator(Philox(key=stream_key(seed, *tags)))`` draws once advanced
    by ``block``, bit for bit.  Draw from it at once: the next call on the
    thread re-keys it."""
    gen = getattr(_thread, "generator", None)
    if gen is None:
        from numpy.random import Generator, Philox

        gen = _thread.generator = Generator(Philox())
    # an empty buffer: the next draw increments the counter, as after advance()
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": [(block >> shift) & _MASK64 for shift in (0, 64, 128, 192)],
        "key": _stored_key(stream_key(seed, *tags))},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def uniforms(seed: int, tags: tuple[object, ...], count: int, start: int = 0) -> np.ndarray:
    """``count`` float64 uniforms from the named stream, starting at ``start``.

    ``uniforms(s, t, n)[a:b]`` equals ``uniforms(s, t, b - a, start=a)``
    bit for bit.
    """
    if count < 0 or start < 0:
        raise ValueError("count and start must be non-negative")
    # Philox advances in blocks of four 64-bit words, one word per double.
    skip = start % 4
    return _generator(seed, tags, start // 4).random(skip + count)[skip:]


# Philox-4x64's round multipliers and the Weyl increments of its key
# (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3")
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10


class PhiloxStream:
    """numpy's ``Generator(Philox(key=key))``, bit for bit, for its scalar
    ``random()`` and ``integers(low, high)`` calls.

    Philox-4x64-10 with a counter starting at 0, incremented before each
    block of four 64-bit words, which are then used in order.  A 32-bit draw
    takes the low half of a word and keeps the high half for the next one;
    that half outlives any ``random()`` calls between them, as in numpy.
    """

    def __init__(self, key: list[int]):
        self.key = tuple(_stored_key(key))
        k0, k1 = self.key
        self._round_keys = [((k0 + r * _W0) & _MASK64, (k1 + r * _W1) & _MASK64)
                            for r in range(_ROUNDS)]
        self._counter = 0
        self._words: list[int] = []  # the rest of the current block, last word first
        self._half: int | None = None  # the high half of the word a 32-bit draw split

    def _next64(self) -> int:
        if not self._words:
            self._counter += 1
            c = self._counter
            x0, x1, x2, x3 = c & _MASK64, (c >> 64) & _MASK64, (c >> 128) & _MASK64, c >> 192
            for k0, k1 in self._round_keys:
                p0, p1 = _M0 * x0, _M1 * x2
                x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & _MASK64,
                                  (p0 >> 64) ^ x3 ^ k1, p0 & _MASK64)
            self._words = [x3, x2, x1, x0]
        return self._words.pop()

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """A float64 uniform on [0, 1) from the top 53 bits of one word."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """A uniform integer on [low, high), for ``1 <= high - low <= 2**64``.

        One value makes no draw.  Otherwise Lemire's multiply-and-reject
        method (Lemire 2019, "Fast random integer generation in an
        interval") runs on 32-bit draws for spans up to 2^32 and on 64-bit
        draws above; at a span of exactly 2^bits it returns the raw draw.
        """
        span = high - low
        if not 1 <= span <= 2**64:
            raise ValueError(f"high - low must be in [1, 2**64], got {span}")
        if span == 1:
            return low
        draw, bits = (self._next32, 32) if span <= 2**32 else (self._next64, 64)
        m = draw() * span
        if m % 2**bits < span:
            threshold = 2**bits % span
            while m % 2**bits < threshold:
                m = draw() * span
        return low + (m >> bits)
