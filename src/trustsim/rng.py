"""Deterministic, splittable random streams.

Every random decision in this package flows through a ``Stream`` derived
from one 64-bit master seed, so that a run is fully reproducible from its
seed and independent subsystems (population build, each query round, each
Monte-Carlo validator) consume non-overlapping streams.

The generator and the stream-derivation rule are spelled out here so the
scheme can be reimplemented exactly:

* Core generator: SplitMix64.  State advances by the 64-bit golden-ratio
  constant ``0x9E3779B97F4A7C15``; each output is ``mix64(state)`` where
  ``mix64`` is the SplitMix64 finalizer (xor-shift 30, multiply by
  ``0xBF58476D1CE4E5B9``, xor-shift 27, multiply by ``0x94D049BB133111EB``,
  xor-shift 31), all modulo 2**64.
* Stream derivation (counter-based splitting): a stream for a path
  ``(part_0, part_1, ...)`` starts from ``state = mix64(master)``; each
  part takes one step ``state = child_seed(state, t) = mix64(state XOR
  mix64((t + GOLDEN) mod 2**64))``, where the token ``t`` is an int part
  itself, or FNV-1a 64 of the UTF-8 bytes of a string part.
* ``random()`` takes the top 53 bits: ``(next_u64() >> 11) * 2**-53``.
* A draw below ``n`` is the multiply-shift bounded draw ``(u * n) >> 64``
  of one output ``u``.  Its bias is below ``n / 2**64``, which is
  negligible for every n used here: ``SimConfig.validate`` keeps the
  catalog and the population below 2**32.
* Integer bounds: ``random() < p`` holds exactly when ``u <
  random_bound(p)``, ``ceil(p * 2**53) << 11``, for any p in [0, 1]
  (scaling by 2**53 is exact, and ``u >> 11 < C`` exactly when ``u < C <<
  11``); and a draw below ``n`` is 0 exactly when ``u < zero_bound(n)``,
  ``ceil(2**64 / n)`` (Lemire's threshold form of the multiply-shift draw).
* Skip rule: the state after ``k`` draws is ``(state + k * GOLDEN) mod
  2**64``, and the ``k``-th output from ``state`` is ``mix64((state + k *
  GOLDEN) mod 2**64)``.
* Block draws: ``u64_stream(state, block)`` iterates over the outputs of
  ``Stream(state)``, each block of ``block`` outputs computed in one
  Python int of exactly ``block`` lanes of 128 bits (at most
  ``_MAX_LANES``; a wider block is made that many lanes at a time).  Lane
  ``i`` (bits ``128*i`` and up) starts as ``state + (i + 1) * GOLDEN``:
  the state times ``ONES`` (1 in every lane) plus ``STEPS`` (``(i + 1) *
  GOLDEN mod 2**64`` in lane ``i``).  The finalizer then runs once over
  the whole int.  Every lane is cut to its low 64 bits (``& MASK``, ones in
  the low half of every lane) before each xor-shift and before and after
  each multiply, so each product is below 2**128 and no carry or
  shifted-in bit reaches the low half of another lane.  The last xor-shift
  needs no cut, because only low halves are read.  The low 64 bits of lane
  ``i`` are output ``i``, read back from ``int.to_bytes`` as little-endian
  words, every second word.
* Round draws: ``round_draws(prefix, start, count)`` gives one iterator
  over the outputs of each path ``(*path, start + i)``, ``i < count``,
  ``BLOCK_GROUP`` paths per pass.  For ``prefix = derive_seed(master,
  *path)``, one lane pass derives the states as ``mix64(prefix XOR
  mix64((start + i + GOLDEN) mod 2**64))``, ``start + i`` in lane ``i``.
  A second applies the block rule to every state at once, for its first
  ``BLOCK_WIDTH`` outputs: state ``g`` fills lanes ``g * BLOCK_WIDTH`` to
  ``(g + 1) * BLOCK_WIDTH - 1``, built from the bytes of its 128-bit lane
  repeated (no multiply), plus the lane steps ``(k + 1) * GOLDEN`` in lane
  ``k`` of each state's lanes.  Tail rule: output ``k >= BLOCK_WIDTH`` of
  a stream is output ``k - BLOCK_WIDTH`` of ``Stream(state + BLOCK_WIDTH *
  GOLDEN)``, read from ``u64_stream`` in blocks of ``TAIL_BLOCK``, each
  computed only when the iterator reaches it.
* Holdings: peer ``i`` draws from ``u64_stream(child_seed(prefix, i),
  h)``, ``prefix = derive_seed(master, "holdings")`` derived once per
  population, ``h`` the holdings size.  Its files are the draws below the
  catalog size of the first ``h`` outputs, then of one output at a time
  (from the blocks that follow) while a repeat leaves fewer than ``h``.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from collections.abc import Iterator
from functools import cache
from itertools import chain

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The widest lane int u64_stream computes (an 8 KB int).
_MAX_LANES = 512
# round_draws: outputs per state and states per pass.  A desk round uses
# about 50 draws, and 64 cover 98.5% of desk rounds.  A pass of 16 states
# (a 1,024-lane int of 16 KB) is as fast per round as one of 32, and keeps
# fewer temporaries and draws alive at once: with 32, peak memory rose by
# about 1 MB in some runs.
BLOCK_WIDTH = 64
BLOCK_GROUP = 16
# Outputs per block past a round's first BLOCK_WIDTH.  A churn round uses
# about 200 draws, so BLOCK_WIDTH + TAIL_BLOCK cover it with one block.
TAIL_BLOCK = 192
# random() is (next_u64() >> 11) * RANDOM_SCALE, a float in [0, 1).
RANDOM_SCALE = 2.0**-53


def mix64(value: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_bound(p: float) -> int:
    """The bound ``b`` with ``random() < p`` exactly when the output ``u``
    it is made from is below ``b``; p within [0, 1]."""
    return math.ceil(p * 2**53) << 11


def zero_bound(n: int) -> int:
    """The bound ``b`` with a draw below the int ``n`` being 0 exactly when
    its output ``u`` is below ``b``."""
    return -(-(1 << 64) // n)


def _mix_lanes(z: int, mask: int) -> int:
    """``mix64`` of every 128-bit lane of ``z``, whose lanes are below
    2**64.  Only the low halves of the result's lanes are the outputs."""
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _packed(low_words: list[int]) -> int:
    """One int with ``low_words[i]`` in the low half of 128-bit lane ``i``."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in low_words), "little")


@cache
def _lanes(width: int) -> tuple[struct.Struct, int, int, int]:
    """The lane reader, ``ONES``, ``STEPS`` and ``MASK`` of ``width`` lanes."""
    return (
        struct.Struct("<" + "Q8x" * width),
        _packed([1] * width),
        _packed([(k * _GOLDEN) & _MASK64 for k in range(1, width + 1)]),
        _packed([_MASK64] * width),
    )


# round_draws: i in lane i, and a whole group's lane steps and lane mask.
_INDEX = _packed(list(range(BLOCK_GROUP)))
_GROUP_STEPS = _packed([(k * _GOLDEN) & _MASK64 for k in range(1, BLOCK_WIDTH + 1)] * BLOCK_GROUP)
_GROUP_MASK = _packed([_MASK64] * (BLOCK_GROUP * BLOCK_WIDTH))


def _fnv64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def child_seed(seed: int, token: int) -> int:
    """One derivation step: the seed of path part ``token`` below ``seed``."""
    return mix64(seed ^ mix64((token + _GOLDEN) & _MASK64))


def derive_seed(master_seed: int, *path: int | str) -> int:
    """Mix a master seed with a path of ints/strings into a stream seed."""
    state = mix64(master_seed)
    for part in path:
        state = child_seed(state, _fnv64(part) if isinstance(part, str) else part)
    return state


def round_draws(prefix: int, start: int, count: int) -> Iterator[Iterator[int]]:
    """The outputs of ``Stream(derive_seed(master, *path, start + i))``,
    ``i < count``, one iterator per round, for ``prefix =
    derive_seed(master, *path)`` (see the module docstring).  Each iterator
    is made when it is reached, and its tail blocks when it is consumed
    past them."""
    if count < 0:
        raise ValueError("round_draws requires count >= 0")
    reader = _lanes(BLOCK_WIDTH)[0]
    for first in range(start, start + count, BLOCK_GROUP):
        lanes = min(start + count - first, BLOCK_GROUP)
        state_reader, ones, _, mask = _lanes(lanes)
        z = ((first + _GOLDEN) * ones + (_INDEX & mask)) & mask  # lane i: first + i + GOLDEN
        z = _mix_lanes((_mix_lanes(z, mask) & mask) ^ (prefix * ones), mask)
        states = state_reader.unpack(z.to_bytes(state_reader.size, "little"))
        cut = 8 * reader.size * (BLOCK_GROUP - lanes)  # the lanes of absent states
        packed = b"".join([state.to_bytes(16, "little") * BLOCK_WIDTH for state in states])
        mask = _GROUP_MASK >> cut
        z = _mix_lanes((int.from_bytes(packed, "little") + (_GROUP_STEPS >> cut)) & mask, mask)
        buf = z.to_bytes(reader.size * lanes, "little")
        for g, state in enumerate(states):
            tail = u64_stream(state + BLOCK_WIDTH * _GOLDEN, TAIL_BLOCK)
            yield chain(reader.unpack_from(buf, g * reader.size), tail)


def u64_stream(state: int, block: int) -> Iterator[int]:
    """The outputs of ``Stream(state)``, computed ``block`` at a time (at
    most ``_MAX_LANES``), each block when the iterator reaches it (see the
    module docstring)."""
    if block < 1:
        raise ValueError("u64_stream requires block >= 1")
    return chain.from_iterable(_blocks(state & _MASK64, min(block, _MAX_LANES)))


def _blocks(state: int, width: int) -> Iterator[tuple[int, ...]]:
    """The outputs of ``Stream(state)`` in blocks of ``width`` lanes."""
    reader, ones, steps, mask = _lanes(width)
    skip = width * _GOLDEN
    while True:
        z = _mix_lanes((state * ones + steps) & mask, mask)
        yield reader.unpack(z.to_bytes(reader.size, "little"))
        state = (state + skip) & _MASK64


class Stream:
    """One SplitMix64 output sequence, one output at a time: the scalar
    reference, kept for the tests and for perfbench's tracer."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    @classmethod
    def from_path(cls, master_seed: int, *path: int | str) -> "Stream":
        return cls(derive_seed(master_seed, *path))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * RANDOM_SCALE


def hypergeom_cdf(total: int, tagged: int, draws: int) -> tuple[int, list[float]]:
    """CDF of the number of tagged items in a uniform ``draws``-sized sample.

    Returns ``(kmin, cdf)`` where ``cdf[i]`` is P(count <= kmin + i).  Built
    from the mode outward via the probability-mass ratio recurrence, so it
    stays finite even when the tails underflow.
    """
    if not 0 <= tagged <= total:
        raise ValueError("tagged must be within [0, total]")
    if not 0 <= draws <= total:
        raise ValueError("draws must be within [0, total]")
    kmin = max(0, draws - (total - tagged))
    kmax = min(draws, tagged)
    mode = int((draws + 1) * (tagged + 1) / (total + 2))
    mode = min(max(mode, kmin), kmax)

    size = kmax - kmin + 1
    weights = [0.0] * size
    weights[mode - kmin] = 1.0
    # pmf(k+1)/pmf(k) = (tagged-k)(draws-k) / ((k+1)(total-tagged-draws+k+1))
    w = 1.0
    for k in range(mode, kmax):
        w *= ((tagged - k) * (draws - k)) / ((k + 1) * (total - tagged - draws + k + 1))
        weights[k + 1 - kmin] = w
    w = 1.0
    for k in range(mode, kmin, -1):
        w *= (k * (total - tagged - draws + k)) / ((tagged - k + 1) * (draws - k + 1))
        weights[k - 1 - kmin] = w

    scale = 1.0 / sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight * scale
        cdf.append(acc)
    cdf[-1] = 1.0
    return kmin, cdf


def draw_hypergeom(cdf_pair: tuple[int, list[float]], u: float) -> int:
    """The count whose CDF interval holds ``u``, a uniform float in [0, 1)."""
    kmin, cdf = cdf_pair
    return kmin + bisect_left(cdf, u)
