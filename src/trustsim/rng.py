"""Deterministic, splittable random streams.

Every random draw comes from a stream derived from one 64-bit master seed,
so a run is reproducible from its seed and each subsystem (population
build, each query round, each Monte-Carlo validator) has its own streams.
The engine draws through ``round_draws``, the oracle through ``byte_blocks``;
``Stream`` is the scalar reference, kept for the tests and for perfbench.

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
  negligible for every n used here: a ``SimConfig`` keeps the
  catalog and the population below 2**32.
* Integer bounds: ``random() < p`` holds exactly when ``u <
  random_bound(p)``, ``ceil(p * 2**53) << 11``, for any p in [0, 1]
  (scaling by 2**53 is exact, and ``u >> 11 < C`` exactly when ``u < C <<
  11``); and a draw below ``n`` is 0 exactly when ``u < zero_bound(n)``,
  ``ceil(2**64 / n)`` (Lemire's threshold form of the multiply-shift draw).
* Skip rule: the state after ``k`` draws is ``(state + k * GOLDEN) mod
  2**64``, and the ``k``-th output from ``state`` is ``mix64((state + k *
  GOLDEN) mod 2**64)``.
* Block draws: ``byte_blocks(state, width)`` yields the outputs of
  ``Stream(state)`` ``width`` at a time, each block the bytes of one Python
  int of exactly ``width`` lanes of 128 bits.  Lane ``i`` (bits ``128*i``
  and up) starts as ``state + (i + 1) * GOLDEN``: the state times ``ONES``
  (1 in every lane) plus ``STEPS`` (``(i + 1) * GOLDEN mod 2**64`` in lane
  ``i``).  The finalizer then runs once over the whole int.  Every lane is
  cut to its low 64 bits (``& MASK``, ones in the low half of every lane)
  before each xor-shift and before and after each multiply, so each
  product is below 2**128 and no carry or shifted-in bit reaches the low
  half of another lane.  The last xor-shift needs no cut, because only low
  halves are read.  The block is ``int.to_bytes`` of the result: output
  ``i`` is the little-endian word at byte ``16 * i``, and its top byte is
  byte ``16 * i + 7``.  The other 8 bytes of each lane are not outputs.
* Round draws: ``round_draws(prefix, start, count, width, tail)`` gives
  one iterator of byte blocks over the outputs of each path ``(*path,
  start + i)``, ``i < count``, ``BLOCK_GROUP`` paths per pass; in the
  blocks of a stream laid end to end, output ``k`` is the word at byte
  ``16 * k``, as in one block.  For ``prefix =
  derive_seed(master, *path)``, one lane pass derives the states as
  ``mix64(prefix XOR mix64((start + i + GOLDEN) mod 2**64))``, ``start +
  i`` in lane ``i``.  A second applies the block rule to every state at
  once, for its first ``width`` outputs (``BLOCK_WIDTH`` for a round):
  state ``g`` fills lanes ``g * width`` to ``(g + 1) * width - 1``, built
  from the bytes of its 128-bit lane repeated (no multiply), plus the lane
  steps ``(k + 1) * GOLDEN`` in lane ``k`` of each state's lanes.  A
  stream's first block is its ``width``-lane slice of that pass's bytes.
  Tail rule: output ``k >= width`` of a stream is output ``k - width`` of
  ``Stream(state + width * GOLDEN)``, from ``byte_blocks`` in blocks of
  ``tail`` (``TAIL_BLOCK`` for a round; at most ``_MAX_LANES``), each made
  only when the iterator reaches it: most streams make none.
* Holdings: peer ``i`` draws from the stream of path ``("holdings", i)``,
  from ``round_draws(derive_seed(master, "holdings"), first, count,
  min(h, BLOCK_WIDTH), h)`` for peers ``first`` to ``first + count - 1``
  added together, ``h`` the holdings size.  Its files are the draws below
  the catalog size of the first ``h`` outputs, then of one output at a
  time while a repeat leaves fewer than ``h``.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from collections.abc import Iterator
from functools import cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The widest tail block round_draws computes (an 8 KB int).
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


# round_draws: i in lane i.
_INDEX = _packed(list(range(BLOCK_GROUP)))


@cache
def _group(width: int) -> tuple[int, int]:
    """The lane steps and lane mask of ``BLOCK_GROUP`` states of ``width`` lanes."""
    return (_packed([(k * _GOLDEN) & _MASK64 for k in range(1, width + 1)] * BLOCK_GROUP),
            _packed([_MASK64] * (BLOCK_GROUP * width)))


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


def round_draws(prefix: int, start: int, count: int, width: int = BLOCK_WIDTH,
                tail: int = TAIL_BLOCK) -> Iterator[Iterator[bytes]]:
    """The outputs of ``Stream(derive_seed(master, *path, start + i))``,
    ``i < count``, one iterator of byte blocks per stream, for ``prefix =
    derive_seed(master, *path)``: the first block of ``width`` outputs from
    the lane pass, then blocks of ``tail`` (see the module docstring).  Each
    iterator is made when it is reached, and its tail blocks when it is read
    past them."""
    if count < 0 or width < 1 or tail < 1:
        raise ValueError("round_draws requires count >= 0, width >= 1 and tail >= 1")
    size = 16 * width
    group_steps, group_mask = _group(width)
    skip, tail = width * _GOLDEN, min(tail, _MAX_LANES)
    for first in range(start, start + count, BLOCK_GROUP):
        lanes = min(start + count - first, BLOCK_GROUP)
        state_reader, ones, _, mask = _lanes(lanes)
        z = ((first + _GOLDEN) * ones + (_INDEX & mask)) & mask  # lane i: first + i + GOLDEN
        z = _mix_lanes((_mix_lanes(z, mask) & mask) ^ (prefix * ones), mask)
        states = state_reader.unpack(z.to_bytes(state_reader.size, "little"))
        cut = 8 * size * (BLOCK_GROUP - lanes)  # the lanes of absent states
        packed = b"".join([state.to_bytes(16, "little") * width for state in states])
        mask = group_mask >> cut
        z = _mix_lanes((int.from_bytes(packed, "little") + (group_steps >> cut)) & mask, mask)
        buf = z.to_bytes(size * lanes, "little")
        for g, state in enumerate(states):
            yield _stream_blocks(buf[g * size:(g + 1) * size], state + skip, tail)


def _stream_blocks(first: bytes, state: int, width: int) -> Iterator[bytes]:
    """``first``, then the blocks of ``Stream(state)``, made only when reached."""
    yield first
    yield from byte_blocks(state, width)


def byte_blocks(state: int, width: int) -> Iterator[bytes]:
    """The outputs of ``Stream(state)`` in blocks of ``width`` lanes, each
    block the bytes of its lane int (see the module docstring)."""
    _, ones, steps, mask = _lanes(width)
    state &= _MASK64
    while True:
        yield _mix_lanes((state * ones + steps) & mask, mask).to_bytes(16 * width, "little")
        state = (state + width * _GOLDEN) & _MASK64


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
