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
  ``(part_0, part_1, ...)`` starts from
  ``state = mix64(master)`` and then, for each part,
  ``state = mix64(state XOR mix64((token(part) + GOLDEN) mod 2**64))``
  where ``token`` is the integer itself for int parts and FNV-1a 64 of the
  UTF-8 bytes for string parts.
* ``random()`` takes the top 53 bits: ``(next_u64() >> 11) * 2**-53``.
* ``randbelow(n)`` is the multiply-shift bounded draw
  ``(next_u64() * n) >> 64``.  Its bias is below ``n / 2**64``, which is
  negligible for every n used here (all far below 2**32).
* Skip rule: the state after ``k`` draws is ``(state + k * GOLDEN) mod
  2**64``, and the ``k``-th output from ``state`` is ``mix64((state + k *
  GOLDEN) mod 2**64)``.
* Block draws: ``u64s(count)`` returns the next ``count`` outputs, all
  computed in one Python int of ``width >= count`` lanes of 128 bits.
  Lane ``i`` (bits ``128*i`` and up) starts as ``state + (i + 1) *
  GOLDEN``: the state times ``ONES`` (1 in every lane) plus ``STEPS``
  (``(i + 1) * GOLDEN mod 2**64`` in lane ``i``).  The finalizer then runs
  once over the whole int.  Every lane is cut to its low 64 bits (``&
  MASK``, ones in the low half of every lane) before each xor-shift and
  before and after each multiply, so each product is below 2**128 and no
  carry or shifted-in bit reaches the low half of another lane.  The last
  xor-shift needs no cut, because only low halves are read.  The low 64
  bits of lane ``i`` are output ``i``; they are read back from
  ``int.to_bytes`` as little-endian words, every second word.  Widths
  come from the fixed list ``_WIDTHS``; a longer block than the widest is
  made in pieces of that many lanes.
* Batched derivation: the streams of the paths ``(*path, start + i)``,
  ``i < count``, share the prefix ``prefix = derive_seed(master, *path)``,
  so ``derive_states`` computes them as ``mix64(prefix XOR mix64((start +
  i + GOLDEN) mod 2**64))`` with ``start + i`` in lane ``i``, both
  finalizer passes over all the lanes at once.
* Multi-state blocks: ``first_draws`` computes the first ``BLOCK_WIDTH``
  outputs of each of up to ``BLOCK_GROUP`` states in one pass.  State
  ``g`` fills lanes ``g * BLOCK_WIDTH`` to ``(g + 1) * BLOCK_WIDTH - 1``:
  the int is built from the bytes of its 128-bit lane repeated, with no
  multiply.  Adding the lane steps ``(k + 1) * GOLDEN`` (lane ``k`` of each
  state's lanes) then gives the block rule above, per state.  Output
  ``k >= BLOCK_WIDTH`` of that stream is output ``k - BLOCK_WIDTH`` of
  ``Stream(state + BLOCK_WIDTH * GOLDEN)``; ``extend_draws`` continues a
  block that way.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections.abc import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Block widths in lanes; a block computes less than 1.5 times the lanes it
# returns.
_WIDTHS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
_MAX_LANES = _WIDTHS[-1]
# first_draws: outputs per state and states per pass.  A desk round uses
# about 50 draws, and 64 cover 98.5% of desk rounds.  A pass of 16 states
# (a 1,024-lane int of 16 KB) is as fast per round as one of 32, and keeps
# fewer temporaries and draws alive at once: with 32, peak memory rose by
# about 1 MB in some runs.
BLOCK_WIDTH = 64
BLOCK_GROUP = 16
# random() is (next_u64() >> 11) * RANDOM_SCALE, a float in [0, 1).
RANDOM_SCALE = 2.0**-53


def mix64(value: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_lanes(z: int, mask: int) -> int:
    """``mix64`` of every 128-bit lane of ``z``, whose lanes are below
    2**64.  Only the low halves of the result's lanes are the outputs."""
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _packed(low_words: list[int]) -> int:
    """One int with ``low_words[i]`` in the low half of 128-bit lane ``i``."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in low_words), "little")


def _block_table() -> list[tuple[struct.Struct, int, int, int]]:
    """``table[count]``: the lane reader, ``ONES``, ``STEPS`` and ``MASK`` of
    the narrowest width in ``_WIDTHS`` that holds ``count`` lanes."""
    table: list[tuple[struct.Struct, int, int, int]] = []
    for width in _WIDTHS:
        constants = (
            struct.Struct("<" + "Q8x" * width),
            _packed([1] * width),
            _packed([(k * _GOLDEN) & _MASK64 for k in range(1, width + 1)]),
            _packed([_MASK64] * width),
        )
        table += [constants] * (width + 1 - len(table))
    return table


_BLOCKS = _block_table()
# first_draws: the lane steps and the lane mask of a whole group, and the
# reader of one state's lanes.
_GROUP_STEPS = _packed([(k * _GOLDEN) & _MASK64 for k in range(1, BLOCK_WIDTH + 1)] * BLOCK_GROUP)
_GROUP_MASK = _packed([_MASK64] * (BLOCK_GROUP * BLOCK_WIDTH))
_STATE_READER = struct.Struct("<" + "Q8x" * BLOCK_WIDTH)
_INDEX = _packed(list(range(BLOCK_GROUP)))  # derive_states: i in lane i


def _fnv64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master_seed: int, *path: int | str) -> int:
    """Mix a master seed with a path of ints/strings into a stream seed."""
    state = mix64(master_seed)
    for part in path:
        token = _fnv64(part) if isinstance(part, str) else part & _MASK64
        state = mix64(state ^ mix64((token + _GOLDEN) & _MASK64))
    return state


def derive_states(prefix: int, start: int, count: int) -> list[int]:
    """``derive_seed(master, *path, start + i)`` for ``i < count``, given
    ``prefix = derive_seed(master, *path)``; ``BLOCK_GROUP`` paths per pass
    (see the module docstring)."""
    if count < 0:
        raise ValueError("derive_states requires count >= 0")
    states: list[int] = []
    for first in range(start, start + count, BLOCK_GROUP):
        lanes = min(start + count - first, BLOCK_GROUP)
        reader, ones, _, mask = _BLOCKS[lanes]
        z = ((first + _GOLDEN) * ones + (_INDEX & mask)) & mask  # lane i: first + i + GOLDEN
        z = _mix_lanes((_mix_lanes(z, mask) & mask) ^ (prefix * ones), mask)
        states += reader.unpack(z.to_bytes(reader.size, "little"))[:lanes]
    return states


def first_draws(states: list[int]) -> Iterator[list[int]]:
    """The first ``BLOCK_WIDTH`` outputs of ``Stream(state)`` for each state,
    ``BLOCK_GROUP`` states per pass (see the module docstring).  Each
    state's list is made when it is reached, so a caller that drops it
    before taking the next keeps one state's draws alive, not a pass's."""
    reader = _STATE_READER
    for first in range(0, len(states), BLOCK_GROUP):
        group = states[first:first + BLOCK_GROUP]
        size = reader.size * len(group)
        cut = 8 * reader.size * (BLOCK_GROUP - len(group))  # the lanes of absent states
        lanes = b"".join([state.to_bytes(16, "little") * BLOCK_WIDTH for state in group])
        z = int.from_bytes(lanes, "little")
        mask = _GROUP_MASK >> cut
        z = _mix_lanes((z + (_GROUP_STEPS >> cut)) & mask, mask)
        buf = z.to_bytes(size, "little")
        for at in range(0, size, reader.size):
            yield list(reader.unpack_from(buf, at))


def extend_draws(draws: list[int], state: int, count: int) -> None:
    """Extend ``draws``, the first outputs of ``Stream(state)``, to at least
    its first ``count`` outputs: to the end of the lane width that holds
    them, which the block computes anyway."""
    more = count - len(draws)
    if more > 0:
        if more < _MAX_LANES:
            more = _WIDTHS[bisect_left(_WIDTHS, more)]
        draws += Stream(state + len(draws) * _GOLDEN).u64s(more)


class Stream:
    """One SplitMix64 output sequence."""

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

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        # mix64 inlined: the holdings build makes about 10 calls per peer,
        # and calling mix64 here made the desk population build about 5%
        # slower (29.2 -> 30.6 ms, Python 3.11 on a 2-core x86-64 host).
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) * n) >> 64

    def u64s(self, count: int) -> list[int]:
        """The next ``count`` outputs of ``next_u64``, computed as one block
        (see the module docstring)."""
        if count < 0:
            raise ValueError("u64s requires count >= 0")
        state = self._state
        out: list[int] = []
        for start in range(0, count, _MAX_LANES):
            lanes = min(count - start, _MAX_LANES)
            reader, ones, steps, mask = _BLOCKS[lanes]
            z = _mix_lanes((state * ones + steps) & mask, mask)
            out += reader.unpack(z.to_bytes(reader.size, "little"))[:lanes]
            state = (state + lanes * _GOLDEN) & _MASK64
        self._state = state
        return out


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
