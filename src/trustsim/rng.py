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
"""

from __future__ import annotations

from bisect import bisect_left

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return (self.next_u64() * n) >> 64


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


def draw_hypergeom(stream: Stream, cdf_pair: tuple[int, list[float]]) -> int:
    kmin, cdf = cdf_pair
    return kmin + bisect_left(cdf, stream.random())
