import math
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.engine import holdings_size
from trustsim.rng import (
    _MAX_LANES,
    BLOCK_GROUP,
    BLOCK_WIDTH,
    TAIL_BLOCK,
    Stream,
    _lanes,
    child_seed,
    derive_seed,
    draw_hypergeom,
    hypergeom_cdf,
    random_bound,
    round_draws,
    u64_stream,
    zero_bound,
)

from helpers import below, randbelow, u64s, uniform


def test_same_path_same_sequence():
    a = Stream.from_path(42, "round", 7)
    b = Stream.from_path(42, "round", 7)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_paths_diverge():
    a = Stream.from_path(42, "round", 7)
    b = Stream.from_path(42, "round", 8)
    c = Stream.from_path(42, "holdings", 7)
    seq_a = [a.next_u64() for _ in range(8)]
    assert seq_a != [b.next_u64() for _ in range(8)]
    assert seq_a != [c.next_u64() for _ in range(8)]


def test_different_master_seeds_diverge():
    assert derive_seed(1, "round", 0) != derive_seed(2, "round", 0)


def test_random_unit_interval():
    stream = Stream.from_path(9, "unit")
    values = [stream.random() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.45 < sum(values) / len(values) < 0.55


def test_randbelow_range_and_uniformity():
    """The multiply-shift draw below n, as the engine and the oracles take it."""
    stream = Stream.from_path(3, "bins")
    counts = [0, 0, 0]
    trials = 30_000
    for _ in range(trials):
        counts[randbelow(stream, 3)] += 1
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    for count in counts:
        assert abs(count - trials / 3) < 4 * sigma


def _at_and_below(bound, extra):
    """The outputs ``bound - 1`` and ``bound``, where they are outputs, and ``extra``."""
    return [u for u in (bound - 1, bound, extra) if 0 <= u < 2**64]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2**-53, 1 - 2**-53, 0.9]), st.floats(0, 1)),
    st.integers(0, 2**64 - 1),
)
def test_random_bound_is_the_float_test(p, extra):
    bound = random_bound(p)
    for u in _at_and_below(bound, extra):
        assert (u < bound) == (uniform(u) < p), u


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**40), st.integers(0, 2**64 - 1))
def test_zero_bound_is_the_multiply_shift_test(n, extra):
    bound = zero_bound(n)
    for u in _at_and_below(bound, extra):
        assert (u < bound) == (below(u, n) == 0), u


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=8)), max_size=3),
    st.integers(0, 2**64 - 1),
)
def test_child_seed_is_one_derivation_step(master, path, index):
    assert child_seed(derive_seed(master, *path), index) == derive_seed(master, *path, index)


def _check_block(state: int, block: int) -> None:
    """u64_stream against the scalar generator, its specification, read
    across three blocks and into a fourth, so the state carries over."""
    count = 3 * block + 5
    assert list(islice(u64_stream(state, block), count)) == u64s(Stream(state), count)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 600))
def test_block_draws_equal_scalar_draws(state, block):
    _check_block(state, block)


def test_block_draws_cover_every_lane_width():
    # The widths a run takes (the desk holdings size, BLOCK_WIDTH,
    # TAIL_BLOCK, the oracles' 256), one lane either side of the widest
    # int, and blocks made in more than one piece; states whose lanes wrap
    # past 2**64, and one given above it, taken modulo 2**64.
    blocks = {1, 2, holdings_size(1000, 100), 63, BLOCK_WIDTH, TAIL_BLOCK, 256,
              _MAX_LANES - 1, _MAX_LANES, _MAX_LANES + 1, 2 * _MAX_LANES, 2 * _MAX_LANES + 7}
    golden = 0x9E3779B97F4A7C15
    for state in (0, 2**64 - 1, -3 * golden % 2**64, 2**128 + 5):
        for block in sorted(blocks):
            _check_block(state, block)
    # Each constant fits exactly `width` lanes (to_bytes raises otherwise).
    for width in (1, 10, _MAX_LANES):
        reader, ones, steps, mask = _lanes(width)
        lanes = [reader.unpack(x.to_bytes(reader.size, "little")) for x in (ones, steps, mask)]
        assert lanes == [(1,) * width, tuple(k * golden % 2**64 for k in range(1, width + 1)),
                         (2**64 - 1,) * width]


def test_block_draws_reject_negative_counts():
    # A block of 0 would make no draws, and chain.from_iterable would spin.
    for block in (0, -1):
        with pytest.raises(ValueError):
            u64_stream(1, block)
    with pytest.raises(ValueError):
        next(round_draws(0, 0, -1))


GROUP_COUNTS = st.sampled_from([0, 1, BLOCK_GROUP - 1, BLOCK_GROUP, BLOCK_GROUP + 1])


ROUND_PATHS = (
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2 * BLOCK_GROUP, 2**64 - 1)),
    st.one_of(GROUP_COUNTS, st.integers(0, 3 * BLOCK_GROUP + 5)),
)


def _round_streams(seed, start, count):
    """Each round's iterator from round_draws, with the scalar stream it
    must equal; all iterators are made before any is read."""
    rounds = list(round_draws(derive_seed(seed, "round"), start, count))
    assert len(rounds) == count
    return [(draws, Stream(derive_seed(seed, "round", start + i))) for i, draws in enumerate(rounds)]


@settings(max_examples=200, deadline=None)
@given(*ROUND_PATHS)
def test_derived_states_equal_derive_seed(seed, start, count):
    # Starts near 2**64 put indexes past it in the same pass; derive_seed
    # takes an int part modulo 2**64, and so do the lanes.  Output 0 of a
    # round fixes its state, as mix64 is a bijection.
    for draws, stream in _round_streams(seed, start, count):
        assert next(draws) == stream.next_u64()


@settings(max_examples=200, deadline=None)
@given(*ROUND_PATHS)
def test_first_draws_equal_block_draws_per_state(seed, start, count):
    for draws, stream in _round_streams(seed, start, count):
        first = u64_stream(stream._state, BLOCK_WIDTH)
        assert list(islice(draws, BLOCK_WIDTH)) == list(islice(first, BLOCK_WIDTH))


@settings(max_examples=200, deadline=None)
@given(ROUND_PATHS[0], ROUND_PATHS[1], st.integers(0, BLOCK_WIDTH + 2 * TAIL_BLOCK + 5))
def test_extended_draws_continue_the_stream(seed, start, read):
    # Past the first BLOCK_WIDTH outputs the iterator makes tail blocks of
    # TAIL_BLOCK as it is read; the reads run into a second one.
    for draws, stream in _round_streams(seed, start, 2):
        assert list(islice(draws, read)) == u64s(stream, read)
        assert next(draws) == stream.next_u64()


def _exact_pmf(total, tagged, draws):
    denom = comb(total, draws)
    return {
        k: comb(tagged, k) * comb(total - tagged, draws - k) / denom
        for k in range(max(0, draws - (total - tagged)), min(draws, tagged) + 1)
    }


@pytest.mark.parametrize(
    "total,tagged,draws",
    [(10, 3, 4), (20, 7, 11), (50, 25, 10), (12, 0, 5), (12, 12, 5), (8, 3, 8)],
)
def test_hypergeom_cdf_matches_exact_pmf(total, tagged, draws):
    kmin, cdf = hypergeom_cdf(total, tagged, draws)
    exact = _exact_pmf(total, tagged, draws)
    assert kmin == min(exact)
    assert len(cdf) == len(exact)
    acc = 0.0
    for i, k in enumerate(sorted(exact)):
        acc += exact[k]
        assert cdf[i] == pytest.approx(acc, abs=1e-12)


def test_hypergeom_degenerate_cases():
    kmin, cdf = hypergeom_cdf(10, 0, 4)
    assert (kmin, cdf) == (0, [1.0])
    kmin, cdf = hypergeom_cdf(10, 4, 10)  # sample everything
    assert kmin == 4 and cdf == [1.0]


def test_draw_hypergeom_frequencies():
    total, tagged, draws = 20, 6, 9
    cdf_pair = hypergeom_cdf(total, tagged, draws)
    exact = _exact_pmf(total, tagged, draws)
    stream = Stream.from_path(11, "hyper")
    trials = 40_000
    counts: dict[int, int] = {}
    for _ in range(trials):
        k = draw_hypergeom(cdf_pair, stream.random())
        counts[k] = counts.get(k, 0) + 1
    for k, prob in exact.items():
        sigma = math.sqrt(trials * prob * (1 - prob))
        assert abs(counts.get(k, 0) - trials * prob) < 4 * sigma + 1


def test_hypergeom_validates_arguments():
    with pytest.raises(ValueError):
        hypergeom_cdf(10, 11, 4)
    with pytest.raises(ValueError):
        hypergeom_cdf(10, 4, 11)
