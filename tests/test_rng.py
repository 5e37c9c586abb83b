import hashlib
import math
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim import rng
from trustsim.engine import holdings_size
from trustsim.rng import (
    _MAX_LANES,
    BLOCK_GROUP,
    BLOCK_WIDTH,
    TAIL_BLOCK,
    Stream,
    _lanes,
    byte_blocks,
    child_seed,
    derive_seed,
    draw_hypergeom,
    hypergeom_cdf,
    random_bound,
    round_draws,
    zero_bound,
)

from helpers import below, block_words, randbelow, stream_words, u64s, uniform


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


def _flat(state: int, block: int):
    """The outputs of ``Stream(state)`` from its blocks of ``block`` lanes."""
    return stream_words(byte_blocks(state, block))


def _check_block(state: int, block: int) -> None:
    """The block draws against the scalar generator, their specification,
    read across three blocks and into a fourth, so the state carries over."""
    count = 3 * block + 5
    assert list(islice(_flat(state, block), count)) == u64s(Stream(state), count)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 600))
def test_block_draws_equal_scalar_draws(state, block):
    _check_block(state, block)


def test_block_draws_cover_every_lane_width():
    # The widths a run takes (the desk holdings size, BLOCK_WIDTH,
    # TAIL_BLOCK, the oracles' 512), one lane either side of the widest
    # tail block, and wider ones; states whose lanes wrap past 2**64, and one
    # given above it, taken modulo 2**64.
    blocks = {1, 2, holdings_size(1000, 100), 63, BLOCK_WIDTH, TAIL_BLOCK, 256,
              _MAX_LANES - 1, _MAX_LANES, _MAX_LANES + 1, 2 * _MAX_LANES, 2 * _MAX_LANES + 7}
    golden = 0x9E3779B97F4A7C15
    for state in (0, 2**64 - 1, -3 * golden % 2**64, 2**128 + 5):
        for block in sorted(blocks):
            _check_block(state, block)
    # Each constant fits exactly `width` lanes (to_bytes raises otherwise).
    for width in (1, 10, _MAX_LANES):
        constants = _lanes(width)
        lanes = [tuple(block_words(x.to_bytes(16 * width, "little"))) for x in constants]
        assert lanes == [(1,) * width, tuple(k * golden % 2**64 for k in range(1, width + 1)),
                         (2**64 - 1,) * width]


def test_block_draws_reject_negative_counts():
    # A block of 0 would make no draws, and a read past it would spin.
    for count, width, tail in ((-1, BLOCK_WIDTH, TAIL_BLOCK), (1, 0, TAIL_BLOCK), (1, 10, 0)):
        with pytest.raises(ValueError):
            next(round_draws(0, 0, count, width, tail))


GROUP_COUNTS = st.sampled_from([0, 1, BLOCK_GROUP - 1, BLOCK_GROUP, BLOCK_GROUP + 1])


ROUND_PATHS = (
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2 * BLOCK_GROUP, 2**64 - 1)),
    st.one_of(GROUP_COUNTS, st.integers(0, 3 * BLOCK_GROUP + 5)),
)


def _round_streams(seed, start, count, *widths):
    """Each round's outputs from round_draws (given the first-block and
    tail widths ``widths``, if any), read one at a time from its byte
    blocks, with the scalar stream they must equal; all iterators are made
    before any is read."""
    rounds = list(round_draws(derive_seed(seed, "round"), start, count, *widths))
    assert len(rounds) == count
    return [(stream_words(blocks), Stream(derive_seed(seed, "round", start + i)))
            for i, blocks in enumerate(rounds)]


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
    # A round's first block is one block of BLOCK_WIDTH lanes, whose words
    # are those of the state's own first block.
    rounds = round_draws(derive_seed(seed, "round"), start, count)
    for i, blocks in enumerate(rounds):
        first = next(blocks)
        state = derive_seed(seed, "round", start + i)
        assert len(first) == 16 * BLOCK_WIDTH
        assert block_words(first) == block_words(next(byte_blocks(state, BLOCK_WIDTH)))


@settings(max_examples=200, deadline=None)
@given(ROUND_PATHS[0], ROUND_PATHS[1], st.integers(0, BLOCK_WIDTH + 2 * TAIL_BLOCK + 5))
def test_extended_draws_continue_the_stream(seed, start, read):
    # Past the first BLOCK_WIDTH outputs the iterator makes tail blocks of
    # TAIL_BLOCK as it is read; the reads run into a second one.
    for draws, stream in _round_streams(seed, start, 2):
        assert list(islice(draws, read)) == u64s(stream, read)
        assert next(draws) == stream.next_u64()


@settings(max_examples=200, deadline=None)
@given(ROUND_PATHS[0], ROUND_PATHS[1], st.sampled_from([1, 2, BLOCK_GROUP, BLOCK_GROUP + 1]),
       st.sampled_from([1, 10, 65]), st.sampled_from([1, 10, TAIL_BLOCK]))
def test_other_widths_continue_the_stream(seed, start, count, width, tail):
    # A first block of another width (the holdings size) from the shared
    # lane pass, for a group or part of one, then tail blocks of another
    # width; the reads run into a second tail block.
    read = width + tail + 3
    for draws, stream in _round_streams(seed, start, count, width, tail):
        assert list(islice(draws, read)) == u64s(stream, read)


def test_first_block_reads_make_no_tail(monkeypatch):
    """A stream read only inside its first block computes no tail block:
    its tail is made when the stream is read past the first block, one
    block at a time."""
    widths = []
    blocks = rng.byte_blocks

    def counting_blocks(state, width):
        for block in blocks(state, width):
            widths.append(width)
            yield block

    monkeypatch.setattr(rng, "byte_blocks", counting_blocks)
    for width in (10, BLOCK_WIDTH):
        streams = list(round_draws(derive_seed(3, "round"), 0, BLOCK_GROUP, width))
        for draws in streams:
            assert len(next(draws)) == 16 * width
    assert widths == []
    draws = next(round_draws(derive_seed(3, "round"), 0, 1, 10, 7))
    assert [len(block) for block in islice(draws, 3)] == [160, 112, 112]
    assert widths == [7, 7]


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


# sha256 of the kmin and the float.hex() of every CDF value, space-separated:
# desk's liar-count CDF and one of churn's size.  Python 3.12's sum() moved
# about two in three of such CDFs by a last bit.
CDF_PINS = {
    (1999, 300, 189): "15c2c46260d1ad6b77420865ab1791616e487ea3881716f70481e47724d7e7c0",
    (19999, 3000, 189): "8efb3ce4194ffc3c263e3da3e92caeeda3b42b39925f2c8fcc4511da7613cf52",
}


@pytest.mark.parametrize("args", sorted(CDF_PINS))
def test_hypergeom_cdf_floats_are_pinned(args):
    kmin, cdf = hypergeom_cdf(*args)
    text = " ".join([str(kmin)] + [value.hex() for value in cdf])
    assert hashlib.sha256(text.encode()).hexdigest() == CDF_PINS[args]


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
