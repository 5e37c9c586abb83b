import math
import random

import pytest

from trustsim import oracle
from trustsim.game import escape_probability, expected_liar_payoff
from trustsim.oracle import (
    McResult,
    enumerate_escape_probability,
    mc_escape_frequency,
    mc_liar_payoff,
    within_sigmas,
)
from trustsim.rng import Stream, random_bound, zero_bound

from helpers import ListStream, randbelow


def test_mc_result_requires_trials():
    with pytest.raises(ValueError):
        McResult(mean=0.0, std_error=0.0, trials=1)


def test_mc_liar_payoff_matches_closed_form():
    result = mc_liar_payoff(0.9, 329.0, 30, trials=200_000, seed=3)
    assert within_sigmas(-0.1, result)
    result = mc_liar_payoff(0.0, 29.0, 30, trials=200_000, seed=4)
    assert within_sigmas(0.0, result)


def scalar_liar_payoff(stream, p, penalty, j, trials):
    """The mean of ``mc_liar_payoff`` with stream.random() and randbelow."""
    credited = sum(stream.random() < p or randbelow(stream, j) != 0 for _ in range(trials))
    return (credited - penalty * (trials - credited)) / trials


def scalar_escape_frequency(stream, j, p, streak, trials):
    """The mean of ``mc_escape_frequency`` with stream.random() and randbelow."""
    survived = 0
    for _ in range(trials):
        for _ in range(streak):
            if stream.random() >= p and randbelow(stream, j) == 0:
                break
        else:
            survived += 1
    return survived / trials


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_estimators_make_the_scalar_draws(seed):
    """The estimators compare block draws with integer bounds; a trial must
    still see exactly the draws, and make the decisions, that stream.random()
    and randbelow(stream, j) would give it, at the ends of p and j too.  At
    j = 2**32 - 1 every pick whose top byte is 0 ties with the bound's."""
    penalty, streak, trials = 10.0, 4, 3000
    for p, j in ((0.7, 5), (0.0, 5), (1.0, 5), (0.7, 1), (0.7, 2**32 - 1)):
        stream = Stream.from_path(seed, "mc-liar-payoff")
        expected = scalar_liar_payoff(stream, p, penalty, j, trials)
        assert mc_liar_payoff(p, penalty, j, trials, seed).mean == expected
        stream = Stream.from_path(seed, "mc-escape")
        expected = scalar_escape_frequency(stream, j, p, streak, trials)
        assert mc_escape_frequency(j, p, streak, trials, seed).mean == expected


def byte_source(draws):
    """A stand-in for ``rng.byte_blocks`` whose outputs are ``draws``, in
    blocks of the estimators' width laid out as the lane bytes are: each
    output the low word of a 16-byte lane.  The high words, which no reader
    may use, are all ones."""
    width = oracle._BLOCK
    assert len(draws) % width == 0
    lanes = [u.to_bytes(8, "little") + b"\xff" * 8 for u in draws]

    def blocks(state, block):
        assert block == width
        return (b"".join(lanes[i:i + width]) for i in range(0, len(lanes), width))

    return blocks


def check_crafted(monkeypatch, draws, p, j, streak, trials, penalty=10.0):
    """Both estimators on ``draws`` decide as the scalar draws do."""
    monkeypatch.setattr(oracle, "byte_blocks", byte_source(draws))
    expected = scalar_liar_payoff(ListStream(draws), p, penalty, j, trials)
    assert mc_liar_payoff(p, penalty, j, trials).mean == expected
    expected = scalar_escape_frequency(ListStream(draws), j, p, streak, trials)
    assert mc_escape_frequency(j, p, streak, trials).mean == expected


def padded(draws, count):
    """``draws``, then the outputs 0 up to ``count`` outputs in all."""
    return draws + [0] * (count - len(draws))


def test_estimators_decide_at_the_bounds_as_the_scalar_draws(monkeypatch):
    """Draws one below and at each integer bound, which a random stream
    almost never gives: each must be decided as the float and multiply-shift
    forms decide it.  The two share the bound's top byte, so each is a tie
    the scan settles by its int."""
    streak, trials = 4, 1000
    count = -(-2 * streak * trials // oracle._BLOCK) * oracle._BLOCK
    for p, j in ((0.7, 5), (0.9, 30), (2**-53, 3), (0.9, 2**32 - 1)):
        edges = [b + d for b in (random_bound(p), zero_bound(j)) for d in (-1, 0)]
        assert len({u >> 56 for u in edges[:2]}) == len({u >> 56 for u in edges[2:]}) == 1
        check_crafted(monkeypatch, random.Random(j).choices(edges, k=count), p, j, streak, trials)


def test_estimators_decide_block_ends_as_the_scalar_draws(monkeypatch):
    """Rounds that straddle two blocks: a pick that is the first output of
    the next block, passing and failing, and runs of marked draws at a
    block's end, whose picks and rounds alternate across the boundary."""
    block, top, streak, trials = oracle._BLOCK, 2**64 - 1, 3, 1000
    p, j = 0.9, 30
    count = 2 * streak * trials + block
    count -= count % block
    miss, hit = top, 0  # a pick that misses the liar, and one that finds it
    for tail in ([top], [top] * 2, [top] * 5, [top, hit, top, miss, top]):
        for pick in (miss, hit):
            for shift in (0, 1):
                draws = [0] * (block - len(tail) - shift) + tail + [pick] + [top] * 3
                check_crafted(monkeypatch, padded(draws, count), p, j, streak, trials)


def test_estimators_stop_inside_a_gap(monkeypatch):
    """Draws that all pass by trust: the trial limit falls in the middle of
    a gap (output 1000 of the liar's stream, 4000 of the escape's), and the
    trials the gap holds past it are not counted."""
    count = 8 * oracle._BLOCK
    assert 1000 % oracle._BLOCK and 4000 % oracle._BLOCK
    check_crafted(monkeypatch, [0] * count, 0.9, 30, 4, 1000)
    # A failed round first: the next trial's rounds count from the draw after its pick.
    check_crafted(monkeypatch, padded([2**64 - 1, 0, 5, 7], count), 0.9, 30, 4, 1000)


def test_mc_liar_payoff_pure_trust_is_exact():
    result = mc_liar_payoff(1.0, 5000.0, 30, trials=10_000, seed=1)
    assert result.mean == 1.0
    assert result.std_error == 0.0


def test_mc_liar_payoff_deterministic_in_seed():
    a = mc_liar_payoff(0.7, 10.0, 5, trials=20_000, seed=9)
    b = mc_liar_payoff(0.7, 10.0, 5, trials=20_000, seed=9)
    c = mc_liar_payoff(0.7, 10.0, 5, trials=20_000, seed=10)
    assert a == b
    assert a != c


def test_mc_agreement_over_random_parameters():
    import random

    rng = random.Random(123)
    for _ in range(50):
        p = rng.uniform(0.0, 0.99)
        j = rng.randint(1, 50)
        penalty = rng.uniform(0.0, 500.0)
        result = mc_liar_payoff(p, penalty, j, trials=30_000, seed=rng.randrange(2**32))
        assert within_sigmas(expected_liar_payoff(p, penalty, j), result)
    checked = 0
    while checked < 50:
        p = rng.uniform(0.0, 1.0)
        j = rng.randint(1, 40)
        streak = rng.randint(0, 30)
        truth = escape_probability(j, p, streak)
        if not 0.01 <= truth <= 0.99:
            # a 4-sigma band needs sampling variance; near-certain outcomes
            # can produce an all-identical sample at these trial counts
            continue
        result = mc_escape_frequency(j, p, streak, trials=5_000, seed=rng.randrange(2**32))
        assert within_sigmas(truth, result)
        checked += 1


def test_mc_escape_frequency_matches_closed_form():
    result = mc_escape_frequency(30, 0.9, 100, trials=20_000, seed=5)
    assert within_sigmas(escape_probability(30, 0.9, 100), result)
    result = mc_escape_frequency(2, 0.0, 1, trials=50_000, seed=6)
    assert within_sigmas(0.5, result)


def test_mc_escape_frequency_zero_streak_is_exact():
    result = mc_escape_frequency(30, 0.9, 0, trials=1000, seed=1)
    assert result.mean == 1.0
    assert result.std_error == 0.0


def test_mc_validates_inputs():
    with pytest.raises(ValueError):
        mc_liar_payoff(0.9, 10.0, 0, trials=2000)
    with pytest.raises(ValueError):
        mc_liar_payoff(1.2, 10.0, 3, trials=2000)
    with pytest.raises(ValueError):
        mc_liar_payoff(0.9, 10.0, 3, trials=500)  # too few trials
    for penalty in (-5.0, math.nan, math.inf, 10**400):  # 10**400: an OverflowError
        with pytest.raises(ValueError, match="penalty must be >= 0"):
            mc_liar_payoff(0.9, penalty, 3, trials=2000)
    # 1e308 gave mc_mean=-inf and verdict=PASS; 1e200 and 1e160 an OverflowError.
    for p, penalty, j in ((0.9, 1e308, 30), (0.9, 1e200, 30), (0.0, 1e160, 2)):
        with pytest.raises(ValueError, match="penalty .* is too large"):
            mc_liar_payoff(p, penalty, j, trials=10_000)
    assert math.isfinite(mc_liar_payoff(0.9, 1e150, 30, trials=10_000).std_error)
    for j in (30.0, 2.5, True):  # 30.0 used to end in a TypeError from >>
        with pytest.raises(ValueError, match="j must be an integer"):
            mc_liar_payoff(0.9, 10.0, j, trials=2000)
        with pytest.raises(ValueError, match="j must be an integer"):
            mc_escape_frequency(j, 0.9, 5, trials=2000)
    with pytest.raises(ValueError):
        mc_escape_frequency(3, 0.5, -1, trials=2000)
    with pytest.raises(ValueError):
        mc_escape_frequency(3, 0.5, 2, trials=10)
    # Integers beyond the float range fail the estimators' checks as they fail
    # the closed forms' (which they overflowed); 10**400 trials would never end.
    for key, call in (
        ("j", lambda: mc_liar_payoff(0.9, 10.0, 10**400, trials=2000)),
        ("j", lambda: mc_escape_frequency(10**400, 0.5, 2, trials=2000)),
        ("streak", lambda: mc_escape_frequency(3, 0.5, 10**400, trials=2000)),
        ("streak", lambda: enumerate_escape_probability(3, 0.5, 10**400)),
        ("trials", lambda: mc_escape_frequency(3, 0.5, 2, trials=10**400)),
    ):
        with pytest.raises(ValueError, match=f"{key} must be an integer within"):
            call()
    # 2.5 used to end in a RecursionError, a TypeError and a fractional power.
    for streak in (2.5, True):
        with pytest.raises(ValueError, match="streak must be an integer"):
            mc_escape_frequency(3, 0.5, streak, trials=2000)
        with pytest.raises(ValueError, match="streak must be an integer"):
            enumerate_escape_probability(3, 0.5, streak)
    # 2000.0 and 1e4 used to end in a TypeError from range, 1.5 in one from mix64.
    for trials in (2000.0, 1e4, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            mc_liar_payoff(0.9, 10.0, 3, trials=trials)
        with pytest.raises(ValueError, match="trials must be an integer"):
            mc_escape_frequency(3, 0.5, 2, trials=trials)
    for seed in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            mc_liar_payoff(0.9, 10.0, 3, trials=2000, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            mc_escape_frequency(3, 0.5, 2, trials=2000, seed=seed)
    # Seeds alias modulo 2**64: -1 used to give seed 2**64 - 1's estimate.
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="seed must be within"):
            mc_liar_payoff(0.9, 10.0, 3, trials=2000, seed=seed)
        with pytest.raises(ValueError, match="seed must be within"):
            mc_escape_frequency(3, 0.5, 2, trials=2000, seed=seed)


def test_enumerate_escape_probability_values():
    assert enumerate_escape_probability(30, 0.9, 0) == 1.0
    assert enumerate_escape_probability(30, 0.9, 1) == pytest.approx(29.9 / 30, abs=1e-15)
    assert enumerate_escape_probability(2, 0.5, 3) == pytest.approx(0.421875, abs=1e-15)


def test_enumerate_escape_probability_limit():
    with pytest.raises(ValueError, match="enumerate"):
        enumerate_escape_probability(30, 0.9, 21)


def test_enumerate_matches_closed_form_small_grid():
    for j in range(1, 5):
        for streak in range(0, 13):
            for p in (0.0, 0.25, 0.5, 0.9, 1.0):
                exact = enumerate_escape_probability(j, p, streak)
                assert abs(exact - escape_probability(j, p, streak)) <= 1e-12


def test_std_error_shrinks_with_sqrt_of_trials():
    small = mc_liar_payoff(0.5, 3.0, 3, trials=20_000, seed=21)
    large = mc_liar_payoff(0.5, 3.0, 3, trials=40_000, seed=22)
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)


def test_within_sigmas_bands():
    result = McResult(mean=1.05, std_error=0.02, trials=100)
    assert within_sigmas(1.0, result, sigmas=4.0)
    assert not within_sigmas(1.0, result, sigmas=2.0)
    exact = McResult(mean=1.0, std_error=0.0, trials=100)
    assert within_sigmas(1.0, exact)
    assert not within_sigmas(1.0000001, exact)
    for mean, std_error in ((-math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0),
                            (1.0, math.nan)):
        assert not within_sigmas(1.0, McResult(mean, std_error, 100), sigmas=4.0)
    assert not within_sigmas(1.0, result, sigmas=0)  # a band of 0 asks for equality
    # "x" and 10**400 ended in a TypeError and an OverflowError; NaN and a
    # negative band returned False as if the estimate had missed.
    for sigmas in ("x", None, True):
        with pytest.raises(ValueError, match="sigmas must be a number"):
            within_sigmas(1.0, result, sigmas)
    for sigmas in (math.nan, -1.0, -4, math.inf, 10**400):
        with pytest.raises(ValueError, match="sigmas must be >= 0 and finite"):
            within_sigmas(1.0, result, sigmas)
