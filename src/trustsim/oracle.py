"""Independent validators for the closed-form game analysis.

These estimators simulate the selection process event by event.  They
share only the input checks with :mod:`trustsim.game` and none of its
arithmetic; an estimator that reused the formula could not catch a sign or
scale error in it.  The Monte-Carlo estimators scan their stream's bytes
and jump over the draws that settle a round at once, but the scan still
decides every round from its own draws, as one draw at a time would, and
shares no arithmetic with :mod:`trustsim.game` either.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from .game import _require_int, _require_real, check_j, check_p, check_penalty, check_streak
from .rng import byte_blocks, derive_seed, random_bound, zero_bound

_MIN_TRIALS = 1000
_MAX_ENUM_STREAK = 20
_BLOCK = 512
# The output at a byte offset of a block of byte_blocks.
_WORD = struct.Struct("<Q").unpack_from


@dataclass(frozen=True)
class McResult:
    """A Monte-Carlo estimate: sample mean, standard error of the mean,
    and the number of trials behind it."""

    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("trials must be >= 2")


def mc_liar_payoff(p: float, penalty: float, j: int, trials: int, seed: int = 0) -> McResult:
    """Estimate a liar's per-round trust change by simulating rounds.

    Each round: with probability p the requester selects by trust and the
    liar earns +1; otherwise one of the j volunteers is picked uniformly
    and the liar loses ``penalty`` if the pick lands on it, earning +1
    otherwise.
    """
    check_j(j)
    check_p(p)
    check_penalty(penalty)
    _check_run(trials, seed)
    # A liar is credited exactly when its one round passes.
    state = derive_seed(seed, "mc-liar-payoff")
    credited = _survivals(state, random_bound(p), zero_bound(j), 1, trials)
    penalized = trials - credited
    mean = (credited - penalty * penalized) / trials
    try:
        ss = credited * (1.0 - mean) ** 2 + penalized * (-penalty - mean) ** 2
    except OverflowError:  # a float power that overflows raises
        ss = math.inf
    std_error = math.sqrt(ss / (trials - 1) / trials)
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError(f"penalty {penalty!r} is too large: the estimate overflows")
    return McResult(mean=mean, std_error=std_error, trials=trials)


def mc_escape_frequency(j: int, p: float, streak: int, trials: int, seed: int = 0) -> McResult:
    """Estimate the probability a liar survives ``streak`` volunteering
    rounds without a penalty, by simulating its credit sequence."""
    check_j(j)
    check_p(p)
    check_streak(streak)
    _check_run(trials, seed)
    state = derive_seed(seed, "mc-escape")
    survived = _survivals(state, random_bound(p), zero_bound(j), streak, trials)
    freq = survived / trials
    ss = survived * (1.0 - freq) ** 2 + (trials - survived) * freq**2
    return McResult(mean=freq, std_error=math.sqrt(ss / (trials - 1) / trials), trials=trials)


def _survivals(state: int, by_trust: int, picked: int, streak: int, trials: int) -> int:
    """The number of ``trials`` whose ``streak`` rounds all pass, the rounds
    drawn in turn from the outputs of ``Stream(state)``.

    A round passes when its first draw is below ``by_trust`` (selection by
    trust: ``random() < p``), or when it is not and the next draw, the
    pick, is at least ``picked`` (the pick missed the liar: a draw below j
    is not 0).  A failed round ends its trial.  Each block's top bytes are
    marked where the draw may reach ``by_trust``, and ``find`` jumps over
    the unmarked draws: each is a whole passing round.  A marked draw and
    its pick are decided by their top bytes, and by their ints only when a
    top byte ties with the bound's.
    """
    if streak == 0:
        return trials
    blocks = byte_blocks(state, _BLOCK)
    top, low = by_trust >> 56, picked >> 56
    table = bytes(byte >= top for byte in range(256))
    buf = marks = b""
    pos = rounds = done = survived = 0  # next draw; passed rounds of the open trial
    while True:
        mark = marks.find(1, pos)
        rounds += (len(marks) if mark < 0 else mark) - pos
        if rounds >= streak:
            whole, rounds = divmod(rounds, streak)
            done += whole
            survived += whole
            if done >= trials:
                return survived - (done - trials)
        if mark < 0:
            buf = next(blocks)
            marks = buf[7::16].translate(table)
            pos = 0
            continue
        at = 16 * mark
        if buf[at + 7] == top and _WORD(buf, at)[0] < by_trust:
            pos = mark + 1
            rounds += 1
            continue
        pos = mark + 2
        if pos > _BLOCK:  # the pick opens the next block
            buf = next(blocks)
            marks = buf[7::16].translate(table)
            pos = 1
        at = 16 * pos - 16
        pick = buf[at + 7]
        if pick > low or pick == low and _WORD(buf, at)[0] >= picked:
            rounds += 1
        else:
            rounds = 0
            done += 1
            if done == trials:
                return survived


def enumerate_escape_probability(j: int, p: float, streak: int) -> float:
    """Exact escape probability by exhausting all outcome sequences.

    Walks the 2**streak credit sequences (trust-selected round vs random
    round where another volunteer was picked), multiplying branch
    probabilities and summing the leaves exactly.
    """
    check_j(j)
    check_p(p)
    check_streak(streak)
    if streak > _MAX_ENUM_STREAK:
        raise ValueError(
            f"streak {streak} too large to enumerate (2**streak sequences; "
            f"limit {_MAX_ENUM_STREAK})"
        )
    credit_by_trust = p
    credit_random = (1.0 - p) * (j - 1) / j
    leaves: list[float] = []

    def walk(depth: int, prob: float) -> None:
        if depth == streak:
            leaves.append(prob)
            return
        walk(depth + 1, prob * credit_by_trust)
        walk(depth + 1, prob * credit_random)

    walk(0, 1.0)
    return math.fsum(leaves)


def _check_run(trials: int, seed: int) -> None:
    _require_int("trials", trials)
    _require_int("seed", seed)
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be >= {_MIN_TRIALS}")
    if not 0 <= seed < 2**64:
        # Streams use a seed modulo 2**64: any other integer aliases one.
        raise ValueError("seed must be within [0, 2**64)")


def within_sigmas(expected: float, result: McResult, sigmas: float = 4.0) -> bool:
    """True when the estimate lies within ``sigmas`` standard errors of the
    expected value (exact equality required when the spread is zero); never
    for a non-finite estimate.  ``sigmas`` must be >= 0 and finite."""
    _require_real("sigmas", sigmas)
    if not 0.0 <= sigmas <= sys.float_info.max:  # rejects NaN and 10**400 too
        raise ValueError("sigmas must be >= 0 and finite")
    if not (math.isfinite(result.mean) and math.isfinite(result.std_error)):
        return False
    if result.std_error == 0.0:
        return result.mean == expected
    return abs(result.mean - expected) <= sigmas * result.std_error
