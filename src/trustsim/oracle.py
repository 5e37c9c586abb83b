"""Independent validators for the closed-form game analysis.

These estimators simulate the selection process event by event.  They
share only the input checks with :mod:`trustsim.game` and none of its
arithmetic; an estimator that reused the formula could not catch a sign or
scale error in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .game import check_j, check_p, check_penalty, check_streak
from .rng import derive_seed, random_bound, u64_stream, zero_bound

_MIN_TRIALS = 1000
_MAX_ENUM_STREAK = 20
_BLOCK = 256


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
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be >= {_MIN_TRIALS}")
    draw = u64_stream(derive_seed(seed, "mc-liar-payoff"), _BLOCK).__next__
    by_trust, picked = random_bound(p), zero_bound(j)
    credited = 0
    for _ in range(trials):
        # stream.random() < p or a draw below j is not 0, as integer bounds
        if draw() < by_trust or draw() >= picked:
            credited += 1
    penalized = trials - credited
    mean = (credited - penalty * penalized) / trials
    ss = credited * (1.0 - mean) ** 2 + penalized * (-penalty - mean) ** 2
    return McResult(mean=mean, std_error=math.sqrt(ss / (trials - 1) / trials), trials=trials)


def mc_escape_frequency(j: int, p: float, streak: int, trials: int, seed: int = 0) -> McResult:
    """Estimate the probability a liar survives ``streak`` volunteering
    rounds without a penalty, by simulating its credit sequence."""
    check_j(j)
    check_p(p)
    check_streak(streak)
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be >= {_MIN_TRIALS}")
    draw = u64_stream(derive_seed(seed, "mc-escape"), _BLOCK).__next__
    by_trust, picked = random_bound(p), zero_bound(j)
    survived = 0
    for _ in range(trials):
        for _ in range(streak):
            # stream.random() >= p and a draw below j is 0, as integer bounds
            if draw() >= by_trust and draw() < picked:
                break
        else:
            survived += 1
    freq = survived / trials
    ss = survived * (1.0 - freq) ** 2 + (trials - survived) * freq**2
    return McResult(mean=freq, std_error=math.sqrt(ss / (trials - 1) / trials), trials=trials)


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


def within_sigmas(expected: float, result: McResult, sigmas: float = 4.0) -> bool:
    """True when the estimate lies within ``sigmas`` standard errors of the
    expected value (exact equality required when the spread is zero)."""
    if result.std_error == 0.0:
        return result.mean == expected
    return abs(result.mean - expected) <= sigmas * result.std_error
