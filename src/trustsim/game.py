"""Closed-form analysis of the volunteer-credit trust game.

One query round: a requester asks for a file, ``j`` peers volunteer to
serve it, and the requester either takes the volunteer with the highest
trust (probability ``p``) or picks uniformly at random (probability
``1 - p``).  Truthful volunteers answer only when they hold the file and
each truthful peer holds a fraction ``1/n`` of the catalog; a liar answers
every query.  Every volunteer earns one trust credit except a selected
volunteer that fails to deliver, which loses ``penalty`` trust.

This module computes the per-round payoffs of that game, the 2x2 payoff
matrix, dominance elimination, the penalty levels that make lying a losing
strategy, and the service threshold implied by a tolerated escape
probability.  Each input rule (n, j, p, streak, penalty) has one check
here, which the closed forms, ``GameParams`` and the oracle estimators call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum


class Selection(Enum):
    """How the requester picks among volunteers."""

    BY_TRUST = "by_trust"
    RANDOM = "random"


class Response(Enum):
    """How a responder answers queries."""

    TRUTHFUL = "truthful"
    LYING = "lying"


@dataclass(frozen=True)
class GameParams:
    """Mechanism constants.

    n: each truthful peer holds 1/n of the catalog (n >= 1).
    j: number of volunteers answering a query (j >= 1).
    p: probability the requester selects by trust (0 <= p <= 1).
    penalty: trust lost by a selected volunteer that fails to deliver (finite, >= 0).
    reward: requester's profit from obtaining the file.
    cost: requester's transaction cost; reward > cost > 0, otherwise
        requesting is never worthwhile.
    """

    n: int
    j: int
    p: float
    penalty: float
    reward: float
    cost: float

    def __post_init__(self):
        check_n(self.n)
        check_j(self.j)
        check_p(self.p)
        check_penalty(self.penalty)
        for key in ("reward", "cost"):
            _require_real(key, getattr(self, key))
            if not abs(getattr(self, key)) <= sys.float_info.max:  # NaN, ±inf, 10**400
                raise ValueError(f"{key} must be a finite number")
        if self.cost <= 0.0:
            raise ValueError("cost must be > 0")
        if self.reward <= self.cost:
            raise ValueError("reward must exceed cost")


@dataclass(frozen=True)
class Payoffs:
    requester: float
    responder: float


@dataclass(frozen=True)
class EliminationResult:
    """Strategies surviving iterated elimination of weakly dominated ones."""

    requester: tuple[Selection, ...]
    responder: tuple[Response, ...]

    @property
    def profile(self) -> tuple[Selection, Response] | None:
        """The unique surviving profile, or None when a tie remains."""
        if len(self.requester) == 1 and len(self.responder) == 1:
            return (self.requester[0], self.responder[0])
        return None


def liar_round_payoff(penalty: float, j: int) -> float:
    """Expected trust change for a lying volunteer when the requester picks
    uniformly at random: selected (and penalized) with probability 1/j,
    credited +1 otherwise, i.e. (-penalty + j - 1) / j."""
    check_j(j)
    check_penalty(penalty)
    return (-penalty + j - 1) / j


def expected_liar_payoff(p: float, penalty: float, j: int) -> float:
    """Per-round expected trust change for a liar under the requester
    mixture: +1 when selection is by trust (a low-trust liar is passed
    over), the random-selection payoff otherwise."""
    check_p(p)
    return p * 1.0 + (1.0 - p) * liar_round_payoff(penalty, j)


def penalty_bound_dominance(n: int, j: int, p: float) -> float:
    """Infimum penalty above which lying is strictly dominated by truth.

    Any penalty strictly greater makes a truthful volunteer's per-round
    expectation (1/n) beat a liar's under the requester mixture.  At p = 1
    a liar with low trust is never penalized, so no finite penalty works.
    """
    check_n(n)
    check_j(j)
    _require_mixture(p)
    return j - 1 - j * (1 - n * p) / (n * (1 - p))


def penalty_bound_descending(j: int, p: float) -> float:
    """Infimum penalty above which a liar's expected per-round trust change
    is negative, so its expected cumulative trust can never climb."""
    check_j(j)
    _require_mixture(p)
    return (j + p - 1) / (1 - p)


def recommended_penalty(j: int, p: float, margin: float = 0.1) -> float:
    """Descending bound plus a safety margin (default +10%).

    The bounds are strict infima: at the bound itself the liar's expected
    per-round change is exactly zero, which defeats the mechanism, so
    deployments must sit strictly above it.  Raises ``ValueError`` unless the
    penalty is finite and above it (never so for a bound of 0: j = 1, p = 0).
    """
    bound = penalty_bound_descending(j, p)
    _require_real("margin", margin)
    # An int margin beyond the float range would overflow: its penalty is not finite.
    penalty = (1.0 + margin) * bound if abs(margin) <= sys.float_info.max else math.inf
    if not bound < penalty < math.inf:  # rejects NaN too
        raise ValueError("margin must give a finite penalty strictly above the bound")
    return penalty


def lying_is_dominated(params: GameParams) -> bool:
    """True when truth strictly beats lying per round: 1/n > expected liar
    payoff.  Strict comparison: at the bound itself this is False."""
    return 1.0 / params.n > expected_liar_payoff(params.p, params.penalty, params.j)


def payoff_matrix(params: GameParams) -> dict[tuple[Selection, Response], Payoffs]:
    """Build the one-round payoff matrix, keyed by (requester selection,
    responder response); each cell is a (requester, responder) pair.

    Selecting by trust is assumed to find a truthful volunteer, so the
    requester's by-trust payoff is reward - cost in both columns; a random
    pick lands on the liar's column outcome.  The responder payoffs are the
    per-round trust expectations: 1/n for truth, +1 for a lie that is never
    trust-selected, and the random-selection liar payoff otherwise.
    """
    gain = params.reward - params.cost
    loss = -params.cost
    truthful = 1.0 / params.n
    return {
        (Selection.BY_TRUST, Response.TRUTHFUL): Payoffs(gain, truthful),
        (Selection.BY_TRUST, Response.LYING): Payoffs(gain, 1.0),
        (Selection.RANDOM, Response.TRUTHFUL): Payoffs(gain, truthful),
        (Selection.RANDOM, Response.LYING): Payoffs(
            loss, liar_round_payoff(params.penalty, params.j)
        ),
    }


def eliminate_dominated(matrix: dict[tuple[Selection, Response], Payoffs]) -> EliminationResult:
    """Iterated elimination of weakly dominated pure strategies.

    The requester is examined first on each pass (random selection is
    weakly dominated by selecting by trust whenever lying is available),
    then the responder against the remaining requester strategies.  Exact
    payoff ties are never broken: indifferent strategies both survive.
    A matrix missing a cell raises ``KeyError``.
    """
    requester = list(Selection)
    responder = list(Response)
    while True:
        rows = {sel: [matrix[sel, resp].requester for resp in responder] for sel in requester}
        kept_rows = _undominated(rows)
        columns = {resp: [matrix[sel, resp].responder for sel in kept_rows] for resp in responder}
        kept_columns = _undominated(columns)
        if (kept_rows, kept_columns) == (requester, responder):
            return EliminationResult(tuple(requester), tuple(responder))
        requester, responder = kept_rows, kept_columns


def escape_probability(j: int, p: float, streak: int) -> float:
    """Probability a persistent liar collects ``streak`` consecutive +1
    credits before its first penalty, i.e. reaches trust ``streak + 1``
    worth of headroom unpunished.  Per volunteering round the liar is
    credited with probability (j + p - 1)/j."""
    check_j(j)
    check_p(p)
    check_streak(streak)
    return ((j + p - 1) / j) ** streak


def recommend_threshold(j: int, p: float, epsilon: float) -> int:
    """Smallest service threshold keeping a liar's escape probability at or
    below ``epsilon``: returns streak + 1 for the smallest streak with
    escape_probability(j, p, streak) <= epsilon."""
    check_j(j)
    _require_mixture(p)
    _require_real("epsilon", epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be within (0, 1]")
    base = (j + p - 1) / j
    if base >= 1.0 and epsilon < 1.0:
        raise ValueError(
            "calibration infeasible: p is so close to 1 that the per-round "
            "credit probability (j + p - 1) / j rounds to 1"
        )
    # Log-space guess, then settle the boundary with the real function.  At
    # base 0 only streak 0 escapes (0**0 == 1).
    streak = 0
    if 0.0 < base < 1.0 and epsilon < 1.0:
        streak = math.ceil(math.log(epsilon) / math.log(base))
    while streak > 0 and escape_probability(j, p, streak - 1) <= epsilon:
        streak -= 1
    while escape_probability(j, p, streak) > epsilon:
        streak += 1
    return streak + 1


def check_n(n: int) -> None:
    # A count, as a SimConfig takes it.
    _require_int("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")


def check_j(j: int) -> None:
    # An int, so that the oracles' integer bound on a pick is exact.
    _require_int("j", j)
    if j < 1:
        raise ValueError("j must be >= 1")


def check_p(p: float) -> None:
    _require_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be within [0, 1]")


def check_streak(streak: int) -> None:
    # An int, so that the oracles' loops and the closed form's power agree.
    _require_int("streak", streak)
    if streak < 0:
        raise ValueError("streak must be >= 0")


def check_penalty(penalty: float) -> None:
    _require_real("penalty", penalty)
    if not 0.0 <= penalty <= sys.float_info.max:  # rejects NaN and 10**400 too
        raise ValueError("penalty must be >= 0 and finite")


def _require_int(key: str, value: int) -> None:
    if type(value) is not int:  # bool too
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if abs(value) > sys.float_info.max:  # the closed forms compute in floats
        raise ValueError(f"{key} must be an integer within ±{sys.float_info.max:.1e}")


def _require_real(key: str, value: float) -> None:
    if type(value) not in (int, float):  # bool too
        raise ValueError(f"{key} must be a number, got {value!r}")


def _undominated(payoffs: dict) -> list:
    """One elimination step for one player: the strategies (keys) whose
    payoffs against the other player's remaining strategies no other
    strategy's payoffs weakly dominate."""
    return [
        strategy for strategy, row in payoffs.items()
        if not any(_weakly_dominated(row, other) for other in payoffs.values())
    ]


def _weakly_dominated(candidate: list[float], against: list[float]) -> bool:
    return all(c <= a for c, a in zip(candidate, against)) and any(
        c < a for c, a in zip(candidate, against)
    )


def _require_mixture(p: float) -> None:
    check_p(p)
    if p == 1.0:
        raise ValueError(
            "calibration infeasible: with p = 1 a low-trust liar is never "
            "randomly selected, so no finite penalty deters lying"
        )
