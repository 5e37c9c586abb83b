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
strategy, the expected cumulative-trust trajectories, and the service
threshold implied by a tolerated escape probability.
"""

from __future__ import annotations

import math
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
    penalty: trust lost by a selected volunteer that fails to deliver (>= 0).
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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.j < 1:
            raise ValueError("j must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be within [0, 1]")
        if self.penalty < 0.0:
            raise ValueError("penalty must be >= 0")
        if self.cost <= 0.0:
            raise ValueError("cost must be > 0")
        if self.reward <= self.cost:
            raise ValueError("reward must exceed cost")


@dataclass(frozen=True)
class Payoffs:
    requester: float
    responder: float


class GameMatrix:
    """2x2 payoff matrix: requester rows (BY_TRUST, RANDOM), responder
    columns (TRUTHFUL, LYING), each cell a (requester, responder) pair."""

    def __init__(self, cells: dict[tuple[Selection, Response], Payoffs]):
        for sel in Selection:
            for resp in Response:
                if (sel, resp) not in cells:
                    raise ValueError(f"missing cell ({sel}, {resp})")
        self._cells = dict(cells)

    def cell(self, selection: Selection, response: Response) -> Payoffs:
        return self._cells[(selection, response)]

    def __eq__(self, other):
        return isinstance(other, GameMatrix) and self._cells == other._cells


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
    _require_j(j)
    return (-penalty + j - 1) / j


def expected_liar_payoff(p: float, penalty: float, j: int) -> float:
    """Per-round expected trust change for a liar under the requester
    mixture: +1 when selection is by trust (a low-trust liar is passed
    over), the random-selection payoff otherwise."""
    _require_j(j)
    return p * 1.0 + (1.0 - p) * liar_round_payoff(penalty, j)


def penalty_bound_dominance(n: int, j: int, p: float) -> float:
    """Infimum penalty above which lying is strictly dominated by truth.

    Any penalty strictly greater makes a truthful volunteer's per-round
    expectation (1/n) beat a liar's under the requester mixture.  At p = 1
    a liar with low trust is never penalized, so no finite penalty works.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_j(j)
    _require_mixture(p)
    return j - 1 - j * (1 - n * p) / (n * (1 - p))


def penalty_bound_descending(j: int, p: float) -> float:
    """Infimum penalty above which a liar's expected per-round trust change
    is negative, so its expected cumulative trust can never climb."""
    _require_j(j)
    _require_mixture(p)
    return (j + p - 1) / (1 - p)


def recommended_penalty(j: int, p: float, margin: float = 0.1) -> float:
    """Descending bound plus a safety margin (default +10%).

    The bounds are strict infima: at the bound itself the liar's expected
    per-round change is exactly zero, which defeats the mechanism, so
    deployments must sit strictly above it.
    """
    if margin <= 0.0:
        raise ValueError("margin must be > 0")
    return (1.0 + margin) * penalty_bound_descending(j, p)


def lying_is_dominated(params: GameParams) -> bool:
    """True when truth strictly beats lying per round: 1/n > expected liar
    payoff.  Strict comparison: at the bound itself this is False."""
    return 1.0 / params.n > expected_liar_payoff(params.p, params.penalty, params.j)


def payoff_matrix(params: GameParams) -> GameMatrix:
    """Build the one-round payoff matrix.

    Selecting by trust is assumed to find a truthful volunteer, so the
    requester's by-trust payoff is reward - cost in both columns; a random
    pick lands on the liar's column outcome.  The responder payoffs are the
    per-round trust expectations: 1/n for truth, +1 for a lie that is never
    trust-selected, and the random-selection liar payoff otherwise.
    """
    gain = params.reward - params.cost
    loss = -params.cost
    truthful = 1.0 / params.n
    cells = {
        (Selection.BY_TRUST, Response.TRUTHFUL): Payoffs(gain, truthful),
        (Selection.BY_TRUST, Response.LYING): Payoffs(gain, 1.0),
        (Selection.RANDOM, Response.TRUTHFUL): Payoffs(gain, truthful),
        (Selection.RANDOM, Response.LYING): Payoffs(
            loss, liar_round_payoff(params.penalty, params.j)
        ),
    }
    return GameMatrix(cells)


def eliminate_dominated(matrix: GameMatrix) -> EliminationResult:
    """Iterated elimination of weakly dominated pure strategies.

    The requester is examined first on each pass (random selection is
    weakly dominated by selecting by trust whenever lying is available),
    then the responder against the remaining requester strategies.  Exact
    payoff ties are never broken: indifferent strategies both survive.
    """
    requester = list(Selection)
    responder = list(Response)
    changed = True
    while changed:
        changed = False
        if len(requester) > 1:
            first, second = requester
            row_first = [matrix.cell(first, resp).requester for resp in responder]
            row_second = [matrix.cell(second, resp).requester for resp in responder]
            if _weakly_dominated(row_first, row_second):
                requester = [second]
                changed = True
                continue
            if _weakly_dominated(row_second, row_first):
                requester = [first]
                changed = True
                continue
        if len(responder) > 1:
            first, second = responder
            col_first = [matrix.cell(sel, first).responder for sel in requester]
            col_second = [matrix.cell(sel, second).responder for sel in requester]
            if _weakly_dominated(col_first, col_second):
                responder = [second]
                changed = True
            elif _weakly_dominated(col_second, col_first):
                responder = [first]
                changed = True
    return EliminationResult(tuple(requester), tuple(responder))


def truthful_trajectory(rounds: int, n: int) -> float:
    """Expected cumulative trust of an always-truthful peer after the given
    number of rounds: it volunteers (and is credited) once every n rounds."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return rounds / n


def liar_trajectory(rounds: int, p: float, penalty: float, j: int) -> float:
    """Expected cumulative trust of a persistent liar after the given
    number of rounds (no floor applied)."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    return rounds * expected_liar_payoff(p, penalty, j)


def escape_probability(j: int, p: float, streak: int) -> float:
    """Probability a persistent liar collects ``streak`` consecutive +1
    credits before its first penalty, i.e. reaches trust ``streak + 1``
    worth of headroom unpunished.  Per volunteering round the liar is
    credited with probability (j + p - 1)/j."""
    _require_j(j)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be within [0, 1]")
    if streak < 0:
        raise ValueError("streak must be >= 0")
    base = (j + p - 1) / j
    if base < 0.0:
        raise ValueError("credit probability is negative; invalid j, p")
    return base**streak


def recommend_threshold(j: int, p: float, epsilon: float) -> int:
    """Smallest service threshold keeping a liar's escape probability at or
    below ``epsilon``: returns streak + 1 for the smallest streak with
    escape_probability(j, p, streak) <= epsilon."""
    _require_mixture(p)
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


def _weakly_dominated(candidate: list[float], against: list[float]) -> bool:
    return all(c <= a for c, a in zip(candidate, against)) and any(
        c < a for c, a in zip(candidate, against)
    )


def _require_j(j: int) -> None:
    if j < 1:
        raise ValueError("j must be >= 1")


def _require_mixture(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be within [0, 1]")
    if p == 1.0:
        raise ValueError(
            "calibration infeasible: with p = 1 a low-trust liar is never "
            "randomly selected, so no finite penalty deters lying"
        )
