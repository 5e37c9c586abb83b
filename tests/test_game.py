import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.game import (
    GameParams,
    Payoffs,
    Response,
    Selection,
    eliminate_dominated,
    escape_probability,
    expected_liar_payoff,
    liar_round_payoff,
    lying_is_dominated,
    payoff_matrix,
    penalty_bound_descending,
    penalty_bound_dominance,
    recommend_threshold,
    recommended_penalty,
)


def make_params(n=100, j=30, p=0.9, penalty=299.0, reward=10.0, cost=1.0):
    return GameParams(n=n, j=j, p=p, penalty=penalty, reward=reward, cost=cost)


# --- per-round payoffs ---


def test_liar_round_payoff_values():
    assert liar_round_payoff(29, 30) == 0.0
    assert liar_round_payoff(299, 30) == pytest.approx(-9.0)
    assert liar_round_payoff(329, 30) == pytest.approx(-10.0)


def test_liar_round_payoff_rejects_zero_volunteers():
    with pytest.raises(ValueError):
        liar_round_payoff(10.0, 0)


def test_expected_liar_payoff_values():
    assert expected_liar_payoff(0.9, 299, 30) == pytest.approx(0.0, abs=1e-12)
    assert expected_liar_payoff(0.9, 329, 30) == pytest.approx(-0.1)
    assert expected_liar_payoff(1.0, 12345.0, 30) == 1.0


@pytest.mark.parametrize(
    "penalty", [-5.0, math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_negative_or_nan_penalty_rejected(penalty):
    # A negative penalty is a reward; NaN passes a plain `penalty < 0` test;
    # an infinite one makes the payoffs NaN; 10**400 passed `< math.inf` and
    # ended in an OverflowError.
    with pytest.raises(ValueError, match="penalty must be >= 0"):
        liar_round_payoff(penalty, 30)
    with pytest.raises(ValueError, match="penalty must be >= 0"):
        expected_liar_payoff(0.9, penalty, 30)
    with pytest.raises(ValueError, match="penalty must be >= 0"):
        make_params(penalty=penalty)


# --- penalty calibration ---


def test_penalty_bound_dominance_values():
    assert penalty_bound_dominance(100, 30, 0.9) == pytest.approx(296.0, abs=1e-9)
    assert penalty_bound_dominance(100, 30, 0.0) == pytest.approx(28.7)
    assert penalty_bound_dominance(1, 30, 0.0) == pytest.approx(-1.0)


def test_penalty_bound_descending_values():
    assert penalty_bound_descending(30, 0.9) == pytest.approx(299.0, abs=1e-9)
    assert penalty_bound_descending(30, 0.0) == pytest.approx(29.0)
    assert penalty_bound_descending(1, 0.0) == 0.0


def test_bounds_reject_pure_trust_selection():
    with pytest.raises(ValueError, match="infeasible"):
        penalty_bound_dominance(100, 30, 1.0)
    with pytest.raises(ValueError, match="infeasible"):
        penalty_bound_descending(30, 1.0)
    with pytest.raises(ValueError, match="infeasible"):
        recommended_penalty(30, 1.0)


def test_recommended_penalty_adds_margin():
    assert recommended_penalty(30, 0.9) == pytest.approx(1.1 * 299.0)
    assert recommended_penalty(30, 0.9, margin=0.5) == pytest.approx(1.5 * 299.0)
    # Not above 0, or a penalty that is not finite: 1e308 overflows to inf;
    # 1e-16 leaves the bound itself, as 1 + 1e-16 == 1.
    for margin in (0.0, math.nan, math.inf, 1e308, 1e-16):
        with pytest.raises(ValueError, match="margin"):
            recommended_penalty(30, 0.9, margin=margin)
    with pytest.raises(ValueError, match="margin"):
        recommended_penalty(1, 0.0)  # a bound of 0 stays 0 under any margin
    # These ended in an OverflowError from 1.0 + margin, and in a TypeError.
    for margin in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="margin must give a finite penalty"):
            recommended_penalty(30, 0.9, margin=margin)
    for margin in ("0.1", None, True):
        with pytest.raises(ValueError, match="margin must be a number"):
            recommended_penalty(30, 0.9, margin=margin)


def test_lying_is_dominated_boundary():
    assert lying_is_dominated(make_params(penalty=299.0)) is True
    assert lying_is_dominated(make_params(penalty=296.0)) is False
    assert lying_is_dominated(make_params(penalty=290.0)) is False


def test_lying_never_dominated_at_pure_trust_selection():
    assert lying_is_dominated(make_params(p=1.0, penalty=1e9)) is False


# --- matrix and elimination ---


def test_payoff_matrix_structure():
    matrix = payoff_matrix(make_params())
    gain = 9.0
    assert matrix[Selection.BY_TRUST, Response.TRUTHFUL] == Payoffs(gain, 0.01)
    assert matrix[Selection.BY_TRUST, Response.LYING] == Payoffs(gain, 1.0)
    assert matrix[Selection.RANDOM, Response.TRUTHFUL] == Payoffs(gain, 0.01)
    cell = matrix[Selection.RANDOM, Response.LYING]
    assert cell.requester == -1.0
    assert cell.responder == pytest.approx(-9.0)


def test_payoff_matrix_single_holder_ties_responder():
    matrix = payoff_matrix(make_params(n=1))
    assert matrix[Selection.BY_TRUST, Response.TRUTHFUL].responder == 1.0
    assert matrix[Selection.BY_TRUST, Response.LYING].responder == 1.0


def test_elimination_reaches_by_trust_lying():
    result = eliminate_dominated(payoff_matrix(make_params()))
    assert result.profile == (Selection.BY_TRUST, Response.LYING)


def test_elimination_with_tiny_penalty_still_lying():
    # with no real penalty the liar's random-round payoff beats 1/n too
    params = GameParams(n=100, j=30, p=0.9, penalty=0.0, reward=10.0, cost=1.0)
    result = eliminate_dominated(payoff_matrix(params))
    assert result.profile == (Selection.BY_TRUST, Response.LYING)


def test_elimination_reports_tie_for_single_holder():
    result = eliminate_dominated(payoff_matrix(make_params(n=1)))
    assert result.profile is None
    assert result.requester == (Selection.BY_TRUST,)
    assert set(result.responder) == {Response.TRUTHFUL, Response.LYING}


def test_matrix_requires_all_cells():
    with pytest.raises(KeyError):
        eliminate_dominated({(Selection.BY_TRUST, Response.TRUTHFUL): Payoffs(1.0, 1.0)})


# --- escape probability and threshold ---


def test_escape_probability_values():
    assert escape_probability(30, 0.9, 0) == 1.0
    assert escape_probability(30, 0.9, 450) == pytest.approx(0.2226, abs=1e-3)
    assert escape_probability(30, 1.0, 1000) == 1.0


def test_recommend_threshold_values():
    assert recommend_threshold(30, 0.9, 1.0) == 1
    assert recommend_threshold(30, 0.9, 0.01) == 1381
    assert recommend_threshold(30, 0.9, 0.5) == 209


def test_recommend_threshold_is_exact_inversion():
    # the returned threshold is t+1 for the smallest qualifying streak t
    for epsilon in (0.9, 0.3, 0.05, 0.011):
        threshold = recommend_threshold(30, 0.9, epsilon)
        streak = threshold - 1
        assert escape_probability(30, 0.9, streak) <= epsilon
        if streak > 0:
            assert escape_probability(30, 0.9, streak - 1) > epsilon


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 10**4),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_recommend_threshold_is_the_smallest_valid_threshold(j, p, epsilon):
    if escape_probability(j, p, 1) == 1.0 and epsilon < 1.0:
        # p so close to 1 that the per-round escape rounds to certainty:
        # no threshold is valid.
        with pytest.raises(ValueError, match="infeasible"):
            recommend_threshold(j, p, epsilon)
        return
    threshold = recommend_threshold(j, p, epsilon)
    assert threshold >= 1
    assert escape_probability(j, p, threshold - 1) <= epsilon
    if threshold > 1:
        assert escape_probability(j, p, threshold - 2) > epsilon


def test_recommend_threshold_at_zero_credit_probability():
    # j = 1, p = 0: a liar is penalized every round, so streak 0 (which
    # always escapes) is too short for any epsilon below 1.
    assert recommend_threshold(1, 0.0, 0.01) == 2
    assert recommend_threshold(1, 5e-324, 0.5) == 2
    assert recommend_threshold(1, 0.0, 1.0) == 1


def test_recommend_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError, match="infeasible"):
        recommend_threshold(30, 1.0, 0.01)
    with pytest.raises(ValueError, match="infeasible"):
        recommend_threshold(10**4, 0.9999999999999999, 0.5)  # used to divide by zero
    with pytest.raises(ValueError):
        recommend_threshold(30, 0.9, 0.0)
    with pytest.raises(ValueError):
        recommend_threshold(30, 0.9, 1.5)
    for epsilon in ("x", None, True):  # "x" ended in a TypeError
        with pytest.raises(ValueError, match="epsilon must be a number"):
            recommend_threshold(30, 0.9, epsilon)
    with pytest.raises(ValueError, match="epsilon must be within"):
        recommend_threshold(30, 0.9, 10**400)
    for j in (0, -5):  # j = 0 used to divide by zero, j = -5 to blame p
        with pytest.raises(ValueError, match="j must be >= 1"):
            recommend_threshold(j, 0.9, 0.01)


# --- validation ---


@pytest.mark.parametrize("j", [2.5, 30.0, True, "30", None])
def test_non_integer_j_rejected(j):
    # A fractional volunteer count used to give a payoff (-12.2 for 2.5).
    for call in (
        lambda: liar_round_payoff(329, j),
        lambda: expected_liar_payoff(0.9, 329, j),
        lambda: escape_probability(j, 0.9, 5),
        lambda: penalty_bound_descending(j, 0.9),
        lambda: make_params(j=j),
    ):
        with pytest.raises(ValueError, match="j must be an integer"):
            call()
    # The same values as a streak: 2.5 used to give a fractional power.
    with pytest.raises(ValueError, match="streak must be an integer"):
        escape_probability(30, 0.9, j)


@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_non_number_p_or_penalty_rejected(value):
    # expected_liar_payoff(True, 329.0, 30) used to return 1.0, and a string
    # raised TypeError.
    for key, call in (
        ("p", lambda: expected_liar_payoff(value, 329.0, 30)),
        ("p", lambda: escape_probability(30, value, 5)),
        ("p", lambda: make_params(p=value)),
        ("penalty", lambda: expected_liar_payoff(0.9, value, 30)),
        ("penalty", lambda: make_params(penalty=value)),
    ):
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            call()


@pytest.mark.parametrize("huge", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_integers_beyond_the_float_range_rejected(huge):
    # The checks took them, and most closed forms then ended in an OverflowError.
    for key, call in (
        ("j", lambda: liar_round_payoff(329, huge)),
        ("j", lambda: penalty_bound_descending(huge, 0.9)),
        ("j", lambda: penalty_bound_dominance(100, huge, 0.9)),
        ("j", lambda: escape_probability(huge, 0.9, 5)),
        ("j", lambda: recommend_threshold(huge, 0.9, 0.01)),
        ("j", lambda: make_params(j=huge)),
        ("n", lambda: penalty_bound_dominance(huge, 30, 0.9)),
        ("n", lambda: make_params(n=huge)),
        ("streak", lambda: escape_probability(30, 0.9, huge)),
    ):
        with pytest.raises(ValueError, match=f"{key} must be an integer within ±1.8e\\+308"):
            call()


@pytest.mark.parametrize("n", [2.5, 100.0, True, "100", None])
def test_non_integer_n_rejected(n):
    # A fractional n used to give a bound (179.00000000000003 for 2.5).
    for call in (lambda: penalty_bound_dominance(n, 30, 0.9), lambda: make_params(n=n)):
        with pytest.raises(ValueError, match="n must be an integer"):
            call()


def test_game_params_validation():
    with pytest.raises(ValueError):
        make_params(reward=1.0, cost=1.0)  # reward must exceed cost
    with pytest.raises(ValueError):
        make_params(cost=0.0)
    with pytest.raises(ValueError):
        make_params(p=1.5)
    with pytest.raises(ValueError):
        make_params(penalty=-1.0)
    with pytest.raises(ValueError):
        make_params(n=0)
    with pytest.raises(ValueError):
        make_params(j=0)
    # A NaN reward used to build and give NaN requester payoffs, and an
    # infinite cost was rejected as "reward must exceed cost".
    for key in ("reward", "cost"):
        for bad in (math.nan, math.inf, -math.inf, 10**400):  # 10**400: an OverflowError
            with pytest.raises(ValueError, match=f"{key} must be a finite number"):
                make_params(**{key: bad})
    # A bool was taken as 1, and a string or None raised a bare TypeError.
    cases = [(dict(reward=10.0, cost=True), "cost"), (dict(reward=True, cost=0.5), "reward"),
             (dict(reward="5"), "reward"), (dict(cost="0.5"), "cost"), (dict(cost=None), "cost")]
    for overrides, key in cases:
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            make_params(**overrides)


# --- properties ---


def test_descending_bound_algebraic_forms_agree():
    rng = random.Random(20260808)
    for _ in range(1000):
        j = rng.randint(1, 1000)
        p = rng.uniform(0.0, 0.999)
        ours = (j + p - 1) / (1 - p)
        other = (1 - j - p) / (p - 1)
        assert ours == pytest.approx(other, rel=1e-9, abs=1e-12)
        assert penalty_bound_descending(j, p) == pytest.approx(ours, rel=1e-12)


def test_liar_payoff_zero_at_descending_bound():
    rng = random.Random(77)
    for _ in range(300):
        j = rng.randint(1, 1000)
        p = rng.uniform(0.0, 0.999)
        bound = penalty_bound_descending(j, p)
        assert abs(expected_liar_payoff(p, bound, j)) <= 1e-12


def test_liar_round_payoff_strictly_decreasing_in_penalty():
    rng = random.Random(5)
    for _ in range(200):
        j = rng.randint(1, 500)
        k = rng.uniform(0, 1000)
        assert liar_round_payoff(k + rng.uniform(0.01, 50), j) < liar_round_payoff(k, j)


def test_descending_bound_increasing_in_j_and_p():
    rng = random.Random(6)
    for _ in range(200):
        j = rng.randint(1, 500)
        p = rng.uniform(0.0, 0.99)
        assert penalty_bound_descending(j + 1, p) > penalty_bound_descending(j, p)
        assert penalty_bound_descending(j, p + 0.005) > penalty_bound_descending(j, p)


def test_escape_probability_strictly_decreasing_in_streak():
    rng = random.Random(7)
    for _ in range(200):
        j = rng.randint(2, 500)
        p = rng.uniform(0.0, 0.999)
        streak = rng.randint(0, 400)
        assert escape_probability(j, p, streak + 1) < escape_probability(j, p, streak)


def test_dominance_monotone_in_penalty():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 1000)
        j = rng.randint(1, 1000)
        p = rng.uniform(0.0, 0.99)
        k0 = max(0.0, penalty_bound_dominance(n, j, p))
        params = make_params(n=n, j=j, p=p, penalty=k0 + 1.0)
        stronger = make_params(n=n, j=j, p=p, penalty=k0 + 10.0)
        if lying_is_dominated(params):
            assert lying_is_dominated(stronger)


def test_dominance_bound_never_exceeds_descending_bound():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(1, 1000)
        j = rng.randint(1, 1000)
        p = rng.uniform(0.0, 0.999)
        assert penalty_bound_dominance(n, j, p) <= penalty_bound_descending(j, p) + 1e-9


def test_penalty_above_descending_bound_dominates():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(1, 1000)
        j = rng.randint(1, 1000)
        p = rng.uniform(0.0, 0.99)
        penalty = penalty_bound_descending(j, p) + rng.uniform(0.1, 100)
        assert lying_is_dominated(make_params(n=n, j=j, p=p, penalty=penalty))


def test_dominance_implies_per_round_loss_to_truth():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 500)
        j = rng.randint(1, 500)
        p = rng.uniform(0.0, 0.99)
        penalty = rng.uniform(0.0, 2000.0)
        params = make_params(n=n, j=j, p=p, penalty=penalty)
        if lying_is_dominated(params):
            assert expected_liar_payoff(p, penalty, j) < 1.0 / n
