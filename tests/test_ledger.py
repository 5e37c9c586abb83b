import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim.ledger import (
    EventCsvSink,
    EventKind,
    LedgerConfig,
    TrustLedger,
    UnknownPeerError,
)


def make_ledger(penalty=299.0, floor=0.0, peers=0, **kwargs):
    """A ledger with ``peers`` peers registered at the floor."""
    ledger = TrustLedger(LedgerConfig(penalty=penalty, floor=floor), **kwargs)
    for _ in range(peers):
        ledger.register()
    return ledger


def test_config_validation():
    with pytest.raises(ValueError):
        LedgerConfig(penalty=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for key in ("penalty", "floor"):
            values = dict(penalty=1.0, floor=0.0)
            values[key] = bad
            with pytest.raises(ValueError, match=key):
                LedgerConfig(**values)


def test_credit_increments_by_one():
    ledger = make_ledger(peers=1)
    assert ledger.credit(0) == 1.0
    for _ in range(9):
        ledger.credit(0)
    assert ledger.scores[0] == 10.0
    ledger.register(trust=4.0)
    assert ledger.credit(1) == 5.0


def test_penalize_clamps_at_floor():
    ledger = make_ledger()
    ledger.register(trust=5.0)
    assert ledger.penalize(0) == 0.0
    ledger.register(trust=350.0)
    assert ledger.penalize(1) == 51.0
    ledger.register()  # at the floor already
    assert ledger.penalize(2) == 0.0


def test_unknown_peer_errors():
    ledger = make_ledger(peers=2)
    # -1 would index the last peer of a plain list; 2 is one past the end.
    for pid in (-1, 2, 99):
        with pytest.raises(UnknownPeerError):
            ledger.credit(pid)
        with pytest.raises(UnknownPeerError):
            ledger.penalize(pid)
        with pytest.raises(UnknownPeerError):
            ledger.credit_many([pid])
    assert ledger.scores == [0.0, 0.0]


def test_register_appends_the_next_id():
    ledger = make_ledger()
    assert [ledger.register() for _ in range(3)] == [0, 1, 2]
    assert ledger.register(trust=7.0) == 3
    assert ledger.scores == [0.0, 0.0, 0.0, 7.0]
    with pytest.raises(TypeError):
        ledger.register(1)  # an id, or a positional trust, is not accepted
    with pytest.raises(ValueError):
        ledger.register(trust=-1.0)  # below floor
    assert ledger.scores == [0.0, 0.0, 0.0, 7.0]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_register_rejects_non_finite_trust(value):
    ledger = make_ledger()
    with pytest.raises(ValueError, match="finite"):
        ledger.register(trust=value)
    assert ledger.scores == []


def test_credit_kind_cannot_be_penalty():
    ledger = make_ledger(peers=1)
    with pytest.raises(ValueError):
        ledger.credit(0, kind=EventKind.PENALTY)
    with pytest.raises(ValueError):
        ledger.credit_many([0], kind=EventKind.PENALTY)


def test_floor_invariant_under_random_events():
    ledger = make_ledger(penalty=7.0, floor=0.0, peers=20)
    peers = list(range(20))
    rng = random.Random(404)
    for _ in range(5000):
        pid = rng.choice(peers)
        if rng.random() < 0.3:
            ledger.penalize(pid)
        else:
            ledger.credit(pid)
        assert ledger.scores[pid] >= 0.0


def test_never_penalized_peer_is_monotone():
    ledger = make_ledger(penalty=5.0, peers=2)
    rng = random.Random(17)
    last = ledger.scores[0]
    for _ in range(500):
        if rng.random() < 0.5:
            ledger.credit(0)
        else:
            ledger.penalize(1)
        assert ledger.scores[0] >= last
        last = ledger.scores[0]


def test_replay_reproduces_live_scores():
    events = []
    ledger = make_ledger(penalty=9.0, peers=12, event_sink=events.append)
    peers = list(range(12))
    rng = random.Random(99)
    for round_index in range(3000):
        pid = rng.choice(peers)
        if rng.random() < 0.25:
            ledger.penalize(pid, round_index)
        else:
            ledger.credit(pid, round_index)
    replayed = TrustLedger.replay(events, ledger.config, len(peers))
    assert replayed == ledger.scores


CREDIT_KINDS = st.sampled_from([EventKind.VOLUNTEER_CREDIT, EventKind.SELECTED_TRUTHFUL_CREDIT])
# Ledger calls; peer numbers are taken modulo the peers registered so far.
LEDGER_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("register")),
        st.tuples(st.just("credit"), st.integers(0, 40), CREDIT_KINDS),
        st.tuples(st.just("credit_many"), st.lists(st.integers(0, 40), max_size=6), CREDIT_KINDS),
        st.tuples(st.just("penalize"), st.integers(0, 40)),
    ),
    max_size=150,
)


@settings(max_examples=300, deadline=None)
@given(
    penalty=st.floats(0.25, 20.0),
    floor=st.floats(-5.0, 5.0),
    founders=st.integers(1, 5),
    calls=LEDGER_CALLS,
)
@example(  # a penalty clamped at the floor, and a peer registered mid-run
    penalty=10.0, floor=0.0, founders=1,
    calls=[("credit", 0, EventKind.VOLUNTEER_CREDIT), ("register",),
           ("credit_many", [0, 1, 1], EventKind.VOLUNTEER_CREDIT), ("penalize", 0)],
)
def test_replay_of_recorded_events_reproduces_live_scores(penalty, floor, founders, calls):
    events = []
    ledger = make_ledger(penalty=penalty, floor=floor, peers=founders, event_sink=events.append)
    peers = founders
    for round_index, (name, *args) in enumerate(calls):
        if name == "register":
            assert ledger.register() == peers
            peers += 1
        elif name == "credit":
            ledger.credit(args[0] % peers, round_index, args[1])
        elif name == "credit_many":
            ledger.credit_many([pid % peers for pid in args[0]], round_index, args[1])
        else:
            ledger.penalize(args[0] % peers, round_index)
    replayed = TrustLedger.replay(events, ledger.config, peers)
    assert isinstance(replayed, list) and replayed == ledger.scores


def test_credits_commute():
    rng = random.Random(7)
    credits = [rng.choice(range(6)) for _ in range(300)]

    def apply(order):
        ledger = make_ledger(peers=6)
        for pid in order:
            ledger.credit(pid)
        return ledger.scores

    shuffled = credits[:]
    rng.shuffle(shuffled)
    assert apply(credits) == apply(shuffled)


def test_event_csv_format():
    buffer = io.StringIO()
    ledger = make_ledger(penalty=299.0, peers=7, event_sink=EventCsvSink(buffer))
    ledger.register(trust=5.0)
    ledger.register()
    ledger.credit(7, round_index=0)
    ledger.credit(7, round_index=1, kind=EventKind.SELECTED_TRUTHFUL_CREDIT)
    ledger.credit_many([8, 7], round_index=2)
    ledger.penalize(7, round_index=3)
    assert buffer.getvalue().splitlines() == [
        "round,peer_id,kind,delta,new_value",
        "0,7,volunteer_credit,1.000000,6.000000",
        "1,7,selected_truthful_credit,1.000000,7.000000",
        "2,8,volunteer_credit,1.000000,1.000000",
        "2,7,volunteer_credit,1.000000,8.000000",
        "3,7,penalty,-8.000000,0.000000",
    ]
