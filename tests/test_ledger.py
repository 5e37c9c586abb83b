import io
import math
import random

import pytest

from trustsim.ledger import (
    EventCsvSink,
    EventKind,
    LedgerConfig,
    TrustLedger,
    UnknownPeerError,
)


def make_ledger(penalty=299.0, threshold=50.0, floor=0.0, **kwargs):
    return TrustLedger(LedgerConfig(penalty=penalty, threshold=threshold, floor=floor), **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        LedgerConfig(penalty=0.0, threshold=1.0)
    with pytest.raises(ValueError):
        LedgerConfig(penalty=1.0, threshold=-1.0, floor=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for key in ("penalty", "threshold", "floor"):
            values = dict(penalty=1.0, threshold=1.0, floor=0.0)
            values[key] = bad
            with pytest.raises(ValueError, match=key):
                LedgerConfig(**values)


def test_credit_increments_by_one():
    ledger = make_ledger()
    ledger.register(1)
    assert ledger.credit(1) == 1.0
    for _ in range(9):
        ledger.credit(1)
    assert ledger.trust(1) == 10.0
    ledger.register(2, trust=4.0)
    assert ledger.credit(2) == 5.0


def test_penalize_clamps_at_floor():
    ledger = make_ledger()
    ledger.register(1, trust=5.0)
    assert ledger.penalize(1) == 0.0
    ledger.register(2, trust=350.0)
    assert ledger.penalize(2) == 51.0
    ledger.register(3)  # at the floor already
    assert ledger.penalize(3) == 0.0


def test_unknown_peer_errors():
    ledger = make_ledger()
    with pytest.raises(UnknownPeerError):
        ledger.credit(99)
    with pytest.raises(UnknownPeerError):
        ledger.penalize(99)
    with pytest.raises(UnknownPeerError):
        ledger.trust(99)
    with pytest.raises(UnknownPeerError):
        ledger.credit_many([99])


def test_register_twice_rejected():
    ledger = make_ledger()
    ledger.register(1)
    with pytest.raises(ValueError):
        ledger.register(1)
    with pytest.raises(ValueError):
        ledger.register(2, trust=-1.0)  # below floor


def test_credit_kind_cannot_be_penalty():
    ledger = make_ledger()
    ledger.register(1)
    with pytest.raises(ValueError):
        ledger.credit(1, kind=EventKind.PENALTY)
    with pytest.raises(ValueError):
        ledger.credit_many([1], kind=EventKind.PENALTY)


def test_floor_invariant_under_random_events():
    ledger = make_ledger(penalty=7.0, threshold=3.0, floor=0.0)
    peers = list(range(20))
    for pid in peers:
        ledger.register(pid)
    rng = random.Random(404)
    for _ in range(5000):
        pid = rng.choice(peers)
        if rng.random() < 0.3:
            ledger.penalize(pid)
        else:
            ledger.credit(pid)
        assert ledger.trust(pid) >= 0.0


def test_never_penalized_peer_is_monotone():
    ledger = make_ledger(penalty=5.0, threshold=0.0)
    ledger.register(1)
    ledger.register(2)
    rng = random.Random(17)
    last = ledger.trust(1)
    for _ in range(500):
        if rng.random() < 0.5:
            ledger.credit(1)
        else:
            ledger.penalize(2)
        assert ledger.trust(1) >= last
        last = ledger.trust(1)


def test_replay_reproduces_live_scores():
    events = []
    ledger = make_ledger(penalty=9.0, threshold=2.0, event_sink=events.append)
    peers = list(range(12))
    for pid in peers:
        ledger.register(pid)
    rng = random.Random(99)
    for round_index in range(3000):
        pid = rng.choice(peers)
        if rng.random() < 0.25:
            ledger.penalize(pid, round_index)
        else:
            ledger.credit(pid, round_index)
    replayed = TrustLedger.replay(events, ledger.config, peers)
    assert replayed == ledger.scores


def test_credits_commute():
    rng = random.Random(7)
    credits = [rng.choice(range(6)) for _ in range(300)]

    def apply(order):
        ledger = make_ledger(threshold=0.0)
        for pid in range(6):
            ledger.register(pid)
        for pid in order:
            ledger.credit(pid)
        return ledger.scores

    shuffled = credits[:]
    rng.shuffle(shuffled)
    assert apply(credits) == apply(shuffled)


def test_event_csv_format():
    buffer = io.StringIO()
    ledger = make_ledger(penalty=299.0, threshold=0.0, event_sink=EventCsvSink(buffer))
    ledger.register(7, trust=5.0)
    ledger.register(8)
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


def test_penalty_event_carries_penalty_in_force():
    events = []
    ledger = make_ledger(penalty=13.0, threshold=0.0, event_sink=events.append)
    ledger.register(1, trust=4.0)
    ledger.penalize(1, 0)
    event = events[-1]
    assert event.kind is EventKind.PENALTY
    assert event.penalty == 13.0
    assert event.delta == -4.0  # clamped at the floor
    assert event.new_value == 0.0
