import csv
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim.engine import SimConfig
from trustsim.ledger import (
    EVENT_CSV_HEADER,
    EventCsvSink,
    EventKind,
    TrustLedger,
    UnknownPeerError,
)

from helpers import flatten


def make_ledger(penalty=299.0, floor=0.0, peers=0, **kwargs):
    """A ledger with ``peers`` peers registered at the floor, on the
    smallest valid ``SimConfig`` with that penalty and floor."""
    config = SimConfig(
        good_founders=2, bad_founders=0, liar_founders=0, catalog_size=2, n=2, p=0.0,
        penalty=penalty, threshold=floor, total_cycles=1, rng_seed=0, floor=floor,
    )
    ledger = TrustLedger(config, **kwargs)
    ledger.register(peers)
    return ledger


def test_credit_increments_by_one():
    ledger = make_ledger(peers=2)
    assert ledger.credit(0) == 1.0
    for _ in range(9):
        ledger.credit(0)
    assert ledger.scores[0] == 10.0
    ledger.credit_many([1] * 4)
    assert ledger.credit(1) == 5.0


def test_penalize_clamps_at_floor():
    ledger = make_ledger(peers=3)
    ledger.credit_many([0] * 5 + [1] * 350)
    assert ledger.penalize(0) == 0.0
    assert ledger.penalize(1) == 51.0
    assert ledger.penalize(2) == 0.0  # at the floor already


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


@pytest.mark.parametrize("peer_ids", [[0, 1, 7], [2, 0, -1], [-5, 1, 3]])
@pytest.mark.parametrize("with_sink", [False, True])
def test_credit_many_with_a_bad_id_changes_nothing(peer_ids, with_sink):
    batches = []
    ledger = make_ledger(peers=3, event_sink=batches.append if with_sink else None)
    ledger.credit(2)
    batches.clear()
    with pytest.raises(UnknownPeerError):
        ledger.credit_many(peer_ids)
    with pytest.raises(UnknownPeerError):
        ledger.credit_many(iter(peer_ids))
    ledger.credit_many([])  # no ids: no change and no batch
    assert ledger.scores == [0.0, 0.0, 1.0]
    assert batches == []


def test_register_appends_the_next_id():
    ledger = make_ledger(floor=-2.5)
    for peers in (1, 2, 3):
        ledger.register(peers)
        assert len(ledger.scores) == peers  # the next id, and no other
    assert ledger.scores == [-2.5, -2.5, -2.5]  # every peer starts at the floor


def test_register_scores_ids_below_the_peer_count_at_the_floor():
    ledger = make_ledger(floor=-2.5, peers=2)
    ledger.credit_many([0, 1, 1])
    ledger.register(5)
    assert ledger.scores == [-1.5, -0.5, -2.5, -2.5, -2.5]
    for peers in (5, 3, 0, -1):  # as many or fewer: no change
        ledger.register(peers)
        assert ledger.scores == [-1.5, -0.5, -2.5, -2.5, -2.5]
    with pytest.raises(UnknownPeerError):
        ledger.credit_many([5])
    with pytest.raises(UnknownPeerError):
        ledger.penalize(5)
    ledger.penalize(4)  # the last id registered
    assert ledger.scores[4] == -2.5


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
    batches = []
    ledger = make_ledger(penalty=9.0, peers=12, event_sink=batches.append)
    peers = list(range(12))
    rng = random.Random(99)
    for round_index in range(3000):
        pid = rng.choice(peers)
        if rng.random() < 0.25:
            ledger.penalize(pid, round_index)
        else:
            ledger.credit(pid, round_index)
    replayed = TrustLedger.replay(batches, ledger.config, len(peers))
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
    batches = []
    ledger = make_ledger(penalty=penalty, floor=floor, peers=founders, event_sink=batches.append)
    peers = founders
    for round_index, (name, *args) in enumerate(calls):
        if name == "register":
            ledger.register(peers + 1)
            peers += 1
            assert len(ledger.scores) == peers and ledger.scores[-1] == floor
        elif name == "credit":
            ledger.credit(args[0] % peers, round_index, args[1])
        elif name == "credit_many":
            ledger.credit_many([pid % peers for pid in args[0]], round_index, args[1])
        else:
            ledger.penalize(args[0] % peers, round_index)
    replayed = TrustLedger.replay(batches, ledger.config, peers)
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
    ledger = make_ledger(penalty=299.0, peers=9, event_sink=EventCsvSink(buffer))
    ledger.credit_many([7] * 6, round_index=0)
    ledger.credit(7, round_index=1, kind=EventKind.SELECTED_TRUTHFUL_CREDIT)
    ledger.credit_many([8, 7], round_index=2)
    ledger.penalize(7, round_index=3)
    assert buffer.getvalue().splitlines() == [
        "round,peer_id,kind,delta,new_value",
        *(f"0,7,volunteer_credit,1.000000,{score}.000000" for score in range(1, 7)),
        "1,7,selected_truthful_credit,1.000000,7.000000",
        "2,8,volunteer_credit,1.000000,1.000000",
        "2,7,volunteer_credit,1.000000,8.000000",
        "3,7,penalty,-8.000000,0.000000",
    ]


def csv_writer_trace(batches) -> str:
    """The trace of ``batches`` as ``csv.writer`` writes it: the reference
    for ``EventCsvSink``'s own formatting."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(EVENT_CSV_HEADER.split(","))
    for e in flatten(batches):
        writer.writerow(
            [e.round_index, e.peer_id, e.kind.value, f"{e.delta:.6f}", f"{e.new_value:.6f}"]
        )
    return out.getvalue()


def traced_ledger(penalty, floor, peers):
    """A ledger of ``peers`` peers whose sink both keeps the batches and
    writes them through an ``EventCsvSink`` to a ``StringIO``; returns
    (ledger, batches, buffer)."""
    batches, buffer = [], io.StringIO()
    csv_sink = EventCsvSink(buffer)

    def sink(batch):
        batches.append(batch)
        csv_sink(batch)

    return make_ledger(penalty=penalty, floor=floor, peers=peers, event_sink=sink), batches, buffer


# Non-integer penalties and floors, negative floors, and scores near 1e15
# (from a floor near 1e15).
TRACE_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("credit"), st.integers(0, 40), CREDIT_KINDS),
        st.tuples(st.just("credit_many"), st.lists(st.integers(0, 40), max_size=8), CREDIT_KINDS),
        st.tuples(st.just("penalize"), st.integers(0, 40)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    penalty=st.one_of(st.floats(1e-6, 50.0), st.floats(1e12, 1e15)),
    floor=st.one_of(st.just(-0.0), st.floats(-1e6, 1e6), st.floats(1e14, 1e15)),
    peers=st.integers(1, 6),
    calls=TRACE_CALLS,
    first_round=st.integers(0, 2**40),
)
@example(penalty=0.3, floor=-2.5, peers=2, first_round=0,
         calls=[("credit_many", [0, 1, 0], EventKind.VOLUNTEER_CREDIT), ("penalize", 1),
                ("penalize", 1), ("credit", 1, EventKind.SELECTED_TRUTHFUL_CREDIT)])
@example(penalty=0.3, floor=1e15 - 0.3, peers=2, first_round=0,
         calls=[("credit_many", [0, 1, 0], EventKind.VOLUNTEER_CREDIT), ("penalize", 1),
                ("penalize", 0), ("credit", 1, EventKind.SELECTED_TRUTHFUL_CREDIT)])
# Both zeros, each after the other: a penalty clamped at the floor -0.0
# gives -0.0, and one that lands exactly on 0.0 gives 0.0.
@example(penalty=1.0, floor=-0.0, peers=1, first_round=0,
         calls=[("penalize", 0), ("credit", 0, EventKind.VOLUNTEER_CREDIT),
                ("penalize", 0), ("penalize", 0)])
# More distinct scores than the sink's text cache keeps (4,096), so it is
# cleared once, and rows after the clear repeat scores seen before it.
@example(penalty=4000.0, floor=-2.25, peers=1, first_round=0,
         calls=[("credit_many", [0] * 4100, EventKind.VOLUNTEER_CREDIT), ("penalize", 0),
                ("credit_many", [0] * 3, EventKind.VOLUNTEER_CREDIT)])
def test_event_csv_sink_writes_what_csv_writer_writes(penalty, floor, peers, calls, first_round):
    ledger, batches, buffer = traced_ledger(penalty, floor, peers)
    for round_index, (name, *args) in enumerate(calls, first_round):
        if name == "credit":
            ledger.credit(args[0] % peers, round_index, args[1])
        elif name == "credit_many":
            ledger.credit_many([pid % peers for pid in args[0]], round_index, args[1])
        else:
            ledger.penalize(args[0] % peers, round_index)
    assert buffer.getvalue() == csv_writer_trace(batches)


def test_event_csv_sink_holds_nothing_back():
    ledger, batches, buffer = traced_ledger(penalty=2.5, floor=-1.0, peers=6)
    rng = random.Random(8)
    for round_index in range(300):
        roll = rng.random()
        if roll < 0.3:
            ledger.penalize(rng.randrange(6), round_index)
        elif roll < 0.6:
            ledger.credit(rng.randrange(6), round_index)
        else:
            ledger.credit_many(rng.sample(range(6), rng.randrange(7)), round_index)
        assert buffer.getvalue() == csv_writer_trace(batches)
    assert len(buffer.getvalue().splitlines()) == 1 + len(flatten(batches))
