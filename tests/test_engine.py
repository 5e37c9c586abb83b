import dataclasses
import math
import random
import tracemalloc
from array import array
from collections.abc import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim import engine, rng
from trustsim.engine import (
    Behavior,
    ConfigError,
    Gate,
    Injection,
    MetricsRow,
    MetricsSeries,
    Outcome,
    RoundRecord,
    SchemaError,
    SimConfig,
    Simulation,
    build_population,
    calibrated_reach,
    parse_injections,
    run_simulation,
    select_server,
)
from trustsim.game import Selection
from trustsim.ledger import EventKind, TrustLedger
from trustsim.rng import (
    BLOCK_GROUP,
    BLOCK_WIDTH,
    TAIL_BLOCK,
    Stream,
    _mix_lanes,
    draw_hypergeom,
    hypergeom_cdf,
)

from helpers import (ListStream, flatten, holdings_of, play_round, randbelow, scalar_holdings,
                     u64s, uniform, word_blocks)


def small_config(**overrides):
    base = dict(
        good_founders=8,
        bad_founders=2,
        liar_founders=2,
        catalog_size=24,
        n=4,
        p=0.9,
        penalty=30.0,
        threshold=0.0,
        total_cycles=5,
        rng_seed=7,
        reach=6,
        queries_per_cycle=10,
    )
    base.update(overrides)
    return SimConfig(**base)


def set_holdings(sim: Simulation, assignment: dict[int, set[int]]) -> None:
    """White-box: pin exact holdings, as the sorted slice ``add_peer``
    writes, and rebuild the holder index."""
    population = sim.population
    size = population.holdings_size
    for pid, files in assignment.items():
        assert len(files) == size
        population.holdings[pid * size:(pid + 1) * size] = array(
            engine.HOLDINGS_TYPECODE, sorted(files))
    population.holders_by_file = [
        array(engine.HOLDINGS_TYPECODE) for _ in range(population.config.catalog_size)]
    for pid in range(population.size):
        if population.behaviors[pid].truthful:
            for file_id in holdings_of(population, pid):
                population.holders_by_file[file_id].append(pid)


# --- configuration ---


def test_config_validation_names_offending_key():
    cases = [
        (dict(reach=12), "reach"),  # population is 12, max sampleable is 11
        (dict(reach=0), "reach"),
        (dict(catalog_size=3), "catalog_size"),
        (dict(catalog_size=0), "catalog_size"),
        (dict(n=1, catalog_size=24), "n"),
        (dict(n=0), "n"),
        (dict(p=1.5), "p"),
        (dict(penalty=0.0), "penalty"),
        (dict(threshold=-1.0), "threshold"),
        (dict(total_cycles=0), "total_cycles"),
        (dict(queries_per_cycle=0), "queries_per_cycle"),
        (dict(good_founders=-1), "good_founders"),
        (dict(good_founders=1, bad_founders=0, liar_founders=0), "good_founders"),
        (dict(newcomers=(Injection(-1, 5, Behavior.GOOD_SERVER),)), "newcomers"),
        (dict(newcomers=(Injection(1, 0, Behavior.GOOD_SERVER),)), "newcomers"),
        (dict(rng_seed=-1), "rng_seed"),  # would alias seed 2**64 - 1
        (dict(rng_seed=2**64), "rng_seed"),  # would alias seed 0
        # Every draw below n needs n < 2**32 (the rng module docstring).
        (dict(catalog_size=2**32), "catalog_size"),
        (dict(good_founders=2**32 - 4), "good_founders"),  # 2**32 founders
        (dict(newcomers=(Injection(1, 2**32 - 12, Behavior.GOOD_SERVER),)), "newcomers"),
        (dict(newcomers=(Injection(1, 2**31, Behavior.GOOD_SERVER),
                         Injection(2, 2**31, Behavior.LIAR))), "newcomers"),
        # Each count must be an int, and a bool is not one, nor a number.
        (dict(good_founders=40.5), "good_founders"),  # resolved reach to 49.5
        (dict(n=10.5), "n"),
        (dict(rng_seed=1.5), "rng_seed"),
        (dict(p=True), "p"),
        (dict(total_cycles=2.5), "total_cycles"),  # failed deep in the run
        (dict(queries_per_cycle=2.5), "queries_per_cycle"),
        (dict(reach=2.5), "reach"),
        (dict(newcomers=(Injection(1, 2.5, Behavior.GOOD_SERVER),)), "newcomers"),
        (dict(newcomers=(Injection(1, 2, "good"),)), "newcomers"),  # an AttributeError
        (dict(newcomers=[Injection(1, 2, Behavior.GOOD_SERVER)]), "newcomers"),  # unhashable
        (dict(newcomers=((1, 2, Behavior.GOOD_SERVER),)), "newcomers"),  # an AttributeError
        (dict(newcomers=(None,)), "newcomers"),
        # A +1 credit must change every score: 1e16 + 1.0 == 1e16 froze every
        # curve at the floor, and -1.7e308 overflowed the metrics' fsum.
        (dict(floor=-1e17), "floor"),
        (dict(floor=1e16, threshold=1e16), "floor"),
        (dict(floor=-1.7e308), "floor"),
        (dict(floor=-2.0**52), "floor"),
        (dict(floor=2**52, threshold=2**52), "floor"),
    ]
    # Every key by its annotation, so a new key is covered with no edit here.
    kinds = {f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(SimConfig)}
    reals = [key for key, kind in kinds.items() if kind == "float"]
    assert {"penalty", "floor"} <= set(reals)
    cases += [({key: bad}, key) for key in reals
              for bad in (math.nan, math.inf, -math.inf, True, "5", 10**400)]
    cases += [({key: bad}, key) for key, kind in kinds.items() if kind == "int"
              for bad in (2.5, True)]
    for overrides, key in cases:
        with pytest.raises(ConfigError) as err:
            small_config(**overrides)
        assert err.value.key == key, overrides
    small_config(floor=1 - 2**52)  # the floor of largest magnitude


def test_schedule_is_bounded_by_2_64_rounds():
    """Round streams are indexed modulo 2**64, so a longer schedule would
    repeat them."""
    small_config(total_cycles=2**63, queries_per_cycle=2)  # exactly 2**64 rounds
    with pytest.raises(ConfigError) as err:
        small_config(total_cycles=2**63 + 1, queries_per_cycle=2)
    assert err.value.key == "total_cycles"


def test_config_just_below_the_draw_range_validates():
    # Validation builds no peer, so these are cheap to check; a run of them
    # would still exceed memory.
    small_config(catalog_size=2**32 - 1)
    small_config(good_founders=2**32 - 5)
    small_config(newcomers=(Injection(1, 2**32 - 13, Behavior.LIAR),))


def test_config_defaults_resolve():
    resolved = small_config(
        good_founders=1400, bad_founders=300, liar_founders=300,
        catalog_size=1000, n=100, reach=None, queries_per_cycle=None,
    )
    assert resolved.queries_per_cycle == 200  # population // 10
    assert resolved.reach == calibrated_reach(1400, 300, 300, 100)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(resolved, p=1.5)  # a copy checks itself too
    assert err.value.key == "p"


def test_calibrated_reach_formula():
    # volunteer rate per sampled peer: liars always, truthful peers 1/n
    assert calibrated_reach(1400, 300, 300, 100) == 189
    assert calibrated_reach(0, 0, 100, 10) == 30
    with pytest.raises(ConfigError):
        calibrated_reach(1, 0, 0, 10)
    # n = 10**400 met the guard on a rate of 0; 10**308 overflowed the reach.
    for n in (0, -1, 2**32, 10**308, 10**400):
        with pytest.raises(ConfigError) as err:
            calibrated_reach(2, 0, 0, n)
        assert err.value.key == "n"
    assert calibrated_reach(2, 0, 0, 2**32 - 1) == 1
    # These returned 3 and 1.
    for counts, key in (((-1, 0, 5), "good_founders"), ((5, -3, 0), "bad_founders"),
                        ((3, 0, -1), "liar_founders")):
        with pytest.raises(ConfigError) as err:
            calibrated_reach(*counts, 10)
        assert err.value.key == key
    # These returned the float 1.5 and 1, and raised OverflowError.
    for counts, key in (((2.5, 0, 0), "good_founders"), ((True, True, 0), "good_founders"),
                        ((5, False, 1), "bad_founders"), ((3, 0, 2.0), "liar_founders"),
                        ((10**400, 0, 0), "good_founders")):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            calibrated_reach(*counts, 10)
    for counts in ((2**32, 0, 0), (2**31, 2**31, 0), (2**32 - 2, 1, 1), (0, 0, 2**40)):
        with pytest.raises(ConfigError) as err:
            calibrated_reach(*counts, 10)
        assert err.value.key == "good_founders"
    assert calibrated_reach(2**32 - 3, 1, 1, 1) == 30


def test_parse_injections():
    items = parse_injections("300:100:good, 500:5:liar")
    assert items == (
        Injection(300, 100, Behavior.GOOD_SERVER),
        Injection(500, 5, Behavior.LIAR),
    )
    assert parse_injections("300:100:good,") == items[:1]  # an empty entry is skipped
    with pytest.raises(ValueError):
        parse_injections("300:100")
    with pytest.raises(ValueError):
        parse_injections("300:100:unknown")


# --- population ---


def test_population_holdings_sizes():
    population = build_population(small_config(catalog_size=1000, n=100))
    assert population.holdings_size == 10 and len(population.holdings) == 10 * 12
    population = build_population(small_config(catalog_size=24, n=24, reach=6))
    assert population.holdings_size == 1 and len(population.holdings) == 12


def test_population_deterministic_in_seed():
    cfg = small_config()
    assert build_population(cfg).holdings == build_population(cfg).holdings
    other = build_population(small_config(rng_seed=8))
    assert other.holdings != build_population(cfg).holdings


# Peer counts around the lane pass's group of BLOCK_GROUP (16) streams.
PEER_BLOCKS = [0, 1, 15, 16, 17, 33]


@st.composite
def holdings_cases(draw):
    """Holdings sizes from 1 to past ``BLOCK_WIDTH`` (the first block is
    capped there), on both sides of a lane width (16 and 17); a catalog
    from one file above the size (many repeated draws, so several tail
    blocks) to ten times it; founder blocks and injections on both sides of
    a group of 16; seeds at both ends of the range; newcomers of each
    behavior.  A config gives a catalog of at least twice the size (n >=
    2), so the test sets the size itself."""
    size = draw(st.sampled_from([1, 10, 16, 17, 64, 65, 100]))
    catalog = size + draw(st.one_of(st.integers(1, 3), st.integers(1, 9 * size)))
    good, bad, liars = (draw(st.sampled_from(PEER_BLOCKS)) for _ in range(3))
    newcomers = tuple(
        Injection(cycle, draw(st.sampled_from([1, 2, 16, 17])), draw(st.sampled_from(Behavior)))
        for cycle in range(draw(st.integers(0, 2)))
    )
    if good + bad + liars < 2:
        good += 2
    seed = draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    return size, holdings_config(good, bad, liars, catalog, seed, newcomers)


def holdings_config(good, bad, liars, catalog, seed, newcomers=()):
    return small_config(good_founders=good, bad_founders=bad, liar_founders=liars,
                        catalog_size=catalog, n=2, reach=1, rng_seed=seed, newcomers=newcomers)


def _joining(*counts):
    """Injections of ``counts`` newcomers, one per cycle, of rotating behaviors."""
    behaviors = list(Behavior)
    return tuple(Injection(cycle, count, behaviors[cycle % 3]) for cycle, count in enumerate(counts))


@settings(max_examples=80, deadline=None)
@given(holdings_cases())
# Every founder block of 15, 16, 17 and 33, injections of 1, 16 and 17, and
# each holdings size with a catalog one file above it, so repeats take the tail.
@example((1, holdings_config(15, 16, 17, 2, 0, _joining(1, 16, 17))))
@example((10, holdings_config(33, 16, 15, 11, 2**64 - 1, _joining(17, 1, 16))))
@example((64, holdings_config(17, 33, 1, 65, 5, _joining(16, 17, 1))))
@example((65, holdings_config(16, 15, 33, 66, 6, _joining(1, 17, 16))))
@example((100, holdings_config(33, 17, 0, 101, 7, _joining(16, 1, 17))))
def test_holdings_equal_scalar_reference(case):
    """Founders and the newcomers ``draw_cycle`` adds hold what one scalar
    draw at a time from each peer's own stream gives, as ``holdings_size``
    strictly increasing 4-byte file ids (``draw_round`` bisects them) in
    the peer's slice of ``holdings``, and ``holders_by_file`` indexes the
    truthful ones in id order.  A catalog one file above the size draws
    past the first block of some peer."""
    size, config = case
    blocks = rng.byte_blocks
    tails = []

    def counting_blocks(state, width):
        for block in blocks(state, width):
            tails.append(width)
            yield block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "holdings_size", lambda catalog, n: size)
        patch.setattr(rng, "byte_blocks", counting_blocks)
        population = build_population(config)
        population.draw_cycle(len(config.newcomers))  # adds every newcomer
    assert population.size == config.founder_population + sum(i.count for i in config.newcomers)
    expected = [
        scalar_holdings(config.rng_seed, pid, size, config.catalog_size)
        for pid in range(population.size)
    ]
    assert population.holdings.itemsize == 4
    assert len(population.holdings) == size * population.size
    assert [list(holdings_of(population, pid)) for pid in range(population.size)] == [
        sorted(f) for f in expected]
    for pid in range(population.size):
        files = holdings_of(population, pid)
        assert all(a < b for a, b in zip(files, files[1:]))
    assert set(tails) <= {size}
    if config.catalog_size == size + 1 and size > 1:
        assert tails
    holders = [[] for _ in range(config.catalog_size)]
    for pid, files in enumerate(expected):
        if population.behaviors[pid].truthful:
            for file_id in files:
                holders[file_id].append(pid)
    assert [list(ids) for ids in population.holders_by_file] == holders


def test_add_peer_is_called_once_per_peer(monkeypatch):
    """perfbench's tracer wraps ``Population.add_peer``, taken from the
    class dict, and counts its calls as the peers added: it must be called
    once per founder and once per newcomer, in id order."""
    add_peer = vars(engine.Population)["add_peer"]
    added = []

    def counting(population, behavior, draws):
        added.append(behavior)
        return add_peer(population, behavior, draws)

    monkeypatch.setattr(engine.Population, "add_peer", counting)
    sim = Simulation(small_config(newcomers=_joining(17, 1, 16)))
    assert added == sim.population.behaviors and len(added) == 12
    for cycle in range(sim.config.total_cycles):
        sim.run_cycle(cycle)
    assert added == sim.population.behaviors and len(added) == 12 + 34


def test_population_indexes_are_consistent():
    population = build_population(small_config())
    assert len(population.liar_pool) == 2
    for pid in population.liar_pool:
        assert population.behaviors[pid] is Behavior.LIAR
    for file_id, holders in enumerate(population.holders_by_file):
        for pid in holders:
            assert population.behaviors[pid].truthful
            assert file_id in holdings_of(population, pid)
    # every truthful holding is indexed
    for pid in range(population.size):
        if population.behaviors[pid].truthful:
            for file_id in holdings_of(population, pid):
                assert pid in population.holders_by_file[file_id]


def test_build_population_bytes_per_peer():
    """Memory guard: building the desk founders traces at most 200 B per
    peer (about 150: 4 B per file in the flat holdings array, 4 B per
    truthful holding in ``holders_by_file``, the id lists); an array per
    peer took about 230, and per-peer hash sets of int objects about
    1,090."""
    config = small_config(good_founders=1400, bad_founders=300, liar_founders=300,
                          catalog_size=1000, n=100, reach=189, rng_seed=1)
    tracemalloc.start()
    try:
        population = build_population(config)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert population.size == 2000
    assert traced / population.size <= 200
    holdings = population.holdings
    assert type(holdings) is array and holdings.itemsize == 4
    assert len(holdings) == population.size * population.holdings_size
    assert all(ids.itemsize == 4 for ids in population.holders_by_file)


# --- server selection ---


def test_select_server_by_trust_takes_argmax():
    scores = [0.0, 5.0, 2.0, 9.0]
    for seed in range(20):
        pid, mode = select_server([1, 2, 3], scores, 1.0, *u64s(Stream.from_path(seed), 2))
        assert (pid, mode) == (3, Selection.BY_TRUST)


def test_select_server_tie_break_uniform_over_seeds():
    scores = [0.0, 7.0, 7.0]
    picks = []
    for seed in range(2000):
        pid, _ = select_server([1, 2], scores, 1.0, *u64s(Stream.from_path(seed, "tie"), 2))
        repeat, _ = select_server([1, 2], scores, 1.0, *u64s(Stream.from_path(seed, "tie"), 2))
        assert pid == repeat  # deterministic per seed
        picks.append(pid)
    ones = picks.count(1)
    sigma = math.sqrt(2000 * 0.25)
    assert abs(ones - 1000) < 4 * sigma


def test_select_server_random_is_uniform():
    scores = [0.0, 50.0, 0.0, 3.0]
    stream = Stream.from_path(13, "uniform")
    counts = {1: 0, 2: 0, 3: 0}
    trials = 30_000
    for _ in range(trials):
        pid, mode = select_server([1, 2, 3], scores, 0.0, *u64s(stream, 2))
        assert mode is Selection.RANDOM
        counts[pid] += 1
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    for count in counts.values():
        assert abs(count - trials / 3) < 4 * sigma


def test_select_server_rejects_empty():
    with pytest.raises(ValueError):
        select_server([], [], 0.5, 0, 0)


def test_select_server_invariant_under_increasing_transform():
    raw = [0.0, 1.0, 3.0, 3.0, 0.5]
    transformed = [math.exp(value) for value in raw]
    for seed in range(200):
        draws = u64s(Stream.from_path(seed, "mono"), 2)
        a, _ = select_server([1, 2, 3, 4], raw, 1.0, *draws)
        b, _ = select_server([1, 2, 3, 4], transformed, 1.0, *draws)
        assert a == b


# --- single rounds ---


def three_peer_sim(threshold=0.0, p=0.0, penalty=299.0, **overrides):
    """Requester 0 (good), volunteer 1 (good, holds file 1), volunteer 2 (liar)."""
    cfg = small_config(
        good_founders=2, bad_founders=0, liar_founders=1,
        catalog_size=2, n=2, p=p, penalty=penalty, threshold=threshold, reach=2,
        **overrides,
    )
    sim = Simulation(cfg)
    set_holdings(sim, {0: {0}, 1: {1}, 2: {0}})
    return sim


def test_round_with_good_and_liar_forced_random_penalizes_liar():
    liar, good = 2, 1
    for seed in range(100):
        sim = three_peer_sim(rng_seed=seed)
        for _ in range(3):
            sim.ledger.credit(liar)
        record = play_round(sim, 0, 0)
        assert record.gate is Gate.SERVED
        assert record.mode is Selection.RANDOM
        assert set(record.volunteer_ids) == {good, liar}
        if record.selected_id == liar:
            break
    else:
        pytest.fail("no seed in range selected the liar")
    assert record.outcome is Outcome.FAILURE
    assert record.penalty_delta == -3.0  # clamped: trust was 3, penalty 299
    assert sim.ledger.scores[liar] == 0.0
    assert sim.ledger.scores[good] == 1.0
    assert sim.ledger.scores[0] == 0.0  # requester trust untouched


def test_round_all_good_volunteers_credits_everyone():
    cfg = small_config(good_founders=4, bad_founders=0, liar_founders=0,
                       catalog_size=4, n=2, p=0.9, reach=3)
    sim = Simulation(cfg)
    set_holdings(sim, {0: {0, 1}, 1: {2, 3}, 2: {2, 3}, 3: {2, 3}})
    record = play_round(sim, 0, 0)
    assert record.gate is Gate.SERVED
    assert record.outcome is Outcome.SUCCESS
    assert set(record.volunteer_ids) == {1, 2, 3}
    assert all(sim.ledger.scores[pid] == 1.0 for pid in (1, 2, 3))


def test_round_without_volunteers_changes_nothing():
    cfg = small_config(good_founders=2, bad_founders=0, liar_founders=0,
                       catalog_size=2, n=2, p=0.9, reach=1)
    sim = Simulation(cfg)
    set_holdings(sim, {0: {0}, 1: {0}})  # nobody holds file 1
    record = play_round(sim, 0, 0)
    assert record.gate is Gate.NO_VOLUNTEERS
    assert record.volunteer_ids == ()
    assert record.outcome is None and record.selected_id is None
    assert sim.ledger.scores[1] == 0.0


def test_round_below_threshold_is_reputation_only():
    sim = three_peer_sim(threshold=5.0)
    for _ in range(3):
        sim.ledger.credit(2)
    record = play_round(sim, 0, 0)
    assert record.gate is Gate.REPUTATION_ONLY
    assert record.mode is None and record.selected_id is None
    assert record.outcome is None
    assert sim.ledger.scores[1] == 1.0
    assert sim.ledger.scores[2] == 4.0  # the liar still farms willingness credit

    # The gate is inclusive: trust equal to the threshold is served, trust
    # just below it is not.
    for threshold, gate in ((5.0, Gate.SERVED),
                            (math.nextafter(5.0, math.inf), Gate.REPUTATION_ONLY)):
        sim = three_peer_sim(threshold=threshold)
        for _ in range(5):
            sim.ledger.credit(0)
        assert sim.ledger.scores[0] == 5.0
        assert play_round(sim, 0, 0).gate is gate


def test_round_selected_good_server_event_kind():
    cfg = small_config(good_founders=4, bad_founders=0, liar_founders=0,
                       catalog_size=4, n=2, p=1.0, reach=3)
    batches = []
    sim = Simulation(cfg, event_sink=batches.append)
    set_holdings(sim, {0: {0, 1}, 1: {2, 3}, 2: {2, 3}, 3: {2, 3}})
    sim.ledger.credit(2)  # make peer 2 the unique argmax
    batches.clear()
    record = play_round(sim, 0, 0)
    assert record.selected_id == 2
    # The server's credit is a batch of its own, then the other volunteers'
    # credits follow in one batch, in volunteer order.
    others = tuple(pid for pid in record.volunteer_ids if pid != 2)
    assert sorted(others) == [1, 3]
    assert [(r, kind, delta, tuple(ids), tuple(values))
            for r, kind, delta, ids, values in batches] == [
        (0, EventKind.SELECTED_TRUTHFUL_CREDIT, 1.0, (2,), (2.0,)),
        (0, EventKind.VOLUNTEER_CREDIT, 1.0, others, (1.0, 1.0)),
    ]


def test_file_redraw_at_the_holdings_edges():
    """Crafted draws for requesters holding the catalog's first and last
    files, the first file and a middle one, two adjacent files, and a liar
    holding two files: a file draw landing on a held file (at either end of
    the outputs that give it) is redrawn, and a draw above the largest held
    file is taken.  The requester draw's first and last outputs give peers
    0 and ``size - 1``, never a peer outside the ids.  The requester, the
    file and the draws used match a scalar loop over a set of the
    holdings: the mode and pick draws are the two after the last one
    used."""
    catalog = 8
    sim = Simulation(small_config(good_founders=3, bad_founders=0, liar_founders=1,
                                  catalog_size=catalog, n=4, reach=2))
    size = sim.population.size
    set_holdings(sim, {0: {0, catalog - 1}, 1: {0, 3}, 2: {4, 5}, 3: {2, 6}})

    def lowest(value, n=catalog):  # the smallest output that draws value below n
        return -(-(value << 64) // n)

    def highest(value, n=catalog):  # the largest output that draws value below n
        return lowest(value + 1, n) - 1

    cases = (
        (0, 0, [lowest(0), highest(0), lowest(7), highest(7), highest(0), lowest(1)], 1),
        (highest(0, size), 0, [highest(7), lowest(0), highest(6)], 6),
        (lowest(1, size), 1, [lowest(0), highest(3), lowest(3), lowest(4)], 4),  # above the largest
        (highest(1, size), 1, [highest(3), highest(7)], 7),  # the last file, above the largest
        (lowest(1, size), 1, [highest(0), highest(2)], 2),  # below a held file
        (lowest(2, size), 2, [lowest(5), highest(4), highest(5), lowest(3)], 3),
        (highest(2, size), 2, [highest(5), lowest(6)], 6),
        (2**64 - 1, size - 1, [lowest(2), highest(6), lowest(7)], 7),  # the liar
    )
    for index, (first, requester, file_draws, chosen) in enumerate(cases):
        draws = [first] + file_draws + list(range(101, 121))  # then volunteer, mode and pick
        stream = ListStream(draws)
        assert randbelow(stream, size) == requester
        held = set(holdings_of(sim.population, requester))
        file_id = randbelow(stream, catalog)
        while file_id in held:
            file_id = randbelow(stream, catalog)
        assert file_id == chosen
        volunteers = scalar_volunteers(sim.population, stream, requester, file_id)
        expected = (index, requester, file_id, volunteers,
                    truthful(sim.population, volunteers), stream.next_u64(), stream.next_u64())
        blocks = word_blocks(ListStream(draws))
        assert sim.population.draw_round(index, blocks) == expected, (first, file_draws)


class DrawKeysOnly:
    """A view of ``config`` on which reading a key that only the apply
    step uses raises."""

    def __init__(self, config):
        self._config = config

    def __getattr__(self, key):
        if key in ("p", "penalty", "floor", "threshold"):
            raise AssertionError(f"the draw read {key}")
        return getattr(self._config, key)


def test_draw_round_reads_no_trust():
    """The rounds ``draw_cycle`` draws from a population built on its own,
    with no simulation, no ledger and no apply key, are the rounds a
    simulation applies while its trust moves, across injections."""
    config = small_config(threshold=2.0, queries_per_cycle=30, total_cycles=6, newcomers=(
        Injection(4, 2, Behavior.GOOD_SERVER), Injection(2, 3, Behavior.LIAR)))
    sim = Simulation(config)
    applied, gates = [], set()
    apply = sim.run_round

    def run_round(drawn_round):
        applied.append(drawn_round)
        record = apply(drawn_round)
        gates.add(record.gate)
        return record

    sim.run_round = run_round
    view = DrawKeysOnly(config)
    with pytest.raises(AssertionError, match="the draw read p"):
        view.p
    population = build_population(view)
    drawn = []
    for cycle in range(config.total_cycles):
        drawn += population.draw_cycle(cycle)
        sim.run_cycle(cycle)
    assert population.size == sim.population.size == 17
    assert len(applied) == len(drawn) == config.total_cycles * config.queries_per_cycle
    assert applied == drawn  # requester, file, volunteers and the selection draws
    assert gates == set(Gate)  # trust moved: requesters below and above the threshold


def test_rounds_are_applied_under_the_index_they_carry():
    """A new simulation that applies cycle 3 first records its rounds as
    rounds 3Q to 4Q - 1, Q the queries per cycle, in its records and in
    its event batches."""
    config = small_config(threshold=2.0, queries_per_cycle=30, total_cycles=6)
    batches, records = [], []
    sim = Simulation(config, event_sink=batches.append)
    apply = sim.run_round
    sim.run_round = lambda drawn: records.append(apply(drawn)) or records[-1]
    sim.run_cycle(3)
    queries = config.queries_per_cycle
    assert [record.round_index for record in records] == list(range(3 * queries, 4 * queries))
    indices = [batch[0] for batch in batches]
    assert indices == sorted(indices)
    assert set(indices) == {record.round_index for record in records if record.volunteer_ids}


def test_each_cycle_is_drawn_by_its_number_alone():
    """``draw_cycle(c)`` on a freshly built population gives the rounds that
    cycle c of an in-order run applies, across two injections."""
    config = small_config(threshold=2.0, queries_per_cycle=30, total_cycles=6, newcomers=(
        Injection(4, 2, Behavior.GOOD_SERVER), Injection(2, 3, Behavior.LIAR)))
    sim = Simulation(config)
    applied = []
    apply = sim.run_round
    sim.run_round = lambda drawn: applied.append(drawn) or apply(drawn)
    for cycle in range(config.total_cycles):
        del applied[:]
        sim.run_cycle(cycle)
        assert list(build_population(config).draw_cycle(cycle)) == applied, cycle
        assert len(applied) == config.queries_per_cycle


def test_cycles_cannot_be_drawn_before_newcomers_already_added():
    """Cycle 3 adds cycle 2's newcomers, so cycle 1 has no in-order run on
    this population; cycle 2 has, and so has any cycle on a new one."""
    config = small_config(newcomers=(
        Injection(2, 2, Behavior.GOOD_SERVER), Injection(4, 3, Behavior.LIAR)))
    sim = Simulation(config)
    sim.run_cycle(3)
    with pytest.raises(ValueError, match="cycle 1 comes before the newcomers of cycle 2"):
        sim.run_cycle(1)
    sim.run_cycle(2)
    assert sim.population.size == 14  # cycle 4's newcomers are not due
    Simulation(config).run_cycle(1)


def test_the_ledger_scores_every_peer_that_joined():
    config = small_config(total_cycles=6, newcomers=(
        Injection(4, 2, Behavior.GOOD_SERVER), Injection(2, 3, Behavior.LIAR)))
    sim = Simulation(config)
    assert len(sim.ledger.scores) == sim.population.size == 12
    for cycle in range(config.total_cycles):
        sim.run_cycle(cycle)
        assert len(sim.ledger.scores) == sim.population.size, cycle
    assert sim.population.size == 17


def test_liar_count_cdfs_are_built_once_per_liar_count(monkeypatch):
    """Each liar-count CDF is built on first use, at most once between
    population changes, and built again after an injection."""
    calls = []
    build = engine.hypergeom_cdf

    def counted(total, tagged, draws):
        calls.append((total, tagged, draws))
        return build(total, tagged, draws)

    monkeypatch.setattr(engine, "hypergeom_cdf", counted)  # as perfbench/spans.py does
    config = small_config(queries_per_cycle=40, total_cycles=4,
                          newcomers=(Injection(2, 2, Behavior.GOOD_SERVER),))
    sim = Simulation(config)
    liars, reach = config.liar_founders, config.reach
    for cycle in range(2):
        sim.run_cycle(cycle)
    # A truthful requester leaves every liar in the pool, a liar one fewer.
    assert sorted(calls) == [(11, liars - 1, reach), (11, liars, reach)]
    for cycle in range(2, 4):
        sim.run_cycle(cycle)
    assert sorted(calls[2:]) == [(13, liars - 1, reach), (13, liars, reach)]


# --- volunteer sampling ---


def truthful(population, volunteers):
    """The truthful peers among ``volunteers``, in order: the holders."""
    return [pid for pid in volunteers if population.behaviors[pid].truthful]


def draw_volunteers(population, stream, requester, file_id):
    """``Population.volunteers`` from draw 0 of the outputs of ``stream``,
    one per byte block: the volunteers and the position after the last
    draw used, once the holders it returns are checked to be the
    volunteers' truthful tail.  ``stream`` moves past the draws read."""
    volunteers, held, end = population.volunteers(
        bytearray(), 0, word_blocks(stream), requester, file_id)
    assert held == truthful(population, volunteers) == volunteers[len(volunteers) - len(held):]
    return volunteers, end


class Counted:
    """``stream``, counting the outputs taken from it in ``used``."""

    def __init__(self, stream):
        self.stream, self.used = stream, 0

    def next_u64(self):
        self.used += 1
        return self.stream.next_u64()

    def random(self):
        return uniform(self.next_u64())


def test_truthful_volunteers_always_hold_the_file():
    cfg = small_config(good_founders=40, bad_founders=5, liar_founders=10,
                       catalog_size=100, n=10, reach=20, threshold=1e9)
    sim = Simulation(cfg)
    population = sim.population
    rng = random.Random(2)
    for index in range(4000):
        requester = rng.randrange(population.size)
        record = play_round(sim, requester, index)
        for pid in record.volunteer_ids:
            if population.behaviors[pid].truthful:
                assert record.file_id in holdings_of(population, pid)


def test_volunteer_rates_match_reach_and_holdings():
    cfg = small_config(good_founders=40, bad_founders=0, liar_founders=10,
                       catalog_size=100, n=10, reach=20, threshold=1e9, rng_seed=3)
    sim = Simulation(cfg)
    rounds = 10_000
    requester = 0
    tracked_good, tracked_liar = 1, sim.population.liar_pool[0]
    good_count = liar_count = 0
    for index in range(rounds):
        record = play_round(sim, requester, index)
        if tracked_good in record.volunteer_ids:
            good_count += 1
        if tracked_liar in record.volunteer_ids:
            liar_count += 1
    sample_rate = 20 / 49  # reach / (population - 1)
    hold_rate = 0.1  # holdings are 1/n of the catalog
    expected_good = rounds * sample_rate * hold_rate
    expected_liar = rounds * sample_rate
    sigma_good = math.sqrt(rounds * sample_rate * hold_rate * (1 - sample_rate * hold_rate))
    sigma_liar = math.sqrt(rounds * sample_rate * (1 - sample_rate))
    assert abs(good_count - expected_good) < 4 * sigma_good
    assert abs(liar_count - expected_liar) < 4 * sigma_liar


def reference_volunteers(population, reach, requester, file_id, rng: random.Random):
    """Reference path: materialize the reach-sized sample, then filter."""
    others = [pid for pid in range(population.size) if pid != requester]
    sample = rng.sample(others, reach)
    volunteers = [
        pid
        for pid in sample
        if population.behaviors[pid] is Behavior.LIAR
        or file_id in holdings_of(population, pid)
    ]
    # every sampled liar volunteers, by construction
    assert all(pid in volunteers for pid in sample
               if population.behaviors[pid] is Behavior.LIAR)
    return volunteers


def test_volunteer_draw_matches_reference():
    cfg = small_config(good_founders=6, bad_founders=2, liar_founders=4,
                       catalog_size=8, n=4, reach=5)
    sim = Simulation(cfg)
    population = sim.population
    requester = 0
    file_id = next(f for f in range(8) if f not in holdings_of(population, requester))

    trials = 30_000
    fast_counts: dict[int, int] = {}
    fast_liar_counts: dict[int, int] = {}
    stream = Stream.from_path(99, "fast")
    for _ in range(trials):
        volunteers, _ = draw_volunteers(sim.population, stream, requester, file_id)
        liars = 0
        for pid in volunteers:
            fast_counts[pid] = fast_counts.get(pid, 0) + 1
            if population.behaviors[pid] is Behavior.LIAR:
                liars += 1
        fast_liar_counts[liars] = fast_liar_counts.get(liars, 0) + 1

    ref_counts: dict[int, int] = {}
    ref_liar_counts: dict[int, int] = {}
    rng = random.Random(1234)
    for _ in range(trials):
        volunteers = reference_volunteers(population, 5, requester, file_id, rng)
        liars = 0
        for pid in volunteers:
            ref_counts[pid] = ref_counts.get(pid, 0) + 1
            if population.behaviors[pid] is Behavior.LIAR:
                liars += 1
        ref_liar_counts[liars] = ref_liar_counts.get(liars, 0) + 1

    for pid in range(population.size):
        if pid == requester:
            continue
        f1 = fast_counts.get(pid, 0) / trials
        f2 = ref_counts.get(pid, 0) / trials
        pooled = (fast_counts.get(pid, 0) + ref_counts.get(pid, 0)) / (2 * trials)
        bound = 4 * math.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / trials)
        assert abs(f1 - f2) <= bound, f"peer {pid}: {f1} vs {f2}"
    for k in set(fast_liar_counts) | set(ref_liar_counts):
        f1 = fast_liar_counts.get(k, 0) / trials
        f2 = ref_liar_counts.get(k, 0) / trials
        pooled = (f1 + f2) / 2
        bound = 4 * math.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / trials)
        assert abs(f1 - f2) <= bound, f"liar count {k}: {f1} vs {f2}"


def test_volunteer_draw_excludes_liar_requester():
    cfg = small_config(good_founders=2, bad_founders=0, liar_founders=2,
                       catalog_size=24, n=4, reach=3)
    sim = Simulation(cfg)
    liar = sim.population.liar_pool[0]
    stream = Stream.from_path(5, "self")
    for _ in range(500):
        volunteers, _ = draw_volunteers(sim.population, stream, liar, 0)
        assert liar not in volunteers


@st.composite
def volunteer_draws(draw):
    """A small population, a requester, a file it does not hold, a reach."""
    good, bad, liars = (draw(st.integers(0, 6)) for _ in range(3))
    if good + bad + liars < 2:
        liars += 2
    size = good + bad + liars
    n = draw(st.integers(2, 4))
    cfg = small_config(
        good_founders=good, bad_founders=bad, liar_founders=liars,
        catalog_size=draw(st.integers(n + 1, 12)), n=n,
        reach=draw(st.one_of(st.just(size - 1), st.integers(1, size - 1))),
        rng_seed=draw(st.integers(0, 2**32)),
    )
    population = build_population(cfg)
    requester = draw(st.integers(0, size - 1))
    missing = [f for f in range(cfg.catalog_size) if f not in holdings_of(population, requester)]
    return population, requester, draw(st.sampled_from(missing)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(volunteer_draws())
def test_volunteer_draw_properties(case):
    population, requester, file_id, seed = case
    reach = population.config.reach
    pool_before = list(population.liar_pool)
    volunteers, _ = draw_volunteers(population, Stream.from_path(seed, "prop"), requester, file_id)

    assert len(set(volunteers)) == len(volunteers) <= reach
    assert requester not in volunteers
    for pid in volunteers:
        assert (population.behaviors[pid] is Behavior.LIAR
                or pid in population.holders_by_file[file_id])
    assert population.liar_pool == pool_before
    if reach == population.size - 1:
        # The query reaches every other peer, so every one that can answer does.
        expected = {pid for pid in population.liar_pool if pid != requester}
        expected.update(population.holders_by_file[file_id])
        assert set(volunteers) == expected


def scalar_volunteers(population, stream, requester_id, file_id):
    """The volunteer draw one scalar draw at a time, on a copy of the liar
    pool: the reference for the block draws of ``Population.volunteers``."""
    others, reach = population.size - 1, population.config.reach
    pool = list(population.liar_pool)
    requester_is_liar = population.behaviors[requester_id] is Behavior.LIAR
    liar_limit = len(pool) - 1 if requester_is_liar else len(pool)
    if requester_is_liar:
        pos = pool.index(requester_id)
        pool[pos], pool[liar_limit] = pool[liar_limit], pool[pos]
    liar_draws = 0
    if liar_limit > 0:
        liar_draws = draw_hypergeom(hypergeom_cdf(others, liar_limit, reach), stream.random())
    for i in range(liar_draws):
        k = i + randbelow(stream, liar_limit - i)
        pool[i], pool[k] = pool[k], pool[i]
    volunteers = pool[:liar_draws]
    slots = reach - liar_draws
    available = others - liar_limit
    for pid in population.holders_by_file[file_id]:
        if slots <= 0:
            break
        if stream.random() * available < slots:
            volunteers.append(pid)
            slots -= 1
        available -= 1
    return volunteers


@settings(max_examples=300, deadline=None)
@given(volunteer_draws())
def test_volunteer_draw_equals_scalar_reference(case):
    population, requester, file_id, seed = case
    block, scalar = Stream.from_path(seed, "prop"), Counted(Stream.from_path(seed, "prop"))
    expected = scalar_volunteers(population, scalar, requester, file_id)
    # The same volunteers, from the same draws.
    assert draw_volunteers(population, block, requester, file_id) == (expected, scalar.used)


def test_volunteer_draw_equals_scalar_reference_in_edge_cases():
    """A liar requester, zero liars, all liars, ``reach = size - 1``, and
    holder scans that stop early: with n = 2 each file has about seven
    holders, more than a small reach has slots for."""
    early_stops = 0
    for liars, reach in ((3, 13), (3, 2), (0, 13), (0, 1), (14, 13), (14, 3)):
        cfg = small_config(good_founders=14 - liars, bad_founders=0, liar_founders=liars,
                           catalog_size=4, n=2, reach=reach)
        population = build_population(cfg)
        for requester in range(population.size):
            for file_id in set(range(4)).difference(holdings_of(population, requester)):
                for seed in range(5):
                    block = Stream.from_path(seed, "edge", requester)
                    scalar = Counted(Stream.from_path(seed, "edge", requester))
                    expected = scalar_volunteers(population, scalar, requester, file_id)
                    got, end = draw_volunteers(population, block, requester, file_id)
                    assert got == expected and end == scalar.used
                    # The scan stopped early: the slots ran out before the
                    # last holder was reached.
                    holders = population.holders_by_file[file_id]
                    early_stops += bool(holders) and len(got) == reach and holders[-1] != got[-1]
    assert early_stops > 0


def test_holder_scan_pre_filter_at_its_bound():
    """Crafted draws for a holder of a scan that rejected every earlier one:
    the largest output the float test accepts there, the smallest it
    rejects, and the integer pre-filter's bound and one below, which is
    tight at the last holder.  Holders after a middle one take the next
    draws; a scan that ends at the crafted holder ends its draws there, so
    the next two draws, the mode and pick draws, are the crafted ones.  No
    liars, so every draw goes to the holders."""
    top = 2**64 - 1  # rejected wherever slots < available
    mode, pick = 11, 12
    # (slots, holders, position of the crafted draw, available there).  The
    # last holder: slots == available, and denominators of 1, 3, 7 and 1,000.
    # A middle holder: with one slot, an accepted holder ends the scan early.
    cases = ((3, 1, 0, 3), (1, 4, 3, 1), (1, 3, 2, 3), (2, 3, 2, 7), (5, 2, 1, 1000),
             (1, 5, 2, 7), (1, 6, 4, 36), (2, 5, 1, 7), (3, 7, 3, 17))
    for slots, count, at, last in cases:
        available = last + at  # at the start of the scan
        population = build_population(small_config(
            good_founders=available + 1, bad_founders=0, liar_founders=0, reach=slots))
        file_id = min(set(range(24)).difference(holdings_of(population, 0)))  # the requester is 0
        holders = list(range(1, count + 1))
        population.holders_by_file[file_id] = holders
        bound = -(-(slots << 53) // (available - count + 1)) << 11  # the pre-filter's bound
        x = -(-(slots << 53) // last)
        while uniform(x << 11) * last >= slots:
            x -= 1
        largest = (x << 11) | 0x7FF  # the largest output the float test accepts
        for u in {largest, largest + 1, bound - 1, bound} - {2**64}:
            draws = [top] * at + [u, mode, pick] + [top] * count
            stream = ListStream(draws)
            expected = scalar_volunteers(population, stream, 0, file_id)
            got, end = draw_volunteers(population, ListStream(draws), 0, file_id)
            assert got == expected
            after = draws[end:end + 2]
            assert after == [stream.next_u64(), stream.next_u64()]  # the same draws were used
            accepted = u <= largest
            first = at if accepted else at + 1  # rejected: the next holder takes the mode draw
            assert expected[:1] == holders[first:first + 1], (slots, at, u)
            if at == count - 1 or (accepted and slots == 1):
                assert after == [mode, pick]  # the scan ended at the crafted holder


def test_holder_scan_reads_only_accepted_ids():
    """The holder scan walks positions: it never iterates a file's holder
    list and reads the id of an accepted holder only."""

    class Positions(Sequence):
        def __init__(self, ids):
            self.ids, self.read = ids, []

        def __len__(self):
            return len(self.ids)

        def __getitem__(self, index):
            self.read.append(index)
            return self.ids[index]

        def __iter__(self):
            raise AssertionError("the holder scan iterated the holder ids")

    population = build_population(small_config(
        good_founders=30, bad_founders=6, liar_founders=4, catalog_size=12, n=3, reach=8))
    accepted = rejected = 0
    for requester in range(0, population.size, 3):
        for file_id in set(range(12)).difference(holdings_of(population, requester)):
            holders = population.holders_by_file[file_id]
            for seed in range(4):
                expected = scalar_volunteers(
                    population, Stream.from_path(seed, "guard", requester), requester, file_id)
                wrapped = Positions(holders)
                population.holders_by_file[file_id] = wrapped
                try:
                    got, _ = draw_volunteers(population, Stream.from_path(seed, "guard", requester),
                                             requester, file_id)
                finally:
                    population.holders_by_file[file_id] = holders
                assert got == expected
                truthful = [pid for pid in got if population.behaviors[pid] is not Behavior.LIAR]
                assert [holders[j] for j in wrapped.read] == truthful
                accepted += len(truthful)
                rejected += bool(holders) and len(truthful) < len(holders)
    assert accepted > 0 and rejected > 0


def check_scan(population, draws, requester, file_id):
    """``Population.volunteers`` on the outputs ``draws``, one per byte
    block, against ``scalar_volunteers``: the same volunteers, and its
    draws end where the scalar draws do.  Returns the volunteers."""
    scalar = Counted(ListStream(draws))
    expected = scalar_volunteers(population, scalar, requester, file_id)
    assert draw_volunteers(population, ListStream(draws), requester, file_id) == (
        expected, scalar.used)
    return expected


def scan_population(good, liars=0, reach=None, holders=None, catalog=24, n=4):
    """Good founders and ``liars`` liars, and the file that requester 0
    lacks with the most holders, set to ``holders`` when given."""
    population = build_population(small_config(
        good_founders=good, bad_founders=0, liar_founders=liars, catalog_size=catalog, n=n,
        reach=reach or good + liars - 1))
    file_id = max(set(range(catalog)).difference(holdings_of(population, 0)),
                  key=lambda f: len(population.holders_by_file[f]))
    if holders is not None:
        population.holders_by_file[file_id] = array(engine.HOLDINGS_TYPECODE, holders)
    return population, file_id


def scan_bound(slots, available, holders):
    """The holder scan's integer bound (``Population.volunteers``)."""
    return -(-(slots << 53) // (available - holders + 1)) << 11


def test_holder_scan_edge_cases_equal_scalar_reference():
    """The byte scan marks the draws whose top byte is at most the bound's
    and tests only those, exactly as one scalar draw per holder does."""
    pad = u64s(Stream.from_path(3, "pad"), 40)
    # Ties: draws whose top byte is the bound's, below and at the bound, at
    # each holder.  No liars, so the draws go to the holders from draw 0.
    population, file_id = scan_population(41, reach=10, holders=range(1, 9))
    bound = scan_bound(10, 40, 8)
    top = bound >> 56
    assert top << 56 < bound - 1 and (bound - 1) >> 56 == top < 255
    for tie in (top << 56, bound - 1, bound, (top << 56) | (2**56 - 1)):
        for at in range(8):
            draws = [2**64 - 1] * at + [tie] + [2**64 - 1] * (7 - at) + pad
            check_scan(population, draws, 0, file_id)
    # A bound of 2**64 or more marks every draw (top byte clamped at 255);
    # just below it, top byte 255 marks every draw too.  reach = size - 1
    # samples every peer, so every holder volunteers.
    for good, holders in ((41, range(1, 41)), (41, [5]), (501, range(1, 401))):
        population, file_id = scan_population(good, holders=holders)
        assert scan_bound(good - 1, good - 1, len(holders)) >= 2**64
        draws = u64s(Stream.from_path(good, "all"), len(holders)) + pad
        assert check_scan(population, draws, 0, file_id) == list(holders)
    population, file_id = scan_population(502, reach=500, holders=[1])
    bound = scan_bound(500, 501, 1)
    assert bound >> 56 == 255
    for u in (0, 255 << 56, bound - 1, bound, 2**64 - 1):
        check_scan(population, [u] + pad, 0, file_id)
    # Slots that run out partway: each accepted holder takes a slot, and
    # the draws end at the holder that takes the last one.
    population, file_id = scan_population(41, reach=3, holders=range(1, 31))
    for at in (2, 5, 29):
        draws = [0, 0] + [2**64 - 1] * (at - 2) + [0] + [2**64 - 1] * (29 - at) + pad
        assert check_scan(population, draws, 0, file_id) == [1, 2, at + 1]
    # No holders, and no slots: liars fill the whole reach.
    population, file_id = scan_population(41, holders=[])
    assert check_scan(population, pad, 0, file_id) == []
    population, file_id = scan_population(6, liars=5, reach=3)
    assert population.holders_by_file[file_id]
    volunteers = check_scan(population, [2**64 - 1] + pad, 0, file_id)  # the most liars
    assert len(volunteers) == 3 and all(pid in population.liar_pool for pid in volunteers)


def test_round_draws_cross_from_the_first_block_into_the_tail():
    """File redraws and holder scans that run past the first
    ``BLOCK_WIDTH`` draws into a ``TAIL_BLOCK`` block give the round that
    one scalar draw at a time does."""
    population, _ = scan_population(150, liars=10, reach=100, catalog=12, n=2)
    size, catalog = population.size, 12
    crossed = 0
    for seed in range(30):
        requester = seed % size
        held = set(holdings_of(population, requester))
        redraws = []
        if seed % 3 == 0:  # 63 file draws of held files: the file is draw 64
            redraws = [-(-(min(held) << 64) // catalog)] * 63
        first = -(-(requester << 64) // size)
        draws = [first] + redraws + u64s(Stream.from_path(seed, "cross"), 400)
        stream = Counted(ListStream(draws))
        assert randbelow(stream, size) == requester
        file_id = randbelow(stream, catalog)
        while file_id in held:
            file_id = randbelow(stream, catalog)
        volunteers = scalar_volunteers(population, stream, requester, file_id)
        crossed += stream.used > BLOCK_WIDTH
        expected = (seed, requester, file_id, volunteers, truthful(population, volunteers),
                    stream.next_u64(), stream.next_u64())
        blocks = word_blocks(ListStream(draws), BLOCK_WIDTH, TAIL_BLOCK)
        assert population.draw_round(seed, blocks) == expected
    assert crossed == 30


def test_engine_never_calls_trust_ledger_credit(monkeypatch):
    """Every +1 of a run goes through ``TrustLedger.credit_many``: a run that
    reaches all three gates and a successful selection never calls
    ``credit``."""

    def refuse(*args, **kwargs):
        raise AssertionError("the engine called TrustLedger.credit")

    monkeypatch.setattr(TrustLedger, "credit", refuse)
    sim = Simulation(small_config(threshold=2.0, total_cycles=10, queries_per_cycle=30))
    records = []
    apply = sim.run_round
    sim.run_round = lambda *args: records.append(apply(*args)) or records[-1]
    for cycle in range(sim.config.total_cycles):
        sim.run_cycle(cycle)
    assert {record.gate for record in records} == set(Gate)
    assert any(record.outcome is Outcome.SUCCESS for record in records)


# --- draw, then apply: run_cycle against one scalar stream per round ---


def scalar_cycle(sim, cycle, records, cases):
    """One cycle with one ``Stream.from_path`` per round and one scalar draw
    at a time: the reference for ``Simulation.run_cycle``.  Appends each
    round's record to ``records`` and counts file re-draws and liar
    requesters in ``cases``.  Its metrics row picks each curve's peers by
    behavior, not by id range as ``_metrics_row`` does."""
    config, population, ledger = sim.config, sim.population, sim.ledger
    population.draw_cycle(cycle)  # adds the cycle's newcomers
    ledger.register(population.size)
    scores = ledger.scores
    successes = failures = 0
    queries = config.queries_per_cycle
    for index in range(cycle * queries, (cycle + 1) * queries):
        stream = Stream.from_path(config.rng_seed, "round", index)
        requester = randbelow(stream, population.size)
        cases["liar requesters"] += population.behaviors[requester] is Behavior.LIAR
        file_id = randbelow(stream, config.catalog_size)
        while file_id in holdings_of(population, requester):
            cases["file re-draws"] += 1
            file_id = randbelow(stream, config.catalog_size)
        volunteers = scalar_volunteers(population, stream, requester, file_id)
        if not volunteers:
            records.append(RoundRecord(index, requester, file_id, (), Gate.NO_VOLUNTEERS,
                                       None, None, None, 0.0))
            continue
        if scores[requester] < config.threshold:
            ledger.credit_many(volunteers, index)
            records.append(RoundRecord(index, requester, file_id, tuple(volunteers),
                                       Gate.REPUTATION_ONLY, None, None, None, 0.0))
            continue
        if stream.random() < config.p:
            best = max(scores[pid] for pid in volunteers)
            ties = [pid for pid in volunteers if scores[pid] == best]
            selected, mode = ties[randbelow(stream, len(ties))], Selection.BY_TRUST
        else:
            selected, mode = volunteers[randbelow(stream, len(volunteers))], Selection.RANDOM
        others = [pid for pid in volunteers if pid != selected]
        delta = 0.0
        if population.behaviors[selected] is Behavior.GOOD_SERVER:
            ledger.credit(selected, index, EventKind.SELECTED_TRUTHFUL_CREDIT)
            outcome = Outcome.SUCCESS
            successes += 1
        else:
            before = scores[selected]
            delta = ledger.penalize(selected, index) - before
            outcome = Outcome.FAILURE
            failures += 1
        ledger.credit_many(others, index)
        records.append(RoundRecord(index, requester, file_id, tuple(volunteers), Gate.SERVED,
                                   mode, selected, outcome, delta))

    def average(ids):
        ids = list(ids)
        return math.fsum(scores[pid] for pid in ids) / len(ids) if ids else None

    behaviors = population.behaviors
    founders = range(config.founder_population)
    newcomers = range(config.founder_population, population.size)
    transactions = successes + failures
    return MetricsRow(
        cycle,
        average(pid for pid in founders if behaviors[pid] is Behavior.GOOD_SERVER),
        average(pid for pid in founders if behaviors[pid] is Behavior.BAD_SERVER),
        average(pid for pid in founders if behaviors[pid] is Behavior.LIAR),
        average(pid for pid in newcomers if behaviors[pid] is Behavior.GOOD_SERVER),
        successes / transactions if transactions else None,
        failures,
    )


def check_run_cycle_against_scalar(config):
    """Run ``config`` through ``run_cycle`` and through ``scalar_cycle``;
    both must give the same rows, records, events and scores.  Returns
    the cases seen, including the tail blocks that rounds of ``run_cycle``
    drew past their first ``BLOCK_WIDTH`` draws."""
    cases = {"file re-draws": 0, "liar requesters": 0, "tail blocks": 0}
    blocks = rng.byte_blocks

    def counting_blocks(state, width):
        # Newcomers' holdings draw here too, in blocks of the holdings size.
        for block in blocks(state, width):
            cases["tail blocks"] += width == TAIL_BLOCK
            yield block

    batches = []
    sim = Simulation(config, event_sink=batches.append)
    records = []
    apply = sim.run_round
    sim.run_round = lambda *args: records.append(apply(*args)) or records[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "byte_blocks", counting_blocks)
        rows = [sim.run_cycle(cycle) for cycle in range(config.total_cycles)]

    ref_batches = []
    ref = Simulation(config, event_sink=ref_batches.append)
    ref_records = []
    ref_rows = [scalar_cycle(ref, cycle, ref_records, cases)
                for cycle in range(config.total_cycles)]
    assert records == ref_records
    assert rows == ref_rows
    assert flatten(batches) == flatten(ref_batches)
    assert sim.ledger.scores == ref.ledger.scores
    assert MetricsSeries(rows).to_csv() == MetricsSeries(ref_rows).to_csv()
    assert len(records) == config.queries_per_cycle * config.total_cycles
    return cases


@st.composite
def cycle_configs(draw):
    """Small runs: any mix of founders (zero liars included), newcomers of
    any behavior, any reach and gate, cycles of any number of rounds, and
    floors and penalties that are not integers, so scores and their sums
    round."""
    good, bad, liars = (draw(st.integers(0, 40)) for _ in range(3))
    if good + bad + liars < 2:
        good += 2
    n = draw(st.integers(2, 4))
    newcomers = tuple(
        Injection(draw(st.integers(0, 2)), draw(st.integers(1, 4)), draw(st.sampled_from(Behavior)))
        for _ in range(draw(st.integers(0, 2)))
    )
    floor = draw(st.sampled_from([0.0, -0.0, 0.1, 2**51 + 0.5]))
    return small_config(
        good_founders=good, bad_founders=bad, liar_founders=liars,
        catalog_size=draw(st.integers(n + 1, 16)), n=n,
        reach=draw(st.integers(1, good + bad + liars - 1)),
        p=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        penalty=draw(st.sampled_from([1.0, 3.0, 30.0, 0.1, 1.7, 1e6])),
        floor=floor, threshold=floor + draw(st.sampled_from([0.0, 1.0, 3.0])),
        queries_per_cycle=draw(st.integers(1, 2 * BLOCK_GROUP + 3)),
        total_cycles=3, newcomers=newcomers, rng_seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(cycle_configs())
def test_run_cycle_equals_scalar_reference(config):
    check_run_cycle_against_scalar(config)


def test_run_cycle_equals_scalar_reference_in_edge_cases():
    """Rounds that draw from the tail, past their first ``BLOCK_WIDTH``
    draws (about 60 holders per file), file re-draws (a requester holds half the catalog), liar
    requesters, and zero liars: each must occur."""
    many_holders = dict(good_founders=100, bad_founders=20, catalog_size=12, n=2, reach=80)
    seen = {}
    for config in (
        small_config(liar_founders=10, **many_holders),
        small_config(liar_founders=0, **many_holders),
        small_config(good_founders=6, bad_founders=2, liar_founders=20, reach=15,
                     newcomers=(Injection(1, 5, Behavior.LIAR),)),
    ):
        config = dataclasses.replace(config, threshold=1.0, p=0.7, queries_per_cycle=40,
                                     total_cycles=3)
        cases = check_run_cycle_against_scalar(config)
        if config.liar_founders == 0:
            cases["zero liars"] = 1
        for case, count in cases.items():
            seen[case] = seen.get(case, 0) + count
    assert set(seen) == {"file re-draws", "liar requesters", "tail blocks", "zero liars"}
    assert all(seen.values()), seen


@pytest.mark.parametrize("sparse", [False, True])
def test_metrics_rows_carry_exact_truthful_sums(sparse):
    """Each row's averages are ``math.fsum`` over each category's scores,
    by behavior, on either side of the switch between summing the truthful
    categories in full (many rounds per peer) and carrying their sums (few):
    with a floor and a penalty that are not integers, good newcomers that
    join at the floor mid-run, bad and liar newcomers, and holders drawn in
    more than one round of a cycle."""
    newcomers = (Injection(2, 5, Behavior.GOOD_SERVER), Injection(4, 3, Behavior.BAD_SERVER),
                 Injection(5, 4, Behavior.GOOD_SERVER), Injection(7, 2, Behavior.LIAR))
    if sparse:  # about 24 holders per file, 1.5 accepted per round
        config = small_config(good_founders=1000, bad_founders=200, liar_founders=20,
                              catalog_size=100, n=50, reach=75, queries_per_cycle=20)
    else:
        config = small_config(queries_per_cycle=30)
    config = dataclasses.replace(config, floor=0.1, threshold=2.1, penalty=1.7, p=0.7,
                                 total_cycles=12, newcomers=newcomers)
    sim = Simulation(config)
    held = []
    apply = sim.run_round
    sim.run_round = lambda drawn: held.extend(drawn[4]) or apply(drawn)
    scores, behaviors = sim.ledger.scores, sim.population.behaviors
    founders = config.founder_population
    repeats = uncredited = 0

    def average(ids):
        ids = list(ids)
        return math.fsum(scores[pid] for pid in ids) / len(ids) if ids else None

    for cycle in range(config.total_cycles):
        del held[:]
        size = sim.population.size
        row = sim.run_cycle(cycle)
        assert (sim._sums is not None) == sparse, cycle
        repeats += len(held) > len(set(held))
        uncredited += sum(behaviors[pid] is Behavior.GOOD_SERVER and pid not in held
                          for pid in range(size, sim.population.size))
        assert row.avg_trust_good == average(
            pid for pid in range(founders) if behaviors[pid] is Behavior.GOOD_SERVER)
        assert row.avg_trust_bad == average(
            pid for pid in range(founders) if behaviors[pid] is Behavior.BAD_SERVER)
        assert row.avg_trust_liar == average(
            pid for pid in range(founders) if behaviors[pid] is Behavior.LIAR)
        assert row.avg_trust_newcomer_good == average(
            pid for pid in range(founders, sim.population.size)
            if behaviors[pid] is Behavior.GOOD_SERVER)
    assert repeats, "no holder was drawn in two rounds of one cycle"
    # The carried sums take in every good newcomer, credited or not.
    assert uncredited or not sparse, "every good newcomer was credited in the cycle it joined"


@pytest.mark.parametrize("queries", [5, BLOCK_GROUP + 1, 2 * BLOCK_GROUP + 7])
def test_cycle_draws_in_groups_of_bounded_size(monkeypatch, queries):
    """No lane pass of a cycle takes more than ``BLOCK_GROUP`` rounds of
    ``BLOCK_WIDTH`` lanes, so the ints do not grow with
    ``queries_per_cycle``, and the widest takes a whole group (or the whole
    cycle, if shorter): here fewer rounds than one group, and counts that
    are not a multiple of it."""
    bits = []

    def recording_mix(z, mask):
        bits.append(z.bit_length())
        return _mix_lanes(z, mask)

    monkeypatch.setattr("trustsim.rng._mix_lanes", recording_mix)
    config = small_config(queries_per_cycle=queries, total_cycles=3)
    check_run_cycle_against_scalar(config)
    widest_group = min(queries, BLOCK_GROUP)
    assert 128 * (widest_group - 1) * BLOCK_WIDTH < max(bits) <= 128 * BLOCK_GROUP * BLOCK_WIDTH


# --- whole runs ---


def test_all_good_population_always_succeeds():
    cfg = small_config(good_founders=12, bad_founders=0, liar_founders=0,
                       catalog_size=24, n=4, p=0.9, threshold=0.0,
                       reach=11, queries_per_cycle=20, total_cycles=10)
    series = run_simulation(cfg)
    assert len(series) == 10
    last = -1.0
    for row in series:
        assert row.success_rate == 1.0
        assert row.penalties == 0
        assert row.avg_trust_good >= last
        last = row.avg_trust_good
        assert row.avg_trust_bad is None and row.avg_trust_liar is None


@pytest.mark.parametrize("newcomers", [(), (Injection(2, 3, Behavior.GOOD_SERVER),)])
def test_all_liar_founders_run(newcomers):
    cfg = small_config(good_founders=0, bad_founders=0, liar_founders=10,
                       reach=None, total_cycles=4, newcomers=newcomers)
    series = run_simulation(cfg)
    assert len(series) == 4
    for row in series:
        assert row.avg_trust_good is None and row.avg_trust_bad is None
        assert row.avg_trust_liar is not None
    assert (series.rows[-1].avg_trust_newcomer_good is not None) == bool(newcomers)


def test_run_is_deterministic_per_seed():
    cfg = small_config(total_cycles=8)
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert first == second
    assert first.to_csv() == second.to_csv()
    different = run_simulation(small_config(total_cycles=8, rng_seed=8))
    assert first.to_csv() != different.to_csv()


def test_newcomers_join_at_their_cycle():
    cfg = small_config(
        total_cycles=6,
        newcomers=(Injection(3, 4, Behavior.GOOD_SERVER),),
    )
    sim = Simulation(cfg)
    for cycle in range(cfg.total_cycles):
        row = sim.run_cycle(cycle)
        joined = cycle >= 3
        assert sim.population.size == (16 if joined else 12)
        assert (row.avg_trust_newcomer_good is not None) == joined
    assert sim.population.newcomer_good_ids == [12, 13, 14, 15]


def test_newcomer_liars_join_pool_but_not_founder_curves():
    cfg = small_config(total_cycles=4, newcomers=(Injection(1, 3, Behavior.LIAR),))
    sim = Simulation(cfg)
    rows = [sim.run_cycle(cycle) for cycle in range(cfg.total_cycles)]
    assert len(sim.population.liar_pool) == 5
    assert sim.population.liar_pool[2:] == [12, 13, 14]  # ids follow the founders
    assert sim.population.newcomer_good_ids == []
    # The liar curve averages the founder liars 10 and 11 only.
    scores = sim.ledger.scores
    assert rows[-1].avg_trust_liar == (scores[10] + scores[11]) / 2


def test_liar_pool_stays_in_id_order():
    # Population.volunteers finds a liar requester in the pool by bisection.
    cfg = small_config(total_cycles=4, newcomers=(
        Injection(1, 3, Behavior.LIAR), Injection(2, 2, Behavior.GOOD_SERVER),
        Injection(3, 2, Behavior.LIAR),
    ))
    sim = Simulation(cfg)
    population = sim.population
    for cycle in range(cfg.total_cycles):
        sim.run_cycle(cycle)
        liars = [pid for pid, b in enumerate(population.behaviors) if b is Behavior.LIAR]
        for requester in liars:  # a round of any index will do
            assert requester not in play_round(sim, requester, requester).volunteer_ids
        assert population.liar_pool == liars
    assert len(liars) == 7


def test_never_penalized_peers_have_monotone_trust():
    batches = []
    cfg = small_config(total_cycles=10, queries_per_cycle=30, penalty=5.0)
    run_simulation(cfg, event_sink=batches.append)
    events = flatten(batches)
    penalized = {e.peer_id for e in events if e.kind is EventKind.PENALTY}
    trajectory: dict[int, float] = {}
    for event in events:
        if event.peer_id in penalized:
            continue
        previous = trajectory.get(event.peer_id, 0.0)
        assert event.new_value >= previous
        trajectory[event.peer_id] = event.new_value


def test_credit_conservation_per_round():
    batches = []
    cfg = small_config(good_founders=10, bad_founders=3, liar_founders=3,
                       threshold=2.0, penalty=4.0)
    sim = Simulation(cfg, event_sink=batches.append)
    rng = random.Random(12)
    for index in range(2000):
        before = len(batches)
        record = play_round(sim, rng.randrange(sim.population.size), index)
        new = flatten(batches[before:])
        penalties = [e for e in new if e.kind is EventKind.PENALTY]
        credits = len(new) - len(penalties)
        assert len(penalties) <= 1
        assert credits == len(record.volunteer_ids) - len(penalties)
        if record.gate is Gate.NO_VOLUNTEERS:
            assert not new


# --- metrics CSV ---


def test_metrics_csv_round_trip():
    cfg = small_config(total_cycles=4, newcomers=(Injection(2, 2, Behavior.GOOD_SERVER),))
    series = run_simulation(cfg)
    text = series.to_csv()
    parsed = MetricsSeries.from_csv_text(text)
    assert parsed.to_csv() == text
    assert [row.cycle for row in parsed] == [0, 1, 2, 3]


def test_metrics_csv_header_and_missing_fields():
    row = MetricsRow(0, 1.25, None, None, None, None, 3)
    text = MetricsSeries([row]).to_csv()
    lines = text.splitlines()
    assert lines[0] == (
        "cycle,avg_trust_good,avg_trust_bad,avg_trust_liar,"
        "avg_trust_newcomer_good,success_rate,penalties"
    )
    assert lines[1] == "0,1.250000,,,,,3"


def test_metrics_csv_schema_errors():
    with pytest.raises(SchemaError):
        MetricsSeries.from_csv_text("wrong,header\n0,1\n")
    good_header = MetricsSeries([]).to_csv()
    with pytest.raises(SchemaError):
        MetricsSeries.from_csv_text(good_header + "0,1,2\n")
    with pytest.raises(SchemaError, match="line 2: avg_trust_good: could not convert"):
        MetricsSeries.from_csv_text(good_header + "0,a,1,1,1,1,0\n")
    for value in ("nan", "inf", "-inf", "NaN", "1e999"):
        with pytest.raises(SchemaError, match=f"line 3: avg_trust_bad: .*{value!r}"):
            MetricsSeries.from_csv_text(good_header + f"0,1,1,1,,1,0\n1,1,{value},1,,1,0\n")
