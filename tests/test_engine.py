import dataclasses
import math
import random
import tracemalloc
from array import array
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
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

from helpers import ListStream, flatten, play_round, randbelow, scalar_holdings, u64s, uniform


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
    """White-box: pin exact holdings, as the sorted array ``add_peer``
    builds, and rebuild the holder index."""
    population = sim.population
    for pid, files in assignment.items():
        population.holdings[pid] = array(engine.HOLDINGS_TYPECODE, sorted(files))
    population.holders_by_file = [
        array(engine.HOLDINGS_TYPECODE) for _ in range(population.config.catalog_size)]
    for pid in range(population.size):
        if population.behaviors[pid].truthful:
            for file_id in population.holdings[pid]:
                population.holders_by_file[file_id].append(pid)


# --- configuration ---


def test_config_validation_names_offending_key():
    cases = [
        (dict(reach=12), "reach"),  # population is 12, max sampleable is 11
        (dict(catalog_size=3), "catalog_size"),
        (dict(n=1, catalog_size=24), "n"),
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
    ]
    for overrides, key in cases:
        with pytest.raises(ConfigError) as err:
            small_config(**overrides).validate()
        assert err.value.key == key, overrides


def test_config_just_below_the_draw_range_validates():
    # Validation builds no peer, so these are cheap to check; a run of them
    # would still exceed memory.
    small_config(catalog_size=2**32 - 1).validate()
    small_config(good_founders=2**32 - 5).validate()
    small_config(newcomers=(Injection(1, 2**32 - 13, Behavior.LIAR),)).validate()


def test_config_defaults_resolve():
    resolved = small_config(
        good_founders=1400, bad_founders=300, liar_founders=300,
        catalog_size=1000, n=100, reach=None, queries_per_cycle=None,
    ).validate()
    assert resolved.queries_per_cycle == 200  # population // 10
    assert resolved.reach == calibrated_reach(1400, 300, 300, 100)


def test_calibrated_reach_formula():
    # volunteer rate per sampled peer: liars always, truthful peers 1/n
    assert calibrated_reach(1400, 300, 300, 100) == 189
    assert calibrated_reach(0, 0, 100, 10) == 30
    with pytest.raises(ConfigError):
        calibrated_reach(1, 0, 0, 10)


def test_parse_injections():
    items = parse_injections("300:100:good, 500:5:liar")
    assert items == (
        Injection(300, 100, Behavior.GOOD_SERVER),
        Injection(500, 5, Behavior.LIAR),
    )
    with pytest.raises(ValueError):
        parse_injections("300:100")
    with pytest.raises(ValueError):
        parse_injections("300:100:unknown")


# --- population ---


def test_population_holdings_sizes():
    population = build_population(small_config(catalog_size=1000, n=100))
    assert all(len(h) == 10 for h in population.holdings)
    population = build_population(small_config(catalog_size=24, n=24, reach=6))
    assert all(len(h) == 1 for h in population.holdings)


def test_population_deterministic_in_seed():
    cfg = small_config()
    assert build_population(cfg).holdings == build_population(cfg).holdings
    other = build_population(small_config(rng_seed=8))
    assert other.holdings != build_population(cfg).holdings


@st.composite
def holdings_cases(draw):
    """Holdings sizes from 1 to past 64 lanes, on both sides of a lane width
    (16 and 17); a catalog from one file above the size (many repeated
    draws, so several tail blocks) to ten times it; seeds at both ends of
    the range; newcomers of each behavior.  A config gives a catalog of at
    least twice the size (n >= 2), so the test sets the size itself."""
    size = draw(st.sampled_from([1, 10, 16, 17, 65, 100]))
    catalog = size + draw(st.one_of(st.integers(1, 3), st.integers(1, 9 * size)))
    newcomers = tuple(
        Injection(cycle, draw(st.integers(1, 3)), draw(st.sampled_from(Behavior)))
        for cycle in range(draw(st.integers(0, 2)))
    )
    seed = draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    return size, small_config(catalog_size=catalog, n=2, rng_seed=seed, newcomers=newcomers)


@settings(max_examples=80, deadline=None)
@given(holdings_cases())
def test_holdings_equal_scalar_reference(case):
    """Founders and the newcomers ``_inject`` adds hold what one scalar
    draw at a time from each peer's own stream gives, as ``holdings_size``
    strictly increasing 4-byte file ids (``draw_round`` bisects them), and
    ``holders_by_file`` indexes the truthful ones in id order."""
    size, config = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "holdings_size", lambda catalog, n: size)
        sim = Simulation(config)
        sim._inject(len(config.newcomers))
    population = sim.population
    assert population.size == config.founder_population + sum(i.count for i in config.newcomers)
    expected = [
        scalar_holdings(config.rng_seed, pid, size, config.catalog_size)
        for pid in range(population.size)
    ]
    assert [list(files) for files in population.holdings] == [sorted(f) for f in expected]
    for files in population.holdings:
        assert files.itemsize == 4 and len(files) == size
        assert all(a < b for a, b in zip(files, files[1:]))
    holders = [[] for _ in range(config.catalog_size)]
    for pid, files in enumerate(expected):
        if population.behaviors[pid].truthful:
            for file_id in files:
                holders[file_id].append(pid)
    assert [list(ids) for ids in population.holders_by_file] == holders


def test_population_indexes_are_consistent():
    population = build_population(small_config())
    assert len(population.liar_pool) == 2
    for pid in population.liar_pool:
        assert population.behaviors[pid] is Behavior.LIAR
    for file_id, holders in enumerate(population.holders_by_file):
        for pid in holders:
            assert population.behaviors[pid].truthful
            assert file_id in population.holdings[pid]
    # every truthful holding is indexed
    for pid in range(population.size):
        if population.behaviors[pid].truthful:
            for file_id in population.holdings[pid]:
                assert pid in population.holders_by_file[file_id]


def test_build_population_bytes_per_peer():
    """Memory guard: building the desk founders traces at most 400 B per
    peer (about 230: the sorted holdings array, 4 B per truthful holding in
    ``holders_by_file``, the id lists); per-peer hash sets of int objects
    took about 1,090."""
    config = small_config(good_founders=1400, bad_founders=300, liar_founders=300,
                          catalog_size=1000, n=100, reach=189, rng_seed=1)
    tracemalloc.start()
    try:
        population = build_population(config)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert population.size == 2000
    assert traced / population.size <= 400
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
        record = play_round(sim, 0)
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
    record = play_round(sim, 0)
    assert record.gate is Gate.SERVED
    assert record.outcome is Outcome.SUCCESS
    assert set(record.volunteer_ids) == {1, 2, 3}
    assert all(sim.ledger.scores[pid] == 1.0 for pid in (1, 2, 3))


def test_round_without_volunteers_changes_nothing():
    cfg = small_config(good_founders=2, bad_founders=0, liar_founders=0,
                       catalog_size=2, n=2, p=0.9, reach=1)
    sim = Simulation(cfg)
    set_holdings(sim, {0: {0}, 1: {0}})  # nobody holds file 1
    record = play_round(sim, 0)
    assert record.gate is Gate.NO_VOLUNTEERS
    assert record.volunteer_ids == ()
    assert record.outcome is None and record.selected_id is None
    assert sim.ledger.scores[1] == 0.0


def test_round_below_threshold_is_reputation_only():
    sim = three_peer_sim(threshold=5.0)
    for _ in range(3):
        sim.ledger.credit(2)
    record = play_round(sim, 0)
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
        assert play_round(sim, 0).gate is gate


def test_round_selected_good_server_event_kind():
    cfg = small_config(good_founders=4, bad_founders=0, liar_founders=0,
                       catalog_size=4, n=2, p=1.0, reach=3)
    batches = []
    sim = Simulation(cfg, event_sink=batches.append)
    set_holdings(sim, {0: {0, 1}, 1: {2, 3}, 2: {2, 3}, 3: {2, 3}})
    sim.ledger.credit(2)  # make peer 2 the unique argmax
    batches.clear()
    record = play_round(sim, 0)
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


def test_round_unknown_requester_rejected():
    # The last peer is a liar, then a truthful peer: -1 must not wrap onto it.
    for cfg in (small_config(), small_config(liar_founders=0)):
        sim = Simulation(cfg)
        for requester in range(4):
            play_round(sim, requester)
        round_index, scores = sim.round_index, list(sim.ledger.scores)
        for requester in (-1, sim.population.size, 999):
            with pytest.raises(IndexError):
                play_round(sim, requester)
        assert sim.round_index == round_index and sim.ledger.scores == scores


def test_file_redraw_at_the_holdings_edges():
    """Crafted file draws for requesters holding the catalog's first and
    last files, the first file and a middle one, and two adjacent files: a
    draw landing on a held file (at either end of the outputs that give it)
    is redrawn, and a draw above the largest held file is taken.  The file
    and the draws used match a scalar loop over a set of the holdings."""
    catalog = 8
    sim = Simulation(small_config(good_founders=3, bad_founders=0, liar_founders=1,
                                  catalog_size=catalog, n=4, reach=2))
    set_holdings(sim, {0: {0, catalog - 1}, 1: {0, 3}, 2: {4, 5}})

    def lowest(file_id):  # the smallest output that gives file_id
        return -(-(file_id << 64) // catalog)

    def highest(file_id):  # the largest output that gives file_id
        return lowest(file_id + 1) - 1

    cases = (
        (0, [lowest(0), highest(0), lowest(7), highest(7), highest(0), lowest(1)], 1),
        (0, [highest(7), lowest(0), highest(6)], 6),
        (1, [lowest(0), highest(3), lowest(3), lowest(4)], 4),  # above the largest
        (1, [highest(3), highest(7)], 7),  # the last file, above the largest
        (1, [highest(0), highest(2)], 2),  # below a held file
        (2, [lowest(5), highest(4), highest(5), lowest(3)], 3),
        (2, [highest(5), lowest(6)], 6),
    )
    for requester, file_draws, chosen in cases:
        draws = file_draws + list(range(101, 121))  # then volunteer, mode and pick draws
        stream = ListStream(draws)
        held = set(sim.population.holdings[requester])
        file_id = randbelow(stream, catalog)
        while file_id in held:
            file_id = randbelow(stream, catalog)
        assert file_id == chosen
        expected = (file_id, scalar_volunteers(sim.population, stream, requester, file_id),
                    stream.next_u64(), stream.next_u64())
        remaining = iter(draws)
        assert sim.draw_round(requester, remaining) == expected, (requester, file_draws)
        assert next(remaining) == stream.next_u64()  # the same draws were used


# --- volunteer sampling ---


def draw_volunteers(population, stream, requester, file_id):
    """``Population.volunteers`` with the draws of ``stream`` from its state
    on; the stream then moves past the draws used, as scalar draws would."""
    return population.volunteers(iter(stream.next_u64, None), requester, file_id)


def test_truthful_volunteers_always_hold_the_file():
    cfg = small_config(good_founders=40, bad_founders=5, liar_founders=10,
                       catalog_size=100, n=10, reach=20, threshold=1e9)
    sim = Simulation(cfg)
    population = sim.population
    rng = random.Random(2)
    for _ in range(4000):
        requester = rng.randrange(population.size)
        record = play_round(sim, requester)
        for pid in record.volunteer_ids:
            if population.behaviors[pid].truthful:
                assert record.file_id in population.holdings[pid]


def test_volunteer_rates_match_reach_and_holdings():
    cfg = small_config(good_founders=40, bad_founders=0, liar_founders=10,
                       catalog_size=100, n=10, reach=20, threshold=1e9, rng_seed=3)
    sim = Simulation(cfg)
    rounds = 10_000
    requester = 0
    tracked_good, tracked_liar = 1, sim.population.liar_pool[0]
    good_count = liar_count = 0
    for _ in range(rounds):
        record = play_round(sim, requester)
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
        or file_id in population.holdings[pid]
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
    file_id = next(f for f in range(8) if f not in population.holdings[requester])

    trials = 30_000
    fast_counts: dict[int, int] = {}
    fast_liar_counts: dict[int, int] = {}
    stream = Stream.from_path(99, "fast")
    for _ in range(trials):
        volunteers = draw_volunteers(sim.population, stream, requester, file_id)
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
        volunteers = draw_volunteers(sim.population, stream, liar, 0)
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
    missing = [f for f in range(cfg.catalog_size) if f not in population.holdings[requester]]
    return population, requester, draw(st.sampled_from(missing)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(volunteer_draws())
def test_volunteer_draw_properties(case):
    population, requester, file_id, seed = case
    reach = population.config.reach
    pool_before = list(population.liar_pool)
    volunteers = draw_volunteers(population, Stream.from_path(seed, "prop"), requester, file_id)

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
    block, scalar = Stream.from_path(seed, "prop"), Stream.from_path(seed, "prop")
    expected = scalar_volunteers(population, scalar, requester, file_id)
    assert draw_volunteers(population, block, requester, file_id) == expected
    assert block.next_u64() == scalar.next_u64()  # the same draws were used


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
            for file_id in set(range(4)).difference(population.holdings[requester]):
                for seed in range(5):
                    block = Stream.from_path(seed, "edge", requester)
                    scalar = Stream.from_path(seed, "edge", requester)
                    expected = scalar_volunteers(population, scalar, requester, file_id)
                    got = draw_volunteers(population, block, requester, file_id)
                    assert got == expected and block.next_u64() == scalar.next_u64()
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
    draws; a scan that ends at the crafted holder leaves the next two draws,
    the mode and pick draws, untouched.  No liars, so every draw goes to the
    holders."""
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
        file_id = min(set(range(24)).difference(population.holdings[0]))  # the requester is 0
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
            remaining = iter(draws)
            assert population.volunteers(remaining, 0, file_id) == expected
            after = [next(remaining), next(remaining)]
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
        for file_id in set(range(12)).difference(population.holdings[requester]):
            holders = population.holders_by_file[file_id]
            for seed in range(4):
                expected = scalar_volunteers(
                    population, Stream.from_path(seed, "guard", requester), requester, file_id)
                wrapped = Positions(holders)
                population.holders_by_file[file_id] = wrapped
                try:
                    got = draw_volunteers(population, Stream.from_path(seed, "guard", requester),
                                          requester, file_id)
                finally:
                    population.holders_by_file[file_id] = holders
                assert got == expected
                truthful = [pid for pid in got if population.behaviors[pid] is not Behavior.LIAR]
                assert [holders[j] for j in wrapped.read] == truthful
                accepted += len(truthful)
                rejected += bool(holders) and len(truthful) < len(holders)
    assert accepted > 0 and rejected > 0


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
    sim.run()
    assert {record.gate for record in records} == set(Gate)
    assert any(record.outcome is Outcome.SUCCESS for record in records)


# --- draw, then apply: run_cycle against one scalar stream per round ---


def scalar_cycle(sim, cycle, records, cases):
    """One cycle with one ``Stream.from_path`` per round and one scalar draw
    at a time: the reference for ``Simulation.run_cycle``.  Appends each
    round's record to ``records`` and counts file re-draws and liar
    requesters in ``cases``.  Its metrics row picks each curve's peers by
    behavior, not by id range as ``_metrics_row`` does."""
    sim._inject(cycle)
    config, population, ledger = sim.config, sim.population, sim.ledger
    scores = ledger.scores
    successes = failures = 0
    for _ in range(config.queries_per_cycle):
        index = sim.round_index
        sim.round_index += 1
        stream = Stream.from_path(config.rng_seed, "round", index)
        requester = randbelow(stream, population.size)
        cases["liar requesters"] += population.behaviors[requester] is Behavior.LIAR
        file_id = randbelow(stream, config.catalog_size)
        while file_id in population.holdings[requester]:
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
    blocks = rng._blocks

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
        patch.setattr(rng, "_blocks", counting_blocks)
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
    any behavior, any reach and gate, and cycles of any number of rounds."""
    good, bad, liars = (draw(st.integers(0, 40)) for _ in range(3))
    if good + bad + liars < 2:
        good += 2
    n = draw(st.integers(2, 4))
    newcomers = tuple(
        Injection(draw(st.integers(0, 2)), draw(st.integers(1, 4)), draw(st.sampled_from(Behavior)))
        for _ in range(draw(st.integers(0, 2)))
    )
    return small_config(
        good_founders=good, bad_founders=bad, liar_founders=liars,
        catalog_size=draw(st.integers(n + 1, 16)), n=n,
        reach=draw(st.integers(1, good + bad + liars - 1)),
        p=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        penalty=draw(st.sampled_from([1.0, 3.0, 30.0])),
        threshold=draw(st.sampled_from([0.0, 1.0, 3.0])),
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
    series = sim.run()
    assert sim.population.liar_count == 5
    assert sim.population.liar_pool[2:] == [12, 13, 14]  # ids follow the founders
    assert sim.population.newcomer_good_ids == []
    # The liar curve averages the founder liars 10 and 11 only.
    scores = sim.ledger.scores
    assert series.rows[-1].avg_trust_liar == (scores[10] + scores[11]) / 2


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
        for requester in liars:
            assert requester not in play_round(sim, requester).volunteer_ids
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
    for _ in range(2000):
        before = len(batches)
        record = play_round(sim, rng.randrange(sim.population.size))
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
