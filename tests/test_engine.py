import math
import random

import pytest

from trustsim.engine import (
    Behavior,
    ConfigError,
    Gate,
    Injection,
    MetricsRow,
    MetricsSeries,
    Outcome,
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
from trustsim.ledger import EventKind, LedgerConfig, TrustLedger
from trustsim.rng import Stream


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
    """White-box: pin exact holdings and rebuild the holder index."""
    population = sim.population
    for pid, files in assignment.items():
        population.holdings[pid] = frozenset(files)
    population.holders_by_file = [[] for _ in range(population.config.catalog_size)]
    for pid in population.joined:
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
    ]
    for overrides, key in cases:
        with pytest.raises(ConfigError) as err:
            small_config(**overrides).validate()
        assert err.value.key == key, overrides


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
    assert calibrated_reach(0, 0, 100, 10, target_volunteers=30.0) == 30
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
    for pid in population.joined:
        if population.behaviors[pid].truthful:
            for file_id in population.holdings[pid]:
                assert pid in population.holders_by_file[file_id]


# --- server selection ---


def _ledger_with(scores: dict[int, float]) -> TrustLedger:
    ledger = TrustLedger(LedgerConfig(penalty=1.0, threshold=0.0))
    for pid, value in scores.items():
        ledger.register(pid, trust=value)
    return ledger


def test_select_server_by_trust_takes_argmax():
    ledger = _ledger_with({1: 5.0, 2: 2.0, 3: 9.0})
    for seed in range(20):
        pid, mode = select_server([1, 2, 3], ledger, 1.0, Stream.from_path(seed))
        assert (pid, mode) == (3, Selection.BY_TRUST)


def test_select_server_tie_break_uniform_over_seeds():
    ledger = _ledger_with({1: 7.0, 2: 7.0})
    picks = []
    for seed in range(2000):
        pid, _ = select_server([1, 2], ledger, 1.0, Stream.from_path(seed, "tie"))
        repeat, _ = select_server([1, 2], ledger, 1.0, Stream.from_path(seed, "tie"))
        assert pid == repeat  # deterministic per seed
        picks.append(pid)
    ones = picks.count(1)
    sigma = math.sqrt(2000 * 0.25)
    assert abs(ones - 1000) < 4 * sigma


def test_select_server_random_is_uniform():
    ledger = _ledger_with({1: 50.0, 2: 0.0, 3: 3.0})
    stream = Stream.from_path(13, "uniform")
    counts = {1: 0, 2: 0, 3: 0}
    trials = 30_000
    for _ in range(trials):
        pid, mode = select_server([1, 2, 3], ledger, 0.0, stream)
        assert mode is Selection.RANDOM
        counts[pid] += 1
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    for count in counts.values():
        assert abs(count - trials / 3) < 4 * sigma


def test_select_server_rejects_empty():
    with pytest.raises(ValueError):
        select_server([], _ledger_with({}), 0.5, Stream.from_path(1))


def test_select_server_invariant_under_increasing_transform():
    raw = {1: 1.0, 2: 3.0, 3: 3.0, 4: 0.5}
    transformed = {pid: math.exp(value) for pid, value in raw.items()}
    for seed in range(200):
        a, _ = select_server([1, 2, 3, 4], _ledger_with(raw), 1.0,
                             Stream.from_path(seed, "mono"))
        b, _ = select_server([1, 2, 3, 4], _ledger_with(transformed), 1.0,
                             Stream.from_path(seed, "mono"))
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
        record = sim.run_round(0)
        assert record.gate is Gate.SERVED
        assert record.mode is Selection.RANDOM
        assert set(record.volunteer_ids) == {good, liar}
        if record.selected_id == liar:
            break
    else:
        pytest.fail("no seed in range selected the liar")
    assert record.outcome is Outcome.FAILURE
    assert record.penalty_delta == -3.0  # clamped: trust was 3, penalty 299
    assert sim.ledger.trust(liar) == 0.0
    assert sim.ledger.trust(good) == 1.0
    assert sim.ledger.trust(0) == 0.0  # requester trust untouched


def test_round_all_good_volunteers_credits_everyone():
    cfg = small_config(good_founders=4, bad_founders=0, liar_founders=0,
                       catalog_size=4, n=2, p=0.9, reach=3)
    sim = Simulation(cfg)
    set_holdings(sim, {0: {0, 1}, 1: {2, 3}, 2: {2, 3}, 3: {2, 3}})
    record = sim.run_round(0)
    assert record.gate is Gate.SERVED
    assert record.outcome is Outcome.SUCCESS
    assert set(record.volunteer_ids) == {1, 2, 3}
    assert all(sim.ledger.trust(pid) == 1.0 for pid in (1, 2, 3))


def test_round_without_volunteers_changes_nothing():
    cfg = small_config(good_founders=2, bad_founders=0, liar_founders=0,
                       catalog_size=2, n=2, p=0.9, reach=1)
    sim = Simulation(cfg)
    set_holdings(sim, {0: {0}, 1: {0}})  # nobody holds file 1
    record = sim.run_round(0)
    assert record.gate is Gate.NO_VOLUNTEERS
    assert record.volunteer_ids == ()
    assert record.outcome is None and record.selected_id is None
    assert sim.ledger.trust(1) == 0.0


def test_round_below_threshold_is_reputation_only():
    sim = three_peer_sim(threshold=5.0)
    for _ in range(3):
        sim.ledger.credit(2)
    record = sim.run_round(0)
    assert record.gate is Gate.REPUTATION_ONLY
    assert record.mode is None and record.selected_id is None
    assert record.outcome is None
    assert sim.ledger.trust(1) == 1.0
    assert sim.ledger.trust(2) == 4.0  # the liar still farms willingness credit

    # The gate is inclusive: trust equal to the threshold is served, trust
    # just below it is not.
    for threshold, gate in ((5.0, Gate.SERVED),
                            (math.nextafter(5.0, math.inf), Gate.REPUTATION_ONLY)):
        sim = three_peer_sim(threshold=threshold)
        for _ in range(5):
            sim.ledger.credit(0)
        assert sim.ledger.scores[0] == 5.0
        assert sim.run_round(0).gate is gate


def test_round_selected_good_server_event_kind():
    cfg = small_config(good_founders=4, bad_founders=0, liar_founders=0,
                       catalog_size=4, n=2, p=1.0, reach=3)
    events = []
    sim = Simulation(cfg, event_sink=events.append)
    set_holdings(sim, {0: {0, 1}, 1: {2, 3}, 2: {2, 3}, 3: {2, 3}})
    sim.ledger.credit(2)  # make peer 2 the unique argmax
    events.clear()
    record = sim.run_round(0)
    assert record.selected_id == 2
    kinds = {e.peer_id: e.kind for e in events}
    assert kinds[2] is EventKind.SELECTED_TRUTHFUL_CREDIT
    assert kinds[1] is EventKind.VOLUNTEER_CREDIT
    assert kinds[3] is EventKind.VOLUNTEER_CREDIT


def test_round_unknown_requester_rejected():
    sim = Simulation(small_config())
    from trustsim.ledger import UnknownPeerError

    with pytest.raises(UnknownPeerError):
        sim.run_round(999)


# --- volunteer sampling ---


def test_truthful_volunteers_always_hold_the_file():
    cfg = small_config(good_founders=40, bad_founders=5, liar_founders=10,
                       catalog_size=100, n=10, reach=20, threshold=1e9)
    sim = Simulation(cfg)
    population = sim.population
    rng = random.Random(2)
    for _ in range(4000):
        requester = rng.choice(population.joined)
        record = sim.run_round(requester)
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
        record = sim.run_round(requester)
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
    others = [pid for pid in population.joined if pid != requester]
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


def test_sampler_distribution_matches_reference():
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
        volunteers = sim._sampler.draw(stream, requester, file_id)
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

    for pid in population.joined:
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


def test_sampler_excludes_liar_requester():
    cfg = small_config(good_founders=2, bad_founders=0, liar_founders=2,
                       catalog_size=24, n=4, reach=3)
    sim = Simulation(cfg)
    liar = sim.population.liar_pool[0]
    stream = Stream.from_path(5, "self")
    for _ in range(500):
        volunteers = sim._sampler.draw(stream, liar, 0)
        assert liar not in volunteers


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
    sim.run()
    assert sim.population.liar_count == 5
    assert len(sim.population.liar_founder_ids) == 2
    assert sim.population.newcomer_good_ids == []


def test_never_penalized_peers_have_monotone_trust():
    events = []
    cfg = small_config(total_cycles=10, queries_per_cycle=30, penalty=5.0)
    run_simulation(cfg, event_sink=events.append)
    penalized = {e.peer_id for e in events if e.kind is EventKind.PENALTY}
    trajectory: dict[int, float] = {}
    for event in events:
        if event.peer_id in penalized:
            continue
        previous = trajectory.get(event.peer_id, 0.0)
        assert event.new_value >= previous
        trajectory[event.peer_id] = event.new_value


def test_credit_conservation_per_round():
    events = []
    cfg = small_config(good_founders=10, bad_founders=3, liar_founders=3,
                       threshold=2.0, penalty=4.0)
    sim = Simulation(cfg, event_sink=events.append)
    rng = random.Random(12)
    for _ in range(2000):
        before = len(events)
        record = sim.run_round(rng.choice(sim.population.joined))
        new = events[before:]
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
    with pytest.raises(SchemaError):
        MetricsSeries.from_csv_text(good_header + "0,a,1,1,1,1,0\n")
