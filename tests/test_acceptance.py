"""End-to-end acceptance checks.

Each test verifies one exit criterion at its stated tolerance and prints a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  The desk-scale reproduction runs the real CLI against a frozen
configuration: 2,000 founders split 70/15/15 good/bad/liar, n=100, p=0.9,
penalty 329 (the descending bound 299 plus a 10% margin), threshold 50,
catalog 1,000 files, reach 189 (calibrated for ~30 expected volunteers per
query), 620 queries per cycle, 1,000 cycles, and 100 good newcomers
injected at cycle 300.
"""

import hashlib
import random
import re
import time
from contextlib import contextmanager

import pytest

from trustsim.cli import main as cli_main
from trustsim.engine import (
    Gate,
    MetricsSeries,
    SimConfig,
    Simulation,
    calibrated_reach,
)
from trustsim.game import (
    escape_probability,
    lying_is_dominated,
    GameParams,
    penalty_bound_descending,
    penalty_bound_dominance,
)
from trustsim.ledger import EventKind, TrustLedger
from trustsim.oracle import (
    enumerate_escape_probability,
    mc_escape_frequency,
    mc_liar_payoff,
    within_sigmas,
)

from helpers import play_round

DESK = dict(
    good_founders=1400,
    bad_founders=300,
    liar_founders=300,
    catalog_size=1000,
    n=100,
    p=0.9,
    penalty=329.0,
    threshold=50,
    floor=0,
    reach=189,
    queries_per_cycle=620,
    total_cycles=1000,
    newcomers="300:100:good",
)
NEWCOMER_CYCLE = 300
RUNTIME_BUDGET_S = 60.0

# Pinned outputs: sha256 of the desk seed-1 metrics CSV, and of the trace
# CSV of TRACE_RUN (all three event kinds, reputation-only rounds, clamped
# penalties, good and liar newcomers).  Changing either must be a declared
# bug fix.
DESK_SEED1_SHA256 = "c5eb0cd41168a714be3bd3875cd19d5cd61ddb2b25af197699ee590fae8aa4fb"
TRACE_RUN = dict(
    good_founders=40, bad_founders=10, liar_founders=10, catalog_size=100,
    n=10, p=0.8, penalty=9.0, threshold=3.0, reach=12, queries_per_cycle=6,
    total_cycles=30, newcomers="10:5:good,15:3:liar", rng_seed=7,
)
TRACE_SHA256 = "80a28207ad5f5d0d91f7a58bbfed18f854f316cca1e66e28461639162ee380ea"


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def _write_desk_config(tmp_path, seed: int, metrics_name: str):
    path = tmp_path / f"desk_seed{seed}.cfg"
    lines = [f"{key} = {value}" for key, value in DESK.items()]
    lines.append(f"rng_seed = {seed}")
    lines.append(f"metrics_csv = {tmp_path / metrics_name}")
    path.write_text("\n".join(lines) + "\n")
    return path, tmp_path / metrics_name


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Three CLI runs: seed 1 twice (byte-identity) and seed 2 once."""
    tmp_path = tmp_path_factory.mktemp("desk")
    cfg_a, csv_a = _write_desk_config(tmp_path, 1, "metrics_a.csv")
    started = time.perf_counter()
    assert cli_main(["simulate", str(cfg_a)]) == 0
    elapsed = time.perf_counter() - started
    bytes_a = csv_a.read_bytes()

    cfg_a2, csv_a2 = _write_desk_config(tmp_path, 1, "metrics_a2.csv")
    assert cli_main(["simulate", str(cfg_a2)]) == 0
    bytes_a2 = csv_a2.read_bytes()

    cfg_b, csv_b = _write_desk_config(tmp_path, 2, "metrics_b.csv")
    assert cli_main(["simulate", str(cfg_b)]) == 0

    return {
        "elapsed": elapsed,
        "bytes_a": bytes_a,
        "bytes_a2": bytes_a2,
        "bytes_b": csv_b.read_bytes(),
        "series_a": MetricsSeries.from_csv(csv_a),
        "series_b": MetricsSeries.from_csv(csv_b),
    }


def _window_means(curve, width=50):
    return [
        sum(curve[i : i + width]) / width for i in range(0, len(curve), width)
    ]


def _slope(xs, ys):
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def _assert_desk_shape(series: MetricsSeries) -> None:
    rows = series.rows
    assert len(rows) == DESK["total_cycles"]
    good = [row.avg_trust_good for row in rows]
    bad = [row.avg_trust_bad for row in rows]
    liar = [row.avg_trust_liar for row in rows]
    newcomer = [row.avg_trust_newcomer_good for row in rows]

    # (a) good founders strictly increase across consecutive 50-cycle windows
    windows = _window_means(good)
    for earlier, later in zip(windows, windows[1:]):
        assert later > earlier

    # (b) liar and bad-server averages plateau
    good_final = sum(good[900:]) / 100
    plateaus = {}
    for name, curve in (("liar", liar), ("bad", bad)):
        late = sum(curve[900:]) / 100
        mid = sum(curve[600:700]) / 100
        assert abs(late - mid) <= 0.05 * good_final, name
        plateaus[name] = late

    # (c) good founders end at least 5x above each plateau
    for name, plateau in plateaus.items():
        assert good[-1] >= 5.0 * plateau, name

    # (d) newcomer growth is join-time independent
    founder_slope = _slope(range(0, NEWCOMER_CYCLE), good[:NEWCOMER_CYCLE])
    newcomer_slope = _slope(
        range(NEWCOMER_CYCLE, 2 * NEWCOMER_CYCLE),
        newcomer[NEWCOMER_CYCLE : 2 * NEWCOMER_CYCLE],
    )
    assert abs(newcomer_slope - founder_slope) <= 0.25 * founder_slope


def test_criterion_1_calibration_exactness(capsys):
    with criterion("1 calibration exactness (296.0 / 299.0 within 1e-9)"):
        assert cli_main(["analyze", "--n", "100", "--j", "30", "--p", "0.9"]) == 0
        out = capsys.readouterr().out
        dominance = float(re.search(r"penalty_bound_dominance\s*= (\S+)", out).group(1))
        descending = float(re.search(r"penalty_bound_descending\s*= (\S+)", out).group(1))
        assert abs(dominance - 296.0) < 1e-9
        assert abs(descending - 299.0) < 1e-9


def test_criterion_2_algebraic_form_equivalence():
    with criterion("2 algebraic forms of the descending bound agree (1e-9 rel)"):
        rng = random.Random(20260808)
        for _ in range(1000):
            j = rng.randint(1, 1000)
            p = rng.uniform(0.0, 0.999)
            ours = (j + p - 1) / (1 - p)
            alternate_form = (1 - j - p) / (p - 1)
            assert abs(ours - alternate_form) <= 1e-9 * max(1.0, abs(ours))
            assert penalty_bound_descending(j, p) == pytest.approx(ours, rel=1e-12)


def test_criterion_3_liar_payoff_oracle_agreement():
    with criterion("3 Monte-Carlo liar payoff within 4 sigma (1e6 trials, <10s each)"):
        started = time.perf_counter()
        at_margin = mc_liar_payoff(0.9, 329.0, 30, trials=10**6, seed=11)
        first = time.perf_counter() - started
        started = time.perf_counter()
        at_bound = mc_liar_payoff(0.9, 299.0, 30, trials=10**6, seed=12)
        second = time.perf_counter() - started
        assert within_sigmas(-0.1, at_margin)
        assert within_sigmas(0.0, at_bound)
        assert first < 10.0 and second < 10.0


def test_criterion_4_escape_oracle_agreement():
    with criterion("4 escape frequency within 4 sigma; enumeration exact to 1e-12"):
        started = time.perf_counter()
        estimate = mc_escape_frequency(30, 0.9, 100, trials=10**5, seed=13)
        assert within_sigmas(0.7161, estimate)
        for j in range(1, 5):
            for streak in range(0, 13):
                for p in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
                    exact = enumerate_escape_probability(j, p, streak)
                    assert abs(exact - escape_probability(j, p, streak)) <= 1e-12
        assert time.perf_counter() - started < 10.0


def test_criterion_5_dominance_flips_at_the_bound():
    with criterion("5 dominance flips exactly at the bound (100 random sets, ±1e-6)"):
        rng = random.Random(5150)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 1000)
            j = rng.randint(1, 1000)
            p = rng.uniform(0.0, 0.99)
            bound = penalty_bound_dominance(n, j, p)
            if bound - 1e-6 < 0.0:  # penalty cannot be negative
                continue
            below = GameParams(n=n, j=j, p=p, penalty=bound - 1e-6, reward=10, cost=1)
            above = GameParams(n=n, j=j, p=p, penalty=bound + 1e-6, reward=10, cost=1)
            assert not lying_is_dominated(below)
            assert lying_is_dominated(above)
            checked += 1


def test_criterion_6_desk_scale_trust_dynamics(desk):
    with criterion("6 desk-scale trust dynamics (monotone good, plateaus, 5x, newcomers)"):
        assert desk["elapsed"] < RUNTIME_BUDGET_S
        assert DESK["reach"] == calibrated_reach(
            DESK["good_founders"], DESK["bad_founders"], DESK["liar_founders"], DESK["n"]
        )
        _assert_desk_shape(desk["series_a"])


def test_criterion_7_absolute_levels_declared_unreproduced(desk):
    with criterion("7 absolute plateau levels and milestone cycles: declared not comparable"):
        # The reported absolute plateau values and the cycle counts at which
        # the good curve crosses them depend on undefined cycle semantics and
        # an unstated population mix, so this suite checks curve shape only
        # (criterion 6); no assertion about the absolute levels is made.
        assert desk["series_a"].rows  # the substitute shape checks did run


def test_criterion_8_determinism(desk, tmp_path):
    with criterion("8 same seed byte-identical and pinned; second seed passes the shape checks"):
        assert hashlib.sha256(desk["bytes_a"]).hexdigest() == DESK_SEED1_SHA256
        assert desk["bytes_a"] == desk["bytes_a2"]
        assert desk["bytes_b"] != desk["bytes_a"]
        _assert_desk_shape(desk["series_b"])

        config = tmp_path / "trace.cfg"
        trace = tmp_path / "trace.csv"
        lines = [f"{key} = {value}" for key, value in TRACE_RUN.items()]
        lines += [f"metrics_csv = {tmp_path / 'metrics.csv'}", f"trace_csv = {trace}"]
        config.write_text("\n".join(lines) + "\n")
        assert cli_main(["simulate", str(config)]) == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256


def test_criterion_9_ledger_invariants_randomized():
    with criterion("9 ledger invariants over 10,000 randomized rounds (<5s)"):
        started = time.perf_counter()
        events = []
        config = SimConfig(
            good_founders=20, bad_founders=6, liar_founders=6,
            catalog_size=60, n=6, p=0.8, penalty=9.0, threshold=3.0,
            total_cycles=1, rng_seed=99, reach=10, queries_per_cycle=1,
        )
        sim = Simulation(config, event_sink=events.append)
        rng = random.Random(515)
        floor = config.floor
        scores = sim.ledger.scores
        for _ in range(10_000):
            requester = rng.randrange(sim.population.size)
            before = len(events)
            record = play_round(sim, requester)
            new = events[before:]
            penalties = [e for e in new if e.kind is EventKind.PENALTY]
            credits = len(new) - len(penalties)
            # conservation: one +1 per volunteer minus the penalized one
            assert len(penalties) <= 1
            assert credits == len(record.volunteer_ids) - len(penalties)
            if record.gate is Gate.NO_VOLUNTEERS:
                assert not new
            # floor invariant on every value the round touched
            for event in new:
                assert event.new_value >= floor
        assert all(value >= floor for value in scores)
        # monotonicity: peers never penalized never lose trust
        penalized_ids = {e.peer_id for e in events if e.kind is EventKind.PENALTY}
        last_seen: dict[int, float] = {}
        for event in events:
            if event.peer_id in penalized_ids:
                continue
            assert event.new_value >= last_seen.get(event.peer_id, floor)
            last_seen[event.peer_id] = event.new_value
        # replay reproduces the live scores for a same-shaped ledger run
        replay_ledger = TrustLedger.replay(events, sim.ledger.config, len(scores))
        assert replay_ledger == scores
        assert time.perf_counter() - started < 5.0
