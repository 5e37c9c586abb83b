"""trustsim benchmark: four workloads, end-to-end metrics, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
untraced unit, one unit that times spans and one that counts draws, and
reports the per-layer metrics (see ``spans.py``).  Metric names and units
are read from ``BENCHMARK.json``; ``README.md`` says why each workload was chosen and
which end-to-end metric each layer metric should move.

A unit is one complete run of the workload: for a simulation workload, the
steps ``trustsim simulate`` takes (load the config, build the
``Simulation``, run every cycle, write the metrics CSV and, for
``eventlog``, the trace CSV); for ``oracle``, acceptance criteria 3 and 4.
A run makes units one after another, in one process and on one thread,
until another unit would end after ``--seconds``; it makes at least one.
Every unit's output is checked against ``pins.json``; a unit whose output
differs counts as failed.

The machine may be shared, and its speed may change by half within a
minute.  So the end-to-end timings are given at a reference speed: a fixed
loop of the benchmark's own code is timed between pieces of work (after
every cycle and set-up of a simulation; every ``CAL_PERIOD_S`` seconds from
a timer signal during the oracle's long estimator calls), and the work
after each sample is scaled by ``CAL_REFERENCE_S`` over that sample's loop
time.  The loop's own time is left out of every timing.  The per-layer
metrics of ``--trace 1`` are raw times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric by name and unit, and the environment the numbers
depend on.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"

sys.path.insert(0, str(SRC))
try:
    from trustsim import engine, game, ledger, oracle, rng, runconfig
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import trustsim from {SRC}: {exc}") from None
if Path(engine.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"perfbench: trustsim was imported from {engine.__file__}, not {SRC}")

from spans import Tracer  # noqa: E402  (needs trustsim on the path)

# Set-ups made before the first unit and not run, so that set-up time has
# enough samples for a steady median.
EXTRA_SETUPS = 8
# Oracle set-up is two stream derivations, a few microseconds: it is timed
# in batches of this many.
DERIVE_BATCHES = 101
DERIVE_BATCH_SIZE = 100
SIGMAS = 4.0
# The calibration loop: CAL_ITERATIONS steps, about a millisecond; during
# the oracle's estimators, every CAL_PERIOD_S seconds (2% of a run).
# CAL_REFERENCE_S is the loop time of the reference speed that normalized
# timings are given at.
CAL_ITERATIONS = 1000
CAL_PERIOD_S = 0.05
CAL_REFERENCE_S = 1e-3
CAL_WARMUP = 20


@dataclass(frozen=True)
class SimWorkload:
    name: str
    config: dict  # config-file keys, without the run length, seed and paths
    cycles: int
    trace_csv: bool = False


@dataclass(frozen=True)
class OracleWorkload:
    name: str
    liar: tuple  # mc_liar_payoff(p, penalty, j, trials)
    escape: tuple  # mc_escape_frequency(j, p, streak, trials)


# The paper's desk configuration (tests/test_acceptance.py::DESK).  A unit
# stops 10 cycles after the newcomers join at cycle 300, so the injection
# and the newcomer curve are inside every unit.
DESK = dict(
    good_founders=1400, bad_founders=300, liar_founders=300,
    catalog_size=1000, n=100, p=0.9, penalty=329.0, threshold=50, floor=0,
    reach=189, queries_per_cycle=620, newcomers="300:100:good",
)
CHURN_CYCLES = 400

WORKLOADS = {
    "desk": SimWorkload("desk", DESK, cycles=310),
    # The desk rounds with every trust change written to the trace CSV.  At
    # about 0.6 MB of trace per cycle a unit stops after 40 cycles.
    "eventlog": SimWorkload("eventlog", DESK, cycles=40, trace_csv=True),
    # Ten times the desk population, so each file has about ten times the
    # truthful holders, few rounds per cycle, and ten newcomers every
    # cycle, rotating good/bad/liar.  Reach is left to calibration (189).
    "churn": SimWorkload(
        "churn",
        dict(
            good_founders=14000, bad_founders=3000, liar_founders=3000,
            catalog_size=1000, n=100, p=0.9, penalty=329.0, threshold=50,
            floor=0, queries_per_cycle=20,
            newcomers=",".join(
                f"{cycle}:10:{('good', 'bad', 'liar')[cycle % 3]}"
                for cycle in range(CHURN_CYCLES)
            ),
        ),
        cycles=CHURN_CYCLES,
    ),
    # Acceptance criteria 3 and 4.
    "oracle": OracleWorkload(
        "oracle", liar=(0.9, 329.0, 30, 10**6), escape=(30, 0.9, 100, 10**5)
    ),
}

# Spans whose draws belong to a query round: the requester draw in
# run_cycle, the file and volunteer draws in run_round, and selection.
ROUND_SPANS = ("engine.run_cycle", "engine.run_round", "engine.select_server")


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


def workload_seed(seed: int, pins: dict) -> int:
    """Map any ``--seed`` onto a seed whose outputs are pinned."""
    rotation = pins["rotation"]
    if seed in rotation or seed == pins["held_out"]:
        return seed
    return rotation[seed % len(rotation)]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- calibration ---------------------------------------------------------

_MASK64 = (1 << 64) - 1


def calibration_loop() -> int:
    """A fixed amount of work like the program's: 64-bit integer mixing,
    dict counting and list appends.  It calls nothing of the package, so no
    change to the package can change its time."""
    state, seen, drawn = 0, {}, []
    for _ in range(CAL_ITERATIONS):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        seen[z & 1023] = seen.get(z & 1023, 0) + 1
        drawn.append(z >> 11)
    return len(seen) + len(drawn)


class Calibrator:
    """A clock that reads seconds of work at the reference speed.

    It times ``calibration_loop`` when ``sample`` is called between pieces
    of work and, if made with a period, every ``period`` seconds from a
    SIGALRM handler while it is entered.  The work done between two samples
    is scaled by CAL_REFERENCE_S over the loop time of the first of them,
    so each piece of work is normalized by the speed seen next to it; the
    loop's own time is left out.  Work that has boundaries is sampled at
    them: samples taken right after a timer interrupt read slower than the
    work around them when the machine is fast."""

    def __init__(self, period: float | None = None):
        self.period = period
        self.samples: list[float] = []
        # (reference seconds up to the last sample, when it ended, the
        # factor for work after it), replaced whole so that a sample taken
        # from the signal handler never leaves it half updated.
        self.state = (0.0, time.perf_counter(), 1.0)

    def sample(self, *_signal) -> None:
        begin = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        reference, last, factor = self.state
        self.samples.append(end - begin)
        self.state = (reference + (begin - last) * factor, end,
                      CAL_REFERENCE_S / (end - begin))

    def clock(self) -> float:
        reference, last, factor = self.state
        return reference + (time.perf_counter() - last) * factor

    def __enter__(self) -> "Calibrator":
        for _ in range(CAL_WARMUP):
            self.sample()
        if self.period is not None:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


# -- simulation workloads ------------------------------------------------


@dataclass
class SimUnit:
    setup_s: float
    cycle_s: list[float]
    wall_s: float
    queries_per_cycle: int
    outputs: dict  # sha256 of each output file
    trace_bytes: int
    problems: list[str] = field(default_factory=list)  # found while making the unit


def write_config(workload: SimWorkload, seed: int, workdir: Path) -> Path:
    lines = [f"{key} = {value}" for key, value in workload.config.items()]
    lines += [
        f"total_cycles = {workload.cycles}",
        f"rng_seed = {seed}",
        f"metrics_csv = {workdir / 'metrics.csv'}",
    ]
    if workload.trace_csv:
        lines.append(f"trace_csv = {workdir / 'trace.csv'}")
    path = workdir / f"{workload.name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def set_up(config_path: Path, stack: ExitStack):
    """Load the config and build the Simulation, as ``trustsim simulate``
    does; the trace file, if any, stays open until ``stack`` closes."""
    run = runconfig.load_run_config(config_path)
    sink = None
    if run.trace_csv is not None:
        sink = ledger.EventCsvSink(stack.enter_context(open(run.trace_csv, "w", newline="")))
    return run, engine.Simulation(run.sim, event_sink=sink)


def run_sim_unit(config_path: Path, cal: Calibrator | None = None) -> SimUnit:
    clock = cal.clock if cal else time.perf_counter
    started = clock()
    with ExitStack() as stack:
        run, sim = set_up(config_path, stack)
        ready = clock()
        rows = []
        cycle_s = []
        for cycle in range(run.sim.total_cycles):
            begin = clock()
            rows.append(sim.run_cycle(cycle))
            cycle_s.append(clock() - begin)
            if cal:
                cal.sample()
        engine.MetricsSeries(rows).write_csv(run.metrics_csv)
    wall_s = clock() - started

    outputs = {"metrics_sha256": sha256_file(Path(run.metrics_csv))}
    trace_bytes = 0
    if run.trace_csv is not None:
        trace = Path(run.trace_csv)
        outputs["trace_sha256"] = sha256_file(trace)
        trace_bytes = trace.stat().st_size
        trace.unlink()
    return SimUnit(
        ready - started, cycle_s, wall_s, run.sim.queries_per_cycle, outputs, trace_bytes
    )


# -- oracle workload -----------------------------------------------------


@dataclass
class OracleUnit:
    setup_s: float
    liar_s: float
    escape_s: float
    wall_s: float
    outputs: dict  # the exact estimates
    problems: list[str]  # estimates not within SIGMAS standard errors of the closed form


def derive_streams_s(seed: int, clock) -> float:
    """Time to derive the two oracle streams, as the estimators do."""
    batches = []
    for _ in range(DERIVE_BATCHES):
        begin = clock()
        for _ in range(DERIVE_BATCH_SIZE):
            rng.Stream.from_path(seed, "mc-liar-payoff")
            rng.Stream.from_path(seed, "mc-escape")
        batches.append(clock() - begin)
    return statistics.median(batches) / DERIVE_BATCH_SIZE


def run_oracle_unit(workload: OracleWorkload, seed: int, clock=time.perf_counter) -> OracleUnit:
    setup_s = derive_streams_s(seed, clock)
    begin = clock()
    liar = oracle.mc_liar_payoff(*workload.liar, seed=seed)
    middle = clock()
    escape = oracle.mc_escape_frequency(*workload.escape, seed=seed)
    end = clock()

    p, penalty, j, _ = workload.liar
    esc_j, esc_p, streak, _ = workload.escape
    closed_forms = {
        "liar": (game.expected_liar_payoff(p, penalty, j), liar),
        "escape": (game.escape_probability(esc_j, esc_p, streak), escape),
    }
    problems = [
        f"{name} estimate {result.mean!r} is not within {SIGMAS:g} sigma of {expected!r}"
        for name, (expected, result) in closed_forms.items()
        if not oracle.within_sigmas(expected, result, SIGMAS)
    ]
    outputs = {
        "liar": [liar.mean, liar.std_error],
        "escape": [escape.mean, escape.std_error],
    }
    return OracleUnit(
        setup_s, middle - begin, end - middle, setup_s + end - begin, outputs, problems
    )


# -- checks --------------------------------------------------------------


def check(unit, expected: dict | None) -> list[str]:
    """Differences between a unit's outputs and the pinned ones."""
    problems = list(unit.problems)
    if expected is None:
        return problems + ["no pinned outputs for this workload and seed"]
    pinned = expected["outputs"]
    for key in sorted(set(unit.outputs) | set(pinned)):
        if unit.outputs.get(key) != pinned.get(key):
            problems.append(f"{key}: got {unit.outputs.get(key)}, pinned {pinned.get(key)}")
    return problems


# -- measurement ---------------------------------------------------------


@dataclass
class Result:
    metrics: dict  # every metric of the run, by name
    attempted: int
    failed: int
    notes: dict  # metric name -> how it was taken, for the report
    problems: list[str]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(make_unit, deadline: float) -> list:
    """Units until another one would end after ``deadline``; at least one."""
    units = []
    while True:
        begin = time.perf_counter()
        units.append(make_unit())
        end = time.perf_counter()
        if end + (end - begin) > deadline:
            return units


def measure(workload, seed: int, seconds: float, expected: dict | None, workdir: Path) -> Result:
    """The end-to-end metrics, with tracing off and timings normalized."""
    if isinstance(workload, OracleWorkload):
        with Calibrator(CAL_PERIOD_S) as cal:
            deadline = time.perf_counter() + seconds
            units = run_units(lambda: run_oracle_unit(workload, seed, cal.clock), deadline)
        setups = [u.setup_s for u in units]
    else:
        with Calibrator() as cal:
            deadline = time.perf_counter() + seconds
            config_path = write_config(workload, seed, workdir)
            setups = []
            for _ in range(EXTRA_SETUPS):
                with ExitStack() as stack:
                    begin = cal.clock()
                    set_up(config_path, stack)
                    setups.append(cal.clock() - begin)
                cal.sample()
            units = run_units(lambda: run_sim_unit(config_path, cal), deadline)
        setups += [u.setup_s for u in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u.wall_s for u in units),
    }
    if isinstance(workload, OracleWorkload):
        rounds = workload.liar[3] + (expected["escape_rounds"] if expected else 0)
        metrics["liar_payoff_s"] = statistics.median(u.liar_s for u in units)
        metrics["escape_s"] = statistics.median(u.escape_s for u in units)
        estimator_s = statistics.median(u.liar_s + u.escape_s for u in units)
        metrics["rounds_per_s"] = ratio(rounds, estimator_s)
        notes = {
            "rounds_per_s": ("liar-payoff trials plus escape rounds over the median "
                             f"of {len(units)} units' estimator time"),
            "liar_payoff_s": f"median of {len(units)} units",
            "escape_s": f"median of {len(units)} units",
        }
    else:
        cycles = [c for u in units for c in u.cycle_s]
        metrics["rounds_per_s"] = ratio(units[0].queries_per_cycle, statistics.median(cycles))
        deciles = statistics.quantiles(cycles, n=10) if len(cycles) > 1 else cycles * 9
        metrics["cycle_ms_p50"] = statistics.median(cycles) * 1e3
        metrics["cycle_ms_p90"] = deciles[8] * 1e3
        notes = {
            "rounds_per_s": f"query rounds per cycle over the median of {len(cycles)} cycles",
            "cycle_ms_p50": f"of {len(cycles)} cycles",
            "cycle_ms_p90": f"of {len(cycles)} cycles",
        }
    notes["setup_s"] = f"median of {len(setups)}"
    notes["wall_s"] = f"median of {len(units)} units"

    checks = [check(u, expected) for u in units]
    problems = [p for unit_problems in checks for p in unit_problems]
    failed = sum(1 for unit_problems in checks if unit_problems)
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes["peak_rss_mb"] = "high-water mark of this process"
    metrics["failed_share"] = ratio(failed, len(units))
    notes["failed_share"] = f"{failed} of {len(units)} units"
    metrics["calibration_ms"] = statistics.median(cal.samples) * 1e3
    notes["calibration_ms"] = (f"median of {len(cal.samples)} calibration loops; "
                               f"timings are at {CAL_REFERENCE_S * 1e3:g} ms")
    return Result(metrics, len(units), failed, notes, problems)


def exact_counts(tracer: Tracer, unit) -> dict:
    """Counts of a traced unit; they repeat exactly for the same seed.  The
    draw counts are there only if the tracer counted draws."""
    counts = {
        "rounds": tracer.total_calls("engine.run_round"),
        "volunteers": tracer.counts["volunteers"],
        "gate.served": tracer.counts["gate.served"],
        "gate.reputation_only": tracer.counts["gate.reputation_only"],
        "gate.no_volunteers": tracer.counts["gate.no_volunteers"],
        "select_calls": tracer.total_calls("engine.select_server"),
        "credits": tracer.total_calls("ledger.credit") + tracer.counts["credit_many_ids"],
        "penalties": tracer.total_calls("ledger.penalize"),
        "penalties_clamped": tracer.counts["penalties_clamped"],
        "events": tracer.total_calls("ledger.sink"),
        "peers_added": tracer.total_calls("engine.add_peer"),
        "trace_bytes": getattr(unit, "trace_bytes", 0),
        "liar_trials": tracer.counts["trials.oracle.mc_liar_payoff"],
        "escape_trials": tracer.counts["trials.oracle.mc_escape_frequency"],
    }
    if tracer.count_draws:
        escape = ("oracle.mc_escape_frequency",)
        counts["round_u64"] = tracer.total_calls("rng.next_u64", ROUND_SPANS)
        counts["liar_u64"] = tracer.total_calls("rng.next_u64", ("oracle.mc_liar_payoff",))
        counts["escape_u64"] = tracer.total_calls("rng.next_u64", escape)
        counts["escape_rounds"] = tracer.total_calls("rng.random", escape)
    return counts


def layer_metrics(timer: Tracer, counts: dict, timed, untraced) -> dict:
    """Per-layer metrics: times from the unit that timed spans without
    counting draws, counts from the unit that counted them, and the oracle's
    time per trial from the untraced unit.  Layers without a public entry
    are the self time of the span around them: the volunteer draw is
    ``run_round`` minus selection and ledger calls, and metrics aggregation
    is ``run_cycle`` minus its rounds, derivations and injections."""
    t = timer
    rounds = counts["rounds"]
    cycles = t.total_calls("engine.run_cycle")
    liar_trials = counts["liar_trials"]
    escape_trials = counts["escape_trials"]

    def per_call_ns(span: str) -> float:
        return ratio(t.total_ns(span), t.total_calls(span))

    return {
        "rng.u64_per_round": ratio(counts["round_u64"], rounds),
        "rng.derive_us_per_round":
            ratio(t.total_ns("rng.from_path", ("engine.run_cycle",)), rounds) / 1e3,
        "rng.hypergeom_cdf_ms": per_call_ns("rng.hypergeom_cdf") / 1e6,
        "rng.u64_per_liar_trial": ratio(counts["liar_u64"], liar_trials),
        "rng.u64_per_escape_trial": ratio(counts["escape_u64"], escape_trials),
        "engine.rounds": rounds,
        "engine.draw_us_per_round": ratio(t.self_ns("engine.run_round"), rounds) / 1e3,
        "engine.volunteers_per_round": ratio(counts["volunteers"], rounds),
        "engine.select_us_per_call": per_call_ns("engine.select_server") / 1e3,
        "engine.select_calls": counts["select_calls"],
        "engine.gate_served_share": ratio(counts["gate.served"], rounds),
        "engine.gate_reputation_only_share": ratio(counts["gate.reputation_only"], rounds),
        "engine.gate_no_volunteers_share": ratio(counts["gate.no_volunteers"], rounds),
        "engine.cycle_self_ms": ratio(t.self_ns("engine.run_cycle"), cycles) / 1e6,
        "engine.build_population_s": per_call_ns("engine.build_population") / 1e9,
        "engine.add_peer_us": per_call_ns("engine.add_peer") / 1e3,
        "engine.peers_added": counts["peers_added"],
        "engine.csv_write_ms": per_call_ns("engine.write_csv") / 1e6,
        "ledger.credit_us_per_round":
            ratio(t.self_ns("ledger.credit") + t.self_ns("ledger.credit_many"), rounds) / 1e3,
        "ledger.penalize_us_per_call": ratio(t.self_ns("ledger.penalize"),
                                             counts["penalties"]) / 1e3,
        "ledger.credits": counts["credits"],
        "ledger.penalties": counts["penalties"],
        "ledger.penalties_clamped_share":
            ratio(counts["penalties_clamped"], counts["penalties"]),
        "ledger.events": counts["events"],
        "ledger.sink_us_per_event": ratio(t.total_ns("ledger.sink"), counts["events"]) / 1e3,
        "ledger.trace_bytes": counts["trace_bytes"],
        "oracle.liar_payoff_ns_per_trial":
            ratio(getattr(untraced, "liar_s", 0.0), liar_trials) * 1e9,
        "oracle.escape_ns_per_trial":
            ratio(getattr(untraced, "escape_s", 0.0), escape_trials) * 1e9,
        "oracle.escape_rounds": counts["escape_rounds"],
        "runconfig.load_ms": per_call_ns("runconfig.load_run_config") / 1e6,
        "trace_overhead_ratio": ratio(timed.wall_s, untraced.wall_s),
        **source_lines(),
    }


def source_lines() -> dict:
    """Lines of each module of the package, and their total."""
    counts = {}
    for path in sorted((SRC / "trustsim").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        counts[f"{name}.loc"] = len(path.read_text(encoding="utf-8").splitlines())
    counts["src.loc"] = sum(counts.values())
    return counts


def make_unit(workload, seed: int, workdir: Path):
    if isinstance(workload, OracleWorkload):
        return run_oracle_unit(workload, seed)
    return run_sim_unit(write_config(workload, seed, workdir))


def traced_unit(workload, seed: int, workdir: Path, count_draws: bool):
    with Tracer(count_draws) as tracer:
        unit = make_unit(workload, seed, workdir)
    return unit, tracer


def measure_traced(workload, seed: int, expected: dict | None, workdir: Path) -> Result:
    """The per-layer metrics, from three units made one after another: an
    untraced one, one that times spans and one that also counts draws.
    Every unit's output must match the pins, so tracing changed no output,
    and the counts the last two units share must be equal."""
    untraced = make_unit(workload, seed, workdir)
    timed, timer = traced_unit(workload, seed, workdir, count_draws=False)
    counted, counter = traced_unit(workload, seed, workdir, count_draws=True)
    timed_counts = exact_counts(timer, timed)
    counts = exact_counts(counter, counted)
    checks = {
        "untraced": check(untraced, expected),
        "timed": check(timed, expected),
        "counting": check(counted, expected) + [
            f"count {key}: {counts[key]}, but {value} in the timed unit"
            for key, value in timed_counts.items()
            if counts[key] != value
        ],
    }
    problems = [f"{label}: {p}" for label, found in checks.items() for p in found]
    failed = sum(1 for found in checks.values() if found)
    metrics = layer_metrics(timer, counts, timed, untraced)
    return Result(metrics, len(checks), failed, {}, problems)


def pin(workload, seed: int, workdir: Path) -> dict:
    """What ``pins.json`` keeps for one workload and seed: a unit's outputs
    and, for ``oracle``, the rounds its escape estimator simulates (one
    ``random`` draw each), the base of the oracle's ``rounds_per_s``."""
    if isinstance(workload, SimWorkload):
        return {"outputs": make_unit(workload, seed, workdir).outputs}
    unit, tracer = traced_unit(workload, seed, workdir, count_draws=True)
    return {"outputs": unit.outputs, "escape_rounds": exact_counts(tracer, unit)["escape_rounds"]}


# -- report --------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "trustsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    end_to_end, per_layer = metric_units()
    pins = load_pins(PINS_PATH)
    seed = workload_seed(args.seed, pins)
    expected = pins["workloads"].get(args.workload, {}).get(str(seed))
    workload = WORKLOADS[args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            result = measure_traced(workload, seed, expected, workdir)
            reported = per_layer
        else:
            result = measure(workload, seed, args.seconds, expected, workdir)
            reported = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} workload_seed={seed} "
          f"trace={args.trace} attempted={result.attempted} failed={result.failed}")
    print("env " + json.dumps(env))
    units = {**end_to_end, **per_layer, "cycle_ms_p50": "ms", "cycle_ms_p90": "ms",
             "liar_payoff_s": "s", "escape_s": "s", "failed_share": "share",
             "calibration_ms": "ms"}
    for name, value in result.metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]:6s} {result.notes.get(name, '')}")
    for problem in result.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
