"""Round-based simulation of the volunteer-credit trust mechanism.

A population of behaviorally fixed peers plays repeated query rounds.
Peer ids are dense (0..N-1, founders first in the order good, bad, liar,
then newcomers as they join), so an id is also the index into every
per-peer list, the ledger's ``scores`` included.  Each round:

1. A requester, drawn uniformly from the peers, picks a uniformly
   random file it does not hold.
2. The query floods to a uniform ``reach``-sized sample of the other
   peers; volunteers are every sampled liar plus every sampled truthful
   peer holding the file.
3. No volunteers: nothing changes.
4. Requester below the service threshold: reputation-only round — every
   volunteer is credited +1 for its willingness, but nobody is served.
5. Otherwise a server is selected (by trust with probability p, uniformly
   at random with probability 1-p).  A good server means success and every
   volunteer is credited; a liar or bad server means failure, the selected
   peer pays the penalty (clamped at the floor) and the other volunteers
   are credited.

The flooding sample itself is never materialized: ``Population.volunteers``
draws volunteer counts from the exact sample-intersection distribution
(multivariate hypergeometric) and members uniformly within each class,
which is distributionally identical to sampling ``reach`` peers and
filtering, and is what keeps desk-scale runs fast.  Cycles are a fixed
batch of ``queries_per_cycle`` rounds; metrics are recorded per cycle.

Determinism: all randomness derives from ``rng_seed`` via counter-based
stream splitting (see :mod:`trustsim.rng`) — one stream per peer for its
holdings (one step from a prefix derived once), one per round for all its
draws — so a run is byte-reproducible from its configuration.

Draw, then apply: a round's stream depends only on the seed and the round
index, so ``run_cycle`` takes each round's draws from ``rng.round_draws``
(lane passes shared by many rounds) as one iterator, draws the round with
``draw_round``, which reads no trust, and then applies it with
``run_round``.  The draws are consumed in stream order: requester, file
(redrawn while the requester holds it), volunteers, selection.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator, NamedTuple

from .game import Selection
from .ledger import EventKind, EventSink, LedgerConfig, TrustLedger
from .rng import (RANDOM_SCALE, child_seed, derive_seed, draw_hypergeom, hypergeom_cdf,
                  round_draws, u64_stream)

DEFAULT_VOLUNTEER_TARGET = 30.0
# Every draw below n has n below this (the rng module docstring): the
# population and the catalog are kept under it.
MAX_DRAW_RANGE = 2**32
# The smallest unsigned array typecode that holds every file id and every
# peer id (both below MAX_DRAW_RANGE): 4 bytes on common platforms.
HOLDINGS_TYPECODE = next(code for code in "IL" if array(code).itemsize >= 4)


class ConfigError(ValueError):
    """Invalid configuration; ``key`` names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class SchemaError(ValueError):
    """CSV does not match the metrics schema."""


class Behavior(Enum):
    GOOD_SERVER = "good"
    BAD_SERVER = "bad"
    LIAR = "liar"

    @property
    def truthful(self) -> bool:
        """Truthful peers answer a query only when they hold the file."""
        return self is not Behavior.LIAR

    @classmethod
    def parse(cls, text: str) -> "Behavior":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown behavior {text!r} (expected good/bad/liar)") from None


class Gate(Enum):
    SERVED = "served"
    REPUTATION_ONLY = "reputation_only"
    NO_VOLUNTEERS = "no_volunteers"


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class Injection:
    """Scheduled newcomer arrivals: ``count`` peers of one behavior at the
    start of ``cycle``."""

    cycle: int
    count: int
    behavior: Behavior


@dataclass(frozen=True)
class SimConfig:
    good_founders: int
    bad_founders: int
    liar_founders: int
    catalog_size: int
    n: int
    p: float
    penalty: float
    threshold: float
    total_cycles: int
    rng_seed: int
    floor: float = 0.0
    queries_per_cycle: int | None = None  # default: founder population // 10
    reach: int | None = None  # default: calibrated for ~30 expected volunteers
    newcomers: tuple[Injection, ...] = ()

    @property
    def founder_population(self) -> int:
        return self.good_founders + self.bad_founders + self.liar_founders

    def validate(self) -> "SimConfig":
        """Check invariants and resolve defaulted fields; returns the
        fully concrete config this run will use."""
        for key in ("good_founders", "bad_founders", "liar_founders"):
            if getattr(self, key) < 0:
                raise ConfigError(key, "must be >= 0")
        if self.founder_population < 2:
            raise ConfigError("good_founders", "need at least 2 founders in total")
        if self.founder_population >= MAX_DRAW_RANGE:
            raise ConfigError("good_founders", "founders must number below 2**32")
        if self.catalog_size < 1:
            raise ConfigError("catalog_size", "must be >= 1")
        if self.catalog_size >= MAX_DRAW_RANGE:
            raise ConfigError("catalog_size", "must be below 2**32")
        if self.n < 1:
            raise ConfigError("n", "must be >= 1")
        if self.catalog_size < self.n:
            raise ConfigError("catalog_size", "must be >= n (holdings would be empty)")
        if holdings_size(self.catalog_size, self.n) >= self.catalog_size:
            raise ConfigError(
                "n", "peers would hold the entire catalog; nothing left to request"
            )
        for key in ("p", "penalty", "threshold", "floor"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(key, "must be a finite number")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("p", "must be within [0, 1]")
        if self.penalty <= 0.0:
            raise ConfigError("penalty", "must be > 0")
        if not 0 <= self.rng_seed < 2**64:
            # Seeds are used modulo 2**64: any other integer aliases one.
            raise ConfigError("rng_seed", "must be within [0, 2**64)")
        if self.threshold < self.floor:
            raise ConfigError("threshold", "must be >= floor")
        if self.total_cycles < 1:
            raise ConfigError("total_cycles", "must be >= 1")
        for injection in self.newcomers:
            if injection.cycle < 0:
                raise ConfigError("newcomers", "cycle must be >= 0")
            if injection.count < 1:
                raise ConfigError("newcomers", "count must be >= 1")
        if self.founder_population + sum(i.count for i in self.newcomers) >= MAX_DRAW_RANGE:
            raise ConfigError("newcomers", "founders plus newcomers must number below 2**32")

        queries = self.queries_per_cycle
        if queries is None:
            queries = max(1, self.founder_population // 10)
        if queries < 1:
            raise ConfigError("queries_per_cycle", "must be >= 1")

        reach = self.reach
        if reach is None:
            reach = calibrated_reach(
                self.good_founders, self.bad_founders, self.liar_founders, self.n
            )
        if reach < 1:
            raise ConfigError("reach", "must be >= 1")
        if reach > self.founder_population - 1:
            raise ConfigError(
                "reach", "must be <= population - 1 (a query cannot reach more peers)"
            )
        return dataclasses.replace(self, queries_per_cycle=queries, reach=reach)


def holdings_size(catalog_size: int, n: int) -> int:
    return round(catalog_size / n)


def calibrated_reach(good: int, bad: int, liars: int, n: int) -> int:
    """Reach giving ~``DEFAULT_VOLUNTEER_TARGET`` expected volunteers per query:
    every sampled liar volunteers, a sampled truthful peer does so with
    probability 1/n."""
    population = good + bad + liars
    if population < 2:
        raise ConfigError("reach", "population too small to calibrate reach")
    rate = (liars + (good + bad) / n) / population
    if rate <= 0.0:
        raise ConfigError("reach", "no peer can ever volunteer; cannot calibrate")
    return max(1, min(population - 1, round(DEFAULT_VOLUNTEER_TARGET / rate)))


class RoundRecord(NamedTuple):
    """What one round did.

    Trust deltas: every id in ``volunteer_ids`` was credited +1 except a
    penalized ``selected_id``, whose applied (floor-clamped) change is
    ``penalty_delta``.
    """

    round_index: int
    requester_id: int
    file_id: int
    volunteer_ids: tuple[int, ...]
    gate: Gate
    mode: Selection | None
    selected_id: int | None
    outcome: Outcome | None
    penalty_delta: float


class Population:
    """Peers (dense ids, see above), their holdings, the per-file
    truthful-holder index, and the volunteer draw.  ``config`` must be
    validated; :func:`build_population` does that and adds the founders.

    A peer's holdings are an ``array`` of its ``holdings_size`` file ids in
    strictly increasing order (typecode ``HOLDINGS_TYPECODE``), so a
    membership test is a bisection and a peer keeps no per-file objects."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.holdings_size = holdings_size(config.catalog_size, config.n)
        self.behaviors: list[Behavior] = []
        self.holdings: list[array] = []  # sorted file ids per peer
        self.liar_pool: list[int] = []
        self.holders_by_file: list[array] = [  # truthful peer ids per file, in id order
            array(HOLDINGS_TYPECODE) for _ in range(config.catalog_size)]
        self.newcomer_good_ids: list[int] = []
        self._holdings_prefix = derive_seed(config.rng_seed, "holdings")
        # Liar-count CDFs for a truthful and for a liar requester; built by
        # the first draw after the population changes.
        self._cdfs: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.behaviors)

    @property
    def liar_count(self) -> int:
        return len(self.liar_pool)

    def add_peer(self, behavior: Behavior) -> int:
        peer_id = len(self.behaviors)
        size, catalog = self.holdings_size, self.config.catalog_size
        draws = u64_stream(child_seed(self._holdings_prefix, peer_id), size)
        files = {(u * catalog) >> 64 for u in islice(draws, size)}
        while len(files) < size:  # a repeat: draw on
            files.add((next(draws) * catalog) >> 64)
        self.behaviors.append(behavior)
        self.holdings.append(array(HOLDINGS_TYPECODE, sorted(files)))
        if behavior.truthful:
            for file_id in files:
                self.holders_by_file[file_id].append(peer_id)
        else:
            self.liar_pool.append(peer_id)
        if peer_id >= self.config.founder_population and behavior is Behavior.GOOD_SERVER:
            self.newcomer_good_ids.append(peer_id)
        self._cdfs = None
        return peer_id

    def volunteers(self, draws: Iterator[int], requester_id: int, file_id: int) -> list[int]:
        """Draw one query's volunteer set, taking from ``draws`` (raw 64-bit
        stream outputs) the draws it uses and no more.

        Equivalent in distribution to sampling ``reach`` of the other peers
        uniformly without replacement and keeping all liars plus truthful
        holders of the file: the class counts follow the multivariate
        hypergeometric law (liar count from a cached CDF, holder count by
        sequential conditional draws over the file's holder list, which
        also picks the members), and liar members are a partial
        Fisher-Yates sample.  The requester must not hold the file;
        ``liar_pool`` is left as it was found.
        """
        if self._cdfs is None:
            others, liars, reach = self.size - 1, self.liar_count, self.config.reach
            # A truthful requester exists only if some peer is not a liar.
            self._cdfs = (
                hypergeom_cdf(others, liars, reach) if liars <= others else None,
                hypergeom_cdf(others, liars - 1, reach) if liars > 0 else None,
            )
        pool = self.liar_pool
        requester_is_liar = self.behaviors[requester_id] is Behavior.LIAR
        liar_limit = len(pool) - 1 if requester_is_liar else len(pool)
        if requester_is_liar:
            # Park the requester at the end of the pool so the sample prefix
            # never contains it; undone below.  The pool is in id order, as
            # add_peer appends rising ids and every swap is undone.
            pos = bisect_left(pool, requester_id)
            pool[pos], pool[liar_limit] = pool[liar_limit], pool[pos]
        liar_draws = 0
        if liar_limit > 0:
            cdf = self._cdfs[1] if requester_is_liar else self._cdfs[0]
            liar_draws = draw_hypergeom(cdf, (next(draws) >> 11) * RANDOM_SCALE)

        # Partial Fisher-Yates: swap i with ks[i] = i + a draw below liar_limit
        # - i; the swaps are undone in reverse so the pool is left as it was.
        ks = []
        for i, u in zip(range(liar_draws), draws):
            k = i + ((u * (liar_limit - i)) >> 64)
            pool[i], pool[k] = pool[k], pool[i]
            ks.append(k)
        volunteers = pool[:liar_draws]
        for i in range(liar_draws - 1, -1, -1):
            k = ks[i]
            pool[i], pool[k] = pool[k], pool[i]
        if requester_is_liar:
            pool[pos], pool[liar_limit] = pool[liar_limit], pool[pos]

        # Truthful holders: each is in the sample's remaining slots with the
        # exact conditional probability given how many slots are left among
        # the non-liar peers.  One draw per holder scanned, by position: zip
        # takes a draw only for a holder it reaches, only an accepted holder's
        # id is read, and no holder is scanned once the slots run out.
        slots = self.config.reach - liar_draws
        available = self.size - 1 - liar_limit
        scale = RANDOM_SCALE
        holders = self.holders_by_file[file_id] if slots else ()
        # Integer pre-filter; the float test still decides.  It accepts only if
        # (u >> 11) * (available - j) < slots * 2**53, slots only falls, and
        # available - j >= this denominator >= 1 (holders: non-liars, not the requester).
        bound = -(-(slots << 53) // (available - len(holders) + 1)) << 11
        for j, u in zip(range(len(holders)), draws):
            if u < bound and (u >> 11) * scale * (available - j) < slots:  # random() * available
                volunteers.append(holders[j])
                slots -= 1
                if not slots:
                    break
        return volunteers


def build_population(config: SimConfig) -> Population:
    """Founders with uniformly random holdings, in the order good, bad,
    liar; deterministic in ``config.rng_seed``."""
    population = Population(config.validate())
    for behavior, count in (
        (Behavior.GOOD_SERVER, config.good_founders),
        (Behavior.BAD_SERVER, config.bad_founders),
        (Behavior.LIAR, config.liar_founders),
    ):
        for _ in range(count):
            population.add_peer(behavior)
    return population


def select_server(
    volunteers: list[int] | tuple[int, ...],
    scores: list[float],
    p: float,
    mode_draw: int,
    pick_draw: int,
) -> tuple[int, Selection]:
    """Pick the server: with probability p the volunteer of maximal trust
    in ``scores`` (uniform among ties), otherwise a uniformly random
    volunteer.

    ``mode_draw`` and ``pick_draw`` are two raw 64-bit draws: the mode is
    ``random() < p`` and the pick a draw below ``len(candidates)``."""
    if not volunteers:
        raise ValueError("empty volunteer set")
    if (mode_draw >> 11) * RANDOM_SCALE < p:
        best = -math.inf
        ties: list[int] = []
        for pid in volunteers:
            value = scores[pid]
            if value > best:
                best = value
                ties = [pid]
            elif value == best:
                ties.append(pid)
        return ties[(pick_draw * len(ties)) >> 64], Selection.BY_TRUST
    return volunteers[(pick_draw * len(volunteers)) >> 64], Selection.RANDOM


class Simulation:
    """One run: owns the population, the ledger, and the round counter."""

    def __init__(self, config: SimConfig, event_sink: EventSink | None = None):
        self.population = build_population(config)
        config = self.config = self.population.config
        self.ledger = TrustLedger(
            LedgerConfig(penalty=config.penalty, floor=config.floor), event_sink=event_sink
        )
        for _ in range(self.population.size):
            self.ledger.register()
        self._pending = sorted(config.newcomers, key=lambda i: i.cycle)
        self.round_index = 0

    def run(self) -> "MetricsSeries":
        rows = [self.run_cycle(cycle) for cycle in range(self.config.total_cycles)]
        return MetricsSeries(rows)

    def run_cycle(self, cycle: int) -> "MetricsRow":
        """Inject the cycle's newcomers, then draw and apply its rounds one
        at a time (see the module docstring)."""
        self._inject(cycle)
        config = self.config
        size = self.population.size
        prefix = derive_seed(config.rng_seed, "round")
        successes = failures = 0
        for draws in round_draws(prefix, self.round_index, config.queries_per_cycle):
            requester = (next(draws) * size) >> 64  # a draw below size
            record = self.run_round(requester, self.draw_round(requester, draws))
            if record.outcome is Outcome.SUCCESS:
                successes += 1
            elif record.outcome is Outcome.FAILURE:
                failures += 1
        return self._metrics_row(cycle, successes, failures)

    def draw_round(
        self, requester_id: int, draws: Iterator[int]
    ) -> tuple[int, list[int], int, int]:
        """The file, the volunteers and the two selection draws of a round for
        ``requester_id``, taken in order from ``draws``, the round's stream
        outputs after the requester draw; ``run_round`` applies them.
        Raises IndexError unless ``0 <= requester_id < population.size``."""
        if not 0 <= requester_id < self.population.size:
            raise IndexError(f"requester {requester_id} is not a peer id")
        holdings = self.population.holdings[requester_id]
        held = len(holdings)
        catalog = self.config.catalog_size
        for u in draws:
            file_id = (u * catalog) >> 64  # a draw below catalog
            i = bisect_left(holdings, file_id)  # holdings are sorted
            if i == held or holdings[i] != file_id:  # not held
                break
        volunteers = self.population.volunteers(draws, requester_id, file_id)
        return file_id, volunteers, next(draws), next(draws)

    def run_round(
        self, requester_id: int, drawn: tuple[int, list[int], int, int]
    ) -> RoundRecord:
        """Apply the next round for ``requester_id``: ``drawn`` is what
        ``draw_round`` drew for it."""
        config = self.config
        population = self.population
        ledger = self.ledger
        scores = ledger.scores
        round_index = self.round_index
        self.round_index = round_index + 1

        file_id, volunteers, mode_draw, pick_draw = drawn
        if not volunteers:
            return RoundRecord(
                round_index, requester_id, file_id, (), Gate.NO_VOLUNTEERS,
                None, None, None, 0.0,
            )

        if scores[requester_id] < config.threshold:
            ledger.credit_many(volunteers, round_index, EventKind.VOLUNTEER_CREDIT)
            return RoundRecord(
                round_index, requester_id, file_id, tuple(volunteers),
                Gate.REPUTATION_ONLY, None, None, None, 0.0,
            )

        selected, mode = select_server(volunteers, scores, config.p, mode_draw, pick_draw)
        if population.behaviors[selected] is Behavior.GOOD_SERVER:
            ledger.credit_many((selected,), round_index, EventKind.SELECTED_TRUTHFUL_CREDIT)
            outcome, delta = Outcome.SUCCESS, 0.0
        else:
            before = scores[selected]
            outcome, delta = Outcome.FAILURE, ledger.penalize(selected, round_index) - before
        ledger.credit_many(
            [pid for pid in volunteers if pid != selected],
            round_index,
            EventKind.VOLUNTEER_CREDIT,
        )
        return RoundRecord(
            round_index, requester_id, file_id, tuple(volunteers), Gate.SERVED,
            mode, selected, outcome, delta,
        )

    def _inject(self, cycle: int) -> None:
        while self._pending and self._pending[0].cycle <= cycle:
            injection = self._pending.pop(0)
            for _ in range(injection.count):
                self.population.add_peer(injection.behavior)
                self.ledger.register()

    def _metrics_row(self, cycle: int, successes: int, failures: int) -> "MetricsRow":
        scores = self.ledger.scores

        def average(values: list[float]) -> float | None:
            return math.fsum(values) / len(values) if values else None

        config = self.config
        good_end = config.good_founders
        bad_end = good_end + config.bad_founders
        transactions = successes + failures
        return MetricsRow(
            cycle=cycle,
            avg_trust_good=average(scores[:good_end]),
            avg_trust_bad=average(scores[good_end:bad_end]),
            avg_trust_liar=average(scores[bad_end:config.founder_population]),
            avg_trust_newcomer_good=average(
                [scores[pid] for pid in self.population.newcomer_good_ids]
            ),
            success_rate=successes / transactions if transactions else None,
            penalties=failures,  # every failure penalizes its server
        )


def run_simulation(config: SimConfig, event_sink: EventSink | None = None) -> "MetricsSeries":
    """Run the full schedule and return the per-cycle metrics."""
    return Simulation(config, event_sink=event_sink).run()


@dataclass(frozen=True)
class MetricsRow:
    cycle: int
    avg_trust_good: float | None
    avg_trust_bad: float | None
    avg_trust_liar: float | None
    avg_trust_newcomer_good: float | None
    success_rate: float | None
    penalties: int


def _format_real(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _parse_real(field: str) -> float | None:
    value = float(field) if field else None
    if value is not None and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {field!r}")
    return value


# The CSV columns: the MetricsRow fields, with the formatter and the parser of
# each annotation (a string, as annotations are postponed).
_CSV_TYPES = {"int": (str, int), "float | None": (_format_real, _parse_real)}
_CSV_COLUMNS = tuple((f.name, *_CSV_TYPES[f.type]) for f in dataclasses.fields(MetricsRow))
METRICS_CSV_HEADER = ",".join(name for name, _, _ in _CSV_COLUMNS)


class MetricsSeries:
    """Per-cycle category averages and transaction outcomes.

    CSV format: a header of the ``MetricsRow`` field names, ``.`` decimal
    separator, reals at 6 decimals, missing categories as empty fields.
    Reading rejects a non-finite real.
    """

    def __init__(self, rows: list[MetricsRow]):
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return isinstance(other, MetricsSeries) and self.rows == other.rows

    def to_csv(self) -> str:
        lines = [METRICS_CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(fmt(getattr(row, name)) for name, fmt, _ in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv_text(cls, text: str) -> "MetricsSeries":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != METRICS_CSV_HEADER:
            raise SchemaError(f"bad metrics header: expected {METRICS_CSV_HEADER!r}")
        rows = []
        for number, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) != len(_CSV_COLUMNS):
                raise SchemaError(
                    f"line {number}: expected {len(_CSV_COLUMNS)} fields, got {len(fields)}")
            values = {}
            for (name, _, parse), field in zip(_CSV_COLUMNS, fields):
                try:
                    values[name] = parse(field)
                except ValueError as exc:
                    raise SchemaError(f"line {number}: {name}: {exc}") from None
            rows.append(MetricsRow(**values))
        return cls(rows)

    @classmethod
    def from_csv(cls, path) -> "MetricsSeries":
        with open(path, "r", newline="") as fh:
            return cls.from_csv_text(fh.read())


def parse_injections(text: str) -> tuple[Injection, ...]:
    """Parse ``cycle:count:behavior[,cycle:count:behavior...]``."""
    items = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad newcomer entry {chunk!r} (want cycle:count:behavior)")
        items.append(Injection(int(parts[0]), int(parts[1]), Behavior.parse(parts[2])))
    return tuple(items)
