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

A metrics row covers the changes ``Simulation.run_round`` applied before
it.  Each category's average is the correctly rounded (``math.fsum``) sum
of its scores over its size.  The liars' sum is taken in full.  The good
founders', bad founders' and good newcomers' sums are carried exactly from
row to row, each as a few floats, and take in only the truthful peers that
changed (the truthful holders of a drawn round, the only truthful peers a
round changes) or joined; when many changed, they are taken in full.

Determinism: all randomness derives from ``rng_seed`` via counter-based
stream splitting (see :mod:`trustsim.rng`) — one stream per peer for its
holdings, one per round for all its draws, both from ``rng.round_draws``
— so a run is byte-reproducible from its configuration.

Draw, then apply: a round's stream depends only on the seed and the round
index; cycle c has rounds c*Q to c*Q + Q - 1, Q being ``queries_per_cycle``.
``Population.draw_cycle`` adds a cycle's newcomers and draws its rounds, each
by ``draw_round`` from the byte blocks of its stream, read by position in
stream order: requester, file (redrawn while the requester holds it),
volunteers, selection.  A block is read only when a read reaches it, and the
holder scan tests only the draws whose top byte can pass.  It reads no trust
and, of the config, only draw keys; each round carries its index, under
which ``Simulation.run_cycle`` applies it.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, count, repeat
from typing import Callable, Iterator, NamedTuple

from .game import Selection, _require_int
from .ledger import EventKind, EventSink, TrustLedger
from .rng import (BLOCK_WIDTH, RANDOM_SCALE, derive_seed, draw_hypergeom, hypergeom_cdf,
                  round_draws)

DEFAULT_VOLUNTEER_TARGET = 30.0
# A metrics row carries the truthful sums when SPARSE_COST times the peers
# changed is at most the peers it would sum: folding in a changed peer takes
# about 250-310 ns, summing a peer about 14-18 ns (churn, Python 3.11).
SPARSE_COST = 20
# Every draw below n has n below this (the rng module docstring): the
# population and the catalog are kept under it.
MAX_DRAW_RANGE = 2**32
# The smallest unsigned array typecode that holds every file id and every
# peer id (both below MAX_DRAW_RANGE): 4 bytes on common platforms.
HOLDINGS_TYPECODE = next(code for code in "IL" if array(code).itemsize >= 4)
# Draw k of a stream's byte blocks: the word at byte 16 * k (the rng module docstring).
_WORD = struct.Struct("<Q").unpack_from
_PAIR = struct.Struct("<Q8xQ").unpack_from
# A drawn round: index, requester, file, volunteers, the truthful holders among
# them (the volunteers' tail), mode draw, pick draw.
DrawnRound = tuple[int, int, int, list[int], list[int], int, int]


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


def integer(text: str) -> int:
    """An integer that fits a float, as the checks and closed forms compute in floats."""
    if abs(value := int(text)) > sys.float_info.max:
        raise ValueError(f"expected an integer within ±{sys.float_info.max:.1e}")
    return value


# By SimConfig annotation (a string, as annotations are postponed): the config-file
# parser, the types a value may take (a bool is none) and their name in messages.
FIELD_TYPES = {
    "int": (integer, (int,), "an integer"),
    "int | None": (integer, (int, type(None)), "an integer"),
    "float": (float, (int, float), "a number"),
    "tuple[Injection, ...]": (parse_injections, (tuple,), "a tuple of Injection"),
}


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

    def __post_init__(self) -> None:
        """Check invariants and resolve the defaulted fields, so every
        ``SimConfig`` is the fully concrete config a run uses; raises
        ``ConfigError`` naming the offending key."""
        for name, (_, types, kind) in _SIM_FIELDS:
            value = getattr(self, name)
            if type(value) not in types:
                raise ConfigError(name, f"must be {kind}, got {value!r}")
            if float in types and not abs(value) <= sys.float_info.max:  # NaN, ±inf, 10**400
                raise ConfigError(name, "must be a finite number")
        for injection in self.newcomers:
            if not isinstance(injection, Injection):
                raise ConfigError("newcomers", f"items must be Injections, got {injection!r}")
            if type(injection.cycle) is not int or type(injection.count) is not int:
                raise ConfigError("newcomers", f"cycle and count must be integers in {injection}")
            if not isinstance(injection.behavior, Behavior):
                raise ConfigError("newcomers", f"behavior must be a Behavior in {injection}")
            if injection.cycle < 0:
                raise ConfigError("newcomers", "cycle must be >= 0")
            if injection.count < 1:
                raise ConfigError("newcomers", "count must be >= 1")
        for key in ("good_founders", "bad_founders", "liar_founders"):
            if getattr(self, key) < 0:
                raise ConfigError(key, "must be >= 0")
        if self.founder_population < 2:
            raise ConfigError("good_founders", "need at least 2 founders in total")
        if self.founder_population >= MAX_DRAW_RANGE:
            raise ConfigError("good_founders", "founders must number below 2**32")
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
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("p", "must be within [0, 1]")
        if self.penalty <= 0.0:
            raise ConfigError("penalty", "must be > 0")
        if not 0 <= self.rng_seed < 2**64:
            # Seeds are used modulo 2**64: any other integer aliases one.
            raise ConfigError("rng_seed", "must be within [0, 2**64)")
        if not abs(self.floor) < 2**52:  # scores from the floor up: every +1 stays exact
            raise ConfigError("floor", "must be within (-2**52, 2**52)")
        if self.threshold < self.floor:
            raise ConfigError("threshold", "must be >= floor")
        if self.total_cycles < 1:
            raise ConfigError("total_cycles", "must be >= 1")
        if self.founder_population + sum(i.count for i in self.newcomers) >= MAX_DRAW_RANGE:
            raise ConfigError("newcomers", "founders plus newcomers must number below 2**32")

        queries = self.queries_per_cycle
        if queries is None:
            queries = max(1, self.founder_population // 10)
        if queries < 1:
            raise ConfigError("queries_per_cycle", "must be >= 1")
        if self.total_cycles * queries > 2**64:  # round streams are indexed modulo 2**64
            raise ConfigError("total_cycles", "total_cycles * queries_per_cycle must be <= 2**64")

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
        object.__setattr__(self, "queries_per_cycle", queries)
        object.__setattr__(self, "reach", reach)


# A field whose annotation has no FIELD_TYPES entry fails here, at import.
_SIM_FIELDS = tuple((f.name, FIELD_TYPES[f.type]) for f in dataclasses.fields(SimConfig))


def holdings_size(catalog_size: int, n: int) -> int:
    return round(catalog_size / n)


def calibrated_reach(good: int, bad: int, liars: int, n: int) -> int:
    """Reach giving ~``DEFAULT_VOLUNTEER_TARGET`` expected volunteers per query:
    every sampled liar volunteers, a sampled truthful peer does so with
    probability 1/n.  So the rate is at least 1/n, and n below 2**32 (as a
    catalog's n is) keeps the reach finite.  Each count must be an int (a
    bool is none), and the population below 2**32, as in a ``SimConfig``."""
    for key, count in (("good_founders", good), ("bad_founders", bad), ("liar_founders", liars)):
        _require_int(key, count)
        if count < 0:
            raise ConfigError(key, "must be >= 0")
    if not 1 <= n < MAX_DRAW_RANGE:
        raise ConfigError("n", "must be within [1, 2**32)")
    population = good + bad + liars
    if population < 2:
        raise ConfigError("reach", "population too small to calibrate reach")
    if population >= MAX_DRAW_RANGE:
        raise ConfigError("good_founders", "founders must number below 2**32")
    rate = (liars + (good + bad) / n) / population
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
    mode: Selection | None = None
    selected_id: int | None = None
    outcome: Outcome | None = None
    penalty_delta: float = 0.0


# Read counts: the holdings size, and a liar sample's size, which spreads over
# a few dozen counts around its mean.  A reader of n draws takes about 40n
# bytes, so only the most recent few are kept.
@lru_cache(maxsize=32)
def _reader(count: int) -> Callable[..., tuple[int, ...]]:
    """Unpacks ``count`` draws, from a byte offset of a stream's byte blocks on."""
    return struct.Struct("<" + "Q8x" * count).unpack_from


@lru_cache(maxsize=None)  # top < 256
def _marking(top: int) -> bytes:
    """The ``bytes.translate`` table that maps a byte to 1 if it is at most
    ``top``, else to 0."""
    return bytes(byte <= top for byte in range(256))


class Population:
    """Peers (dense ids, see above), their holdings, the per-file
    truthful-holder index, and the draw of each cycle, newcomers included;
    :func:`build_population` adds the founders; a new one draws any cycle by its number alone.

    ``holdings`` is one ``array`` (typecode ``HOLDINGS_TYPECODE``): its slice
    ``[i * h:(i + 1) * h]``, h = ``holdings_size``, is peer i's file ids in
    strictly increasing order, so a membership test is a bisection."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.holdings_size = holdings_size(config.catalog_size, config.n)
        self.behaviors: list[Behavior] = []
        self.holdings = array(HOLDINGS_TYPECODE)  # sorted file ids, peer after peer
        self.liar_pool: list[int] = []
        self.holders_by_file: list[array] = [  # truthful peer ids per file, in id order
            array(HOLDINGS_TYPECODE) for _ in range(config.catalog_size)]
        self.newcomer_good_ids: list[int] = []
        self._holdings_prefix = derive_seed(config.rng_seed, "holdings")
        self._round_prefix = derive_seed(config.rng_seed, "round")
        self._pending = sorted(config.newcomers, key=lambda i: i.cycle)
        self._joined = -math.inf  # the cycle of the last newcomers added
        # Liar-count CDFs by the number of liars the requester leaves in the
        # pool; each built on first use, all dropped when a peer is added.
        self._cdfs: dict[int, tuple[int, list[float]]] = {}

    @property
    def size(self) -> int:
        return len(self.behaviors)

    def add_peers(self, behavior: Behavior, count: int) -> None:
        """Add ``count`` peers of ``behavior``, their holdings drawn together."""
        size = self.holdings_size
        for draws in round_draws(self._holdings_prefix, self.size, count,
                                 min(size, BLOCK_WIDTH), size):
            self.add_peer(behavior, draws)

    def add_peer(self, behavior: Behavior, draws: Iterator[bytes]) -> int:
        """Add one peer, its holdings drawn from ``draws``, the byte blocks of
        its holdings stream."""
        peer_id = len(self.behaviors)
        size, catalog = self.holdings_size, self.config.catalog_size
        buf = next(draws)
        while len(buf) < 16 * size:
            buf += next(draws)
        files = {(u * catalog) >> 64 for u in _reader(size)(buf)}
        pos = size
        while len(files) < size:  # a repeat: draw on
            if len(buf) <= 16 * pos:
                buf += next(draws)
            files.add((_WORD(buf, 16 * pos)[0] * catalog) >> 64)
            pos += 1
        self.behaviors.append(behavior)
        self.holdings.extend(sorted(files))
        if behavior.truthful:
            for file_id in files:
                self.holders_by_file[file_id].append(peer_id)
        else:
            self.liar_pool.append(peer_id)
        if peer_id >= self.config.founder_population and behavior is Behavior.GOOD_SERVER:
            self.newcomer_good_ids.append(peer_id)
        self._cdfs.clear()
        return peer_id

    def draw_cycle(self, cycle: int) -> Iterator[DrawnRound]:
        """Add the newcomers due by ``cycle`` now, then return the cycle's
        rounds (see the module docstring), each drawn when it is reached.
        A cycle before newcomers already added raises ``ValueError``."""
        if cycle < self._joined:
            raise ValueError(f"cycle {cycle} comes before the newcomers of cycle {self._joined}")
        while self._pending and self._pending[0].cycle <= cycle:
            injection = self._pending.pop(0)
            self._joined = injection.cycle
            self.add_peers(injection.behavior, injection.count)
        queries = self.config.queries_per_cycle
        return map(self.draw_round, count(cycle * queries),
                   round_draws(self._round_prefix, cycle * queries, queries))

    def draw_round(self, index: int, blocks: Iterator[bytes]) -> DrawnRound:
        """Round ``index``: its requester, file, volunteers, the truthful
        holders among them (the peers whose changes a metrics row folds in)
        and two selection draws, read in order from ``blocks``, the byte
        blocks of the round's stream.  Draw ``k`` is the word at byte ``16 *
        k`` of their concatenation, which is read into a buffer one block at
        a time, when a read runs past its end."""
        buf = bytearray(next(blocks))
        requester_id = (_WORD(buf, 0)[0] * len(self.behaviors)) >> 64  # a draw below size
        holdings = self.holdings
        lo = requester_id * self.holdings_size
        hi = lo + self.holdings_size
        catalog = self.config.catalog_size
        pos = 1
        while True:
            if len(buf) <= 16 * pos:
                buf += next(blocks)
            file_id = (_WORD(buf, 16 * pos)[0] * catalog) >> 64  # a draw below catalog
            pos += 1
            i = bisect_left(holdings, file_id, lo, hi)  # the requester's files are sorted
            if i == hi or holdings[i] != file_id:  # not held
                break
        volunteers, held, pos = self.volunteers(buf, pos, blocks, requester_id, file_id)
        while len(buf) < 16 * (pos + 2):
            buf += next(blocks)
        mode, pick = _PAIR(buf, 16 * pos)
        return index, requester_id, file_id, volunteers, held, mode, pick

    def volunteers(self, buf: bytearray, pos: int, blocks: Iterator[bytes], requester_id: int,
                   file_id: int) -> tuple[list[int], list[int], int]:
        """Draw one query's volunteer set from draw ``pos`` of a round on, and
        return it, the truthful holders among it (its tail, after the liars)
        and the position after the last draw it used.  ``buf``
        holds the round's draws read so far and is extended in place by the
        next of ``blocks`` when a read runs past its end (see ``draw_round``).

        Equivalent in distribution to sampling ``reach`` of the other peers
        uniformly without replacement and keeping all liars plus truthful
        holders of the file: the class counts follow the multivariate
        hypergeometric law (liar count from a cached CDF, holder count by
        sequential conditional draws over the file's holder list, which
        also picks the members), and liar members are a partial
        Fisher-Yates sample.  The requester must not hold the file;
        ``liar_pool`` is left as it was found.
        """
        pool = self.liar_pool
        requester_is_liar = not self.behaviors[requester_id].truthful
        liar_limit = len(pool) - 1 if requester_is_liar else len(pool)
        if requester_is_liar:
            # Park the requester at the end of the pool so the sample prefix
            # never contains it; undone below.  The pool is in id order, as
            # add_peer appends rising ids and every swap is undone.
            where = bisect_left(pool, requester_id)
            pool[where], pool[liar_limit] = pool[liar_limit], pool[where]
        liar_draws = 0
        if liar_limit > 0:
            cdf = self._cdfs.get(liar_limit)
            if cdf is None:
                cdf = self._cdfs[liar_limit] = hypergeom_cdf(
                    self.size - 1, liar_limit, self.config.reach)
            if len(buf) <= 16 * pos:
                buf += next(blocks)
            liar_draws = draw_hypergeom(cdf, (_WORD(buf, 16 * pos)[0] >> 11) * RANDOM_SCALE)
            pos += 1

        # Partial Fisher-Yates: swap i with ks[i] = i + a draw below liar_limit
        # - i; the swaps are undone in reverse so the pool is left as it was.
        while len(buf) < 16 * (pos + liar_draws):
            buf += next(blocks)
        ks = []
        for i, u in enumerate(_reader(liar_draws)(buf, 16 * pos)):
            k = i + ((u * (liar_limit - i)) >> 64)
            pool[i], pool[k] = pool[k], pool[i]
            ks.append(k)
        pos += liar_draws
        volunteers = pool[:liar_draws]
        for i in range(liar_draws - 1, -1, -1):
            k = ks[i]
            pool[i], pool[k] = pool[k], pool[i]
        if requester_is_liar:
            pool[where], pool[liar_limit] = pool[liar_limit], pool[where]

        # Truthful holders: each is in the sample's remaining slots with the
        # exact conditional probability given how many slots are left among
        # the non-liar peers.  Holder j takes draw pos + j; the scan stops
        # once the slots run out, and only an accepted holder's id is read.
        slots = self.config.reach - liar_draws
        available = len(self.behaviors) - 1 - liar_limit
        scale = RANDOM_SCALE
        holders = self.holders_by_file[file_id] if slots else ()
        end = pos + len(holders)
        while len(buf) < 16 * end:  # one translate reads every holder's top byte
            buf += next(blocks)
        # Integer pre-filter; the float test still decides.  It accepts only if
        # (u >> 11) * (available - j) < slots * 2**53, slots only falls, and
        # available - j >= this denominator >= 1 (holders: non-liars, not the requester).
        bound = -(-(slots << 53) // (available - len(holders) + 1)) << 11
        # A draw below bound has a top byte at most bound's: mark those and
        # jump from mark to mark, over the draws that cannot pass.
        top = bound >> 56 if bound < 1 << 64 else 255
        marks = buf[16 * pos + 7:16 * end:16].translate(_marking(top))
        j = marks.find(1)
        while j >= 0:
            u = _WORD(buf, 16 * (pos + j))[0]
            if u < bound and (u >> 11) * scale * (available - j) < slots:  # random() * available
                volunteers.append(holders[j])
                slots -= 1
                if not slots:
                    return volunteers, volunteers[liar_draws:], pos + j + 1
            j = marks.find(1, j + 1)
        return volunteers, volunteers[liar_draws:], end


def build_population(config: SimConfig) -> Population:
    """Founders with uniformly random holdings, in the order good, bad,
    liar; deterministic in ``config.rng_seed``."""
    population = Population(config)
    for behavior, count in (
        (Behavior.GOOD_SERVER, config.good_founders),
        (Behavior.BAD_SERVER, config.bad_founders),
        (Behavior.LIAR, config.liar_founders),
    ):
        population.add_peers(behavior, count)
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
    """One run: applies to its ledger the rounds its population draws, each
    under its index, once one ``register`` call has scored the peers that joined."""

    def __init__(self, config: SimConfig, event_sink: EventSink | None = None):
        self.config = config
        self.population = build_population(config)
        self.ledger = TrustLedger(config, event_sink=event_sink)
        self.ledger.register(self.population.size)
        # The truthful holders of the rounds applied since the last metrics row,
        # which include every truthful peer whose score a round changed: each
        # round's list while the sums are carried, else only how many (keeping
        # every round's list slowed desk rounds by 2-3%).
        self._changed: list[list[int]] = []
        self._holders = 0
        # Carried from row to row (see _metrics_row), or None: the exact score
        # sum of the good founders, bad founders and good newcomers, each as a
        # few floats, and each peer's score when last summed.
        self._sums: list[list[float]] | None = None
        self._summed = array("d")

    def run_cycle(self, cycle: int) -> "MetricsRow":
        """Draw the next cycle, ``cycle``, score its newcomers and apply its rounds as drawn."""
        rounds = self.population.draw_cycle(cycle)
        self.ledger.register(self.population.size)
        successes = failures = 0
        for drawn in rounds:
            record = self.run_round(drawn)
            if record.outcome is Outcome.SUCCESS:
                successes += 1
            elif record.outcome is Outcome.FAILURE:
                failures += 1
        return self._metrics_row(cycle, successes, failures)

    def run_round(self, drawn: DrawnRound) -> RoundRecord:
        """Apply a round ``drawn`` by ``Population.draw_round``, under its index."""
        config = self.config
        population = self.population
        ledger = self.ledger
        scores = ledger.scores
        round_index, requester_id, file_id, volunteers, held, mode_draw, pick_draw = drawn
        if self._sums is None:
            self._holders += len(held)
        else:
            self._changed.append(held)
        if not volunteers:
            return RoundRecord(round_index, requester_id, file_id, (), Gate.NO_VOLUNTEERS)

        if scores[requester_id] < config.threshold:
            ledger.credit_many(volunteers, round_index, EventKind.VOLUNTEER_CREDIT)
            return RoundRecord(
                round_index, requester_id, file_id, tuple(volunteers), Gate.REPUTATION_ONLY)

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

    def _metrics_row(self, cycle: int, successes: int, failures: int) -> "MetricsRow":
        """The row of the changes ``run_round`` applied so far.  The liars'
        sum is taken in full, and so are the other categories' when many of
        them changed since the last row; otherwise their carried sums take in
        the peers that changed (``_fold``).  ``math.fsum`` rounds either exact
        sum to the same float."""
        scores = self.ledger.scores
        config = self.config
        good_end = config.good_founders
        bad_end = good_end + config.bad_founders
        newcomers = self.population.newcomer_good_ids
        changed = self._changed
        holders = self._holders + sum(map(len, changed))
        sparse = SPARSE_COST * holders <= bad_end + len(newcomers)
        if sparse and self._sums is not None:
            sums = self._fold(changed)
        else:
            sums = [scores[:good_end], scores[good_end:bad_end], [scores[pid] for pid in newcomers]]
            if sparse:  # carried from this row on
                sums = [_compressed(values) for values in sums]
                self._summed = array("d", scores)
            self._sums = sums if sparse else None
        del changed[:]
        self._holders = 0

        def average(parts: list[float], peers: int) -> float | None:
            return math.fsum(parts) / peers if peers else None

        transactions = successes + failures
        return MetricsRow(
            cycle=cycle,
            avg_trust_good=average(sums[0], good_end),
            avg_trust_bad=average(sums[1], config.bad_founders),
            avg_trust_liar=average(scores[bad_end:config.founder_population], config.liar_founders),
            avg_trust_newcomer_good=average(sums[2], len(newcomers)),
            success_rate=successes / transactions if transactions else None,
            penalties=failures,  # every failure penalizes its server
        )

    def _fold(self, changed: list[list[int]]) -> list[list[float]]:
        """The carried sums, with each truthful peer in ``changed`` or joined
        since the last row folded in: its score less its score when last
        summed (0 for a peer that joined).  Folding a peer again adds its
        score less itself, exactly 0."""
        scores, summed = self.ledger.scores, self._summed
        good_end = self.config.good_founders
        bad_end = good_end + self.config.bad_founders
        behaviors = self.population.behaviors
        good, bad, newcomer = sums = self._sums
        joined = range(len(summed), len(scores))
        summed.extend(repeat(0.0, len(joined)))
        for pid in chain(chain.from_iterable(changed), joined):
            if pid < good_end:
                parts = good
            elif pid < bad_end:
                parts = bad
            elif behaviors[pid] is Behavior.GOOD_SERVER:  # past the founders: liars come between
                parts = newcomer
            else:
                continue
            new = scores[pid]
            parts += (new, -summed[pid])
            summed[pid] = new
        self._sums = [_compressed(parts) for parts in sums]
        return self._sums


def _compressed(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of ``values``: its correctly
    rounded sum (``math.fsum``), then that of what is left, until nothing is
    (Shewchuk, Discrete & Computational Geometry 1997)."""
    rest: list[float] = []  # minus each of them
    while total := math.fsum(chain(values, rest)):
        rest.append(-total)
    return [-part for part in rest]


def run_simulation(config: SimConfig, event_sink: EventSink | None = None) -> "MetricsSeries":
    """Run the full schedule, cycle after cycle, and return the per-cycle metrics."""
    sim = Simulation(config, event_sink=event_sink)
    return MetricsSeries([sim.run_cycle(cycle) for cycle in range(config.total_cycles)])


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

