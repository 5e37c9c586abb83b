"""Authoritative trust accounting.

Trust is a raw cumulative sum of events: volunteering earns +1, a failed
delivery by a selected volunteer costs the configured penalty, and no score
ever falls below the floor, where every peer starts (so rejoining under a
fresh identity gains nothing).  ``register(peers)`` scores new peers at once.

Every +1 is a ``credit_many`` (of one id for the selected good server).
Each ledger call hands the optional event sink one batch, ``(round_index,
kind, delta, peer_ids, new_values)``: the changes that call applied, all of
one kind and one applied delta, with the new score of each id in the order
applied.  ``penalize`` hands over batches of one (a penalty at the floor
too, with delta 0); a ``credit_many`` of no ids hands over none.  Any
callable taking one batch is a sink: ``list.append`` keeps them,
``TrustLedger.replay`` refolds them, ``EventCsvSink`` writes them.

A ledger instance is single-writer; concurrent readers are fine between
writes.  The simulation engine owns one ledger and serializes mutations.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # the engine imports this module
    from .engine import SimConfig


class UnknownPeerError(KeyError):
    """Raised for operations on a peer id that was never registered."""


class EventKind(Enum):
    VOLUNTEER_CREDIT = "volunteer_credit"
    SELECTED_TRUTHFUL_CREDIT = "selected_truthful_credit"
    PENALTY = "penalty"


EVENT_CSV_HEADER = "round,peer_id,kind,delta,new_value"

# ``delta`` is the change actually applied: a penalty clamped at the floor
# shows the clamped delta.
EventBatch = tuple[int, EventKind, float, Sequence[int], Sequence[float]]
EventSink = Callable[[EventBatch], None]


class TrustLedger:
    """Single-writer trust scores.

    ``scores[peer_id]`` is the trust of a peer ``register`` scored at the
    floor; only the ledger writes it, everyone else reads it.  An id outside
    ``[0, len(scores))`` raises ``UnknownPeerError`` before any score
    changes.  ``config`` is the run's ``SimConfig``, which checks every
    key; the ledger reads its ``penalty`` and ``floor``.  ``event_sink``,
    if given, receives one batch per ledger call (see the module docstring).
    """

    def __init__(self, config: SimConfig, event_sink: EventSink | None = None):
        self.config = config
        self.scores: list[float] = []
        self._event_sink = event_sink

    def register(self, peers: int) -> None:
        """Score ids up to ``peers - 1`` at the floor; none when ``scores`` has that many."""
        self.scores.extend([self.config.floor] * (peers - len(self.scores)))

    # Kept only because perfbench's tracer patches TrustLedger.credit by name.
    def credit(
        self,
        peer_id: int,
        round_index: int = 0,
        kind: EventKind = EventKind.VOLUNTEER_CREDIT,
    ) -> float:
        """Apply a +1 credit; returns the updated trust."""
        self.credit_many((peer_id,), round_index, kind)
        return self.scores[peer_id]

    def credit_many(
        self,
        peer_ids: Iterable[int],
        round_index: int = 0,
        kind: EventKind = EventKind.VOLUNTEER_CREDIT,
    ) -> None:
        """+1 credits, the one credit path; a repeated id is credited
        once per occurrence.  All ids are checked first, so a bad
        one changes no score."""
        if kind is EventKind.PENALTY:
            raise ValueError("credit cannot record a PENALTY event")
        ids = tuple(peer_ids)
        scores = self.scores
        peers = len(scores)
        for pid in ids:
            if not 0 <= pid < peers:
                raise UnknownPeerError(pid)
        sink = self._event_sink
        if sink is None:
            for pid in ids:
                scores[pid] += 1.0
        elif ids:
            new_values = []
            for pid in ids:
                new_value = scores[pid] = scores[pid] + 1.0
                new_values.append(new_value)
            sink((round_index, kind, 1.0, ids, new_values))

    def penalize(self, peer_id: int, round_index: int = 0) -> float:
        """Apply the penalty, clamped at the floor; returns the updated trust."""
        scores = self.scores
        if not 0 <= peer_id < len(scores):
            raise UnknownPeerError(peer_id)
        old = scores[peer_id]
        new_value = old - self.config.penalty
        floor = self.config.floor
        if new_value < floor:
            new_value = floor
        scores[peer_id] = new_value
        if self._event_sink is not None:
            self._event_sink(
                (round_index, EventKind.PENALTY, new_value - old, (peer_id,), (new_value,))
            )
        return new_value

    @staticmethod
    def replay(batches: Iterable[EventBatch], config: SimConfig, peers: int) -> list[float]:
        """Fold a log of event batches under the update rule from the
        floor-initialized scores of ``peers`` peers; must reproduce the
        live scores exactly."""
        scores = [config.floor] * peers
        for _, kind, _, peer_ids, _ in batches:
            for pid in peer_ids:
                if kind is EventKind.PENALTY:
                    scores[pid] = max(config.floor, scores[pid] - config.penalty)
                else:
                    scores[pid] += 1.0
        return scores


class _FixedText(dict):
    """``value -> f"{value:.6f}"``, so a score that repeats is formatted
    once; at most 4,096 values are kept.  A zero is never kept: 0.0 and
    -0.0 are one key but print differently."""

    def __missing__(self, value: float) -> str:
        text = f"{value:.6f}"
        if value:
            if len(self) >= 4096:
                self.clear()
            self[value] = text
        return text


class EventCsvSink:
    """Writes trust events to a trace CSV as they happen:
    ``round,peer_id,kind,delta,new_value``, one row per change applied.

    Each batch goes out in one ``fh.write``, so the sink holds no row back
    and closing ``fh`` loses nothing.  Rows end in ``\\r\\n`` and are the
    bytes ``csv.writer`` would write: no field (integers, kind names,
    fixed-point reals) ever needs quoting.
    """

    def __init__(self, fh):
        self._fh = fh
        self._text = _FixedText()
        fh.write(EVENT_CSV_HEADER + "\r\n")

    def __call__(self, batch: EventBatch) -> None:
        round_index, kind, delta, peer_ids, new_values = batch
        head = f"{round_index},"
        middle = f",{kind.value},{delta:.6f},"
        text = self._text
        rows = [f"{head}{pid}{middle}{text[value]}\r\n" for pid, value in zip(peer_ids, new_values)]
        self._fh.write("".join(rows))
