"""Authoritative trust accounting.

Trust is a raw cumulative sum of events: volunteering earns +1, a failed
delivery by a selected volunteer costs the configured penalty, and no
score ever falls below the floor (rejoining under a fresh identity starts
at the floor, so whitewashing gains nothing).  The service threshold the
engine gates requesters on is carried in the config.

A ledger instance is single-writer; concurrent readers are fine between
writes.  The simulation engine owns one ledger and serializes mutations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable


class UnknownPeerError(KeyError):
    """Raised for operations on a peer id that was never registered."""


class EventKind(Enum):
    VOLUNTEER_CREDIT = "volunteer_credit"
    SELECTED_TRUTHFUL_CREDIT = "selected_truthful_credit"
    PENALTY = "penalty"


EVENT_CSV_HEADER = "round,peer_id,kind,delta,new_value"


@dataclass(frozen=True)
class TrustEvent:
    """One applied trust change.

    ``delta`` is the change actually applied (a penalty clamped at the
    floor shows the clamped delta).
    """

    round_index: int
    peer_id: int
    kind: EventKind
    delta: float
    new_value: float


@dataclass(frozen=True)
class LedgerConfig:
    penalty: float
    threshold: float
    floor: float = 0.0

    def __post_init__(self):
        for name in ("penalty", "threshold", "floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.penalty <= 0.0:
            raise ValueError("penalty must be > 0")
        if self.threshold < self.floor:
            raise ValueError("threshold must be >= floor")


class TrustLedger:
    """Single-writer trust scores.

    ``scores`` maps each registered peer to its trust; only the ledger
    writes it, everyone else reads it.  ``event_sink``, if given, receives
    every applied change: ``list.append`` keeps them for replay checks,
    ``EventCsvSink`` streams them to a trace file.
    """

    def __init__(
        self,
        config: LedgerConfig,
        event_sink: Callable[[TrustEvent], None] | None = None,
    ):
        self.config = config
        self.scores: dict[int, float] = {}
        self._event_sink = event_sink

    def register(self, peer_id: int, trust: float | None = None) -> None:
        """Add a peer; newcomers start at the floor."""
        if peer_id in self.scores:
            raise ValueError(f"peer {peer_id!r} already registered")
        value = self.config.floor if trust is None else trust
        if not math.isfinite(value):
            raise ValueError("initial trust must be a finite number")
        if value < self.config.floor:
            raise ValueError("initial trust below floor")
        self.scores[peer_id] = value

    def credit(
        self,
        peer_id: int,
        round_index: int = 0,
        kind: EventKind = EventKind.VOLUNTEER_CREDIT,
    ) -> float:
        """Apply a +1 credit; returns the updated trust."""
        if kind is EventKind.PENALTY:
            raise ValueError("credit cannot record a PENALTY event")
        scores = self.scores
        try:
            new_value = scores[peer_id] + 1.0
        except KeyError:
            raise UnknownPeerError(peer_id) from None
        scores[peer_id] = new_value
        if self._event_sink is not None:
            self._event_sink(TrustEvent(round_index, peer_id, kind, 1.0, new_value))
        return new_value

    def credit_many(
        self,
        peer_ids: Iterable[int],
        round_index: int = 0,
        kind: EventKind = EventKind.VOLUNTEER_CREDIT,
    ) -> None:
        """Bulk +1 credits (the engine's hot path)."""
        if kind is EventKind.PENALTY:
            raise ValueError("credit cannot record a PENALTY event")
        scores = self.scores
        sink = self._event_sink
        if sink is None:
            try:
                for pid in peer_ids:
                    scores[pid] = scores[pid] + 1.0
            except KeyError:
                raise UnknownPeerError(pid) from None
            return
        for pid in peer_ids:
            try:
                new_value = scores[pid] + 1.0
            except KeyError:
                raise UnknownPeerError(pid) from None
            scores[pid] = new_value
            sink(TrustEvent(round_index, pid, kind, 1.0, new_value))

    def penalize(self, peer_id: int, round_index: int = 0) -> float:
        """Apply the penalty, clamped at the floor; returns the updated trust."""
        scores = self.scores
        try:
            old = scores[peer_id]
        except KeyError:
            raise UnknownPeerError(peer_id) from None
        new_value = old - self.config.penalty
        floor = self.config.floor
        if new_value < floor:
            new_value = floor
        scores[peer_id] = new_value
        if self._event_sink is not None:
            self._event_sink(
                TrustEvent(round_index, peer_id, EventKind.PENALTY, new_value - old, new_value)
            )
        return new_value

    @staticmethod
    def replay(
        events: Iterable[TrustEvent],
        config: LedgerConfig,
        peer_ids: Iterable[int],
    ) -> dict[int, float]:
        """Fold an event log under the update rule from floor-initialized
        scores; must reproduce the live scores exactly."""
        scores = {pid: config.floor for pid in peer_ids}
        for event in events:
            if event.kind is EventKind.PENALTY:
                scores[event.peer_id] = max(
                    config.floor, scores[event.peer_id] - config.penalty
                )
            else:
                scores[event.peer_id] += 1.0
        return scores


class EventCsvSink:
    """Streams trust events straight to a CSV file as they happen:
    ``round,peer_id,kind,delta,new_value``."""

    def __init__(self, fh):
        self._writer = csv.writer(fh)
        self._writer.writerow(EVENT_CSV_HEADER.split(","))

    def __call__(self, event: TrustEvent) -> None:
        self._writer.writerow(
            [
                event.round_index,
                event.peer_id,
                event.kind.value,
                f"{event.delta:.6f}",
                f"{event.new_value:.6f}",
            ]
        )
