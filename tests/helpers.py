"""Shared test helpers."""

from typing import NamedTuple

from trustsim.ledger import EventKind
from trustsim.rng import Stream


def uniform(u):
    """The float in [0, 1) that ``random()`` makes from the output ``u``."""
    return (u >> 11) * 2.0**-53


def below(u, n):
    """The multiply-shift draw below ``n`` that the output ``u`` gives."""
    return (u * n) >> 64


def u64s(stream, count):
    """The next ``count`` outputs of ``stream``, one scalar draw at a time."""
    return [stream.next_u64() for _ in range(count)]


def randbelow(stream, n):
    """A uniform integer in [0, n) from the next output of ``stream``: the
    multiply-shift draw of the ``rng`` module docstring."""
    return below(stream.next_u64(), n)


class ListStream:
    """A stream whose outputs are the given draws, in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def next_u64(self):
        return next(self._draws)

    def random(self):
        return uniform(self.next_u64())


def scalar_holdings(seed, peer_id, holdings_size, catalog_size):
    """The files of peer ``peer_id``, one scalar draw at a time from the
    peer's own stream: the reference for ``Population.add_peer``."""
    stream = Stream.from_path(seed, "holdings", peer_id)
    files = set()
    while len(files) < holdings_size:
        files.add(randbelow(stream, catalog_size))
    return files


def play_round(sim, requester):
    """Draw and apply the next round of ``sim`` for a forced requester, with
    the draws of the round's own stream from its start."""
    stream = Stream.from_path(sim.config.rng_seed, "round", sim.round_index)
    return sim.run_round(requester, sim.draw_round(requester, iter(stream.next_u64, None)))


class Event(NamedTuple):
    """One trust change of an event batch."""

    round_index: int
    peer_id: int
    kind: EventKind
    delta: float
    new_value: float


def flatten(batches):
    """The events of ``batches`` (as a ledger's event sink receives them),
    one per change, in the order applied."""
    return [
        Event(round_index, pid, kind, delta, value)
        for round_index, kind, delta, peer_ids, new_values in batches
        for pid, value in zip(peer_ids, new_values, strict=True)
    ]
