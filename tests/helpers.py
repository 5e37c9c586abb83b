"""Shared test helpers."""

from itertools import chain
from typing import NamedTuple

from trustsim.ledger import EventKind
from trustsim.rng import Stream

MASK64 = 2**64 - 1


def uniform(u):
    """The float in [0, 1) that ``random()`` makes from the output ``u``."""
    return (u >> 11) * 2.0**-53


def below(u, n):
    """The multiply-shift draw below ``n`` that the output ``u`` gives."""
    return (u * n) >> 64


def word_blocks(stream, first=1, tail=1):
    """The outputs of ``stream`` as the byte blocks of a stream from
    ``rng.round_draws``: ``first`` outputs, then ``tail`` at a time, each
    taken from ``stream`` when its block is made.  Output i is the
    little-endian word at byte 16 * i; the other 8 bytes of its lane, which
    no reader may use, hold its complement."""
    width = first
    while True:
        yield b"".join(u.to_bytes(8, "little") + (u ^ MASK64).to_bytes(8, "little")
                       for u in (stream.next_u64() for _ in range(width)))
        width = tail


def block_words(block):
    """The outputs in a byte block: the word at every 16th byte."""
    return [int.from_bytes(block[i:i + 8], "little") for i in range(0, len(block), 16)]


def stream_words(blocks):
    """The outputs of a stream given as byte blocks, one at a time."""
    return chain.from_iterable(map(block_words, blocks))


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


def holdings_of(population, pid):
    """Peer ``pid``'s files: its slice of the flat ``Population.holdings``."""
    size = population.holdings_size
    return population.holdings[pid * size:(pid + 1) * size]


def play_round(sim, requester, index):
    """Draw and apply round ``index`` of ``sim`` for a forced requester: the
    smallest output that draws it, then the draws of the round's own stream
    from its start."""
    first = -(-(requester << 64) // sim.population.size)
    stream = Stream.from_path(sim.config.rng_seed, "round", index)
    draws = ListStream(chain([first], iter(stream.next_u64, None)))
    drawn = sim.population.draw_round(index, word_blocks(draws))
    return sim.run_round(drawn)


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
