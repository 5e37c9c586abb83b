"""Shared test helpers."""

from trustsim.rng import Stream


def play_round(sim, requester):
    """Draw and apply the next round of ``sim`` for a forced requester, with
    the draws of the round's own stream from its start."""
    stream = Stream.from_path(sim.config.rng_seed, "round", sim.round_index)
    return sim.run_round(requester, sim.draw_round(requester, iter(stream.next_u64, None)))
