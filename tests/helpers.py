"""Shared test helpers."""

from trustsim.rng import derive_seed


def play_round(sim, requester):
    """Draw and apply the next round of ``sim`` for a forced requester, with
    the draws of the round's own stream from its start."""
    state = derive_seed(sim.config.rng_seed, "round", sim.round_index)
    return sim.run_round(requester, sim.draw_round(requester, state, [], 0))
