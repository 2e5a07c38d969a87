"""Shared oracles for the test suite.

The oracles deliberately avoid the aggregation pipeline: readings are
recomputed per node from provisioning material, seeds are replayed with a
plain loop, and sums are taken in plaintext.  Tests then compare the protocol
output against these independent routes.
"""

from __future__ import annotations

import random

from concealed_agg import crypto
from concealed_agg.simulator import Scenario, World


def sensed_raw(world: World, nid: int, round_no: int) -> int:
    """The raw reading node nid senses in round_no (honest sensing path)."""
    return crypto.sense_raw(world.prov.sense_keys[nid], round_no, world.codec.max_raw)


def plaintext_sum(world: World, round_no: int, participants=None) -> int:
    """Plain mod-M sum of raw readings, bypassing diffusion entirely."""
    ids = world.tree.sensor_ids if participants is None else sorted(participants)
    return sum(sensed_raw(world, nid, round_no) for nid in ids) & crypto.MASK


def seed_at(key: bytes, origin: int, round_no: int) -> int:
    """Seed value after round_no applications of next_seed to the origin."""
    seed = origin & crypto.MASK
    for j in range(1, round_no + 1):
        seed = crypto.next_seed(key, seed, j)
    return seed


def seed_of(world: World, nid: int, round_no: int, prime: bool = False) -> int:
    key, key_prime = world.prov.node_keys[nid]
    return seed_at(key_prime if prime else key, world.prov.origins[nid], round_no)


def honest_world(n: int = 6, seed: int = 1, rounds: int = 1, generator: str = "recursive", **kw) -> World:
    return World(Scenario(seed=seed, rounds=rounds, n=n, generator=generator, **kw))


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def on_links(world: World, fault) -> None:
    """Put a keyless attacker on every link of the world: each frame that
    crosses the bus first passes fault(src, dst, payload), which returns the
    frame to carry on (cut, flipped or retyped as it likes) or None to lose
    it.  A lost frame is not charged."""
    honest = world.deliver

    def deliver(src: int, dst: int, payload: bytes) -> bytes | None:
        payload = fault(src, dst, payload)
        return None if payload is None else honest(src, dst, payload)

    world.deliver = deliver


# Edge lines the scenario parser must reject, in a scenario or topology file:
# (file text, offending line number, reason in the diagnostic).
BAD_EDGE_LINES = (
    ("nodes 3\nedge 0 9\n", 2, "out of range"),
    ("nodes 3\nedge -1 2\n", 2, "out of range"),
    ("nodes 3\nedge 0 1\nedge 2 2\n", 3, "self-loop"),
    ("edge 0 1\nnodes 3\n", 1, "before nodes"),
)
