"""Shared oracles for the test suite.

The oracles deliberately avoid the aggregation pipeline: readings are
recomputed per node from provisioning material, seeds are replayed with a
plain loop, and sums are taken in plaintext.  Tests then compare the protocol
output against these independent routes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from pathlib import Path

from hypothesis import settings

from concealed_agg import crypto
from concealed_agg.simulator import Scenario, World

# A property without a budget of its own runs the active profile's: tier-1
# runs hypothesis' default, and CI runs the walk's reference property again
# with --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=1500, deadline=None)


def sensed_raw(world: World, nid: int, round_no: int) -> int:
    """The raw reading node nid senses in round_no (honest sensing path)."""
    return crypto.sense_raw(crypto.sense_key(world.prov.sense_keys[nid]), round_no, world.codec.max_raw)


def plaintext_sum(world: World, round_no: int, participants=None) -> int:
    """Plain mod-M sum of raw readings, bypassing diffusion entirely."""
    ids = world.tree.sensor_ids if participants is None else sorted(participants)
    return sum(sensed_raw(world, nid, round_no) for nid in ids) & crypto.MASK


def seed_at(chain_key: bytes, origin: int, round_no: int) -> int:
    """Both chains' seeds, packed D << 64 | D', after round_no dual steps from
    the origin, each step one blake2b call computed here rather than through
    ``crypto.next_seed``: keyed with K || K', over D || D' || round, personal
    label "diff.seed.dual", 16 bytes out."""
    origin &= crypto.MASK
    seeds = origin << 64 | origin
    for j in range(1, round_no + 1):
        data = (seeds << 64 | j).to_bytes(24, "big")
        digest = hashlib.blake2b(data, digest_size=16, key=chain_key, person=b"diff.seed.dual").digest()
        seeds = int.from_bytes(digest, "big")
    return seeds


def seed_of(world: World, nid: int, round_no: int, prime: bool = False) -> int:
    """Node nid's seed in round_no on chain D, or on chain D' if prime."""
    key, key_prime = world.prov.node_keys[nid]
    seeds = seed_at(key + key_prime, world.prov.origins[nid], round_no)
    return seeds & crypto.MASK if prime else seeds >> 64


def honest_world(n: int = 6, seed: int = 1, rounds: int = 1, generator: str = "recursive", **kw) -> World:
    return World(Scenario(seed=seed, rounds=rounds, n=n, generator=generator, **kw))


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def behaviour_sweep():
    """scripts/behaviour_sweep.py, loaded afresh as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_sweep.py"
    spec = importlib.util.spec_from_file_location("behaviour_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


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
