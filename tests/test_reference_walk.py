"""The station's attestation walk against the plain one in ``reference_walk``.

The station's walk goes through relays, bundles and prefix sums, so a change
to its transport moves every frame; the decisions must not move.  Over
fault-free worlds of every generator, with one to three compromises of
every kind and every round audited, both walks must judge the same nodes,
find the same non-committed ones, clear the same ones and convict the same
outliers, and the round must reach the same integrity and raw sum.  The
example budget is the hypothesis profile's (``conftest``): tier-1 runs the
default one, and CI runs this module again under the larger ``ci`` one.
"""

from __future__ import annotations

import reference_walk
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg.adversary import KINDS, CompromiseSpec
from concealed_agg.simulator import GENERATORS, Scenario, World

ROUNDS = 3


@st.composite
def attacked_worlds(draw) -> Scenario:
    """A small world of any generator with one to three compromised nodes,
    each of any kind, every round audited."""
    generator = draw(st.sampled_from(GENERATORS))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32))
    tree = World(Scenario(seed=seed, n=n, generator=generator)).tree
    victims = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    specs = []
    for victim in victims:
        kinds = KINDS if tree.children[victim] else tuple(k for k in KINDS if k != "drop_child")
        kind = draw(st.sampled_from(kinds))
        if kind == "forge_own":
            args = (draw(st.integers(-40, 40)),)
        elif kind == "forge_children":
            delta = draw(st.integers(1, 2**64 - 1))
            args = (delta, True) if draw(st.booleans()) else (delta,)
        elif kind == "noncommit":
            args = draw(st.sampled_from([(), (draw(st.integers(0, 2**64 - 1)),)]))
        elif kind == "replay":
            args = (1,)
        else:
            args = (draw(st.sampled_from(tree.children[victim])),)
        specs.append(CompromiseSpec(victim, kind, args))
    replays = any(spec.kind == "replay" for spec in specs)
    trigger = 2 if replays else draw(st.integers(1, 2))
    return Scenario(seed=seed, rounds=ROUNDS, n=n, generator=generator, audit_prob=1.0,
                    compromises=tuple(specs), trigger_round=trigger)


@settings(deadline=None)
@given(attacked_worlds())
def test_walk_decides_as_the_plain_walk_does(scenario):
    world = World(scenario)
    for round_no in range(1, ROUNDS + 1):
        result = world.run_round(round_no)
        # The station's packets from its children are the walk's input: the
        # data phase, not the walk, decides them.
        want = reference_walk.run(world, round_no, world.bs._round_packets, audited=True)
        assert (result.integrity, result.raw_sum) == (want.integrity, want.raw_sum), round_no
        if want.walk is None:
            assert result.report is None, round_no
            continue
        report = result.report
        judged = frozenset(nid for nid, _, _ in report.transcript)
        assert judged == want.walk.judged, round_no
        assert report.non_committed == want.walk.non_committed, round_no
        assert set(world.bs._cleared) == set(want.walk.cleared), round_no
        assert report.outliers == want.walk.outliers, round_no
