"""The pair-equality test (IPET) the plain way, for the tests to compare the
station's lean one against.

The station reads a claim's seed sums off prefix sums of its seed ledger in
tour order and reverts both chains inline.  This reads the claim's nodes off
the tree as sets, replays each node's seeds from its provisioning material
(``conftest.seed_of``), and reverts each chain with ``crypto.undiffuse``.
"""

from __future__ import annotations

from conftest import seed_of

from concealed_agg import crypto
from concealed_agg.simulator import World
from concealed_agg.topology import BS_ID


def claim_nodes(world: World, root: int, absent: tuple[int, ...]) -> set[int] | None:
    """The sensors a claim covers: root's subtree less each absent root's;
    None when the claim is malformed, naming an absent root that is no
    strict descendant of root (an unknown id, root itself, a node outside
    its subtree) or that lies in another's subtree (repeated or nested)."""
    tree = world.tree
    below = tree.subtree(root) - {root}
    cut: set[int] = set()
    for a in absent:
        if a not in below or a in cut:
            return None
        subtree = tree.subtree(a)
        if subtree & cut:
            return None
        cut |= subtree
    return tree.subtree(root) - cut - {BS_ID}


def seed_sums(world: World, nodes: set[int], round_no: int) -> tuple[int, int]:
    """Both chains' seed sums over the nodes at round_no, mod M."""
    d = sum(seed_of(world, nid, round_no) for nid in nodes)
    d_prime = sum(seed_of(world, nid, round_no, prime=True) for nid in nodes)
    return d & crypto.MASK, d_prime & crypto.MASK


def ipet(world: World, pair: tuple[int, int], claim: tuple[int, tuple[int, ...]], round_no: int):
    """(equal, sum_raw) of the test, and the verify ops it counts: a range
    sum and a subtraction per absent root on each chain, the root's range
    sum, two reversions and the comparison.  A malformed claim fails with
    sum_raw 0 and counts nothing."""
    root, absent = claim
    nodes = claim_nodes(world, root, absent)
    if nodes is None:
        return (False, 0), 0
    sums = seed_sums(world, nodes, round_no)
    sum_raw = crypto.undiffuse(pair[0], sums[0])
    return (sum_raw == crypto.undiffuse(pair[1], sums[1]), sum_raw), 4 * len(absent) + 2 + 3
