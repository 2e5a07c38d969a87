"""Connectivity graphs, the aggregation tree, and key provisioning.

The base station is always node 0.  Trees are built breadth-first from the
station with smallest-id tie-breaking so every run over the same graph yields
the same tree.  Each tree also records a pre-order Euler tour (children in id
order): every subtree is one contiguous slice of the tour, its span, so
subtree membership is two comparisons and a subtree's seed sum is a
difference of two prefix sums.  Provisioning hands each sensor two long-term
keys shared with the station, one channel key per tree edge, a random initial
reading (the seed-chain origin), and a private sense key for synthetic
per-round readings.

The geometric generator finds its edges on a fixed-radius near-neighbour
grid (Bentley, Stanat & Williams, IPL 1977): points are bucketed into square
cells at least one radius wide, and each point is tested only against the
points of its own cell and the neighbouring cells east and north of it, so
every candidate pair is tested once.  The edge test itself is the all-pairs
one, so the graph is identical; the expected cost is O(n + |E|) instead of
O(n^2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import crypto
from .errors import DisconnectedGraph

BS_ID = 0

# === Tree ===================================================================


@dataclass(frozen=True)
class Tree:
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    depth: dict[int, int]
    order: tuple[int, ...]  # the Euler tour: node ids in pre-order
    pos: dict[int, int]  # node id -> its index in the tour
    size: dict[int, int]  # node id -> node count of its subtree

    @property
    def sensor_ids(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self.depth if v != BS_ID))

    @property
    def n_sensors(self) -> int:
        return len(self.depth) - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(p, c) for c, p in sorted(self.parent.items())]

    def span(self, node: int) -> tuple[int, int]:
        """The half-open slice of the tour that holds the node's subtree."""
        start = self.pos[node]
        return start, start + self.size[node]

    def subtree(self, node: int) -> set[int]:
        start, end = self.span(node)
        return set(self.order[start:end])


def adjacency_from_edges(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def build_tree(adjacency: Mapping[int, Iterable[int]]) -> Tree:
    """Breadth-first spanning tree from the station; same-depth parent
    candidates lose to the smallest node id.  Raises DisconnectedGraph if any
    node is unreachable."""
    if BS_ID not in adjacency:
        raise DisconnectedGraph(f"root {BS_ID} not present in graph")
    parent: dict[int, int] = {}
    depth: dict[int, int] = {BS_ID: 0}
    found: dict[int, list[int]] = {}
    level = [BS_ID]
    while level:
        next_level: list[int] = []
        # Scanning each level in ascending id order makes the first (and thus
        # recorded) parent of any newly discovered node the smallest-id one.
        for u in sorted(level):
            near = adjacency.get(u, ())  # a set is read as it is, any other iterable copied
            found[u] = fresh = sorted((near if isinstance(near, (set, frozenset)) else set(near)).difference(depth))
            below = depth[u] + 1
            for v in fresh:
                depth[v] = below
                parent[v] = u
            next_level += fresh
        level = next_level
    missing = set(adjacency).difference(depth)
    if missing:
        raise DisconnectedGraph(f"unreachable nodes: {sorted(missing)[:8]}")
    kids = {u: tuple(found[u]) for u in depth}
    # Iterative pre-order walk: a path of thousands of nodes is deeper than
    # Python's recursion limit.
    order: list[int] = []
    stack = [BS_ID]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(kids[u]))
    size = dict.fromkeys(order, 1)
    for u in reversed(order):
        if u != BS_ID:
            size[parent[u]] += size[u]
    return Tree(
        parent=parent,
        children=kids,
        depth=depth,
        order=tuple(order),
        pos=dict(zip(order, range(len(order)))),
        size=size,
    )


# === Synthetic graph families ==============================================


def random_recursive_tree(n: int, rng: random.Random) -> dict[int, set[int]]:
    """n sensors, each attaching to a uniformly random earlier node.

    The expected depth of such a tree is Theta(ln n), which is the averaging
    assumption behind the attestation cost analysis.
    """
    if n < 1:
        raise ValueError("need at least one sensor")
    edges = [(rng.randrange(0, i), i) for i in range(1, n + 1)]
    return adjacency_from_edges(edges)


def random_geometric_graph(
    n: int, rng: random.Random, radius: float | None = None
) -> dict[int, set[int]]:
    """n sensors plus the station scattered in the unit square, linked within
    a radius.  Components are stitched together by their closest cross pairs
    so the result is always connected.  Edges come from the cell grid
    described in the module docstring."""
    if n < 1:
        raise ValueError("need at least one sensor")
    count = n + 1
    if radius is None:
        radius = 1.4 * math.sqrt(math.log(count + 1) / count)
    pts = [(rng.random(), rng.random()) for _ in range(count)]
    adj: dict[int, set[int]] = {i: set() for i in range(count)}
    dist = math.dist

    # Cells a hair wider than the radius, so float rounding in the cell index
    # can never put two linked points two cells apart.
    per_axis = max(1, int(1.0 / (radius * (1.0 + 1e-9)))) if radius > 0 else 1
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        key = (min(int(x * per_axis), per_axis - 1), min(int(y * per_axis), per_axis - 1))
        cells.setdefault(key, []).append(i)
    for (cx, cy), members in cells.items():
        # Own cell, then the half-neighbourhood east and north: each pair of
        # neighbouring cells is scanned from exactly one side.
        scans = [(members[k], members[k + 1 :]) for k in range(len(members) - 1)]
        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
            other = cells.get((cx + dx, cy + dy))
            if other:
                scans.extend((i, other) for i in members)
        for i, others in scans:
            p = pts[i]
            near = adj[i]
            for j in others:
                if dist(p, pts[j]) <= radius:
                    near.add(j)
                    adj[j].add(i)

    def component(start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    main = component(0)
    while len(main) < count:
        rest = [j for j in range(count) if j not in main]
        _, a, b = min((dist(pts[i], pts[j]), i, j) for i in main for j in rest)
        adj[a].add(b)
        adj[b].add(a)
        main |= component(b)
    return adj


def path_graph(n: int) -> dict[int, set[int]]:
    """Station at one end of a chain of n sensors; the worst case tree."""
    return adjacency_from_edges([(i, i + 1) for i in range(n)])


def star_graph(n: int) -> dict[int, set[int]]:
    return adjacency_from_edges([(BS_ID, i) for i in range(1, n + 1)])


# === Provisioning ===========================================================


@dataclass
class Provisioning:
    """Key material and origins, keyed by sensor id (edge keys by child id)."""

    node_keys: dict[int, tuple[bytes, bytes]] = field(default_factory=dict)
    edge_keys: dict[int, bytes] = field(default_factory=dict)
    origins: dict[int, int] = field(default_factory=dict)
    sense_keys: dict[int, bytes] = field(default_factory=dict)


def provision(tree: Tree, rng_seed: int, codec: crypto.FixedPointCodec) -> Provisioning:
    """Deterministically derive all secrets for a tree from one seed."""
    rng = random.Random(rng_seed)
    prov = Provisioning()
    for node in tree.sensor_ids:
        prov.node_keys[node] = (crypto.new_key(rng), crypto.new_key(rng))
        prov.edge_keys[node] = crypto.new_key(rng)
        prov.origins[node] = rng.randint(0, codec.max_raw)
        prov.sense_keys[node] = crypto.new_key(rng)
    return prov
