"""Tree construction, graph generators, provisioning."""

import math
import random
import re

import pytest
from conftest import BAD_EDGE_LINES
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto
from concealed_agg.errors import DisconnectedGraph
from concealed_agg.topology import (
    BS_ID,
    adjacency_from_edges,
    build_tree,
    path_graph,
    provision,
    random_geometric_graph,
    random_recursive_tree,
    star_graph,
)


def test_path_tree_structure():
    tree = build_tree(path_graph(2))
    assert tree.parent[1] == 0 and tree.parent[2] == 1
    assert tree.depth == {0: 0, 1: 1, 2: 2}


def test_star_tree_structure():
    tree = build_tree(star_graph(5))
    assert all(tree.parent[i] == 0 for i in range(1, 6))
    assert all(tree.depth[i] == 1 for i in range(1, 6))
    assert tree.children[0] == (1, 2, 3, 4, 5)


def test_bfs_prefers_shortest_path_not_chain():
    # 1 adjacent to both 0 and 2; 2 adjacent to 0.  Brute-force BFS oracle on
    # this 3-node graph: both 1 and 2 sit one hop from the station.
    adjacency = adjacency_from_edges([(0, 1), (1, 2), (0, 2)])
    tree = build_tree(adjacency)
    assert tree.parent[1] == 0
    assert tree.parent[2] == 0
    assert tree.depth[2] == 1


def test_tie_break_is_smallest_id_parent():
    # 3 is reachable at depth 2 through either 1 or 2.
    adjacency = adjacency_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    tree = build_tree(adjacency)
    assert tree.parent[3] == 1


def test_disconnected_graph_rejected():
    adjacency = adjacency_from_edges([(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        build_tree(adjacency)


def test_tree_edge_count_and_parent_chains():
    rng = random.Random(1)
    for n in (1, 2, 17, 120):
        tree = build_tree(random_recursive_tree(n, rng))
        assert len(tree.edges()) == n  # n sensors + station => n edges
        for nid in tree.sensor_ids:
            steps, cur = 0, nid
            while cur != BS_ID:
                cur = tree.parent[cur]
                steps += 1
            assert steps == tree.depth[nid]


def test_subtree_members():
    tree = build_tree(path_graph(3))
    assert tree.subtree(2) == {2, 3}
    assert tree.subtree(0) == {0, 1, 2, 3}


def test_euler_tour_spans_subtrees_on_deep_paths():
    # Far deeper than the recursion limit: the tour is built iteratively.
    n = 5000
    tree = build_tree(path_graph(n))
    assert tree.order == tuple(range(n + 1))
    assert tree.span(0) == (0, n + 1)
    assert tree.span(1) == (1, n + 1)
    assert tree.span(n) == (n, n + 1)
    assert tree.subtree(n - 1) == {n - 1, n}


def test_recursive_tree_depth_is_logarithmic():
    # Grounding for the averaging assumption: mean depth ~ ln n.
    rng = random.Random(2)
    n = 2000
    for _ in range(3):
        tree = build_tree(random_recursive_tree(n, rng))
        mean_depth = sum(tree.depth[v] for v in tree.sensor_ids) / n
        assert 0.4 * math.log(n) < mean_depth < 2.5 * math.log(n)


def test_geometric_graph_connected_and_deterministic():
    a = random_geometric_graph(40, random.Random(3))
    b = random_geometric_graph(40, random.Random(3))
    assert a == b
    tree = build_tree(a)
    assert tree.n_sensors == 40


def pairwise_geometric_graph(n, rng, radius=None):
    """Reference for random_geometric_graph: the direct O(n^2) builder it
    replaced, testing every pair of points.  Also returns the stitch count."""
    count = n + 1
    if radius is None:
        radius = 1.4 * math.sqrt(math.log(count + 1) / count)
    pts = {i: (rng.random(), rng.random()) for i in range(count)}
    adj = {i: set() for i in range(count)}
    ids = sorted(pts)
    for i in ids:
        for j in ids:
            if j > i and math.dist(pts[i], pts[j]) <= radius:
                adj[i].add(j)
                adj[j].add(i)

    def component(start):
        seen, stack = {start}, [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    main = component(0)
    stitches = 0
    while len(main) < count:
        rest = set(ids) - main
        a, b = min(
            ((i, j) for i in sorted(main) for j in sorted(rest)),
            key=lambda e: (math.dist(pts[e[0]], pts[e[1]]), e),
        )
        adj[a].add(b)
        adj[b].add(a)
        main |= component(b)
        stitches += 1
    return adj, stitches


@pytest.mark.parametrize("n", [1, 2, 14, 64, 500, 2048])
def test_geometric_graph_matches_pairwise_reference(n):
    # The cell grid finds exactly the pairs the all-pairs scan finds, at the
    # default radius and at 0.4 of it, where components must be stitched.
    default = 1.4 * math.sqrt(math.log(n + 2) / (n + 1))
    stitches = 0
    for seed in (1, 2, 3):
        for radius in (None, 0.4 * default):
            expected, stitched = pairwise_geometric_graph(n, random.Random(seed), radius)
            assert random_geometric_graph(n, random.Random(seed), radius) == expected, (seed, radius)
            stitches += stitched
    if n >= 14:
        assert stitches >= 3


class _Replay:
    """An rng stand-in that returns fixed coordinates in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


@pytest.mark.parametrize("radius", [1 / 4, 1 / 5, 1 / 8, 1 / 9, 0.1, 1 / 7, 1.0, 3.0])
def test_geometric_graph_links_points_on_cell_boundaries(radius):
    # Points on the multiples of the radius and a few ulps either side.  A
    # pair such as 0.25 - 2**-55 and 0.5 is exactly one radius 1/4 apart in
    # float arithmetic, yet its cell indices at side 1/4 are 0 and 2: the
    # grid's cells must be wide enough that rounding never splits such pairs.
    coords = set()
    for k in range(int(1 / radius) + 1):
        below = above = k * radius
        coords.add(below)
        for _ in range(3):
            below, above = math.nextafter(below, -1), math.nextafter(above, 2)
            coords |= {below, above}
    points = [c for x in sorted(coords) if 0 <= x < 1 for c in (x, 0.5)]
    n = len(points) // 2 - 1
    expected, _ = pairwise_geometric_graph(n, _Replay(points), radius)
    assert random_geometric_graph(n, _Replay(points), radius) == expected


def test_geometric_graph_of_16384_sensors_builds():
    tree = build_tree(random_geometric_graph(16384, random.Random(4)))
    assert tree.n_sensors == 16384
    assert len(tree.order) == 16385


@settings(max_examples=40)
@given(st.integers(1, 60), st.integers(0, 2**32))
def test_random_tree_always_buildable(n, seed):
    tree = build_tree(random_recursive_tree(n, random.Random(seed)))
    assert tree.n_sensors == n
    assert set(tree.sensor_ids) == set(range(1, n + 1))


def _reference_bfs(adjacency):
    """Plain level-by-level breadth-first search for build_tree: each level
    in ascending id order, each node's neighbours scanned one by one in
    ascending id order.  Parent, depth and children maps in discovery order,
    or the unreachable nodes."""
    parent, depth, children = {}, {BS_ID: 0}, {BS_ID: []}
    level = [BS_ID]
    while level:
        next_level = []
        for u in sorted(level):
            for v in sorted(adjacency.get(u, ())):
                if v not in depth:
                    parent[v], depth[v], children[v] = u, depth[u] + 1, []
                    children[u].append(v)
                    next_level.append(v)
        level = next_level
    missing = sorted(set(adjacency) - set(depth))
    return missing or (parent, depth, {u: tuple(kids) for u, kids in children.items()})


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3 * n))),
    st.booleans(),
)
def test_build_tree_matches_a_plain_reference_bfs(graph, as_lists):
    # Random graphs, disconnected ones and self-loops included: the same tree,
    # dict insertion orders too, or the same unreachable nodes.  Each parent
    # is the smallest-id neighbour one level up.
    n, edges = graph
    adjacency = adjacency_from_edges([(0, 0), *edges])
    if as_lists:
        adjacency = {u: list(vs) for u, vs in adjacency.items()}
    want = _reference_bfs(adjacency)
    if isinstance(want, list):
        with pytest.raises(DisconnectedGraph, match=re.escape(str(want[:8]))):
            build_tree(adjacency)
        return
    tree = build_tree(adjacency)
    for got, ref in zip((tree.parent, tree.depth, tree.children), want):
        assert list(got.items()) == list(ref.items())
    for v, u in tree.parent.items():
        assert u == min(w for w in adjacency[v] if tree.depth[w] == tree.depth[v] - 1)


# === Provisioning ===========================================================


def test_provision_deterministic():
    tree = build_tree(star_graph(4))
    codec = crypto.FixedPointCodec()
    assert provision(tree, 99, codec) == provision(tree, 99, codec)
    assert provision(tree, 99, codec) != provision(tree, 100, codec)


def test_provision_key_counts_and_distinctness():
    tree = build_tree(random_recursive_tree(100, random.Random(4)))
    codec = crypto.FixedPointCodec()
    prov = provision(tree, 5, codec)
    node_keys = [k for pair in prov.node_keys.values() for k in pair]
    assert len(node_keys) == 200
    assert len(prov.edge_keys) == 100
    everything = node_keys + list(prov.edge_keys.values()) + list(prov.sense_keys.values())
    assert len(set(everything)) == len(everything)


def test_provision_origins_decode_in_domain():
    codec = crypto.FixedPointCodec(-10.0, 50.0, 4)
    tree = build_tree(star_graph(30))
    prov = provision(tree, 6, codec)
    for origin in prov.origins.values():
        assert 0 <= origin <= codec.max_raw
        assert -10.0 <= codec.decode(origin) <= 50.0
