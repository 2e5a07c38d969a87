"""Base station: dissemination, finalize, pair-equality verdicts, the
attestation walk, liveness monitoring, and decoding."""

import dataclasses
import logging
import math
import random
import time
from collections import Counter

import pytest
import reference_ipet
from conftest import on_links, plaintext_sum, sensed_raw
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto, wire
from concealed_agg.basestation import Claim, IpetVerdict, _subtract
from concealed_agg.errors import StaleRound
from concealed_agg.adversary import Behavior, CompromiseSpec
from concealed_agg.simulator import GENERATORS, Scenario, World

M = crypto.MODULUS


def run_one(scenario: Scenario):
    world = World(scenario)
    result = world.run_round(1)
    return world, result


# === Dissemination and finalize =============================================


def test_round_messages_and_function_tag():
    world = World(Scenario(seed=40, n=9, generator="recursive", function="mean"))
    functions = []

    def recording(src, dst, payload):
        msg_type, body = wire.parse_frame(payload)
        if msg_type == wire.QUERY:
            functions.append(wire.decode_query(body)[1])
        return payload

    on_links(world, recording)
    result = world.run_round(1)
    # one query delivery plus one upward packet per node
    assert world.metrics.rounds[0].messages == 2 * 9
    assert result.function == "mean"
    assert functions == ["mean"] * 9  # every node is queried for the mean


def test_stale_round_rejected_by_station():
    world = World(Scenario(seed=41, n=3, generator="star"))
    world.run_round(1)
    with pytest.raises(StaleRound):
        world.bs.disseminate(1, "sum")


def test_refused_round_books_no_metrics_row():
    world = World(Scenario(seed=41, n=3, generator="star", rounds=2))
    world.run()
    csv = world.metrics.to_csv()
    with pytest.raises(StaleRound):
        world.run_round(2)
    assert [rm.round for rm in world.metrics.rounds] == [1, 2]
    assert world.metrics.to_csv() == csv


def test_finalize_single_child_and_union():
    world, result = run_one(Scenario(seed=42, n=5, generator="recursive"))
    dsum, dsum_prime, claim = world.bs.finalize(1)
    assert claim == (0, ())
    assert world.bs.participants(claim) == frozenset(range(1, 6))
    kids = world.bs._round_packets
    assert dsum == sum(p.dsum for p in kids.values()) % M
    assert dsum_prime == sum(p.dsum_prime for p in kids.values()) % M
    one = World(Scenario(seed=42, n=4, generator="path"))
    one.run_round(1)
    pkt = one.bs._round_packets[1]
    assert one.bs.finalize(1)[:2] == (pkt.dsum, pkt.dsum_prime)


def test_absent_list_outside_sender_subtree_forces_walk():
    # Station children 1 and 2; child 1 seals a packet (on its own channel)
    # naming node 2, outside its subtree, as absent.  The verdict fails, the
    # walk runs, and it puts no honest node among the outliers.
    edges = ((0, 1), (0, 2), (1, 3), (2, 4))
    world = World(Scenario(seed=43, n=4, edges=edges))
    node = world.nodes[1]

    def lying_emit(honest=node.emit):
        dst, _ = honest()
        pkt = node.state.emitted
        _, body = wire.seal_packet(node.up_channel, 1, 1, (2,), pkt.dsum, pkt.dsum_prime, pkt.tag)
        return dst, wire.frame(wire.AGG, body)

    node.emit = lying_emit
    result = world.run_round(1)
    assert world.bs.finalize(1)[2] == (0, (2,))
    assert result.report is not None
    assert result.report.outliers == frozenset()
    assert result.integrity == "rejected"


def test_malformed_absent_lists_fail_ipet(caplog):
    # Unknown, repeated, nested, non-descendant and self-naming roots: each
    # fails with its raw sum reported as 0, and is logged.
    world, _ = run_one(Scenario(seed=45, n=6, generator="path"))
    pair = world.bs.finalize(1)[:2]
    for claim in ((0, (99,)), (0, (3, 3)), (0, (2, 4)), (3, (2,)), (3, (3,)), (0, (0,))):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="concealed_agg.basestation"):
            assert world.bs.ipet_check(pair, claim, 1) == (False, 0), claim
        assert "malformed absent list" in caplog.text, claim


def test_receive_packet_ignores_non_child_and_duplicates():
    # Path 0-1-2-3: only 1 is a station child.  Both bodies are fresh and
    # authentic on their senders' up-links, so only the guards keep them out.
    world, _ = run_one(Scenario(seed=44, n=3, generator="path"))
    before = dict(world.bs._round_packets)
    for nid in (1, 2):
        _, body = wire.seal_packet(world.nodes[nid].up_channel, 1, nid, (), 5, 6, crypto.ZERO_TAG)
        world.bs.receive_packet(body)
    assert world.bs._round_packets == before  # nothing changed


# === Pair-equality test ======================================================


def test_ipet_honest_equals_plaintext_oracle():
    world, result = run_one(Scenario(seed=46, n=12, generator="recursive"))
    pair = world.bs.finalize(1)[:2]
    verdict = world.bs.ipet_check(pair, (0, ()), 1)
    assert verdict.equal
    assert verdict.sum_raw == plaintext_sum(world, 1)
    assert result.integrity == "passed"


def test_ipet_single_component_delta_fails():
    world, _ = run_one(Scenario(seed=47, n=8, generator="recursive"))
    dsum, dsum_prime, parts = world.bs.finalize(1)
    verdict = world.bs.ipet_check(((dsum + 5) % M, dsum_prime), parts, 1)
    assert not verdict.equal


def test_ipet_dual_shift_is_blind():
    # Same delta on both components passes and shifts the value: the
    # documented blind spot of pair-equality checking.
    world, _ = run_one(Scenario(seed=48, n=8, generator="recursive"))
    dsum, dsum_prime, parts = world.bs.finalize(1)
    delta = 31337
    verdict = world.bs.ipet_check(((dsum + delta) % M, (dsum_prime + delta) % M), parts, 1)
    assert verdict.equal
    assert verdict.sum_raw == (plaintext_sum(world, 1) + delta) % M


def test_ipet_unknown_participant():
    world, _ = run_one(Scenario(seed=49, n=4, generator="star"))
    pair = world.bs.finalize(1)[:2]
    assert not world.bs.ipet_check(pair, (0, (1, 999)), 1).equal


def test_verify_ops_do_not_grow_with_n():
    ops = []
    for n in (16, 128):
        world, _ = run_one(Scenario(seed=50, n=n, generator="recursive"))
        ops.append(world.metrics.rounds[0].verify_ops)
    assert ops[0] == ops[1]


def test_verdict_wall_time_flat_from_64_to_16384():
    # The round's verdict replayed as the benchmark replays it (ledger at the
    # round, op counting off).  The two worlds take turns, so a slow stretch
    # of the host falls on both sizes, and each size keeps its best mean over
    # a batch of calls, which a single preempted call cannot spoil.
    checks = {}
    for n in (64, 16384):
        world, _ = run_one(Scenario(seed=50, n=n, generator="recursive"))
        dsum, dsum_prime, claim = world.bs.finalize(1)
        checks[n] = world.bs.ipet_check, (dsum, dsum_prime), claim
    best = dict.fromkeys(checks, math.inf)
    for _ in range(40):
        for n, (check, pair, claim) in checks.items():
            t0 = time.perf_counter()
            for _ in range(100):
                check(pair, claim, 1, count_ops=False)
            best[n] = min(best[n], (time.perf_counter() - t0) / 100)
    assert best[16384] <= 2 * best[64], best


def _claims(data, tree):
    """A claim under a drawn root: disjoint strict descendants as absent
    roots, in any order, and at times one malformed root added."""
    root = data.draw(st.sampled_from(tree.order))
    below = sorted(tree.subtree(root) - {root})
    absent: list[int] = []
    for a in data.draw(st.lists(st.sampled_from(below), max_size=4)) if below else ():
        if all(a not in tree.subtree(b) and b not in tree.subtree(a) for b in absent):
            absent.append(a)
    outside = sorted(set(tree.order) - tree.subtree(root))
    nested = [d for a in absent for d in sorted(tree.subtree(a) - {a})]
    fault = data.draw(st.sampled_from(("none", "unknown", "repeated", "nested", "root", "outside")))
    if fault == "unknown":
        absent.append(data.draw(st.sampled_from((len(tree.order), 10**6, 2**32 - 1))))
    elif fault == "repeated" and absent:
        absent.append(data.draw(st.sampled_from(absent)))
    elif fault == "nested" and nested:
        absent.append(data.draw(st.sampled_from(nested)))
    elif fault == "root":
        absent.append(root)
    elif fault == "outside" and outside:
        absent.append(data.draw(st.sampled_from(outside)))
    return Claim(root, tuple(data.draw(st.permutations(absent))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lean_ipet_matches_the_plain_reference(data):
    # Over random trees of every generator, claims (malformed ones included)
    # and pairs, the round's verdict and the walk's check agree with the
    # test done the plain way, and the verdict keeps its type and op count.
    generator = data.draw(st.sampled_from(GENERATORS))
    n = data.draw(st.integers(1, 24))
    world = World(Scenario(seed=data.draw(st.integers(0, 2**16)), n=n, generator=generator))
    round_no = data.draw(st.integers(1, 3))
    claim = _claims(data, world.tree)
    nodes = reference_ipet.claim_nodes(world, *claim)
    raw = data.draw(st.integers(0, M - 1))
    sums = (0, 0) if nodes is None else reference_ipet.seed_sums(world, nodes, round_no)
    shift = data.draw(st.sampled_from((0, 0, 1, 1 << 63)))
    pair = (raw + sums[0] + shift) % M, (raw + sums[1]) % M
    if data.draw(st.booleans()):
        pair = (data.draw(st.integers(0, M - 1)), data.draw(st.integers(0, M - 1)))
    want, ops = reference_ipet.ipet(world, pair, claim, round_no)
    bs = world.bs
    before = bs.counters["verify_ops"]
    verdict = bs.ipet_check(pair, claim, round_no, count_ops=False)
    assert bs.counters["verify_ops"] == before
    assert type(verdict) is IpetVerdict
    assert (verdict.equal, verdict.sum_raw) == want
    assert bs.ipet_check(pair, claim, round_no) == verdict
    assert bs.counters["verify_ops"] == before + ops
    assert bs._fits(claim.root, wire.AggPacket(claim.root, claim.absent, *pair, crypto.ZERO_TAG)) == want[0]


# === Attestation walk ========================================================


def test_noncommit_interior_walk_stays_out_of_honest_sibling_subtrees():
    # 1 and 2 are station children; 1 is the liar, 2 roots an honest subtree.
    edges = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (5, 7))
    scenario = Scenario(
        seed=51, n=7, edges=edges,
        compromises=(CompromiseSpec(1, "noncommit", (9999,)),),
    )
    world, result = run_one(scenario)
    report = result.report
    assert report.outliers == frozenset({1})
    assert report.non_committed == frozenset({1})
    probed = {nid for nid, _, _ in report.transcript}
    # Not honest sibling 2, whose packet passes at the station, and not 1's
    # children either: the packets 1 reports for them pass there too.
    assert probed == {1}


def test_forging_leaf_clears_committed_ancestors():
    scenario = Scenario(
        seed=52, n=3, generator="path",
        compromises=(CompromiseSpec(3, "forge_children", (1234,)),),
    )
    world, result = run_one(scenario)
    report = result.report
    transcript = {nid: (committed, ok) for nid, committed, ok in report.transcript}
    assert transcript[1] == (True, False)  # transiently suspect
    assert transcript[2] == (True, False)
    assert transcript[3] == (True, False)  # committed to its forged packet
    assert report.outliers == frozenset({3})
    assert result.integrity == "attested"
    assert result.participants == frozenset({1, 2})


def test_honest_forced_attestation_probes_only_station_children():
    world, result = run_one(Scenario(seed=53, n=5, generator="star", audit_prob=1.0))
    assert result.integrity == "passed"
    assert result.report.outliers == frozenset()
    assert result.report.probes == 5


def test_outlier_status_recorded():
    scenario = Scenario(
        seed=54, n=6, generator="recursive",
        compromises=(CompromiseSpec(4, "forge_children", (7,)),),
    )
    world, result = run_one(scenario)
    assert result.report.outliers == frozenset({4})
    assert world.bs.unreachable == frozenset()


def test_nested_forgers_both_localized():
    # Forger below another forger on a path: both end in the outlier list.
    scenario = Scenario(
        seed=55, n=4, generator="path",
        compromises=(CompromiseSpec(2, "forge_children", (100,)), CompromiseSpec(4, "forge_children", (200,))),
    )
    world, result = run_one(scenario)
    assert result.report.outliers == frozenset({2, 4})
    assert result.integrity == "attested"
    assert result.participants == frozenset({1})


def _recording_reaggs(world: World) -> list[int]:
    """Record the type of every re-aggregation frame of the world's rounds,
    request or reply, that crosses the bus."""
    sent = []

    def recording(src, dst, payload):
        if payload[0] in (wire.REAGG, wire.REAGG_RESP):
            sent.append(payload[0])
        return payload

    on_links(world, recording)
    return sent


def test_bottom_forger_of_a_4096_node_path_is_localized():
    # Every ancestor of the forger fails IPET, and the packet it reports for
    # its one child fails too, so the station exonerates it by subtracting
    # that packet from its answer; the attested value is assembled at the station
    # from those re-aggregates.  Nothing recurses down the path (a
    # re-aggregation delegated node to node raised RecursionError from
    # n=200) and no re-aggregation is requested.  What remains is 2n data
    # frames and, per probe of a node at depth d, 2d messages through its
    # parent: n*n + 3*n in all.
    n = 4096
    world = World(Scenario(
        seed=3, n=n, generator="path",
        compromises=(CompromiseSpec(n, "forge_children", (12345,)),),
    ))
    sent = _recording_reaggs(world)
    result = world.run_round(1)
    assert result.integrity == "attested"
    assert result.report.outliers == frozenset({n})
    assert result.participants == frozenset(range(1, n))
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)
    assert sent == []
    assert world.metrics.rounds[0].messages == n * n + 3 * n


def _two_forger_worlds(kind: str) -> list[Scenario]:
    return [
        Scenario(seed=seed, n=60, generator=gen, compromises=(
            CompromiseSpec(victim, kind, (12345,)),
            CompromiseSpec(victim // 2 + 1, kind, (777,)),
        ))
        for seed, gen in ((3, "recursive"), (4, "geometric"), (5, "recursive"))
        for victim in (40, 59)
    ]


def test_noncommit_forgers_cost_no_reaggregation_request():
    # A noncommit forger's answer cannot be trusted, but its parent reported
    # the packet it received from it: the station subtracts that and clears
    # the parent with no request, and the attested value is exact.
    for scenario in _two_forger_worlds("noncommit"):
        world = World(scenario)
        sent = _recording_reaggs(world)
        result = world.run_round(1)
        assert result.integrity == "attested"
        assert result.report.outliers == frozenset(spec.node_id for spec in scenario.compromises)
        assert result.raw_sum == plaintext_sum(world, 1, result.participants)
        assert sent == []


def test_committed_forgers_cost_no_reaggregation_request():
    # With forge_children forgers, no one of them below another, every
    # failing child of an honest node committed: the station exonerates
    # each such node by subtraction, and sends no request.
    for scenario in _two_forger_worlds("forge_children"):
        world = World(scenario)
        a, b = (spec.node_id for spec in scenario.compromises)
        assert a not in world.tree.subtree(b) and b not in world.tree.subtree(a)
        sent = _recording_reaggs(world)
        result = world.run_round(1)
        assert result.integrity == "attested"
        assert result.report.outliers == frozenset({a, b})
        assert result.raw_sum == plaintext_sum(world, 1, result.participants)
        assert sent == []


def _refold_without(node, children: set[int]) -> tuple[int, int, tuple[int, ...]]:
    """A node's own pair plus the pairs of the child packets it kept, less
    the given children, each of which becomes an absent root with its
    subtree; and the absent roots: the children it did not keep or that are
    left out, plus the roots its kept children listed."""
    kept = {cid: pkt for cid, pkt in node.state.child_packets.items() if cid not in children}
    dsum = (node.state.own_d + sum(pkt.dsum for pkt in kept.values())) % M
    dsum_prime = (node.state.own_dp + sum(pkt.dsum_prime for pkt in kept.values())) % M
    absent = [cid for cid in node.children if cid not in kept]
    for pkt in kept.values():
        absent += pkt.absent
    return dsum, dsum_prime, tuple(sorted(absent))


def test_station_subtraction_is_the_nodes_own_reaggregation():
    # Each node cleared at the station holds the pair and absent roots the
    # node itself would fold without its failing children.
    cleared = 0
    for scenario in _two_forger_worlds("forge_children") + _two_forger_worlds("noncommit"):
        world = World(scenario)
        result = world.run_round(1)
        failing = {nid for nid, committed, ok in result.report.transcript if not (committed and ok)}
        for nid, reagg in world.bs._cleared.items():
            children = {c for c in world.tree.children[nid] if c in failing}
            assert _refold_without(world.nodes[nid], children) == (reagg.dsum, reagg.dsum_prime, reagg.absent)
            cleared += 1
    assert cleared > 0


def test_final_reaggregation_skips_a_cleared_node_whose_parent_was_not_added():
    # Path 0-1-2-3: station child 1 reports 3 as an absent root, 2 is an
    # outlier, and 3 was cleared.  3's parent was never added, so 3 stays
    # out even though 1 lists it, and the pair is 1's alone.
    world = World(Scenario(seed=43, edges=((0, 1), (1, 2), (2, 3))))
    bs = world.bs
    bs._round_packets = {1: wire.AggPacket(1, (3,), 11, 22, bytes(crypto.TAG_LEN))}
    bs._cleared = {3: wire.AggPacket(3, (), 5, 7, bytes(crypto.TAG_LEN))}
    pair, claim = bs.reaggregate_final(frozenset({2}))
    assert claim.absent == (3,)
    assert pair == (11, 22)


def _counter_subtract(node, failing):
    """Reference for the station's subtraction: its absent roots as a
    collections.Counter multiset."""
    dsum, dsum_prime = node.dsum, node.dsum_prime
    rest = Counter(node.absent)
    for child in failing:
        dsum = crypto.add_mod(dsum, -child.dsum)
        dsum_prime = crypto.add_mod(dsum_prime, -child.dsum_prime)
        rest.subtract(child.absent)
    if any(count < 0 for count in rest.values()):
        return None
    absent = [*rest.elements(), *(child.sender for child in failing)]
    return node._replace(dsum=dsum, dsum_prime=dsum_prime, absent=tuple(sorted(absent)))


_ids = st.lists(st.integers(1, 12), max_size=8).map(tuple)  # repeats and any order included
_packets = st.builds(
    wire.AggPacket, st.integers(1, 12), _ids,
    st.integers(0, M - 1), st.integers(0, M - 1), st.binary(min_size=8, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(node=_packets, failing=st.lists(_packets, min_size=1, max_size=4), subset=st.booleans())
def test_subtract_matches_a_counter_reference(node, failing, subset):
    if subset:  # children whose absent roots the node did fold, the usual case
        pool = list(node.absent)
        failing = [child._replace(absent=tuple(pool.pop() for _ in range(min(len(pool), len(child.absent)))))
                   for child in failing]
    got = _subtract(node, failing)
    assert got == _counter_subtract(node, failing)
    assert got is None or type(got) is wire.AggPacket


def _lie_about_absent_roots(node, absent, pair, child_packets):
    # A descendant (11, below forger 6) that node 4 did not leave out.
    return (*absent, 11), pair, child_packets


def _lie_about_the_pair(node, absent, pair, child_packets):
    # A shifted pair, with child 6's tag rewritten so the MAC chain still
    # reproduces the committed tag.
    lie = (crypto.add_mod(pair[0], 1), pair[1])
    six = child_packets[6]
    tag = crypto.xor_tags(crypto.xor_tags(six.tag, crypto.mac_pair(node.mac_key, *pair)),
                          crypto.mac_pair(node.mac_key, *lie))
    return absent, lie, {**child_packets, 6: six._replace(tag=tag)}


@pytest.mark.parametrize("lie", [_lie_about_absent_roots, _lie_about_the_pair])
def test_committed_child_lying_in_its_answer_does_not_blame_its_parent(lie):
    # Node 4 (parent 1) lies in its probe answer but stays committed: the
    # MAC covers only the pair, and a keyed node can re-tag its children.
    # Honest node 1 reported the packet 4 sent it, so the station clears 1
    # on that, whatever 4 answers, and asks no one to re-aggregate.  Forger
    # 6 is below 4.
    world = World(Scenario(seed=3, n=20, generator="recursive",
                           compromises=(CompromiseSpec(6, "forge_children", (12345,)),)))
    assert world.tree.parent[4] == 1 and 6 in world.tree.children[4] and 11 in world.tree.subtree(6)
    node = world.nodes[4]
    node.behavior = Behavior(answer=lambda answer, round_no: lie(node, *answer))
    sent = _recording_reaggs(world)
    result = world.run_round(1)
    transcript = {nid: (committed, ok) for nid, committed, ok in result.report.transcript}
    assert transcript[4] == (True, False)
    assert sent == []
    assert 1 not in result.report.outliers
    assert world.bs.unreachable == frozenset()
    assert result.integrity == "attested"
    assert 6 in result.report.outliers
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)


def test_parent_that_misreports_a_childs_pair_is_the_outlier():
    # Forger 4 (parent 1, children 6 and 9) reports child 6's pair shifted
    # by its own delta, so that its answer less that packet would pass and 6
    # would take the blame.  The station finds the shifted packet failing
    # and probes 6, pinned to the tag 4 reported; 6 answers its true packet
    # and passes.  So 4 has no failing child to subtract, and stays the
    # outlier; 1 is cleared on the packet 4 sent it.
    world = World(Scenario(seed=3, n=30, generator="recursive",
                           compromises=(CompromiseSpec(4, "forge_children", (12345,)),)))
    assert world.tree.parent[4] == 1 and world.tree.children[4] == (6, 9)
    node = world.nodes[4]

    def misreport(answer, round_no):
        absent, pair, child_packets = answer
        six = child_packets[6]
        return absent, pair, {**child_packets, 6: six._replace(dsum=crypto.add_mod(six.dsum, 12345))}

    node.behavior = Behavior(pair=node.behavior.pair, answer=misreport)
    sent = _recording_reaggs(world)
    result = world.run_round(1)
    transcript = {nid: (committed, ok) for nid, committed, ok in result.report.transcript}
    assert transcript[4] == (True, False) and transcript[6] == (True, True)
    assert result.report.outliers == frozenset({4})
    assert result.integrity == "attested"
    assert result.participants == frozenset(world.tree.sensor_ids) - world.tree.subtree(4)
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)
    assert sent == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a keyed forger can re-tag its children to frame its parent")
def test_forger_that_frames_its_parent_is_the_outlier():
    # Forger 4 (parent 1, children 6 and 9) answers its probe with the
    # unforged pair and rewrites child 6's tag so the MAC chain still
    # reproduces its emitted tag: emitted ^ MAC_K4(honest pair) ^ tag_9.  It
    # passes as committed and IPET-clean, so the walk never descends below
    # it and blames honest node 1 instead.
    world = World(Scenario(seed=3, n=30, generator="recursive",
                           compromises=(CompromiseSpec(4, "forge_children", (12345,)),)))
    assert world.tree.parent[4] == 1 and world.tree.children[4] == (6, 9)
    node = world.nodes[4]

    def framing(answer, round_no):
        absent, (dsum, dsum_prime), child_packets = answer
        honest = (crypto.add_mod(dsum, -12345), dsum_prime)
        tag = crypto.xor_tags(node.state.emitted.tag, crypto.mac_pair(node.mac_key, *honest))
        six = child_packets[6]._replace(tag=crypto.xor_tags(tag, child_packets[9].tag))
        return absent, honest, {**child_packets, 6: six}

    node.behavior = Behavior(pair=node.behavior.pair, answer=framing)
    result = world.run_round(1)
    assert result.integrity == "attested"
    assert result.report.outliers == frozenset({4})


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a keyed forger can misreport a child's packet to frame it")
def test_forger_that_frames_its_child_is_the_outlier():
    # Forger 4 (children 6 and 9) reports child 6's pair shifted by its own
    # delta, and XORs one mask into the tags it reports for 6 and 9, so its
    # own MAC check still holds.  Child 6 is probed on the shifted packet,
    # pinned to the masked tag, and answers its true one; 4 is cleared on
    # its answer less the shifted packet, and honest 6 is blamed.
    world = World(Scenario(seed=3, n=30, generator="recursive",
                           compromises=(CompromiseSpec(4, "forge_children", (12345,)),)))
    node = world.nodes[4]
    mask = b"\x01" * 8

    def framing(answer, round_no):
        absent, pair, child_packets = answer
        six, nine = child_packets[6], child_packets[9]
        six = six._replace(dsum=crypto.add_mod(six.dsum, 12345), tag=crypto.xor_tags(six.tag, mask))
        return absent, pair, {**child_packets, 6: six, 9: nine._replace(tag=crypto.xor_tags(nine.tag, mask))}

    node.behavior = Behavior(pair=node.behavior.pair, answer=framing)
    result = world.run_round(1)
    assert result.integrity == "attested"
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)
    assert result.report.outliers == frozenset({4})


def test_vouched_non_child_is_not_probed():
    # Node 1 fails (its child 3 forges) and also reports a packet for its
    # grandchild 4.  Of the station's children only 1, whose packet fails,
    # is probed; only 1's own children are checked below it, and only 3,
    # whose packet fails, is probed; 4's tag still enters 1's MAC check,
    # which it breaks.
    world = World(Scenario(seed=57, edges=((0, 1), (0, 5), (1, 2), (1, 3), (2, 4)),
                           compromises=(CompromiseSpec(3, "forge_children", (4321,)),)))

    def vouching(answer, round_no):
        absent, pair, child_packets = answer
        return absent, pair, {**child_packets, 4: world.nodes[4].state.emitted}

    world.nodes[1].behavior = Behavior(answer=vouching)
    result = world.run_round(1)
    assert [nid for nid, _, _ in result.report.transcript] == [1, 3]
    assert result.report.non_committed == frozenset({1})
    assert result.report.outliers == frozenset({1, 3})
    assert result.integrity == "attested" and result.participants == frozenset({5})


def test_walk_record_is_consistent_over_small_worlds():
    # The transcript, probe count, non-committed set and outliers are views
    # of one record per probed node; a failed node stays out of the outliers
    # only when it committed, failed IPET and was cleared without a failing
    # tree child's subtree.
    rng = random.Random(1414)
    generators = ("recursive", "geometric", "path", "star")
    walks = 0
    for i in range(48):
        n = rng.randint(4, 24)
        forgers = rng.sample(range(1, n + 1), rng.randint(1, 3))
        compromises = tuple(
            CompromiseSpec(nid, rng.choice(("forge_children", "noncommit")), (rng.getrandbits(64) | 1,))
            for nid in forgers
        )
        world = World(Scenario(seed=2000 + i, rounds=2, n=n, generator=generators[i % 4],
                               compromises=compromises, audit_prob=1.0))
        for result in world.run():
            report = result.report
            ids = [nid for nid, _, _ in report.transcript]
            assert len(ids) == len(set(ids)) == report.probes
            assert report.non_committed == {nid for nid, committed, _ in report.transcript if not committed}
            failed = {nid for nid, committed, ok in report.transcript if not (committed and ok)}
            assert report.outliers <= failed
            verdicts = {nid: (committed, ok) for nid, committed, ok in report.transcript}
            for nid in failed - report.outliers:
                assert verdicts[nid] == (True, False)
                assert failed.intersection(world.tree.children[nid])
            walks += bool(failed)
    assert walks > 48


# === Monitoring ==============================================================


def _fresh_bs(n=4):
    world = World(Scenario(seed=56, n=n, generator="star"))
    return world.bs


def test_monitor_full_participation():
    bs = _fresh_bs()
    assert bs.monitor(frozenset({1, 2, 3, 4})) == frozenset()
    assert bs.unreachable == frozenset()


def test_honest_round_monitors_without_a_set_difference():
    # An honest round's participants are the station's own set of every
    # sensor: monitoring it takes no difference over all n, and ends every
    # streak.
    class NoDifference(frozenset):
        def difference(self, *others):
            raise AssertionError("an O(n) difference on an honest round")

    world = World(Scenario(seed=56, n=8, generator="recursive", rounds=2))
    world.bs._absent_streak = {3: 2}
    world.bs._all_sensors = NoDifference(world.bs._all_sensors)
    result = world.run_round(1)
    assert result.integrity == "passed" and result.participants is world.bs._all_sensors
    assert world.bs._absent_streak == {} and world.bs.unreachable == frozenset()


def test_monitor_marks_unreachable_after_threshold():
    bs = _fresh_bs()
    present = frozenset({1, 2, 3})
    for i in range(3):
        absent = bs.monitor(present)
        assert absent == frozenset({4})
        assert bs.unreachable == (frozenset({4}) if i == 2 else frozenset())
    bs.monitor(frozenset({1, 2, 3, 4}))  # node comes back
    assert bs.unreachable == frozenset()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 6)), max_size=12))
def test_monitor_matches_a_full_scan(steps):
    # Each round some sensors are present (an id beyond the network may be
    # listed too).  The monitor, which visits only nodes absent this round or
    # the last, returns the absent set, and the unreachable sensors are those
    # a scan of every sensor finds absent three rounds in a row.
    bs = _fresh_bs(n=5)
    streaks = dict.fromkeys(range(1, 6), 0)
    for present in steps:
        want = frozenset(nid for nid in streaks if nid not in present)
        for nid in streaks:
            streaks[nid] = streaks[nid] + 1 if nid in want else 0
        assert bs.monitor(frozenset(present)) == want
        assert bs.unreachable == frozenset(nid for nid, streak in streaks.items() if streak >= 3)


# === Decoding ================================================================


def test_mean_single_node_is_its_reading():
    world, result = run_one(Scenario(seed=57, n=1, generator="star", function="mean"))
    expected = world.codec.decode(sensed_raw(world, 1, 1))
    assert result.value == pytest.approx(expected, abs=1e-9)


def test_mean_of_equal_readings():
    world, _ = run_one(Scenario(seed=58, n=5, generator="star"))
    raw = world.codec.encode(321.5)
    result = dataclasses.replace(
        world.results[0], raw_sum=(5 * raw) % M, participants=frozenset({1, 2, 3, 4, 5})
    )
    assert world.bs.decode_value("mean", result.raw_sum, result.participants) == pytest.approx(321.5, abs=1 / 200)


def test_mean_matches_plaintext_oracle():
    world, result = run_one(Scenario(seed=59, n=9, generator="recursive", function="mean"))
    oracle = plaintext_sum(world, 1) / 9 / world.codec.scale
    assert result.value == pytest.approx(oracle, abs=1 / (2 * world.codec.scale))


# === Honest soundness sweep ==================================================


def test_honest_soundness_over_random_trees():
    # Decoded sum equals the plaintext oracle on every honest round; sizes
    # drawn log-uniformly across the supported range.
    rng = random.Random(61)
    for trial in range(60):
        n = int(round(10 ** rng.uniform(1, 2.6)))
        generator = rng.choice(("recursive", "geometric"))
        world, result = run_one(Scenario(seed=rng.getrandbits(32), n=n, generator=generator))
        assert result.integrity == "passed", f"trial {trial} n={n}"
        expected = plaintext_sum(world, 1)
        assert result.raw_sum == expected
        assert result.value == pytest.approx(world.codec.decode_sum(expected, n), abs=1e-9)
