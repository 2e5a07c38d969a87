"""Adversarial behaviors: forgery variants, non-commitment, replay, drops,
the influence bound, and what a passive eavesdropper actually learns."""

import dataclasses
import logging
import random

import fault_grammar
import pytest
from conftest import on_links, plaintext_sum, seed_at, seed_of, sensed_raw
from reference_codecs import header_ad

from concealed_agg import crypto, wire
from concealed_agg.adversary import CompromiseSpec
from concealed_agg.errors import ScenarioInvalid
from concealed_agg.simulator import GENERATORS, Scenario, World

M = crypto.MODULUS


def run_one(scenario):
    world = World(scenario)
    return world, world.run_round(1)


# === forge_children =========================================================


def test_forge_zero_delta_indistinguishable():
    honest = World(Scenario(seed=70, n=6, generator="recursive"))
    forged = World(Scenario(seed=70, n=6, generator="recursive",
                            compromises=(CompromiseSpec(3, "forge_children", (0,)),)))
    assert honest.run_round(1) == forged.run_round(1)


def test_forge_nonzero_delta_lands_in_outlier_list():
    for delta in (1, 99999, M - 1):
        world, result = run_one(Scenario(seed=71, n=8, generator="recursive",
                                         compromises=(CompromiseSpec(4, "forge_children", (delta,)),)))
        assert result.integrity in ("attested", "rejected")
        assert 4 in result.report.outliers


def test_sibling_forgers_with_cancelling_deltas_pass_unseen():
    # Exact ring cancellation: the two first-chain deltas sum to 0 mod M, so
    # the final pair is arithmetically indistinguishable from honest and the
    # net influence on the sum is zero.  Frozen from the ring oracle.
    delta = 987654321
    world, result = run_one(Scenario(
        seed=72, n=5, generator="star",
        compromises=(CompromiseSpec(1, "forge_children", (delta,)),
                     CompromiseSpec(2, "forge_children", (M - delta,))),
    ))
    assert result.integrity == "passed"
    assert result.raw_sum == plaintext_sum(world, 1)


def test_sibling_forgers_with_noncancelling_deltas_detected():
    world, result = run_one(Scenario(
        seed=73, n=5, generator="star",
        compromises=(CompromiseSpec(1, "forge_children", (10,)),
                     CompromiseSpec(2, "forge_children", (M - 11,))),
    ))
    assert result.integrity == "attested"
    assert result.report.outliers == frozenset({1, 2})


def test_dual_consistent_forge_needs_granted_power_and_passes():
    world, result = run_one(Scenario(
        seed=74, n=6, generator="recursive",
        compromises=(CompromiseSpec(2, "forge_children", (4242, True)),),
    ))
    assert result.integrity == "passed"
    assert result.raw_sum == (plaintext_sum(world, 1) + 4242) % M


def test_trigger_round_delays_activation():
    scenario = Scenario(seed=75, n=6, generator="recursive", rounds=3, trigger_round=3,
                        compromises=(CompromiseSpec(3, "forge_children", (5,)),))
    world = World(scenario)
    results = world.run()
    assert [r.integrity for r in results] == ["passed", "passed", "attested"]


# === forge_own ==============================================================


def test_forge_own_passes_with_exact_deviation():
    base = Scenario(seed=76, n=10, generator="recursive")
    honest_world, honest = run_one(base)
    delta = 500  # raw units; readings here never sit that close to the cap
    forged_world, forged = run_one(dataclasses.replace(
        base, compromises=(CompromiseSpec(6, "forge_own", (delta,)),)))
    assert forged.integrity == "passed"
    assert forged.report is None
    assert (forged.raw_sum - honest.raw_sum) % M == delta


def test_forge_own_stops_at_the_domain_edge():
    # A delta one round's reading cannot absorb forges the nearest reading
    # in the domain, and the round still reaches its (passing) verdict.
    for delta in (100000, -100000):
        world, result = run_one(Scenario(seed=77, n=4, generator="star",
                                         compromises=(CompromiseSpec(1, "forge_own", (delta,)),)))
        edge = world.codec.max_raw if delta > 0 else 0
        assert not 0 <= sensed_raw(world, 1, 1) + delta <= world.codec.max_raw
        assert result.integrity == "passed"
        assert result.raw_sum == plaintext_sum(world, 1) - sensed_raw(world, 1, 1) + edge


def test_forge_own_zero_is_honest():
    base = Scenario(seed=78, n=5, generator="star")
    a = run_one(base)[1]
    b = run_one(dataclasses.replace(base, compromises=(CompromiseSpec(2, "forge_own", (0,)),)))[1]
    assert a == b


# === noncommit ==============================================================


def test_noncommit_fails_commitment_and_gets_no_second_chance():
    _, result = run_one(Scenario(seed=79, n=7, generator="recursive",
                                 compromises=(CompromiseSpec(2, "noncommit", (555,)),)))
    transcript = {nid: (c, ok) for nid, c, ok in result.report.transcript}
    assert transcript[2][0] is False
    assert 2 in result.report.non_committed
    assert 2 in result.report.outliers


def test_honest_probe_commitment_holds():
    world, result = run_one(Scenario(seed=80, n=6, generator="recursive", audit_prob=1.0))
    assert all(committed and ok for _, committed, ok in result.report.transcript)


# === replay =================================================================


def test_replayed_packet_rejected_by_parent_channel():
    # Replayer re-sends its round-1 wire bytes from round 2 on; their channel
    # tag, sealed for round 1, fails under the parent's round, so the parent
    # drops them and the subtree vanishes from the round.
    scenario = Scenario(seed=81, n=4, generator="path", rounds=3, trigger_round=2,
                        compromises=(CompromiseSpec(3, "replay", (1,)),))
    world = World(scenario)
    r1, r2, r3 = world.run()
    assert r1.participants == frozenset({1, 2, 3, 4})
    assert r2.participants == frozenset({1, 2})  # 3 replayed, its subtree lost
    assert r2.integrity == "passed"
    assert r3.participants == frozenset({1, 2})
    state = world.nodes[2].state  # 3's packet was refused, not folded
    assert 3 not in state.child_packets and state.emitted.absent == (3,)


def test_replay_at_station_channel_rejected_the_same_way():
    scenario = Scenario(seed=82, n=3, generator="star", rounds=2, trigger_round=2,
                        compromises=(CompromiseSpec(2, "replay", (1,)),))
    world = World(scenario)
    _, r2 = world.run()
    assert r2.participants == frozenset({1, 3})
    assert r2.integrity == "passed"


def test_replay_kinds_old_frame_is_refused_and_the_genuine_packet_folds(caplog):
    # The four-node cluster 0-1, 1-{2,3,4}; leaf 2 replays its round-1 frame
    # in round 2.  Node 1 refuses the old frame on its channel tag and keeps
    # nothing, so node 2's genuine round-2 packet, arriving after it, folds.
    world = World(Scenario(seed=21, n=4, edges=((0, 1), (1, 2), (1, 3), (1, 4)), trigger_round=2,
                           compromises=(CompromiseSpec(2, "replay", (1,)),)))
    agg, leaf = world.nodes[1], world.nodes[2]
    frames = []
    for round_no in (1, 2):
        agg.open_round(round_no)
        leaf.open_round(round_no)
        frames.append(leaf.emit()[1])
    assert frames[1] == frames[0]  # the replay kind resent its round-1 frame
    caplog.set_level(logging.INFO, logger="concealed_agg")
    agg.handle_message(frames[1])
    assert agg.state.child_packets == {}
    assert "rejected packet from child 2: channel tag mismatch" in caplog.text
    pkt = leaf.state.emitted  # the packet leaf 2 sealed before its hook replaced the frame
    genuine = wire.seal_packet(leaf.up_channel, 2, 2, pkt.absent, pkt.dsum, pkt.dsum_prime, pkt.tag)
    agg.aggregate_child(genuine)
    assert agg.state.child_packets == {2: pkt}


def test_stale_payload_under_fresh_counter_fails_auth(caplog):
    # The fresh counter is the receiver's round.  Node 2's round-1 sealed pair
    # under its round-2 header and tag is refused in round 2 and leaves
    # nothing behind, so node 2's own packet, which arrives after it, still folds.
    w1, w2 = World(Scenario(seed=83, n=2, generator="path")), World(Scenario(seed=83, n=2, generator="path"))
    w2.nodes[2].open_round(1)
    stale = wire.decode_agg_body(wire.parse_frame(w2.nodes[2].emit()[1])[1])[2]
    w1.nodes[1].open_round(2)
    w1.nodes[2].open_round(2)
    fresh = wire.parse_frame(w1.nodes[2].emit()[1])[1]
    sender, parts, _, tag = wire.decode_agg_body(fresh)
    crafted = wire.encode_agg_body(sender, parts, stale, tag)
    caplog.set_level(logging.INFO, logger="concealed_agg")
    w1.nodes[1].aggregate_child(crafted)
    assert w1.nodes[1].state.child_packets == {}
    assert "rejected packet from child 2: channel tag mismatch" in caplog.text
    w1.nodes[1].aggregate_child(fresh)
    assert w1.nodes[1].state.child_packets == {2: w1.nodes[2].state.emitted}


def test_keyless_header_tamper_blames_no_honest_node():
    # A keyless attacker on link 3->1 rewrites one clear header field of
    # node 3's packet: the list of ids, or the aggregate tag.  The channel
    # tag binds both, so node 1 rejects the packet and node 3's subtree is
    # reported absent; nobody honest is blamed.
    for field in ("ids", "tag"):
        world = World(Scenario(seed=3, n=20, generator="recursive", audit_prob=1.0))
        assert world.tree.parent[3] == 1
        node = world.nodes[3]

        def tampered(honest=node.emit, field=field):
            dst, payload = honest()
            sender, ids, sealed, tag = wire.decode_agg_body(wire.parse_frame(payload)[1])
            if field == "ids":
                ids = tuple(sorted(set(ids) ^ {3}))
            else:
                tag = bytes([tag[0] ^ 1]) + tag[1:]
            return dst, wire.frame(wire.AGG, wire.encode_agg_body(sender, ids, sealed, tag))

        node.emit = tampered
        result = world.run_round(1)
        assert result.report.outliers == frozenset(), field
        assert result.integrity == "passed", field
        assert result.participants == frozenset(world.tree.sensor_ids) - world.tree.subtree(3)
        assert result.raw_sum == plaintext_sum(world, 1, result.participants)


def test_malformed_agg_frame_blames_no_honest_node():
    # A keyless attacker overstates the absent count (body bytes 4..8) of
    # an AGG frame, so it no longer parses.  On link 3->1 node 1 treats it as
    # a packet that fails authentication and reports node 3's subtree absent;
    # on link 1->0 the station ignores it.  The round reaches a verdict.
    for nid in (3, 1):
        world = World(Scenario(seed=3, n=20, generator="recursive", audit_prob=1.0))
        node = world.nodes[nid]

        def overstated(honest=node.emit):
            dst, payload = honest()
            body = bytearray(wire.parse_frame(payload)[1])
            body[4:8] = (1000).to_bytes(4, "big")
            return dst, wire.frame(wire.AGG, bytes(body))

        node.emit = overstated
        result = world.run_round(1)
        assert result.integrity == "passed", nid
        assert result.report.outliers == frozenset(), nid
        assert result.participants == frozenset(world.tree.sensor_ids) - world.tree.subtree(nid)
        assert result.raw_sum == plaintext_sum(world, 1, result.participants)


def test_rewritten_agg_sender_costs_no_sibling():
    # The four-node cluster 0-1, 1-{2,3,4}.  A keyless attacker on link 2->1
    # rewrites node 2's sender field to 3.  The packet does not open on 3's
    # channel and leaves nothing behind, so 3's own packet, which arrives
    # next, still folds: the round misses node 2 alone.
    world = World(Scenario(seed=21, n=4, edges=((0, 1), (1, 2), (1, 3), (1, 4))))

    def rewrite(src, dst, payload):
        if (src, dst) == (2, 1) and payload[:1] == bytes([wire.AGG]):
            return payload[:1] + (3).to_bytes(4, "big") + payload[5:]
        return payload

    on_links(world, rewrite)
    result = world.run_round(1)
    assert result.integrity == "passed"
    assert result.participants == frozenset({1, 3, 4})
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)


def test_one_keyless_agg_fault_costs_only_the_subtree_below_its_link():
    # One keyless fault (fault_grammar) on the one AGG frame a chosen sensor
    # sends in round 1, over seeded worlds of every generator: a drop, a cut,
    # a flip past the sender field, a retype, or a sender rewrite to a
    # sibling's id.  Round 1 covers exactly the sensors outside that sensor's
    # subtree, and is rejected only when none is left (a path's only station
    # child); round 2, without the fault, is whole.  The sibling's own packet
    # must still fold.  QUERY faults are left out: QUERY frames are not
    # authenticated.
    cases = 0
    for seed in range(200):
        rng = random.Random(seed)
        world = World(Scenario(seed=seed, rounds=2, n=rng.randint(1, 40), generator=GENERATORS[seed % 4]))
        tree = world.tree
        victim = rng.choice(tree.sensor_ids)
        kind = fault_grammar.KINDS[seed % len(fault_grammar.KINDS)]
        siblings = tuple(c for c in tree.children[tree.parent[victim]] if c != victim)
        if kind == "rewrite" and not siblings:
            continue
        faulted = []

        def once(src, dst, payload, kind=kind, victim=victim, siblings=siblings, faulted=faulted, rng=rng):
            if src == victim and payload[:1] == bytes([wire.AGG]) and not faulted:
                faulted.append(payload)
                return fault_grammar.fault(rng, kind, payload, flips=fault_grammar.PAST_SENDER, senders=siblings)[0]
            return payload

        on_links(world, once)
        outside = frozenset(tree.sensor_ids) - tree.subtree(victim)
        r1 = world.run_round(1)
        case = (seed, kind, victim)
        assert len(faulted) == 1, case
        assert r1.participants == outside, case
        if outside:
            assert r1.integrity == "passed", case
            assert r1.raw_sum == plaintext_sum(world, 1, outside), case
        else:
            assert r1.integrity == "rejected", case
        r2 = world.run_round(2)
        assert (r2.integrity, r2.participants) == ("passed", frozenset(tree.sensor_ids)), case
        assert r2.raw_sum == plaintext_sum(world, 2), case
        cases += 1
    assert cases > 150


def test_keyless_tamper_of_a_bundle_spares_the_entries_before_it():
    # Station 0 -> 1 -> {2, 3}, 2 -> {4, 5}; leaf 3 forges, and so does 4
    # below 2, so the packets node 1 reports for both its children fail and
    # the walk probes the group (2, 3) through node 1.  A keyless attacker on
    # the shared link 1->0 flips a bit of, or cuts, the second entry of the
    # bundle (node 3's).  Node 2's entry still opens and commits, and the
    # round reaches its verdict.
    edges = ((0, 1), (1, 2), (1, 3), (2, 4), (2, 5))
    scenario = Scenario(seed=5, edges=edges, compromises=(CompromiseSpec(3, "forge_children", (12345,)),
                                                          CompromiseSpec(4, "forge_children", (777,))))
    clean = World(scenario)
    assert clean.run_round(1).report.transcript[1:3] == ((2, True, False), (3, True, False))
    first_end = 1 + 4 + 2 * 32 + 48  # type, node 2's entry with two leaf child packets
    second_end = first_end + 4 + 48  # node 3's entry: a leaf
    tampers = [lambda b, i=i: b[:i] + bytes([b[i] ^ 0x01]) + b[i + 1 :] for i in range(first_end, second_end)]
    tampers += [lambda b, i=i: b[:i] + bytes([b[i] ^ 0x80]) + b[i + 1 :] for i in range(first_end, second_end)]
    tampers += [lambda b, cut=cut: b[:cut] for cut in range(first_end, second_end)]
    group_probe = wire.encode_probe(1, (2, 3))
    for tamper in tampers:
        world = World(scenario)
        asked, bundles = [], []

        def on_shared_link(src, dst, payload, tamper=tamper, asked=asked, bundles=bundles):
            if (src, dst, payload) == (0, 1, group_probe):
                asked.append(payload)
            elif len(bundles) < len(asked) and (src, dst) == (1, 0):  # the next frame up is the bundle
                bundles.append(payload)
                return tamper(payload)
            return payload

        on_links(world, on_shared_link)
        result = world.run_round(1)
        assert len(bundles) == 1 and len(bundles[0]) == second_end
        assert result.integrity == "attested"
        assert result.report.transcript[1:3] == ((2, True, False), (3, False, False))
        assert 2 not in result.report.outliers


# === drop_child =============================================================


def test_drop_child_excludes_subtree_and_round_still_passes():
    world, result = run_one(Scenario(seed=84, n=5, generator="path",
                                     compromises=(CompromiseSpec(2, "drop_child", (3,)),)))
    assert result.integrity == "passed"
    assert result.participants == frozenset({1, 2})


def test_drop_child_requires_actual_child():
    with pytest.raises(ScenarioInvalid):
        World(Scenario(seed=85, n=5, generator="star",
                       compromises=(CompromiseSpec(2, "drop_child", (3,)),)))


MALFORMED_COMPROMISES = (
    CompromiseSpec(2, "forge_children", ()),
    CompromiseSpec(2, "forge_own", ()),
    CompromiseSpec(2, "replay", ()),
    CompromiseSpec(2, "drop_child", ()),
    CompromiseSpec(2, "forge_children", ("x",)),
    CompromiseSpec(2, "forge_children", (True, 5)),  # `forge_children dual 5`
    CompromiseSpec(2, "forge_children", (True,)),  # `forge_children dual`
    CompromiseSpec(2, "forge_children", (5, 7)),  # only `dual` may follow the delta
    CompromiseSpec(2, "forge_children", (5, True, True)),
    CompromiseSpec(2, "forge_own", (3, 4, 5)),
    CompromiseSpec(2, "forge_own", (1.5,)),
    CompromiseSpec(2, "forge_own", (100001,)),  # beyond the default domain's 100000 raw units
    CompromiseSpec(2, "noncommit", (1, 2)),
    CompromiseSpec(2, "noncommit", (False,)),
    CompromiseSpec(2, "replay", ("1",)),
    CompromiseSpec(2, "replay", (1, 1)),
    CompromiseSpec(2, "drop_child", (True,)),  # a bool is not the child id 1
)


def test_plan_validation():
    with pytest.raises(ScenarioInvalid):
        World(Scenario(seed=86, n=3, generator="star",
                       compromises=(CompromiseSpec(9, "forge_children", (1,)),)))
    with pytest.raises(ScenarioInvalid):
        World(Scenario(seed=87, n=3, generator="star",
                       compromises=(CompromiseSpec(1, "mystery", ()),)))
    with pytest.raises(ScenarioInvalid):
        World(Scenario(seed=88, n=3, generator="star", trigger_round=1,
                       compromises=(CompromiseSpec(1, "replay", (1,)),)))
    with pytest.raises(ScenarioInvalid):
        World(Scenario(seed=88, n=3, generator="star",
                       compromises=(CompromiseSpec(1, "forge_own", (1,)),
                                    CompromiseSpec(1, "forge_children", (1,)))))
    for spec in MALFORMED_COMPROMISES:
        with pytest.raises(ScenarioInvalid, match=f"node 2: {spec.kind} takes"):
            World(Scenario(seed=89, n=4, generator="path", trigger_round=2, compromises=(spec,)))


# === Influence bound ========================================================


def test_undetected_deviation_attributable_to_forge_own_only():
    """Sweep mixed attack plans; any deviation that survives undetected must
    equal the sum of in-range own-reading shifts of the compromised set."""
    plans = [
        (CompromiseSpec(2, "forge_own", (100,)),),
        (CompromiseSpec(2, "forge_own", (100,)), CompromiseSpec(5, "forge_own", (250,))),
        (CompromiseSpec(2, "forge_own", (100,)), CompromiseSpec(5, "forge_children", (10**6,))),
        (CompromiseSpec(3, "forge_children", (77,)),),
    ]
    for plan in plans:
        base = Scenario(seed=89, n=8, generator="recursive")
        honest_world, honest = run_one(base)
        world, result = run_one(dataclasses.replace(base, compromises=plan))
        own_shift = sum(s.args[0] for s in plan if s.kind == "forge_own")
        if result.integrity == "passed":
            assert (result.raw_sum - honest.raw_sum) % M == own_shift % M
        else:
            # detected: the attested value covers survivors only, and it must
            # match their plaintext readings plus surviving own-shifts
            kept = result.participants
            kept_shift = sum(s.args[0] for s in plan if s.kind == "forge_own" and s.node_id in kept)
            assert result.raw_sum == (plaintext_sum(world, 1, kept) + kept_shift) % M


# === Eavesdropping ==========================================================


def open_captured(edge_key: bytes, round_no: int, agg_body: bytes) -> tuple[int, int]:
    """What a passive adversary holding an edge key learns from one packet
    of a round: the diffused pair, nothing else."""
    sender, absent, sealed, tag = wire.decode_agg_body(agg_body)
    pair = crypto.open_sealed(crypto.channel_key(edge_key), round_no, sealed, header_ad(sender, absent, tag))
    return int.from_bytes(pair[:8], "big"), int.from_bytes(pair[8:16], "big")


def test_edge_key_holder_sees_only_diffused_values():
    world = World(Scenario(seed=90, n=2, generator="path"))
    world.nodes[1].open_round(1)
    world.nodes[2].open_round(1)
    _, payload = world.nodes[2].emit()
    body = wire.parse_frame(payload)[1]
    d, dp = open_captured(world.prov.edge_keys[2], 1, body)
    m = sensed_raw(world, 2, 1)
    assert d == crypto.diffuse(seed_of(world, 2, 1), m)
    assert d != m and dp != m  # concealed: seed offsets mask the reading
    assert crypto.undiffuse(d, seed_of(world, 2, 1)) == m  # only the key holder reverts


def _packet_bodies(payload: bytes) -> list[bytes]:
    """The aggregation packets a frame carries: an AGG's one, each entry's of
    a PROBE_RESP."""
    msg_type, body = wire.parse_frame(payload)
    if msg_type == wire.AGG:
        return [body]
    if msg_type == wire.PROBE_RESP:
        return [body[at:stop] for _, at, stop, _ in wire.probe_entry_spans(body)]
    return []


def test_keyless_link_eavesdropper_sees_only_the_edge_key_holders_view(monkeypatch):
    # A forced audit with one forge_children forger (4) and a noncommit
    # sibling (2), so that the walk probes below their parent: every channel
    # payload type crosses a link.  A probe entry shows no more of a child
    # than its AGG frame showed on the link below.
    world = World(Scenario(seed=1, n=8, generator="recursive", audit_prob=1.0, compromises=(
        CompromiseSpec(4, "forge_children", (99999,)), CompromiseSpec(2, "noncommit", ()),
    )))
    frames: list[bytes] = []
    on_links(world, lambda src, dst, payload: frames.append(payload) or payload)
    opened: dict[bytes, wire.AggPacket] = {}
    honest_open, honest_keep = wire.open_packet, wire.keep_child_packet

    def recording_open(channel, round_no, body, bound=b""):
        opened[body] = pkt = honest_open(channel, round_no, body, bound)
        return pkt

    def recording_keep(fold, channels, round_no, data, at, receiver):
        honest_keep(fold, channels, round_no, data, at, receiver)
        opened[data[at:]] = fold.child_packets[wire.packet_sender(data, at)]

    monkeypatch.setattr(wire, "open_packet", recording_open)
    monkeypatch.setattr(wire, "keep_child_packet", recording_keep)
    world.run_round(1)
    seen = {t: 0 for t in (wire.AGG, wire.PROBE_RESP)}
    for payload in frames:
        for body in _packet_bodies(payload):
            seen[payload[0]] += 1
            pkt = opened[body]  # every packet sent is opened by its receiver
            sealed = wire.decode_agg_body(body)[2]
            assert sealed[:16] == pkt.dsum.to_bytes(8, "big") + pkt.dsum_prime.to_bytes(8, "big")
    assert all(seen.values())
    sent_up = {opened[p[1:]] for p in frames if p[0] == wire.AGG}
    reported = [child for p in frames if p[0] == wire.PROBE_RESP
                for _, _, _, children in wire.probe_entry_spans(p[1:]) for child in children]
    assert reported and set(reported) <= sent_up
    # What the link shows of a leaf's reading is the edge-key holder's view:
    # the diffused pair, which only the seeds revert.
    leaf = 6
    assert not world.tree.children[leaf] and world.tree.parent[leaf] == 4
    [body] = [p[1:] for p in frames if p[0] == wire.AGG and wire.packet_sender(p[1:]) == leaf]
    pair = wire.decode_agg_body(body)[2][:16]
    d, dp = int.from_bytes(pair[:8], "big"), int.from_bytes(pair[8:], "big")
    m = sensed_raw(world, leaf, 1)
    assert d != m and dp != m
    assert crypto.undiffuse(d, seed_of(world, leaf, 1)) == m
    assert crypto.undiffuse(dp, seed_of(world, leaf, 1, prime=True)) == m


def test_same_reading_different_rounds_looks_unrelated():
    # Seeds evolve per round, so equal readings diffuse to different values.
    key = bytes(range(crypto.CHAIN_KEY_LEN))
    origin = 12345
    m = 777
    for half in (lambda seeds: seeds >> 64, lambda seeds: seeds & crypto.MASK):
        d1 = crypto.diffuse(half(seed_at(key, origin, 1)), m)
        d2 = crypto.diffuse(half(seed_at(key, origin, 2)), m)
        assert d1 != d2
