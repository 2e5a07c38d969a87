"""Sensor node state machine: query handling, aggregation, emission,
attestation responses, the station's re-aggregation from them, and the wire
packet layout."""

import hashlib
import itertools
import logging
import struct
from unittest import mock

import pytest
from conftest import plaintext_sum, seed_of, sensed_raw
from reference_codecs import combine_macs, decode_probe_entry, encode_child_block, encode_child_packet, header_ad
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto, wire
from concealed_agg.basestation import _subtract
from concealed_agg.errors import AlreadyEmitted, AuthFailure, NoSuchRound, StaleRound
from concealed_agg.simulator import Scenario, World

M = crypto.MODULUS

# Station 0 over aggregator 1 with leaf children 2, 3, 4 (the four-node
# cluster used throughout: one interior node, three leaves).
CLUSTER = Scenario(seed=21, n=4, edges=((0, 1), (1, 2), (1, 3), (1, 4)))


def cluster_world() -> World:
    return World(CLUSTER)


def _channel(key: bytes) -> crypto.Keyed:
    """The channel under the given 16-byte key: its keyed state."""
    return crypto.channel_key(key)


def drive_cluster(world: World, order=(2, 3, 4), round_no: int = 1):
    """Run one round by hand: query everyone, feed child packets to node 1
    in the given order, return node 1's emitted packet."""
    agg = world.nodes[1]
    agg.open_round(round_no)
    bodies = {}
    for cid in (2, 3, 4):
        world.nodes[cid].open_round(round_no)
        _, payload = world.nodes[cid].emit()
        bodies[cid] = wire.parse_frame(payload)[1]
    for cid in order:
        agg.aggregate_child(bodies[cid])
    assert set(agg.state.child_packets) == {2, 3, 4}
    dst, payload = agg.emit()
    assert dst == 0
    return wire.open_packet(_channel(world.prov.edge_keys[1]), round_no, wire.parse_frame(payload)[1])


# === Query handling =========================================================


def test_leaf_query_fans_out_to_no_children_and_is_ready():
    world = cluster_world()
    leaf = world.nodes[2]
    assert leaf.handle_message(wire.encode_query(1, "sum")) == []
    assert leaf.state.child_packets == {} and leaf.state.emitted is None


def test_interior_query_forwards_to_each_child():
    world = cluster_world()
    query = wire.encode_query(1, "mean")
    sends = world.nodes[1].handle_message(query)
    assert [dst for dst, _ in sends] == [2, 3, 4]
    assert all(payload == query for _, payload in sends)  # the query verbatim


def test_repeated_round_raises_stale():
    world = cluster_world()
    world.nodes[2].open_round(1)
    with pytest.raises(StaleRound):
        world.nodes[2].handle_message(wire.encode_query(1, "sum"))
    with pytest.raises(StaleRound):
        world.nodes[2].open_round(0)


# === Sensing and diffusion ==================================================


def test_sense_and_diffuse_definition():
    world = cluster_world()
    node = world.nodes[3]
    node.open_round(1)
    d, dp = node.state.dsum, node.state.dsum_prime  # a leaf's running pair is its own
    m = sensed_raw(world, 3, 1)
    assert d == (seed_of(world, 3, 1) + m) % crypto.MODULUS
    assert dp == (seed_of(world, 3, 1, prime=True) + m) % crypto.MODULUS
    # both components revert to the same reading (pair-equality base case)
    assert crypto.undiffuse(d, seed_of(world, 3, 1)) == crypto.undiffuse(dp, seed_of(world, 3, 1, prime=True)) == m


def test_leaf_emitted_tag_matches_independent_mac():
    # Oracle holding the node key recomputes a leaf's emitted tag over the
    # serialized pair it diffused.
    world = cluster_world()
    node = world.nodes[3]
    node.open_round(1)
    d, dp = node.state.dsum, node.state.dsum_prime  # a leaf's running pair is its own
    _, payload = node.emit()
    pkt = wire.open_packet(_channel(world.prov.edge_keys[3]), 1, wire.parse_frame(payload)[1])
    key = world.prov.node_keys[3][0]
    assert (pkt.dsum, pkt.dsum_prime) == (d, dp)
    pair = d.to_bytes(8, "big") + dp.to_bytes(8, "big")
    assert pkt.tag == hashlib.blake2b(pair, digest_size=8, key=key, person=b"diff.mac").digest()


# === Aggregation ============================================================


def test_cluster_participants_and_tag_composition():
    # Interior node over three leaves: no one is absent, so the whole cluster
    # participates, and the emitted tag is the XOR of all four own MACs (own MAC taken over the
    # final aggregated pair, leaves over their singleton pairs).
    world = cluster_world()
    pkt = drive_cluster(world)
    assert pkt.absent == ()
    own = crypto.mac_pair(crypto.mac_key(world.prov.node_keys[1][0]), pkt.dsum, pkt.dsum_prime)
    leaf_tags = []
    for cid in (2, 3, 4):
        m = sensed_raw(world, cid, 1)
        d = crypto.diffuse(seed_of(world, cid, 1), m)
        dp = crypto.diffuse(seed_of(world, cid, 1, prime=True), m)
        leaf_tags.append(crypto.mac_pair(crypto.mac_key(world.prov.node_keys[cid][0]), d, dp))
    assert pkt.tag == combine_macs(own, leaf_tags)


def test_arrival_order_permutation_invariant():
    # Canonical-order oracle vs every other arrival order: identical results.
    canonical = drive_cluster(cluster_world(), order=(2, 3, 4))
    for order in itertools.permutations((2, 3, 4)):
        pkt = drive_cluster(cluster_world(), order=order)
        assert (pkt.dsum, pkt.dsum_prime, pkt.tag, pkt.absent) == (
            canonical.dsum,
            canonical.dsum_prime,
            canonical.tag,
            canonical.absent,
        )


def intake_log(caplog):
    """Capture the intake's log lines, which give the reason a packet was ignored."""
    caplog.set_level(logging.INFO, logger="concealed_agg")
    return caplog


def child_body(world: World, cid: int) -> bytes:
    """Child cid's emitted AGG body for the round it has open."""
    return wire.parse_frame(world.nodes[cid].emit()[1])[1]


def test_aggregate_unknown_child_rejected(caplog):
    world = cluster_world()
    agg = world.nodes[1]
    agg.open_round(1)
    leaf = world.nodes[2]
    leaf.open_round(1)
    body = child_body(world, 2)
    agg.aggregate_child(body)
    kept = agg.state.child_packets[2]
    intake_log(caplog).clear()
    agg.aggregate_child(body)  # same child twice: already kept, so ignored
    assert agg.state.child_packets == {2: kept}
    assert "duplicate packet from child 2 ignored" in caplog.text


def test_aggregate_replayed_packet_marks_unresponsive(caplog):
    # Child 2's round-1 packet, replayed in round 2 before its round-2 packet:
    # its channel tag, sealed for round 1, fails under round 2, which leaves
    # nothing kept, and the genuine packet that follows still folds.
    world = cluster_world()
    agg, child = world.nodes[1], world.nodes[2]
    agg.open_round(1)
    child.open_round(1)
    old = child_body(world, 2)
    agg.aggregate_child(old)
    agg.emit()
    agg.open_round(2)
    child.open_round(2)
    intake_log(caplog).clear()
    agg.aggregate_child(old)
    assert agg.state.child_packets == {}  # the replay folded nothing
    assert "rejected packet from child 2: channel tag mismatch" in caplog.text
    fresh = child_body(world, 2)
    agg.aggregate_child(fresh)
    assert agg.state.child_packets[2] == child.state.emitted
    assert agg.emit()[0] == 0 and agg.state.emitted.absent == (3, 4)


@settings(max_examples=40, deadline=None)
@given(sealed_for=st.integers(6, 40), offset=st.integers(-5, 5))
def test_packet_opens_only_in_the_round_it_was_sealed_for(sealed_for, offset):
    # No frame carries the round: a packet sealed for one round opens at a
    # sensor's intake, and at the station's, only in that round.
    opened_in = sealed_for + offset
    world = cluster_world()
    world.nodes[2].open_round(sealed_for)
    world.nodes[1].open_round(opened_in)
    world.nodes[1].aggregate_child(child_body(world, 2))
    assert (2 in world.nodes[1].state.child_packets) == (offset == 0)
    world = cluster_world()
    world.nodes[1].open_round(sealed_for)
    world.bs.disseminate(opened_in, "sum")
    world.bs.receive_packet(child_body(world, 1))
    assert (1 in world.bs._fold.child_packets) == (offset == 0)


def test_aggregate_malformed_packet_marks_unresponsive(caplog):
    # A body that does not parse fails authentication like a tampered one;
    # one too short to name its sender names no child.  Neither leaves
    # anything behind, so the child's genuine packet still folds.
    world = cluster_world()
    agg = world.nodes[1]
    agg.open_round(1)
    world.nodes[2].open_round(1)
    genuine = child_body(world, 2)
    body = bytearray(genuine)
    body[4:8] = struct.pack(">I", 1000)  # overstated absent count
    intake_log(caplog).clear()
    agg.aggregate_child(bytes(body))
    assert agg.state.child_packets == {}
    assert "rejected packet from child 2: malformed aggregation packet" in caplog.text
    agg.aggregate_child(bytes(body[:3]))
    assert agg.state.child_packets == {}
    assert "packet from non-child None ignored" in caplog.text
    agg.aggregate_child(genuine)
    assert set(agg.state.child_packets) == {2}


# === Emission ===============================================================


def test_leaf_emits_single_diffused_reading():
    world = cluster_world()
    leaf = world.nodes[4]
    leaf.open_round(1)
    _, payload = leaf.emit()
    pkt = wire.open_packet(_channel(world.prov.edge_keys[4]), 1, wire.parse_frame(payload)[1])
    assert pkt.dsum == crypto.diffuse(seed_of(world, 4, 1), sensed_raw(world, 4, 1))
    assert pkt.absent == ()


def test_subtree_sum_matches_plaintext_plus_seed_oracle():
    world = cluster_world()
    pkt = drive_cluster(world)
    expected = plaintext_sum(world, 1, participants=(1, 2, 3, 4))
    seeds = sum(seed_of(world, cid, 1) for cid in (1, 2, 3, 4)) % crypto.MODULUS
    assert crypto.undiffuse(pkt.dsum, seeds) == expected


def test_emit_twice_raises():
    world = cluster_world()
    leaf = world.nodes[2]
    leaf.open_round(1)
    leaf.emit()
    with pytest.raises(AlreadyEmitted):
        leaf.emit()


def test_timeout_expires_pending_children():
    # The node emits with what it kept: its silent children are its absent
    # roots.  A node that kept no packet, a leaf or an interior node whose
    # children all fell silent, sends its own MAC over its pair as the tag.
    for nid, reporting in ((1, (2, 3)), (1, ()), (2, ())):
        world = cluster_world()
        node = world.nodes[nid]
        node.open_round(1)
        for cid in reporting:
            world.nodes[cid].open_round(1)
            node.aggregate_child(child_body(world, cid))
        assert set(node.state.child_packets) == set(reporting)  # still waiting on the rest
        assert node.state.round == 1 and node.state.emitted is None
        dst, payload = node.emit()
        assert dst == world.tree.parent[nid]
        assert node.state.emitted is not None and set(node.state.child_packets) == set(reporting)
        pkt = wire.open_packet(_channel(world.prov.edge_keys[nid]), 1, wire.parse_frame(payload)[1])
        assert pkt == node.state.emitted
        assert pkt.absent == tuple(cid for cid in world.tree.children[nid] if cid not in reporting)
        if not reporting:
            mac_key = crypto.mac_key(world.prov.node_keys[nid][0])
            assert pkt.tag == crypto.mac_pair(mac_key, pkt.dsum, pkt.dsum_prime)


def test_packet_after_timeout_emission_is_an_unknown_childs(caplog):
    # Emission closes the round: the timed-out child's late packet is ignored
    # and changes neither the folded packets nor the node's probe answer.
    world = cluster_world()
    agg = world.nodes[1]
    agg.open_round(1)
    late = {}
    for cid in (2, 3, 4):
        world.nodes[cid].open_round(1)
        late[cid] = wire.parse_frame(world.nodes[cid].emit()[1])[1]
    for cid in (2, 3):
        agg.aggregate_child(late[cid])
    agg.emit()

    def probe_answer():
        return _open_answer(world, 1, agg.respond_attestation(1))

    folded = dict(agg.state.child_packets)
    answer = probe_answer()
    assert answer[0].absent == (4,) and answer[1] == [folded[2], folded[3]]
    intake_log(caplog).clear()
    agg.aggregate_child(late[4])
    assert "node 1: packet outside an open round ignored" in caplog.text
    assert agg.handle_message(wire.frame(wire.AGG, late[4])) == []
    assert agg.state.child_packets == folded
    assert probe_answer() == answer


# === Attestation responses ==================================================


def _open_answer(world, nid, resp):
    """A node's one-entry probe answer for round 1, opened as the station
    opens it: its packet and the child packets it reports."""
    body = wire.parse_frame(resp)[1]
    [(start, at, stop, children)] = wire.probe_entry_spans(body)
    assert stop == len(body)
    return wire.open_packet(_bs_channel(world, nid), 1, body[at:stop], body[start:at]), children


def test_attestation_resends_committed_fields():
    world = cluster_world()
    emitted = drive_cluster(world)
    pkt, children = _open_answer(world, 1, world.nodes[1].respond_attestation(1))
    assert (pkt.dsum, pkt.dsum_prime, pkt.tag, pkt.absent) == (
        emitted.dsum,
        emitted.dsum_prime,
        emitted.tag,
        emitted.absent,
    )
    # Each kept child's packet as the node received it, ascending by id.
    kept = world.nodes[1].state.child_packets
    assert children == [kept[2], kept[3], kept[4]]


def test_honest_answer_child_block_is_its_kept_packets_packed():
    # An honest node's answer joins the bytes it kept: its child block is the
    # field-by-field encoding of its kept packets, parsed, by ascending id,
    # and those are the packets its children emitted.
    world = World(Scenario(seed=34, n=30, generator="recursive"))
    world.run_round(1)
    interior = 0
    for node in world.nodes.values():
        body = wire.parse_frame(node.respond_attestation(1))[1]
        _, at, _ = decode_probe_entry(body)
        kept = node.state.child_packets
        assert body[:at] == encode_child_block([kept[cid] for cid in sorted(kept)])
        assert kept == {cid: world.nodes[cid].state.emitted for cid in node.children}
        interior += bool(node.children)
    assert interior > 1


def test_answer_binds_its_child_packets():
    # The child block is bound into the channel tag: a keyless rewrite of
    # any byte of it makes the packet fail to open.
    world = cluster_world()
    drive_cluster(world)
    body = wire.parse_frame(world.nodes[1].respond_attestation(1))[1]
    [(start, at, stop, _)] = wire.probe_entry_spans(body)
    for i in range(start, at):
        block = body[start:i] + bytes([body[i] ^ 1]) + body[i + 1 : at]
        with pytest.raises(AuthFailure):
            wire.open_packet(_bs_channel(world, 1), 1, body[at:stop], block)


# Node 1's answer in the four-node cluster, in the layout the simulator used
# before probes went to sibling groups: a one-entry response keeps it.  The
# tags in it follow the dual seed step; its sealed payload is the pair in the
# clear followed by the channel tag, sealed for round 1 over the header, the
# tag and the child block: the count and each child's packet less its
# channel tag.  Neither the frame nor the packet carries the round.
CLUSTER_PROBE_RESP = (
    "040000000300000002000000006c808ea6137dd54933fedff5e597eff734f9990a1d8b9ad4"
    "0000000300000000d50f690d41964bb9248a13b4073ab28abc15d714ab58be150000000400"
    "000000e9998e3e08b2dabb236fdea52ee0a06d9962172ad33d67ad00000001000000008447"
    "cf335e2a7c7178a57b5c0fe153ad75676af6ac46101e2f7d5ec42a8fd9208ba9caa28f7c6b"
    "6b"
)


def test_one_entry_probe_response_keeps_its_layout():
    world = cluster_world()
    emitted = drive_cluster(world)
    resp = world.nodes[1].respond_attestation(1)
    assert resp.hex() == CLUSTER_PROBE_RESP
    entries = wire.decode_probe_resp(wire.parse_frame(resp)[1])
    assert wire.encode_probe_resp(entries) == resp
    _, at, stop = decode_probe_entry(entries[0])
    sealed = wire.decode_agg_body(entries[0][at:stop])[2]
    assert sealed[:16] == emitted.dsum.to_bytes(8, "big") + emitted.dsum_prime.to_bytes(8, "big")


def test_attestation_unknown_round_raises():
    world = cluster_world()
    drive_cluster(world)
    with pytest.raises(NoSuchRound):
        world.nodes[1].respond_attestation(7)
    with pytest.raises(NoSuchRound):
        world.nodes[2].respond_attestation(2)


# === Re-aggregation at the station =========================================


def _bs_channel(world, nid):
    return _channel(crypto.derive_bs_channel_key(world.prov.node_keys[nid][0], nid))


def _station_reaggregate(world, nid, children):
    """Node nid's re-aggregate without the given children, as the station
    forms it: its answer less the packets it reports for them."""
    pkt, reported = _open_answer(world, nid, world.nodes[nid].respond_attestation(1))
    return _subtract(pkt, [child for child in reported if child.sender in children])


def test_reaggregate_excluding_direct_child_is_subtraction():
    world = cluster_world()
    emitted = drive_cluster(world)
    child_pkt = world.nodes[1].state.child_packets[3]
    fresh = _station_reaggregate(world, 1, {3})
    assert fresh.dsum == (emitted.dsum - child_pkt.dsum) & crypto.MASK
    assert fresh.dsum_prime == (emitted.dsum_prime - child_pkt.dsum_prime) & crypto.MASK
    assert fresh.absent == (3,)


def test_reaggregate_excluding_nothing_reproduces_emission():
    world = cluster_world()
    emitted = drive_cluster(world)
    fresh = _station_reaggregate(world, 1, set())
    assert (fresh.dsum, fresh.dsum_prime, fresh.absent) == (
        emitted.dsum,
        emitted.dsum_prime,
        emitted.absent,
    )


def test_reaggregated_pair_reverts_cleanly():
    # Seed-sum oracle over the remaining participants: pair must revert to
    # the plaintext sum of the survivors under both chains.
    world = cluster_world()
    drive_cluster(world)
    fresh = _station_reaggregate(world, 1, {2})
    keep = (1, 3, 4)
    s = sum(seed_of(world, v, 1) for v in keep) % crypto.MODULUS
    sp = sum(seed_of(world, v, 1, prime=True) for v in keep) % crypto.MODULUS
    expected = plaintext_sum(world, 1, participants=keep)
    assert crypto.undiffuse(fresh.dsum, s) == expected
    assert crypto.undiffuse(fresh.dsum_prime, sp) == expected


def test_reagg_request_for_unknown_round_answers_not_ok():
    world = cluster_world()
    drive_cluster(world)
    resp = world.nodes[1].handle_reagg_request(wire.parse_frame(wire.encode_reagg(9, ()))[1])
    _, ok, _ = wire.decode_reagg_resp(wire.parse_frame(resp)[1])
    assert not ok


def test_malformed_reagg_request_gets_no_reply():
    world = cluster_world()
    drive_cluster(world)
    assert world.nodes[1].handle_reagg_request(b"\x00\x01") is None
    cut = wire.parse_frame(wire.encode_reagg(1, (2,)))[1][:-1]
    assert world.nodes[1].handle_reagg_request(cut) is None


def test_unknown_message_type_is_ignored():
    world = cluster_world()
    assert world.nodes[1].handle_message(b"\x7f\x00") == []
    assert world.nodes[1].handle_message(b"") == []
    assert world.nodes[1].state is None


# === Subtree tag invariant ===================================================


def test_emitted_tag_equals_subtree_own_mac_xor():
    # Deeper tree through the data phase; oracle XORs own MACs over each
    # subtree, own MAC recomputed from provisioned keys and retained emissions.
    scenario = Scenario(seed=33, n=12, generator="recursive")
    world = World(scenario)
    world.run_round(1)
    for nid in world.tree.sensor_ids:
        emitted = world.nodes[nid].state.emitted
        expected = crypto.ZERO_TAG
        for member in sorted(world.tree.subtree(nid)):
            mp = world.nodes[member].state.emitted
            own = crypto.mac_pair(crypto.mac_key(world.prov.node_keys[member][0]), mp.dsum, mp.dsum_prime)
            expected = crypto.xor_tags(expected, own)
        assert emitted.tag == expected


def test_sibling_participant_sets_disjoint():
    # Participants are derived from subtrees, so siblings cannot share one:
    # the children's Euler spans tile the span below their parent.
    world = World(Scenario(seed=34, n=30, generator="recursive"))
    tree = world.tree
    for nid in (0,) + tree.sensor_ids:
        start, end = tree.span(nid)
        cursor = start + 1
        for cid in tree.children[nid]:
            child_start, child_end = tree.span(cid)
            assert child_start == cursor
            assert tree.subtree(cid) == set(tree.order[child_start:child_end])
            cursor = child_end
        assert cursor == end


# === Wire layout =============================================================


def test_agg_body_layout_golden():
    sealed = bytes(range(32))
    tag = b"\xaa" * 8
    body = wire.encode_agg_body(7, (2, 5, 9), sealed, tag)
    assert body[:4] == struct.pack(">I", 7)
    assert body[4:8] == struct.pack(">I", 3)
    assert body[8:20] == struct.pack(">III", 2, 5, 9)
    assert body[20:52] == sealed
    assert body[52:60] == tag
    assert len(body) == 60
    assert wire.decode_agg_body(body) == (7, (2, 5, 9), sealed, tag)


def test_agg_packet_roundtrip_binds_header():
    # Sealed and opened under one key and round: the plaintext view survives,
    # and rewriting any clear header field (sender, absent list, tag) or the
    # bound bytes, or opening it in another round, fails authentication.
    key = bytes(range(16))
    body = wire.seal_packet(_channel(key), 1, 7, (9, 12), 5, 6, b"\x11" * 8, b"bound")
    pkt = wire.AggPacket(7, (9, 12), 5, 6, b"\x11" * 8)
    assert wire.open_packet(_channel(key), 1, body, b"bound") == pkt
    assert pkt.absent == (9, 12)
    sender, absent, sealed, tag = wire.decode_agg_body(body)
    tampered = (
        wire.encode_agg_body(8, absent, sealed, tag),
        wire.encode_agg_body(sender, (9,), sealed, tag),
        wire.encode_agg_body(sender, absent, sealed, b"\x12" + tag[1:]),
    )
    for bad in tampered:
        with pytest.raises(AuthFailure):
            wire.open_packet(_channel(key), 1, bad, b"bound")
    with pytest.raises(AuthFailure):
        wire.open_packet(_channel(key), 1, body, b"other")
    with pytest.raises(AuthFailure):
        wire.open_packet(_channel(key), 2, body, b"bound")


def _variants(body):
    """The body, the body with trailing bytes, every cut of it and every
    single-bit flip of it."""
    variants = [body, body + b"trailing", *(body[:cut] for cut in range(len(body)))]
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << bit % 8
        variants.append(bytes(flipped))
    return variants


@settings(max_examples=60, deadline=None)
@given(
    sender=st.integers(0, 2**32 - 1),
    absent=st.sets(st.integers(0, 2**32 - 1), max_size=40).map(sorted).map(tuple),
    tag=st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN),
    bound=st.binary(max_size=40),
    round_no=st.integers(1, 2**64 - 1),
    pair=st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
)
def test_open_packet_authenticates_the_header_it_parsed(sender, absent, tag, bound, round_no, pair):
    # The receiver's associated data is sliced from the body it parsed and
    # equals what the sender builds from the fields; every single-bit flip
    # and every truncation of the body fails to open.
    key = crypto.channel_key(bytes(range(crypto.KEY_LEN)))
    blob = pair[0].to_bytes(8, "big") + pair[1].to_bytes(8, "big")
    sealed = crypto.seal(key, round_no, blob, header_ad(sender, absent, tag) + bound)
    body = wire.encode_agg_body(sender, absent, sealed, tag)
    with mock.patch.object(crypto, "_channel_tag", wraps=crypto._channel_tag) as opened:
        pkt = wire.open_packet(key, round_no, body + b"trailing", bound)
    assert pkt == (sender, absent, *pair, tag)
    assert [call.args[2] for call in opened.call_args_list] == [header_ad(sender, absent, tag) + bound]
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << bit % 8
        with pytest.raises(AuthFailure):
            wire.open_packet(key, round_no, bytes(flipped), bound)
    for cut in range(len(body)):
        with pytest.raises(AuthFailure):
            wire.open_packet(key, round_no, body[:cut], bound)


def _reference_open(key, round_no, body, bound):
    """Reference for open_packet: parse field by field, rebuild the
    associated data with header_ad, and check the tag with open_sealed."""
    if len(body) < 8:
        raise AuthFailure("truncated")
    sender, count = struct.unpack_from(">II", body)
    tag_at = 8 + 4 * count + wire.SEALED_PAIR_LEN
    if len(body) < tag_at + crypto.TAG_LEN:
        raise AuthFailure("truncated")
    absent = struct.unpack_from(f">{count}I", body, 8)
    sealed, tag = body[8 + 4 * count : tag_at], body[tag_at : tag_at + crypto.TAG_LEN]
    pair = crypto.open_sealed(key, round_no, sealed, header_ad(sender, absent, tag) + bound)
    return wire.AggPacket(sender, absent, *struct.unpack(">QQ", pair), tag)


def _outcome(open_, *args):
    try:
        return open_(*args)
    except AuthFailure as exc:
        return type(exc)


def _variants(body):
    """The body, the body with trailing bytes, every cut of it and every
    single-bit flip of it."""
    variants = [body, body + b"trailing", *(body[:cut] for cut in range(len(body)))]
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << bit % 8
        variants.append(bytes(flipped))
    return variants


@settings(max_examples=60, deadline=None)
@given(
    sender=st.integers(0, 2**32 - 1),
    absent=st.sets(st.integers(0, 2**32 - 1), max_size=6).map(sorted).map(tuple),
    pair=st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
    tag=st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN),
    bound=st.binary(max_size=40),
)
def test_seal_and_open_packet_match_the_reference_codec(sender, absent, pair, tag, bound):
    # seal_packet packs the header once: the associated data it seals is
    # header_ad(...) + bound and the body it returns is encode_agg_body of the
    # same parts.  open_packet, which slices the associated data from the
    # body, gives what the field-by-field reference gives on the body, on
    # every truncation and every single-bit flip of it, and with bytes past
    # its end: the same packet, or the same refusal.
    key = crypto.channel_key(bytes(range(crypto.KEY_LEN)))
    with mock.patch.object(crypto, "_channel_tag", wraps=crypto._channel_tag) as sealed:
        body = wire.seal_packet(key, 2, sender, absent, *pair, tag, bound)
    [(_, round_no, ad, plaintext)] = [call.args for call in sealed.call_args_list]
    assert round_no == 2
    assert plaintext == struct.pack(">QQ", *pair)
    assert ad == header_ad(sender, absent, tag) + bound
    assert body == wire.encode_agg_body(sender, absent, crypto.seal(key, 2, plaintext, ad), tag)
    assert (pkt := wire.packet_view(body)) == (sender, absent, *pair, tag)
    for variant in _variants(body):
        want = _outcome(_reference_open, key, 2, variant, bound)
        assert _outcome(wire.open_packet, key, 2, variant, bound) == want
    assert _outcome(wire.open_packet, key, 2, body, bound) == pkt
    # The intake, which binds no extra bytes, keeps a packet at either offset
    # (a bare body at 0, an AGG frame at 1) exactly when the reference opens
    # it, with the same fields.
    body = wire.seal_packet(key, 2, sender, absent, *pair, tag)
    for variant in _variants(body):
        want = _outcome(_reference_open, key, 2, variant, b"")
        for at in (0, 1):
            fold = wire.Fold()
            wire.keep_child_packet(fold, {sender: key}, 2, bytes([wire.AGG]) * at + variant, at, 0)
            assert fold.child_packets == ({sender: want} if isinstance(want, wire.AggPacket) else {})
    fold = wire.Fold()
    wire.keep_child_packet(fold, {sender: key}, 2, body, 0, 0)
    assert fold.child_packets == {sender: pkt}


_IDS = st.integers(1, 2**32 - 1)
_PACKET_FIELDS = st.tuples(
    st.sets(_IDS, max_size=6).map(sorted).map(tuple),  # absent roots
    st.integers(0, M - 1),
    st.integers(0, M - 1),
    st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN),
)


@settings(max_examples=100, deadline=None)
@given(children=st.sets(_IDS, max_size=12).map(sorted).map(tuple), data=st.data())
def test_intake_fold_matches_a_plain_reference_fold(children, data):
    # Packets reach the intake in random order: none, one or two from each
    # child, some sealed for another round or with a bit flipped, so that
    # they do not open, and some from a non-child.  Only the first packet of
    # each child that opens may fold; duplicates, non-children's packets and
    # packets that do not open fold nothing.  The closed fold's integer tag
    # is combine_macs over the kept packets' tags, its pair and absent roots
    # are a plain reference fold's from a given pair, and each kept packet is
    # kept as the bytes a probe entry carries.
    channels = {cid: _channel(cid.to_bytes(crypto.KEY_LEN, "big")) for cid in children}
    arrivals = []  # (body, the packet it carries if it opens on its sender's channel)
    for cid in children:
        for _ in range(data.draw(st.integers(0, 2))):
            pkt = wire.AggPacket(cid, *data.draw(_PACKET_FIELDS))
            fault = data.draw(st.sampled_from((None, "round", "flip")))
            body = wire.seal_packet(channels[cid], 3 if fault == "round" else 2, *pkt)
            if fault == "flip":
                bit = data.draw(st.integers(0, 8 * len(body) - 1))
                body = body[: bit // 8] + bytes([body[bit // 8] ^ 1 << bit % 8]) + body[bit // 8 + 1 :]
            arrivals.append((body, None if fault else pkt))
    for _ in range(data.draw(st.integers(0, 2))):
        arrivals.append((wire.seal_packet(_channel(bytes(16)), 2, 0, *data.draw(_PACKET_FIELDS)), None))
    own = data.draw(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)))
    fold = wire.Fold()
    fold.dsum, fold.dsum_prime = own
    kept: dict[int, wire.AggPacket] = {}
    for body, pkt in data.draw(st.permutations(arrivals)):
        wire.keep_child_packet(fold, channels, 2, body, 0, 0)
        if pkt is not None:
            kept.setdefault(pkt.sender, pkt)
    assert fold.kept == {cid: encode_child_packet(pkt) for cid, pkt in kept.items()}
    dsum, dsum_prime, absent, tag = fold.close(children)
    folded = [kept[cid] for cid in children if cid in kept]
    assert tag.to_bytes(crypto.TAG_LEN, "big") == combine_macs(
        crypto.ZERO_TAG, [pkt.tag for pkt in folded])
    assert (dsum, dsum_prime) == (
        (own[0] + sum(p.dsum for p in folded)) % M, (own[1] + sum(p.dsum_prime for p in folded)) % M)
    missing = [cid for cid in children if cid not in kept]
    assert absent == tuple(sorted(missing + [a for pkt in folded for a in pkt.absent]))


def test_honest_agg_frame_is_49_bytes_at_any_depth():
    world = World(Scenario(seed=35, n=64, generator="path"))
    sizes = {}
    for nid in (1, 64):  # the station's child and the leaf 64 hops down
        node = world.nodes[nid]

        def recording(node=node, honest=node.emit):
            dst, payload = honest()
            sizes[node.node_id] = len(payload)
            return dst, payload

        node.emit = recording
    world.run_round(1)
    assert sizes == {1: 49, 64: 49}
    assert world.metrics.rounds[0].bytes == 64 * (10 + 49)


def test_reagg_request_carries_child_ids():
    # A request names children of its addressee.  No node re-aggregates any
    # more, so the addressee refuses it, for the round it names.
    world = cluster_world()
    drive_cluster(world)
    payload = wire.encode_reagg(1, (2, 4, 70000))
    assert len(payload) == 1 + 12 + 4 * 3
    round_no, decoded = wire.decode_reagg(wire.parse_frame(payload)[1])
    assert (round_no, decoded) == (1, (2, 4, 70000))
    reply = world.nodes[1].handle_reagg_request(wire.parse_frame(payload)[1])
    assert reply == wire.encode_reagg_resp(1, False)


def test_frame_types_distinct_and_parseable():
    for msg_type in (wire.QUERY, wire.AGG, wire.PROBE, wire.PROBE_RESP, wire.REAGG, wire.REAGG_RESP):
        assert wire.parse_frame(wire.frame(msg_type, b"abc")) == (msg_type, b"abc")


def test_query_probe_reagg_roundtrip():
    assert wire.decode_query(wire.parse_frame(wire.encode_query(42, "mean"))[1]) == (42, "mean")
    assert wire.encode_probe(9).hex() == "030000000000000009"  # one node's own probe
    assert wire.decode_probe(wire.parse_frame(wire.encode_probe(9))[1]) == (9, ())
    probe = wire.encode_probe(9, (2, 5, 70000))
    assert len(probe) == 1 + 8 + 3 * 4
    assert wire.decode_probe(wire.parse_frame(probe)[1]) == (9, (2, 5, 70000))
    for unordered in ((5, 2), (2, 2)):
        with pytest.raises(ValueError, match="ascending"):
            wire.decode_probe(wire.parse_frame(wire.encode_probe(9, unordered))[1])
    assert wire.decode_reagg(wire.parse_frame(wire.encode_reagg(3, (4, 8)))[1]) == (3, (4, 8))
    r, ok, rest = wire.decode_reagg_resp(wire.parse_frame(wire.encode_reagg_resp(3, False))[1])
    assert (r, ok, rest) == (3, False, b"")


# Two child packets as a probe entry reports them, and a node keeps them: a
# leaf, and a node with an absent root below it.
KEPT = {
    9: wire.encode_child_packet(9, wire.AggPacket(9, (), 1, 2, b"\x22" * 8)),
    12: wire.encode_child_packet(12, wire.AggPacket(12, (13,), 3, 4, b"\x33" * 8)),
}


def test_every_cut_frame_raises_value_error():
    # Every frame type that crosses a link, cut at every shorter length or
    # with its count field overstated, fails to decode with ValueError and
    # nothing else: callers catch ValueError, never struct.error.
    agg_body = wire.seal_packet(_channel(bytes(16)), 3, 7, (9, 12), 5, 6, b"\x11" * 8)
    resp = wire.seal_probe_resp(_channel(bytes(16)), 3, 7, (9, 12), 5, 6, b"\x11" * 8, KEPT)
    cases = (  # (payload, decoder of its body, offset of its count field)
        (wire.encode_query(3, "mean"), wire.decode_query, None),
        (wire.encode_query(3, "mean"), lambda body: wire.decode_query(wire.frame(wire.QUERY, body), 1), None),
        (wire.frame(wire.AGG, agg_body), wire.decode_agg_body, 4),
        (wire.encode_probe(3), wire.decode_probe, None),
        (resp, wire.decode_probe_resp, 0),  # the entry walker: cut anywhere, in its child packets too
        (resp, decode_probe_entry, 0),  # the reference codec
        (wire.encode_reagg(3, (4, 8)), wire.decode_reagg, 8),
        (
            wire.encode_reagg_resp(3, True, agg_body),
            lambda body: wire.decode_agg_body(wire.decode_reagg_resp(body)[2]),
            None,
        ),
        (wire.encode_reagg_resp(3, False), wire.decode_reagg_resp, None),
    )
    for payload, decode, count_at in cases:
        decode(wire.parse_frame(payload)[1])
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                decode(wire.parse_frame(payload[:cut])[1])
        if count_at is not None:
            body = bytearray(wire.parse_frame(payload)[1])
            body[count_at : count_at + 4] = b"\xff" * 4
            with pytest.raises(ValueError):
                decode(bytes(body))
    with pytest.raises(ValueError, match="function code"):
        wire.decode_query(struct.pack(">QB", 3, 99))
    # A probe's target list has no count: cut after a whole id it names the
    # targets before the cut (after the round alone, none), and cut anywhere
    # else it raises ValueError.
    targets = (4, 8, 9)
    probe = wire.encode_probe(3, targets)
    for cut in range(len(probe)):
        body = wire.parse_frame(probe[:cut])[1]
        if len(body) >= 8 and len(body) % 4 == 0:
            assert wire.decode_probe(body) == (3, targets[: (len(body) - 8) // 4])
        else:
            with pytest.raises(ValueError):
                wire.decode_probe(body)
    # So does an entry with a child packet's absent count overstated.
    body = bytearray(wire.parse_frame(resp)[1])
    body[4 + 32 + 4 : 4 + 32 + 8] = b"\xff" * 4  # the second child's
    for decode in (wire.decode_probe_resp, decode_probe_entry):
        with pytest.raises(ValueError):
            decode(bytes(body))


def test_cut_probe_bundle_keeps_the_entries_before_the_cut():
    # Bundle entries carry no length of their own: a two-entry response cut
    # inside its first entry raises ValueError, and one cut anywhere in its
    # second entry decodes as the first entry alone, as if the second had
    # been dropped on the way.
    channel = _channel(bytes(16))
    entries = [  # each answer's entry, past its type
        wire.seal_probe_resp(channel, 3, 7, (9, 12), 5, 6, b"\x11" * 8, KEPT)[1:],
        wire.seal_probe_resp(channel, 3, 8, (), 1, 2, b"\x44" * 8, {})[1:],
    ]
    bundle = wire.encode_probe_resp(entries)
    one = wire.encode_probe_resp(entries[:1])
    assert bundle == one + entries[1]
    assert wire.decode_probe_resp(wire.parse_frame(bundle)[1]) == entries
    for cut in range(len(bundle)):
        body = wire.parse_frame(bundle[:cut])[1]
        if cut < len(one):
            with pytest.raises(ValueError):
                wire.decode_probe_resp(body)
        else:
            assert wire.decode_probe_resp(body) == entries[:1]
