"""Sensor node state machine: query handling, aggregation, emission,
attestation responses, re-aggregation, and the wire packet layout."""

import hashlib
import itertools
import logging
import struct

import pytest
from conftest import plaintext_sum, seed_of, sensed_raw
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto, wire
from concealed_agg.errors import AlreadyEmitted, AuthFailure, NoSuchRound, ReplayDetected, StaleRound
from concealed_agg.simulator import Scenario, World

M = crypto.MODULUS

# Station 0 over aggregator 1 with leaf children 2, 3, 4 (the four-node
# cluster used throughout: one interior node, three leaves).
CLUSTER = Scenario(seed=21, n=4, edges=((0, 1), (1, 2), (1, 3), (1, 4)))


def cluster_world() -> World:
    return World(CLUSTER)


def _channel(key: bytes) -> crypto.SecureChannel:
    """A fresh endpoint of the channel under the given 16-byte key."""
    return crypto.SecureChannel(crypto.channel_key(key))


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
    return wire.open_packet(_channel(world.prov.edge_keys[1]), wire.parse_frame(payload)[1])


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
    d, dp = node.state.own_d, node.state.own_dp
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
    d, dp = node.state.own_d, node.state.own_dp
    _, payload = node.emit()
    pkt = wire.open_packet(_channel(world.prov.edge_keys[3]), wire.parse_frame(payload)[1])
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
    assert pkt.tag == crypto.combine_macs(own, leaf_tags)


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
    # the channel counter refuses the replay, which leaves nothing kept, and
    # the genuine packet that follows still folds.
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
    assert "rejected packet from child 2: counter 1 <= last accepted 1" in caplog.text
    fresh = child_body(world, 2)
    agg.aggregate_child(fresh)
    assert agg.state.child_packets[2] == child.state.emitted
    assert agg.emit()[0] == 0 and agg.state.emitted.absent == (3, 4)


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
    body[12:16] = struct.pack(">I", 1000)  # overstated absent count
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
    pkt = wire.open_packet(_channel(world.prov.edge_keys[4]), wire.parse_frame(payload)[1])
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
    world = cluster_world()
    agg = world.nodes[1]
    agg.open_round(1)
    for cid in (2, 3):
        world.nodes[cid].open_round(1)
        agg.aggregate_child(child_body(world, cid))
    assert set(agg.state.child_packets) == {2, 3}  # still waiting on 4
    assert agg.state.round == 1 and agg.state.emitted is None
    assert agg.emit()[0] == 0
    assert agg.state.emitted is not None and set(agg.state.child_packets) == {2, 3}
    assert agg.state.emitted.absent == (4,)


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
    bs_channel = _bs_channel(world, 1)

    def probe_answer():
        resp = agg.respond_attestation(1)
        _, [entry] = wire.decode_probe_resp(wire.parse_frame(resp)[1])
        child_tags, bound, agg_body = wire.decode_probe_entry(entry)
        pkt = wire.open_packet(bs_channel, agg_body, bound)  # each answer has a fresh counter
        return child_tags, pkt._replace(counter=None)

    folded = dict(agg.state.child_packets)
    answer = probe_answer()
    assert set(answer[0]) == {2, 3} and answer[1].absent == (4,)
    intake_log(caplog).clear()
    agg.aggregate_child(late[4])
    assert "node 1: packet outside an open round ignored" in caplog.text
    assert agg.handle_message(wire.frame(wire.AGG, late[4])) == []
    assert agg.state.child_packets == folded
    assert probe_answer() == answer


# === Attestation responses ==================================================


def test_attestation_resends_committed_fields():
    world = cluster_world()
    emitted = drive_cluster(world)
    resp = world.nodes[1].respond_attestation(1)
    _, [entry] = wire.decode_probe_resp(wire.parse_frame(resp)[1])
    child_tags, bound, agg_body = wire.decode_probe_entry(entry)
    bs_channel = _bs_channel(world, 1)
    pkt = wire.open_packet(bs_channel, agg_body, bound)
    assert (pkt.dsum, pkt.dsum_prime, pkt.tag, pkt.absent) == (
        emitted.dsum,
        emitted.dsum_prime,
        emitted.tag,
        emitted.absent,
    )
    assert set(child_tags) == {2, 3, 4}


# Node 1's answer in the four-node cluster, in the layout the simulator used
# before probes went to sibling groups: a one-entry response keeps it.  The
# tags in it follow the dual seed step; its sealed payload is the pair in the
# clear followed by the channel tag.
CLUSTER_PROBE_RESP = (
    "040000000000000001000000030000000234f9990a1d8b9ad400000003bc15d714ab58be15"
    "000000049962172ad33d67ad000000010000000000000001000000008447cf335e2a7c7178"
    "a57b5c0fe153ad67a348feb9ad252d9d492138fb6049588ba9caa28f7c6b6b"
)


def test_one_entry_probe_response_keeps_its_layout():
    world = cluster_world()
    emitted = drive_cluster(world)
    resp = world.nodes[1].respond_attestation(1)
    assert resp.hex() == CLUSTER_PROBE_RESP
    _, entries = wire.decode_probe_resp(wire.parse_frame(resp)[1])
    assert wire.encode_probe_resp(1, entries) == resp
    sealed = wire.decode_agg_body(wire.decode_probe_entry(entries[0])[2])[3]
    assert sealed[:16] == emitted.dsum.to_bytes(8, "big") + emitted.dsum_prime.to_bytes(8, "big")


def test_attestation_unknown_round_raises():
    world = cluster_world()
    drive_cluster(world)
    with pytest.raises(NoSuchRound):
        world.nodes[1].respond_attestation(7)
    with pytest.raises(NoSuchRound):
        world.nodes[2].respond_attestation(2)


# === Re-aggregation =========================================================


def _bs_channel(world, nid):
    return _channel(crypto.derive_bs_channel_key(world.prov.node_keys[nid][0], nid))


def _open_reagg(world, nid, resp):
    _, ok, agg_body = wire.decode_reagg_resp(wire.parse_frame(resp)[1])
    assert ok
    return wire.open_packet(_bs_channel(world, nid), agg_body)


def test_reaggregate_excluding_direct_child_is_subtraction():
    world = cluster_world()
    emitted = drive_cluster(world)
    child_pkt = world.nodes[1].state.child_packets[3]
    resp = world.nodes[1].reaggregate_excluding((3,), 1)
    fresh = _open_reagg(world, 1, resp)
    assert fresh.dsum == (emitted.dsum - child_pkt.dsum) & crypto.MASK
    assert fresh.dsum_prime == (emitted.dsum_prime - child_pkt.dsum_prime) & crypto.MASK
    assert fresh.absent == (3,)


def test_reaggregate_excluding_nothing_reproduces_emission():
    world = cluster_world()
    emitted = drive_cluster(world)
    resp = world.nodes[1].reaggregate_excluding((), 1)
    fresh = _open_reagg(world, 1, resp)
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
    resp = world.nodes[1].reaggregate_excluding((2,), 1)
    fresh = _open_reagg(world, 1, resp)
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


def test_garbled_reagg_replies_open_to_nothing():
    # Whatever garbled reply reaches the station (none, an empty frame, a
    # cut REAGG_RESP, an unknown type), it opens to no packet instead of
    # raising, and the node it came from counts as refusing.
    world = World(Scenario(seed=1, n=3, generator="path"))
    world.run_round(1)
    channel = _bs_channel(world, 1)
    for reply in (None, b"", b"\x06\x00", b"\x7f" + bytes(40)):
        assert wire.open_reagg_reply(channel, reply) is None
    # The same channel still opens the node's real reply afterwards.
    reply = world.nodes[1].handle_reagg_request(wire.parse_frame(wire.encode_reagg(1, (2,)))[1])
    assert wire.open_reagg_reply(channel, reply).absent == (2,)


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
    body = wire.encode_agg_body(7, 1234, (2, 5, 9), sealed, tag)
    assert body[:4] == struct.pack(">I", 7)
    assert body[4:12] == struct.pack(">Q", 1234)
    assert body[12:16] == struct.pack(">I", 3)
    assert body[16:28] == struct.pack(">III", 2, 5, 9)
    assert body[28:60] == sealed
    assert body[60:68] == tag
    assert len(body) == 68
    assert wire.decode_agg_body(body) == (7, 1234, (2, 5, 9), sealed, tag)


def test_agg_packet_roundtrip_binds_header():
    # Sealed and opened on a fresh channel pair: the plaintext view survives,
    # and rewriting any clear header field (sender, absent list, tag) or the
    # bound bytes fails authentication.
    key = bytes(range(16))
    pkt, body = wire.seal_packet(_channel(key), 7, (9, 12), 5, 6, b"\x11" * 8, b"bound")
    assert wire.open_packet(_channel(key), body, b"bound") == pkt
    assert pkt.absent == (9, 12)
    sender, counter, absent, sealed, tag = wire.decode_agg_body(body)
    tampered = (
        wire.encode_agg_body(8, counter, absent, sealed, tag),
        wire.encode_agg_body(sender, counter, (9,), sealed, tag),
        wire.encode_agg_body(sender, counter, absent, sealed, b"\x12" + tag[1:]),
    )
    for bad in tampered:
        with pytest.raises(AuthFailure):
            wire.open_packet(_channel(key), bad, b"bound")
    with pytest.raises(AuthFailure):
        wire.open_packet(_channel(key), body, b"other")


class _RecordingChannel(crypto.SecureChannel):
    """A receiving channel endpoint that records the associated data of
    every blob it is asked to open."""

    def __init__(self, key):
        super().__init__(key)
        self.ads = []

    def open(self, counter, blob, ad=b""):
        self.ads.append(ad)
        return super().open(counter, blob, ad)


@settings(max_examples=60, deadline=None)
@given(
    sender=st.integers(0, 2**32 - 1),
    absent=st.sets(st.integers(0, 2**32 - 1), max_size=40).map(sorted).map(tuple),
    tag=st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN),
    bound=st.binary(max_size=40),
    counter=st.integers(1, 2**64 - 1),
    pair=st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
)
def test_open_packet_authenticates_the_header_it_parsed(sender, absent, tag, bound, counter, pair):
    # The receiver's associated data is sliced from the body it parsed and
    # equals what the sender builds from the fields; every single-bit flip
    # and every truncation of the body fails to open.
    key = crypto.channel_key(bytes(range(crypto.KEY_LEN)))
    blob = pair[0].to_bytes(8, "big") + pair[1].to_bytes(8, "big")
    sealed = crypto.seal(key, counter, blob, wire.header_ad(sender, absent, tag) + bound)
    body = wire.encode_agg_body(sender, counter, absent, sealed, tag)
    channel = _RecordingChannel(key)
    pkt = wire.open_packet(channel, body + b"trailing", bound)
    assert pkt == (sender, counter, absent, *pair, tag)
    assert channel.ads == [wire.header_ad(sender, absent, tag) + bound]
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << bit % 8
        with pytest.raises((AuthFailure, ReplayDetected)):
            wire.open_packet(crypto.SecureChannel(key), bytes(flipped), bound)
    for cut in range(len(body)):
        with pytest.raises(AuthFailure):
            wire.open_packet(crypto.SecureChannel(key), body[:cut], bound)


class _SealRecorder(crypto.SecureChannel):
    """A sending channel endpoint that records the payload and associated
    data of every blob it seals."""

    def __init__(self, key):
        super().__init__(key)
        self.sealed = []

    def seal_next(self, plaintext, ad=b""):
        self.sealed.append((plaintext, ad))
        return super().seal_next(plaintext, ad)


def _reference_open(key, body, bound):
    """Reference for open_packet on a fresh channel: parse field by field,
    rebuild the associated data with header_ad, and check the tag with
    open_sealed."""
    if len(body) < 16:
        raise AuthFailure("truncated")
    sender, counter, count = struct.unpack_from(">IQI", body)
    tag_at = 16 + 4 * count + wire.SEALED_PAIR_LEN
    if len(body) < tag_at + crypto.TAG_LEN:
        raise AuthFailure("truncated")
    absent = struct.unpack_from(f">{count}I", body, 16)
    sealed, tag = body[16 + 4 * count : tag_at], body[tag_at : tag_at + crypto.TAG_LEN]
    if counter < 1:
        raise ReplayDetected("counter 0")
    pair = crypto.open_sealed(key, counter, sealed, wire.header_ad(sender, absent, tag) + bound)
    return wire.AggPacket(sender, counter, absent, *struct.unpack(">QQ", pair), tag)


def _outcome(open_, *args):
    try:
        return open_(*args)
    except (AuthFailure, ReplayDetected) as exc:
        return type(exc)


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
    channel = _SealRecorder(key)
    channel.seal_next(b"")  # the packet goes out under counter 2
    pkt, body = wire.seal_packet(channel, sender, absent, *pair, tag, bound)
    [(plaintext, ad)] = channel.sealed[1:]
    assert plaintext == struct.pack(">QQ", *pair)
    assert ad == wire.header_ad(sender, absent, tag) + bound
    assert body == wire.encode_agg_body(sender, 2, absent, crypto.seal(key, 2, plaintext, ad), tag)
    assert pkt == (sender, 2, absent, *pair, tag)
    variants = [body, body + b"trailing", *(body[:cut] for cut in range(len(body)))]
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << bit % 8
        variants.append(bytes(flipped))
    for variant in variants:
        want = _outcome(_reference_open, key, variant, bound)
        assert _outcome(wire.open_packet, crypto.SecureChannel(key), variant, bound) == want
    assert _outcome(wire.open_packet, crypto.SecureChannel(key), body, bound) == pkt


_IDS = st.integers(1, 2**32 - 1)
_PACKET_FIELDS = st.tuples(
    st.integers(1, 2**64 - 1),  # counter
    st.sets(_IDS, max_size=6).map(sorted).map(tuple),  # absent roots
    st.integers(0, M - 1),
    st.integers(0, M - 1),
    st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN),
)


@settings(max_examples=100, deadline=None)
@given(children=st.sets(_IDS, max_size=12).map(sorted).map(tuple), data=st.data())
def test_fold_packets_matches_a_plain_reference_fold(children, data):
    # Random kept-packet sets with children missing, and a packet from a
    # non-child that must not fold: the fold's integer tag is combine_macs
    # over the kept packets' tags, and its pair and absent roots are a plain
    # reference fold's.
    kept = {
        cid: wire.AggPacket(cid, *data.draw(_PACKET_FIELDS))
        for cid in children if data.draw(st.booleans())
    }
    stray = wire.AggPacket(0, *data.draw(_PACKET_FIELDS))
    dsum, dsum_prime, absent, tag = wire.fold_packets({**kept, 0: stray}, children)
    folded = [kept[cid] for cid in children if cid in kept]
    assert tag.to_bytes(crypto.TAG_LEN, "big") == crypto.combine_macs(
        crypto.ZERO_TAG, [pkt.tag for pkt in folded])
    assert (dsum, dsum_prime) == (sum(p.dsum for p in folded) % M, sum(p.dsum_prime for p in folded) % M)
    missing = [cid for cid in children if cid not in kept]
    assert absent == tuple(sorted(missing + [a for pkt in folded for a in pkt.absent]))


def test_honest_agg_frame_is_57_bytes_at_any_depth():
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
    assert sizes == {1: 57, 64: 57}
    assert world.metrics.rounds[0].bytes == 64 * (10 + 57)


def test_reagg_request_carries_child_ids():
    # A request names children of its addressee, and the addressee leaves
    # out exactly those: each becomes an absent root of its reply.  An id
    # that is not its child is ignored.
    world = cluster_world()
    drive_cluster(world)
    payload = wire.encode_reagg(1, (2, 4, 70000))
    assert len(payload) == 1 + 12 + 4 * 3
    round_no, decoded = wire.decode_reagg(wire.parse_frame(payload)[1])
    assert (round_no, decoded) == (1, (2, 4, 70000))
    fresh = _open_reagg(world, 1, world.nodes[1].handle_reagg_request(wire.parse_frame(payload)[1]))
    assert fresh.absent == (2, 4)
    keep = (1, 3)
    s = sum(seed_of(world, v, 1) for v in keep) % crypto.MODULUS
    assert crypto.undiffuse(fresh.dsum, s) == plaintext_sum(world, 1, participants=keep)


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


def test_every_cut_frame_raises_value_error():
    # Every frame type that crosses a link, cut at every shorter length or
    # with its count field overstated, fails to decode with ValueError and
    # nothing else: callers catch ValueError, never struct.error.
    _, agg_body = wire.seal_packet(_channel(bytes(16)), 7, (9, 12), 5, 6, b"\x11" * 8)
    child_tags = {9: b"\x22" * 8, 12: b"\x33" * 8}
    resp = wire.seal_probe_resp(_channel(bytes(16)), 3, 7, (9, 12), 5, 6, b"\x11" * 8, child_tags)
    entry = resp[9:]  # past the type and round
    cases = (  # (payload, decoder of its body, offset of its count field)
        (wire.encode_query(3, "mean"), wire.decode_query, None),
        (wire.frame(wire.AGG, agg_body), wire.decode_agg_body, 12),
        (wire.encode_probe(3), wire.decode_probe, None),
        (
            resp,
            lambda body: wire.decode_agg_body(wire.decode_probe_entry(wire.decode_probe_resp(body)[1][0])[2]),
            8,
        ),
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
    # An entry cut inside its child tags raises ValueError too.
    for cut in range(4 + 2 * 12):
        with pytest.raises(ValueError):
            wire.decode_probe_entry(entry[:cut])


def test_cut_probe_bundle_keeps_the_entries_before_the_cut():
    # Bundle entries carry no length of their own: a two-entry response cut
    # inside its first entry raises ValueError, and one cut anywhere in its
    # second entry decodes as the first entry alone, as if the second had
    # been dropped on the way.
    channel = _channel(bytes(16))
    entries = [  # each answer's entry, past its type and round
        wire.seal_probe_resp(channel, 3, 7, (9, 12), 5, 6, b"\x11" * 8, {9: b"\x22" * 8, 12: b"\x33" * 8})[9:],
        wire.seal_probe_resp(channel, 3, 8, (), 1, 2, b"\x44" * 8, {})[9:],
    ]
    bundle = wire.encode_probe_resp(3, entries)
    one = wire.encode_probe_resp(3, entries[:1])
    assert bundle == one + entries[1]
    assert wire.decode_probe_resp(wire.parse_frame(bundle)[1]) == (3, entries)
    for cut in range(len(bundle)):
        body = wire.parse_frame(bundle[:cut])[1]
        if cut < len(one):
            with pytest.raises(ValueError):
                wire.decode_probe_resp(body)
        else:
            assert wire.decode_probe_resp(body) == (3, entries[:1])
