"""The sensor/aggregator state machine.

Per round a node: receives the query exactly once, relays it to its children
as it arrived, advances both seed chains with one keyed PRF call, senses one
reading and diffuses it under both chains' seeds, and keeps each child's
authenticated packet.  A message goes by its type, byte 0: a QUERY only
opens the round and fans out, and an AGG only goes through
``wire.keep_child_packet``, the intake the station runs too: a packet that
names no child, names a child already kept, or does not open leaves nothing
behind, so the child's genuine packet still folds.  The node emits once the
simulator finds its subtree drained: it folds the kept packets with
``wire.fold_packets`` (the dual sums component-wise mod M, the child tags
XORed as one integer, and an absent list: the children that did not report
plus the absent lists of those that did), adds its own pair, and sends
exactly one packet upward.  An honest round's packets name no one, so they
have the same size at every depth.  The emitted tag is its own MAC over the
final aggregated pair XORed with all child tags, so the tag of any subtree
equals the XOR of the own-MACs of every node inside it.

The node also answers attestation probes (resending what it committed to on
a direct logical channel to the base station) and re-aggregates on request
with some of its children left out, through the same fold as emission, and
seals the result on that direct channel.

Compromised behavior is injected through an optional behavior object
consulted at sensing, emission, and probe time.
"""

from __future__ import annotations

import logging

from . import crypto, wire
from .errors import AlreadyEmitted, NoSuchRound, StaleRound

log = logging.getLogger(__name__)

Send = tuple[int, bytes]  # (destination node id, fabric payload)

_AGG_TYPE = wire.frame(wire.AGG)  # an AGG frame's type byte, prepended to its body


class RoundState:
    """A node's open round: its own diffused pair, the child packets kept,
    and the packet it emitted, once it has."""

    __slots__ = ("round", "own_d", "own_dp", "child_packets", "emitted")

    def __init__(self, round_no: int, own_d: int, own_dp: int):
        self.round = round_no
        self.own_d = own_d
        self.own_dp = own_dp
        self.child_packets: dict[int, wire.AggPacket] = {}
        self.emitted: wire.AggPacket | None = None


class SensorNode:
    """One sensor.  ``chain``, ``edge`` and ``child_edges`` are keyed
    states shared with the key's other holder: the station's seed ledger,
    the other end of the edge."""

    def __init__(
        self,
        node_id: int,
        parent_id: int,
        children: tuple[int, ...],
        key: bytes,
        chain: crypto.Keyed,
        edge: crypto.Keyed,
        child_edges: dict[int, crypto.Keyed],
        origin: int,
        sense_key: bytes,
        codec: crypto.FixedPointCodec,
    ):
        self.node_id = node_id
        self.parent_id = parent_id
        self.children = tuple(children)  # ascending ids
        self.key = key
        self.mac_key = crypto.mac_key(key)
        self.codec = codec
        self.sense_key = crypto.sense_key(sense_key)
        self.behavior = None  # a compromise's Behavior, set by adversary.apply_plan
        self.chains = crypto.SeedState.from_origin(chain, origin)
        self.up_channel = crypto.SecureChannel(edge)
        self.child_channels = {cid: crypto.SecureChannel(k) for cid, k in child_edges.items()}
        self._bs_channel: crypto.SecureChannel | None = None
        self.state: RoundState | None = None

    @property
    def bs_channel(self) -> crypto.SecureChannel:
        """The direct channel to the base station, keyed on first use (as
        the station keys its end): honest rounds never touch it."""
        if self._bs_channel is None:
            key = crypto.derive_bs_channel_key(self.key, self.node_id)
            self._bs_channel = crypto.SecureChannel(crypto.channel_key(key))
        return self._bs_channel

    # === Round handling =====================================================

    def open_round(self, round_no: int) -> None:
        """Open a round later than any before: advance both seed chains to it,
        sense one reading, and diffuse it under both, D + m and D' + m mod M.
        A compromised node may forge the reading (consistently under both
        chains), but it must still encode in-range."""
        chains = self.chains  # at the last round opened
        if round_no <= chains.round:
            raise StaleRound(f"node {self.node_id}: round {round_no} <= {chains.round}")
        seeds = chains.advance_to(round_no)  # D << 64 | D'
        codec = self.codec
        raw = crypto.sense_raw(self.sense_key, round_no, codec.max_raw)
        if self.behavior is not None:
            raw = self.behavior.forge_reading(raw, round_no, codec)
        mask = crypto.MASK
        self.state = RoundState(round_no, (seeds >> 64) + raw & mask, (seeds & mask) + raw & mask)

    def aggregate_child(self, body: bytes) -> None:
        """Keep one child's packet for the fold at emission, through the intake
        every parent runs, ``wire.keep_child_packet``.  Two checks only a
        sensor has come first: nothing is kept outside an open round, which
        emission closes, and nothing from a child a ``drop_child`` behaviour
        drops."""
        state = self.state
        if state is None or state.emitted is not None:
            log.info("node %d: packet outside an open round ignored", self.node_id)
            return
        behavior = self.behavior
        if behavior is not None and behavior.drops_child(wire.packet_sender(body), state.round):
            return
        wire.keep_child_packet(state.child_packets, self.child_channels, body, self.node_id)

    def emit(self) -> Send:
        """Build, seal, and retain this round's single upward packet.  Emission
        closes the round: a child without a kept packet is left out, and a
        packet that arrives later is ignored."""
        state = self.state
        if state is None:
            raise NoSuchRound(f"node {self.node_id}: no active round")
        if state.emitted is not None:
            raise AlreadyEmitted(f"node {self.node_id}: round {state.round}")
        pkt, body = self._seal_aggregate(state, state.child_packets, self.up_channel)
        state.emitted = pkt
        payload = _AGG_TYPE + body
        if self.behavior is not None:
            payload = self.behavior.emit_payload(state.round, payload)
        return self.parent_id, payload

    def _seal_aggregate(
        self, state: RoundState, kept: dict[int, wire.AggPacket], channel: crypto.SecureChannel
    ) -> tuple[wire.AggPacket, bytes]:
        """Fold the kept child packets, add the own pair, tag the result (the
        own MAC XORed into the fold's child tags), and seal it."""
        dsum, dsum_prime, absent, tags = wire.fold_packets(kept, self.children, state.own_d, state.own_dp)
        if self.behavior is not None:
            dsum, dsum_prime = self.behavior.forge_pair(dsum, dsum_prime, state.round)
        own = int.from_bytes(crypto.mac_pair(self.mac_key, dsum, dsum_prime), "big")
        tag = (own ^ tags).to_bytes(crypto.TAG_LEN, "big")
        return wire.seal_packet(channel, self.node_id, absent, dsum, dsum_prime, tag)

    # === Attestation ========================================================

    def respond_attestation(self, round_no: int) -> bytes:
        """Resend the committed packet on the direct base-station channel,
        with the child tags it folded bound into the channel tag."""
        state = self.state
        if state is None or state.round != round_no or state.emitted is None:
            raise NoSuchRound(f"node {self.node_id}: no emitted packet for round {round_no}")
        pkt = state.emitted
        dsum, dsum_prime = pkt.dsum, pkt.dsum_prime
        if self.behavior is not None:
            dsum, dsum_prime = self.behavior.probe_pair(dsum, dsum_prime, round_no)
        child_tags = {cid: p.tag for cid, p in state.child_packets.items()}
        return wire.seal_probe_resp(
            self.bs_channel, round_no, self.node_id, pkt.absent, dsum, dsum_prime, pkt.tag, child_tags
        )

    def reaggregate_excluding(self, children: tuple[int, ...], round_no: int) -> bytes:
        """Recompute the dual sums without the named children, each dropped
        with its whole subtree contribution and listed as an absent root, and
        seal the result on the direct base-station channel.  Ids that are not
        this node's children are ignored."""
        state = self.state
        if state is None or state.round != round_no or state.emitted is None:
            raise NoSuchRound(f"node {self.node_id}: no round {round_no} to re-aggregate")
        kept = {cid: pkt for cid, pkt in state.child_packets.items() if cid not in children}
        _, body = self._seal_aggregate(state, kept, self.bs_channel)
        return wire.encode_reagg_resp(round_no, True, body)

    # === Fabric dispatch ====================================================

    def handle_message(self, payload: bytes) -> list[Send]:
        """Process one fabric message; returns messages to send.  A QUERY opens
        its round and goes to each child as it arrived, and an AGG goes to
        ``aggregate_child``.  A QUERY that does not parse and a message of
        unknown type are ignored, so the parent leaves this node out; a QUERY
        for a round not later than the last raises StaleRound."""
        msg_type = payload[0] if payload else None
        if msg_type == wire.AGG:
            self.aggregate_child(payload[1:])
            return []
        if msg_type == wire.QUERY:
            try:
                round_no, _ = wire.decode_query(payload[1:])
            except ValueError as exc:
                log.info("node %d: ignored query: %s", self.node_id, exc)
                return []
            self.open_round(round_no)
            # decode_query accepts only the 9-byte body encode_query writes,
            # so relaying the frame as it arrived equals re-encoding it.
            return [(cid, payload) for cid in self.children]
        log.info("node %d: ignored message of type %s", self.node_id, msg_type)
        return []

    def handle_reagg_request(self, body: bytes) -> bytes | None:
        """Request/response entry for re-aggregation; never raises.  A request
        that does not parse gets no reply (None), which the requester treats
        like a refusal."""
        try:
            round_no, exclusions = wire.decode_reagg(body)
        except ValueError as exc:
            log.info("node %d: ignored re-aggregation request: %s", self.node_id, exc)
            return None
        try:
            return self.reaggregate_excluding(exclusions, round_no)
        except NoSuchRound as exc:
            log.info("node %d: re-aggregation failed: %s", self.node_id, exc)
            return wire.encode_reagg_resp(round_no, False)

