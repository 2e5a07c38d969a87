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

The node also answers attestation probes: on a direct logical channel to the
base station it resends what it committed to, together with the packet of
each child it kept, as it received it.  The station checks those child
packets itself and takes a child's packet out of the node's aggregate by
subtraction, so no node is ever asked to re-aggregate.

A compromised node carries an ``adversary.Behavior``: one hook per protocol
step (the reading, each child packet kept, the folded pair, the probe
answer and the emitted frame), each given the honest value and the round
and returning the value the node uses.  An honest node has none and skips
every hook.
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
        self.up_channel = edge
        self.child_channels = child_edges
        self._bs_channel: crypto.Keyed | None = None
        self.state: RoundState | None = None

    @property
    def bs_channel(self) -> crypto.Keyed:
        """The direct channel to the base station, keyed on first use (as
        the station keys its end): honest rounds never touch it."""
        if self._bs_channel is None:
            self._bs_channel = crypto.channel_key(crypto.derive_bs_channel_key(self.key, self.node_id))
        return self._bs_channel

    # === Round handling =====================================================

    def open_round(self, round_no: int) -> None:
        """Open a round later than any before: advance both seed chains to it,
        sense one reading, and diffuse it under both, D + m and D' + m mod M.
        A compromised node's ``reading`` hook may forge the reading, which
        then enters both chains alike."""
        chains = self.chains  # at the last round opened
        if round_no <= chains.round:
            raise StaleRound(f"node {self.node_id}: round {round_no} <= {chains.round}")
        seeds = chains.advance_to(round_no)  # D << 64 | D'
        raw = crypto.sense_raw(self.sense_key, round_no, self.codec.max_raw)
        if self.behavior is not None:
            raw = self.behavior.reading(raw, round_no)
        mask = crypto.MASK
        self.state = RoundState(round_no, (seeds >> 64) + raw & mask, (seeds & mask) + raw & mask)

    def aggregate_child(self, body: bytes) -> None:
        """Keep one child's packet for the fold at emission, through the intake
        every parent runs, ``wire.keep_child_packet``.  Two checks only a
        sensor has come first: nothing is kept outside an open round, which
        emission closes, and nothing a compromised node's ``keeps`` hook
        drops."""
        state = self.state
        if state is None or state.emitted is not None:
            log.info("node %d: packet outside an open round ignored", self.node_id)
            return
        if self.behavior is not None:
            body = self.behavior.keeps(body, state.round)
            if body is None:
                return
        wire.keep_child_packet(state.child_packets, self.child_channels, state.round, body, self.node_id)

    def emit(self) -> Send:
        """Build, seal, and retain this round's single upward packet.  Emission
        closes the round: a child without a kept packet is left out, and a
        packet that arrives later is ignored."""
        state = self.state
        if state is None:
            raise NoSuchRound(f"node {self.node_id}: no active round")
        if state.emitted is not None:
            raise AlreadyEmitted(f"node {self.node_id}: round {state.round}")
        folded = self._fold(state, state.child_packets)
        pkt, body = wire.seal_packet(self.up_channel, state.round, self.node_id, *folded)
        state.emitted = pkt
        payload = _AGG_TYPE + body
        if self.behavior is not None:
            payload = self.behavior.payload(payload, state.round)
        return self.parent_id, payload

    def _fold(
        self, state: RoundState, kept: dict[int, wire.AggPacket]
    ) -> tuple[tuple[int, ...], int, int, bytes]:
        """Fold the kept child packets, add the own pair, and tag the result
        (the own MAC XORed into the fold's child tags): its absent roots, pair
        and tag, in ``wire.seal_packet``'s order."""
        dsum, dsum_prime, absent, tags = wire.fold_packets(kept, self.children, state.own_d, state.own_dp)
        if self.behavior is not None:
            dsum, dsum_prime = self.behavior.pair((dsum, dsum_prime), state.round)
        own = int.from_bytes(crypto.mac_pair(self.mac_key, dsum, dsum_prime), "big")
        tag = (own ^ tags).to_bytes(crypto.TAG_LEN, "big")
        return absent, dsum, dsum_prime, tag

    # === Attestation ========================================================

    def respond_attestation(self, round_no: int) -> bytes:
        """Resend the committed packet on the direct base-station channel,
        with the packets of the children it folded bound into the channel tag."""
        state = self.state
        if state is None or state.round != round_no or state.emitted is None:
            raise NoSuchRound(f"node {self.node_id}: no emitted packet for round {round_no}")
        pkt = state.emitted
        absent, pair, child_packets = pkt.absent, (pkt.dsum, pkt.dsum_prime), state.child_packets
        if self.behavior is not None:
            absent, pair, child_packets = self.behavior.answer((absent, pair, child_packets), round_no)
        return wire.seal_probe_resp(self.bs_channel, round_no, self.node_id, absent, *pair, pkt.tag, child_packets)

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
        """A re-aggregation request, which no round sends: the station
        subtracts a child's packet itself.  It gets a refusal, or no reply
        (None) if it does not parse; never raises."""
        try:
            round_no, _ = wire.decode_reagg(body)
        except ValueError as exc:
            log.info("node %d: ignored re-aggregation request: %s", self.node_id, exc)
            return None
        return wire.encode_reagg_resp(round_no, False)
