"""The sensor/aggregator state machine.

Per round a node: receives the query exactly once, relays it to its children
as it arrived, advances both seed chains with one keyed PRF call, senses one
reading and diffuses it under both chains' seeds, and folds in each child's
authenticated packet as it opens.  Each frame crosses the node in one call,
``handle_message``, which goes by the frame's type, byte 0: a QUERY opens
the round and fans out, and an AGG goes, whole, to ``wire.keep_child_packet``,
the intake and fold the station runs too: it adds the packet to the round's
running pair, tag and absent ids, which start from the node's own pair, and
keeps it as bytes.  A packet that names no child, names a child already
kept, or does not open folds nothing, so the child's genuine packet still
folds.  ``open_round`` and ``aggregate_child`` drive the same path by hand.
The node's keyed-PRF calls are ``crypto``'s own: ``next_seed`` and
``sense_raw`` at the QUERY, ``mac_pair`` at emission, and the channel tag
inside ``wire``.  The node emits, ``emit``, once the simulator finds its
subtree drained: it closes the fold, its silent children joining the absent
ids, XORs its own MAC into the running tag, and sends exactly one packet
upward.  An honest round's packets name no one, so they have the same size
at every depth.  The emitted tag is its own MAC over the final aggregated
pair XORed with all child tags, so the tag of any subtree equals the XOR of
the own-MACs of every node inside it.

The node also answers attestation probes: on a direct logical channel to the
base station it resends what it committed to, together with the packet of
each child it kept, as it received it: the kept bytes, joined.  The station
checks those child packets itself and takes a child's packet out of the
node's aggregate by subtraction, so no node is ever asked to re-aggregate.

A compromised node carries an ``adversary.Behavior``: one hook per protocol
step (the reading, each child packet kept, the folded pair, the probe
answer and the emitted frame), each given the honest value and the round
and returning the value the node uses; packets reach a hook parsed.  An
honest node has none and skips every hook.
"""

from __future__ import annotations

import logging

from . import crypto, wire
from .errors import AlreadyEmitted, NoSuchRound, StaleRound

log = logging.getLogger(__name__)

Send = tuple[int, bytes]  # (destination node id, fabric payload)

_AGG_TYPE = wire.frame(wire.AGG)  # an AGG frame's type byte, prepended to its body


class RoundState(wire.Fold):
    """A node's open round: the fold of its child packets, from its own
    diffused pair, and the packet body it emitted, once it has."""

    __slots__ = ("round", "body")

    def __init__(self, round_no: int, own_d: int, own_dp: int):
        # Every slot set here, the fold's too: one call per node and round.
        self.round = round_no
        self.dsum = own_d
        self.dsum_prime = own_dp
        self.tag = 0
        self.absent: list[int] = []
        self.kept: dict[int, bytes] = {}
        self.body: bytes | None = None

    @property
    def emitted(self) -> wire.AggPacket | None:
        """The emitted packet parsed, None before emission: a read-only view."""
        return None if self.body is None else wire.packet_view(self.body)


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
        """Open a round later than any before, as a QUERY for it does
        (``handle_message``), relaying nothing; raises StaleRound for any other."""
        self.handle_message(wire.encode_query(round_no, "sum"))

    def aggregate_child(self, body: bytes) -> None:
        """Fold one child's packet body in, as its AGG frame does
        (``handle_message``)."""
        self.handle_message(_AGG_TYPE + body)

    def emit(self) -> Send:
        """Close the fold, then seal and keep this round's single upward
        packet body, tagged with the own MAC XORed into the running child
        tag (the own MAC as it is when no packet was kept).  Emission closes
        the round: a child without a kept packet is left out as an absent
        root, and a packet that arrives later is ignored."""
        state = self.state
        if state is None:
            raise NoSuchRound(f"node {self.node_id}: no active round")
        if state.body is not None:
            raise AlreadyEmitted(f"node {self.node_id}: round {state.round}")
        round_no, behavior = state.round, self.behavior
        dsum, dsum_prime, absent, tags = state.close(self.children)
        if behavior is not None:
            dsum, dsum_prime = behavior.pair((dsum, dsum_prime), round_no)
        tag = crypto.mac_pair(self.mac_key, dsum, dsum_prime)
        if tags:
            tag = (int.from_bytes(tag, "big") ^ tags).to_bytes(crypto.TAG_LEN, "big")
        state.body = body = wire.seal_packet(self.up_channel, round_no, self.node_id, absent, dsum, dsum_prime, tag)
        payload = _AGG_TYPE + body
        if behavior is not None:
            payload = behavior.payload(payload, round_no)
        return self.parent_id, payload

    # === Attestation ========================================================

    def respond_attestation(self, round_no: int) -> bytes:
        """Resend the committed packet, read from the emitted body, on the
        direct base-station channel, with the kept child packets, joined,
        bound into the channel tag; an ``answer`` hook's are encoded anew."""
        state = self.state
        if state is None or state.round != round_no or state.body is None:
            raise NoSuchRound(f"node {self.node_id}: no emitted packet for round {round_no}")
        pkt = state.emitted
        absent, pair, kept = pkt.absent, (pkt.dsum, pkt.dsum_prime), state.kept
        if self.behavior is not None:
            absent, pair, child_packets = self.behavior.answer((absent, pair, state.child_packets), round_no)
            kept = {cid: wire.encode_child_packet(cid, child) for cid, child in child_packets.items()}
        return wire.seal_probe_resp(self.bs_channel, round_no, self.node_id, absent, *pair, pkt.tag, kept)

    # === Fabric dispatch ====================================================

    def handle_message(self, payload: bytes) -> list[Send]:
        """Process one fabric message, the frame's one call into the node;
        returns messages to send.  A QUERY for a round later than any before
        opens it: both seed chains advance, the node senses one reading
        (which a compromise's ``reading`` hook may forge) and diffuses it
        under both, D + m and D' + m mod M, and the QUERY goes to each child.
        An AGG in an open round goes, whole, to ``wire.keep_child_packet``,
        unless a compromise's ``keeps`` hook drops it.  A QUERY for a round
        not later than the last raises StaleRound; anything else that does
        not parse or fit, an AGG outside an open round included, is ignored."""
        msg_type = payload[0] if payload else None
        if msg_type == wire.AGG:
            state = self.state
            if state is None or state.body is not None:
                log.info("node %d: packet outside an open round ignored", self.node_id)
                return []
            if self.behavior is not None:
                payload = self.behavior.keeps(payload, state.round)
                if payload is None:
                    return []
            wire.keep_child_packet(state, self.child_channels, state.round, payload, 1, self.node_id)
            return []
        if msg_type != wire.QUERY:
            log.info("node %d: ignored message of type %s", self.node_id, msg_type)
            return []
        try:
            round_no, _ = wire.decode_query(payload, 1)
        except ValueError as exc:
            log.info("node %d: ignored query: %s", self.node_id, exc)
            return []
        chains = self.chains  # at the last round opened
        if round_no <= chains.round:
            raise StaleRound(f"node {self.node_id}: round {round_no} <= {chains.round}")
        seeds = chains.advance_to(round_no)  # D << 64 | D'
        raw = crypto.sense_raw(self.sense_key, round_no, self.codec.max_raw)
        if self.behavior is not None:
            raw = self.behavior.reading(raw, round_no)
        mask = crypto.MASK
        self.state = RoundState(round_no, (seeds >> 64) + raw & mask, (seeds & mask) + raw & mask)
        # decode_query accepts only the 9-byte body encode_query writes, so
        # relaying the frame as it arrived equals re-encoding it.
        return [(cid, payload) for cid in self.children] if self.children else []

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
