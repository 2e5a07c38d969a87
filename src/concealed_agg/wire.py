"""Wire formats: the aggregation packet, the message frames, and the fold.

Aggregation packet layout:

    sender (4B BE) || absent-count (4B BE)
    || absent ids (4B BE each, ascending) || sealed payload || tag (8B)

The absent ids are the roots of the subtrees missing from the sender's
aggregate: its children that did not report, plus every id its reporting
children listed.  The station knows the tree, so it derives the
participants itself; an honest packet carries no ids, so its AGG frame is
49 bytes at any depth.

The sealed payload is the dual diffused pair (two 8-byte big-endian words, K
chain first) in the clear, followed by its 16-byte channel tag under a
channel key: a fixed 16 + 16 bytes.  The channel tag is sealed for the round
the packet belongs to, which no field carries: the receiver opens it under
its own round (a sensor's open round, the station's current one, or the
round the station asked about), so a packet from another round fails its
tag.  The channel tag also covers, as associated data, every other clear
field: sender, absent list and tag, and in a probe response the child
packets too.  A keyless attacker on a link who rewrites any of them makes
the packet fail authentication.  ``seal_packet`` packs the header once, for
both the associated data and the body; a receiver authenticates the header
bytes it parsed, sliced from the packet, so each packet is packed once and
parsed once and nothing is rebuilt in between.  Both ends call the channel
tag, ``crypto._channel_tag``, themselves, which keeps its input encoding in
``crypto``: a packet crosses ``crypto`` in one call each way, and one opener
checks each tag.
Every payload on the simulator fabric is a one-byte message type, which
receivers read from byte 0, followed by the body, and every type crosses a
link: no frame tells a node to emit, it emits when the simulator finds its
subtree drained.  A node relays the QUERY that opens its round to its
children as the bytes that arrived: ``decode_query`` accepts only the 9-byte
body ``encode_query`` writes, so that equals re-encoding it.

Attestation probes name their targets and travel through relays:

    PROBE         round (8B BE) || target ids (4B BE each, ascending)
    PROBE_RESP    entry || entry || ...
    entry         child count (4B BE) || child packet* || aggregation packet
    child packet  sender (4B BE) || absent-count (4B BE)
                  || absent ids (4B BE each) || pair (16B) || tag (8B)

A probe with targets goes to a relay.  The relay asks its children among
them, and each target alone below one of its children, with a probe without
targets, one that asks its addressee to answer for itself, and forwards the
others below it.  A response carries one entry per node that answered: the
packets of the children the node kept, ascending by id, as it received them
less their edge channel tags, then its own packet sealed on its direct
channel to the station, with that child block, count included, bound into
the channel tag.  So the station checks each child's
claim one level down without asking the child, and subtracts a child's
packet from the node's as the node reported it.  Entries have no length
prefix: each ends where its last packet's absent count says, so a one-entry
response is a node's own answer (``seal_probe_resp``), and a bundle is the
answers' entries back to back, as a relay forwarded them
(``bundle_probe_answers``), re-framing none.  A relay only walks entries to
their ends; the station alone unpacks their child packets.

No round sends the re-aggregation request and reply any more; their codecs
stay as reference code:

    REAGG       round (8B BE) || count (4B BE) || child ids (4B BE each, ascending)
    REAGG_RESP  round (8B BE) || ok (1B) || aggregation packet, if ok

``keep_child_packet`` is the one intake every parent runs, the station
included.  A sensor hands it the AGG frame whole and it reads the header,
sender and absent count, once: a packet that names no child, names a child
already kept, or does not open leaves nothing behind.  ``open_packet`` opens
a packet on a known channel, as the station does a probe answer's.
``fold_packets`` is the one aggregation step: ring-add the kept packets'
pairs, gather their absent lists and XOR their tags as one integer; a child
without a packet is an absent root.
Every decoder raises ValueError, and nothing else, on a frame that does not
parse.
"""

from __future__ import annotations

import logging
import struct
from functools import partial
from hmac import compare_digest
from operator import ge
from typing import NamedTuple

from . import crypto
from .errors import AuthFailure

log = logging.getLogger(__name__)

# Message types on the fabric.
QUERY = 0x01
AGG = 0x02
PROBE = 0x03
PROBE_RESP = 0x04
REAGG = 0x05
REAGG_RESP = 0x06

SEALED_PAIR_LEN = 16 + crypto.CHANNEL_TAG_LEN
_PACKET_LEN = 8 + SEALED_PAIR_LEN + crypto.TAG_LEN  # an aggregation packet without absent ids

_HEADER = struct.Struct(">II")  # sender, absent count
_COUNT = struct.Struct(">I")  # a count of child packets or of absent ids
_NO_ABSENT = bytes(4)  # the absent count of a packet that names no one
_QUERY = struct.Struct(">QB")  # round, function code
_PAIR = struct.Struct(">QQ")  # dsum, dsum_prime: K chain first
_PAIR_TAG = struct.Struct(f">QQ{crypto.TAG_LEN}s")  # a child packet's pair and tag in a probe entry
_SEALED_TAIL = struct.Struct(f">QQ{crypto.CHANNEL_TAG_LEN}s{crypto.TAG_LEN}s")  # a packet's pair, channel tag, tag
_CHILD_PACKET_LEN = 8 + _PAIR_TAG.size  # a probe entry's child packet without absent ids
_PROBE_RESP_TYPE = bytes([PROBE_RESP])

FUNC_CODES = {"sum": 0, "mean": 1}
FUNC_NAMES = {code: name for name, code in FUNC_CODES.items()}


class AggPacket(NamedTuple):
    """Plaintext view of one aggregation packet."""

    sender: int
    absent: tuple[int, ...]
    dsum: int
    dsum_prime: int
    tag: bytes


_new_packet = partial(tuple.__new__, AggPacket)  # AggPacket from a field tuple, built in C


def fold_packets(
    packets: dict[int, AggPacket], children: tuple[int, ...], dsum: int = 0, dsum_prime: int = 0
) -> tuple[int, int, tuple[int, ...], int]:
    """Fold the packets of the given children, in their (ascending id) order;
    a child without a packet is an absent root.  Returns one layer of packets
    folded together: the ring sum of their pairs and the given one (dsum,
    dsum_prime, each below M), the ids of the absent subtree roots below the
    folding node, ascending, and the XOR of the packets' tags as one
    big-endian integer.  With no packet kept that is the given pair, the
    children tuple itself and a tag of 0."""
    if not packets:
        return dsum, dsum_prime, children, 0
    tag = 0
    absent: list[int] = []
    for child in children:
        pkt = packets.get(child)
        if pkt is None:
            absent.append(child)
            continue
        absent += pkt.absent
        dsum += pkt.dsum
        dsum_prime += pkt.dsum_prime
        tag ^= int.from_bytes(pkt.tag, "big")
    mask = crypto.MASK
    return dsum & mask, dsum_prime & mask, tuple(sorted(absent)) if absent else (), tag


def _need(body: bytes, length: int, what: str) -> None:
    """Every decoder reports a short frame as ValueError, never struct.error."""
    if len(body) < length:
        raise ValueError(f"truncated {what}")


def frame(msg_type: int, body: bytes = b"") -> bytes:
    return bytes([msg_type]) + body


def parse_frame(payload: bytes) -> tuple[int | None, bytes]:
    """Message type and body; an empty payload has no type (None), which
    every receiver ignores like any other type it does not expect."""
    if not payload:
        return None, b""
    return payload[0], payload[1:]


# === Aggregation packet =====================================================


def _absent_field(absent: tuple[int, ...]) -> bytes:
    """The absent count and ids, as a packet and its associated data carry them."""
    return struct.pack(f">I{len(absent)}I", len(absent), *absent) if absent else _NO_ABSENT


def encode_agg_body(sender: int, absent: tuple[int, ...], sealed: bytes, tag: bytes) -> bytes:
    return sender.to_bytes(4, "big") + _absent_field(absent) + sealed + tag


def decode_agg_body(body: bytes) -> tuple[int, tuple[int, ...], bytes, bytes]:
    """Sender, absent ids, sealed pair and tag of an aggregation packet;
    ValueError if the body ends before the packet does."""
    if len(body) < 8:
        raise ValueError("truncated aggregation packet")
    sender, count = _HEADER.unpack_from(body)
    sealed_at = 8 + 4 * count
    tag_at = sealed_at + SEALED_PAIR_LEN
    if len(body) < tag_at + crypto.TAG_LEN:
        raise ValueError("truncated aggregation packet")
    absent = struct.unpack_from(f">{count}I", body, 8) if count else ()
    return sender, absent, body[sealed_at:tag_at], body[tag_at : tag_at + crypto.TAG_LEN]


def packet_sender(body: bytes, at: int = 0) -> int | None:
    """The sender id claimed by the four bytes of an aggregation packet that
    starts at byte ``at`` of body; None if body ends before them."""
    return int.from_bytes(body[at : at + 4], "big") if len(body) >= at + 4 else None


def seal_packet(
    channel: crypto.Keyed,
    round_no: int,
    sender: int,
    absent: tuple[int, ...],
    dsum: int,
    dsum_prime: int,
    tag: bytes,
    bound: bytes = b"",
) -> tuple[AggPacket, bytes]:
    """Seal a pair on the given channel for a round, binding the header, the
    tag and any extra ``bound`` bytes into the channel tag; returns the
    plaintext view and body, the bytes ``encode_agg_body`` gives.  The
    header is packed once, for both the associated data and the body."""
    mask = crypto.MASK
    head = sender.to_bytes(4, "big") + _absent_field(absent)
    pair = _PAIR.pack(dsum & mask, dsum_prime & mask)
    sealed = pair + crypto._channel_tag(channel, round_no, head + tag + bound, pair)
    return _new_packet((sender, absent, dsum, dsum_prime, tag)), head + sealed + tag


def _open_at(
    channel: crypto.Keyed, round_no: int, data: bytes, at: int, sender: int, count: int, bound: bytes = b""
) -> AggPacket:
    """Unseal the packet at byte ``at`` of data, whose sender and absent count
    the caller has read: the one check of a channel tag.  Its pair, channel
    tag and tag are read in one unpack.  The associated data is the header as
    it arrived, sliced from data, then the tag and ``bound``, as
    ``seal_packet`` packs them.  AuthFailure on a cut packet or a bad tag."""
    pair_at = at + 8 + 4 * count
    if len(data) < pair_at + _SEALED_TAIL.size:
        raise AuthFailure("malformed aggregation packet: truncated aggregation packet")
    dsum, dsum_prime, sealed_tag, tag = _SEALED_TAIL.unpack_from(data, pair_at)
    expected = crypto._channel_tag(channel, round_no, data[at:pair_at] + tag + bound, data[pair_at : pair_at + 16])
    if not compare_digest(sealed_tag, expected):
        raise AuthFailure("channel tag mismatch")
    absent = struct.unpack_from(f">{count}I", data, at + 8) if count else ()
    return _new_packet((sender, absent, dsum, dsum_prime, tag))


def open_packet(channel: crypto.Keyed, round_no: int, body: bytes, bound: bytes = b"") -> AggPacket:
    """Parse and unseal (``_open_at``) a packet received on a channel in a
    round, ignoring bytes past its end.  Raises AuthFailure on a body that
    does not parse, and on bad traffic: a header or ``bound`` bytes other
    than those sealed, or a packet sealed for another round."""
    try:
        sender, absent, _, _ = decode_agg_body(body)
    except ValueError as exc:
        raise AuthFailure(f"malformed aggregation packet: {exc}") from exc
    return _open_at(channel, round_no, body, 0, sender, len(absent), bound)


def keep_child_packet(
    kept: dict[int, AggPacket], channels: dict[int, crypto.Keyed], round_no: int,
    data: bytes, at: int, receiver: int,
) -> None:
    """Open the packet that starts at byte ``at`` of data (1 in an AGG frame,
    past its type byte) on the channel of the child it names, for the
    receiver's round, and keep it; its header is read once, for ``_open_at``.
    One too short for a header names no child.  One that names no child or a
    child already kept, or does not open, is ignored with a log line."""
    sender, count = _HEADER.unpack_from(data, at) if len(data) >= at + 8 else (None, 0)
    channel = channels.get(sender)
    if channel is None:
        log.info("node %d: packet from non-child %s ignored", receiver, sender)
    elif sender in kept:
        log.info("node %d: duplicate packet from child %d ignored", receiver, sender)
    else:
        try:
            kept[sender] = _open_at(channel, round_no, data, at, sender, count)
        except AuthFailure as exc:
            log.info("node %d: rejected packet from child %d: %s", receiver, sender, exc)


# === Queries, probes, reaggregation requests ================================


def encode_query(round_no: int, function: str) -> bytes:
    return frame(QUERY, _QUERY.pack(round_no, FUNC_CODES[function]))


def decode_query(body: bytes, at: int = 0) -> tuple[int, str]:
    """Round and function of the query body that starts at byte ``at`` of
    body (1 in a QUERY frame, past its type byte) and runs to its end."""
    if len(body) - at != 9:
        raise ValueError(f"query body of {len(body) - at} bytes, not 9")
    round_no, code = _QUERY.unpack_from(body, at)
    if code not in FUNC_NAMES:
        raise ValueError(f"unknown function code {code}")
    return round_no, FUNC_NAMES[code]


def encode_probe(round_no: int, targets: tuple[int, ...] = ()) -> bytes:
    """A probe; with targets (ascending ids) it is addressed to a relay,
    which fans it out, and without them its addressee answers for itself."""
    return frame(PROBE, struct.pack(f">Q{len(targets)}I", round_no, *targets))


def decode_probe(body: bytes) -> tuple[int, tuple[int, ...]]:
    count, odd = divmod(len(body) - 8, 4)
    if count < 0 or odd:
        raise ValueError(f"probe body of {len(body)} bytes, not 8 plus 4 per target")
    round_no = int.from_bytes(body[:8], "big")
    if not count:
        return round_no, ()
    targets = struct.unpack_from(f">{count}I", body, 8)
    if any(map(ge, targets, targets[1:])):
        raise ValueError("probe targets not strictly ascending")
    return round_no, targets


def _child_block(packets: dict[int, AggPacket]) -> bytes:
    """A probe entry's child block: the count, then each child's packet by
    ascending id, its channel tag left out."""
    parts = [len(packets).to_bytes(4, "big")]
    for cid in sorted(packets):
        pkt = packets[cid]
        parts += cid.to_bytes(4, "big"), _absent_field(pkt.absent), _PAIR_TAG.pack(pkt.dsum, pkt.dsum_prime, pkt.tag)
    return b"".join(parts)


def seal_probe_resp(
    channel: crypto.Keyed, round_no: int, sender: int, absent: tuple[int, ...],
    dsum: int, dsum_prime: int, tag: bytes, child_packets: dict[int, AggPacket],
) -> bytes:
    """A node's probe answer for a round, a one-entry PROBE_RESP frame: the
    child packets it folded, by id, then its own packet sealed on the
    channel with that child block bound into the channel tag."""
    block = _child_block(child_packets)
    return _PROBE_RESP_TYPE + block + seal_packet(channel, round_no, sender, absent, dsum, dsum_prime, tag, block)[1]


def _entry_spans(body: bytes, offset: int = 0) -> list[tuple[int, int, int]]:
    """Where each probe-response entry from offset starts, where its own
    packet starts and where it ends, in order, up to the first entry that
    does not parse.  The one entry walker: it reads each packet's end off its
    absent count and unpacks nothing."""
    spans = []
    end = len(body)
    count = _COUNT.unpack_from
    try:
        while offset < end:
            at = offset + 4
            for _ in range(count(body, offset)[0]):
                at += _CHILD_PACKET_LEN + 4 * count(body, at + 4)[0]
                if at > end:
                    return spans
            stop = at + _PACKET_LEN + 4 * count(body, at + 4)[0]
            if stop > end:
                break
            spans.append((offset, at, stop))
            offset = stop
    except struct.error:  # a count cut short
        pass
    return spans


def _child_packets(body: bytes, start: int, at: int) -> list[AggPacket]:
    """The child packets of the entry that starts at start and has its own
    packet at at (``_entry_spans``), in the order they came."""
    children = []
    offset = start + 4
    while offset < at:
        sender, count = _HEADER.unpack_from(body, offset)
        absent = struct.unpack_from(f">{count}I", body, offset + 8) if count else ()
        offset += _CHILD_PACKET_LEN + 4 * count
        children.append(_new_packet((sender, absent, *_PAIR_TAG.unpack_from(body, offset - _PAIR_TAG.size))))
    return children


def encode_probe_resp(entries: list[bytes]) -> bytes:
    return frame(PROBE_RESP, b"".join(entries))


def bundle_probe_answers(answers: list[bytes | None]) -> bytes | None:
    """What a relay sends up for a probe: the entries of each answer up to
    the first that does not parse, as the bytes that came, in one PROBE_RESP
    frame; None if no entry parses.  A relay only walks the entries to their
    ends (``_entry_spans``), and re-frames none."""
    entries = []
    for answer in answers:
        if answer and answer[0] == PROBE_RESP:
            spans = _entry_spans(answer, 1)
            if spans:
                entries.append(answer[1 : spans[-1][2]])
    return encode_probe_resp(entries) if entries else None


def probe_entry_spans(body: bytes, offset: int = 0) -> list[tuple[int, int, int, list[AggPacket]]]:
    """Where each probe-response entry from offset that parses starts, where
    its packet starts, where it ends, and its child packets, in order.
    Entries carry no length: each ends where its packet's absent count says.
    So parsing stops at the first entry that does not parse, and it and the
    rest are lost, as if dropped on the way.  Raises ValueError when not
    even one entry parses."""
    spans = _entry_spans(body, offset)
    if not spans:
        raise ValueError("truncated probe response")
    return [(start, at, stop, _child_packets(body, start, at)) for start, at, stop in spans]


def decode_probe_resp(body: bytes) -> list[bytes]:
    """The entries that parse, in order (``probe_entry_spans``)."""
    return [body[start:stop] for start, _, stop, _ in probe_entry_spans(body)]


def encode_reagg(round_no: int, exclusions: tuple[int, ...]) -> bytes:
    """A re-aggregation request; exclusions are the addressee's children to
    leave out, ascending ids."""
    return frame(REAGG, struct.pack(f">QI{len(exclusions)}I", round_no, len(exclusions), *exclusions))


def decode_reagg(body: bytes) -> tuple[int, tuple[int, ...]]:
    _need(body, 12, "re-aggregation request")
    round_no, count = struct.unpack_from(">QI", body, 0)
    _need(body, 12 + 4 * count, "re-aggregation request")
    exclusions = struct.unpack_from(f">{count}I", body, 12) if count else ()
    return round_no, exclusions


def encode_reagg_resp(round_no: int, ok: bool, agg_body: bytes = b"") -> bytes:
    return frame(REAGG_RESP, struct.pack(">QB", round_no, int(ok)) + agg_body)


def decode_reagg_resp(body: bytes) -> tuple[int, bool, bytes]:
    _need(body, 9, "re-aggregation response")
    round_no, ok = struct.unpack_from(">QB", body, 0)
    return round_no, bool(ok), body[9:]
