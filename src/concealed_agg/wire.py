"""Wire formats: the aggregation packet, the message frames, and the fold.

Aggregation packet layout (fixed, cross-implementation stable):

    sender (4B BE) || counter (8B BE) || participant-count (4B BE)
    || sorted participant ids (4B BE each) || sealed payload || tag (8B)

The sealed payload is the dual diffused pair (two 8-byte big-endian words, K
chain first) sealed under the link's channel key, so it has a fixed length of
16 + 16 bytes.  Every payload on the simulator fabric is a one-byte message
type followed by the body.

``fold_packets`` is the one aggregation step every parent runs, the station
included: ring-add the children's pairs, union their participant lists and
collect their tags.  ``open_reagg_reply`` is the one parser of re-aggregation
replies, used by sensors and station alike.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

from . import crypto
from .errors import AuthFailure, ReplayDetected

log = logging.getLogger(__name__)

# Message types on the fabric.
QUERY = 0x01
AGG = 0x02
PROBE = 0x03
PROBE_RESP = 0x04
REAGG = 0x05
REAGG_RESP = 0x06
TIMEOUT = 0x07  # node-local alarm, never crosses a link

SEALED_PAIR_LEN = 16 + crypto.CHANNEL_TAG_LEN

FUNC_CODES = {"sum": 0, "mean": 1}
FUNC_NAMES = {code: name for name, code in FUNC_CODES.items()}


@dataclass(frozen=True)
class AggPacket:
    """Plaintext view of one aggregation packet."""

    sender: int
    counter: int
    participants: tuple[int, ...]
    dsum: int
    dsum_prime: int
    tag: bytes


@dataclass
class Fold:
    """One layer of packets folded together: the ring sum of their pairs, the
    union of their participants, their tags, and whether two lists overlapped."""

    dsum: int
    dsum_prime: int
    participants: set[int]
    tags: list[bytes]
    overlap: bool


def fold_packets(packets: dict[int, AggPacket], exclusions: frozenset[int] = frozenset(), refresh=None) -> Fold:
    """Fold packets keyed by sender, in sender order.

    An excluded sender is dropped.  A packet whose participants meet the
    exclusions is replaced by refresh(sender), and dropped if that returns
    None; whatever refresh raises propagates.
    """
    dsum = dsum_prime = 0
    participants: set[int] = set()
    tags: list[bytes] = []
    overlap = False
    for sender in sorted(packets):
        if sender in exclusions:
            continue
        pkt = packets[sender]
        if exclusions and not exclusions.isdisjoint(pkt.participants):
            pkt = refresh(sender)
            if pkt is None:
                continue
        # A length check rather than an intersection keeps the fold linear.
        expected = len(participants) + len(pkt.participants)
        participants.update(pkt.participants)
        overlap = overlap or len(participants) != expected
        dsum = crypto.add_mod(dsum, pkt.dsum)
        dsum_prime = crypto.add_mod(dsum_prime, pkt.dsum_prime)
        tags.append(pkt.tag)
    return Fold(dsum, dsum_prime, participants, tags, overlap)


def frame(msg_type: int, body: bytes = b"") -> bytes:
    return bytes([msg_type]) + body


def parse_frame(payload: bytes) -> tuple[int, bytes]:
    if not payload:
        raise ValueError("empty payload")
    return payload[0], payload[1:]


# === Aggregation packet =====================================================


def encode_agg_body(sender: int, counter: int, participants: tuple[int, ...], sealed: bytes, tag: bytes) -> bytes:
    head = struct.pack(">IQI", sender, counter, len(participants))
    ids = struct.pack(f">{len(participants)}I", *participants) if participants else b""
    return head + ids + sealed + tag


def decode_agg_body(body: bytes) -> tuple[int, int, tuple[int, ...], bytes, bytes]:
    if len(body) < 16:
        raise ValueError("truncated aggregation packet")
    sender, counter, count = struct.unpack_from(">IQI", body, 0)
    offset = 16
    if len(body) < offset + 4 * count + SEALED_PAIR_LEN + crypto.TAG_LEN:
        raise ValueError("truncated aggregation packet")
    participants = struct.unpack_from(f">{count}I", body, offset) if count else ()
    offset += 4 * count
    sealed = body[offset : offset + SEALED_PAIR_LEN]
    offset += SEALED_PAIR_LEN
    tag = body[offset : offset + crypto.TAG_LEN]
    return sender, counter, participants, sealed, tag


def seal_packet(
    channel: crypto.SecureChannel,
    sender: int,
    participants: tuple[int, ...],
    dsum: int,
    dsum_prime: int,
    tag: bytes,
) -> tuple[AggPacket, bytes]:
    """Seal a pair on the given channel; returns the plaintext view and frame."""
    counter, sealed = channel.seal_next(crypto.pair_bytes(dsum, dsum_prime))
    pkt = AggPacket(sender, counter, tuple(participants), dsum, dsum_prime, tag)
    return pkt, encode_agg_body(sender, counter, pkt.participants, sealed, tag)


def open_packet(channel: crypto.SecureChannel, body: bytes) -> AggPacket:
    """Parse and unseal an aggregation packet received on a channel.

    Raises ReplayDetected / AuthFailure from the channel on bad traffic.
    """
    sender, counter, participants, sealed, tag = decode_agg_body(body)
    pair = channel.open(counter, sealed)
    dsum = int.from_bytes(pair[:8], "big")
    dsum_prime = int.from_bytes(pair[8:16], "big")
    return AggPacket(sender, counter, participants, dsum, dsum_prime, tag)


# === Queries, probes, reaggregation requests ================================


def encode_query(round_no: int, function: str) -> bytes:
    return frame(QUERY, struct.pack(">QB", round_no, FUNC_CODES[function]))


def decode_query(body: bytes) -> tuple[int, str]:
    round_no, code = struct.unpack(">QB", body)
    return round_no, FUNC_NAMES[code]


def encode_probe(round_no: int) -> bytes:
    return frame(PROBE, struct.pack(">Q", round_no))


def decode_probe(body: bytes) -> int:
    return struct.unpack(">Q", body)[0]


def encode_probe_resp(round_no: int, agg_body: bytes, child_tags: dict[int, bytes]) -> bytes:
    tags = b"".join(
        struct.pack(">I", cid) + tag for cid, tag in sorted(child_tags.items())
    )
    return frame(
        PROBE_RESP,
        struct.pack(">QI", round_no, len(child_tags)) + tags + agg_body,
    )


def decode_probe_resp(body: bytes) -> tuple[int, dict[int, bytes], bytes]:
    round_no, count = struct.unpack_from(">QI", body, 0)
    offset = 12
    child_tags: dict[int, bytes] = {}
    for _ in range(count):
        (cid,) = struct.unpack_from(">I", body, offset)
        child_tags[cid] = body[offset + 4 : offset + 4 + crypto.TAG_LEN]
        offset += 4 + crypto.TAG_LEN
    return round_no, child_tags, body[offset:]


def encode_reagg(round_no: int, exclusions: tuple[int, ...]) -> bytes:
    ids = struct.pack(f">{len(exclusions)}I", *exclusions) if exclusions else b""
    return frame(REAGG, struct.pack(">QI", round_no, len(exclusions)) + ids)


def decode_reagg(body: bytes) -> tuple[int, tuple[int, ...]]:
    round_no, count = struct.unpack_from(">QI", body, 0)
    exclusions = struct.unpack_from(f">{count}I", body, 12) if count else ()
    return round_no, exclusions


def encode_reagg_resp(round_no: int, ok: bool, agg_body: bytes = b"") -> bytes:
    return frame(REAGG_RESP, struct.pack(">QB", round_no, int(ok)) + agg_body)


def decode_reagg_resp(body: bytes) -> tuple[int, bool, bytes]:
    round_no, ok = struct.unpack_from(">QB", body, 0)
    return round_no, bool(ok), body[9:]


def open_reagg_reply(channel: crypto.SecureChannel, reply: bytes | None) -> AggPacket | None:
    """The re-aggregated packet in a REAGG_RESP frame, opened on the channel it
    was sealed for; None for silence, a refusal, or a frame that does not parse
    or authenticate."""
    if reply is None:
        return None
    try:
        msg_type, body = parse_frame(reply)
        if msg_type != REAGG_RESP:
            return None
        _, ok, agg_body = decode_reagg_resp(body)
        return open_packet(channel, agg_body) if ok else None
    except (ReplayDetected, AuthFailure, ValueError) as exc:
        log.info("re-aggregation reply rejected: %s", exc)
        return None
