"""The keyless attacker on a link, as one grammar: every fault it can make
on every frame type, named by the frame's fields.

The attacker holds no key; it is the network (Dolev & Yao, 1983).  On a
frame that crosses a link it may

    drop      lose the frame;
    cut       keep only the bytes before one field;
    flip      flip one bit inside one field;
    retype    write another message type into byte 0;
    rewrite   write another id into a sender field.

``field_map`` names a frame's fields and where each lies.  A probe
response's entries are parsed with ``reference_codecs.decode_probe_entry``,
not with the package's own entry walker, so a codec bug cannot hide the
faults it would cause.  Bytes past a frame's last field are not a field.

``fault`` draws a fault and applies it.  Each kind makes a fixed number of
draws, each from a range fixed by the kind, the frame type and the caller's
scope: the field from the type's field names, which occurrence of it (an
entry's, a child packet's) and the bit as 32-bit numbers, the type and the
sender from the caller's choices.  Only then are the draws reduced onto the
frame: the occurrence modulo the frame's count of that field, the bit
modulo the field's width.  So a frame's length never shifts the random
stream, and a change that only resizes frames moves no fault.  A fault aimed
at a field the frame lacks, or a flip aimed at one it leaves empty (an
honest packet's absent ids), goes to the next field of its scope, in
order, that the frame has.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from reference_codecs import decode_probe_entry

from concealed_agg import wire

KINDS = ("drop", "cut", "flip", "retype", "rewrite")
# The message types a retype may write: the package's, and one no receiver knows.
TYPES = (wire.QUERY, wire.AGG, wire.PROBE, wire.PROBE_RESP, wire.REAGG, wire.REAGG_RESP, 0x7F)

_PACKET = ("sender", "absent count", "absent ids", "pair", "channel tag", "tag")
_CHILD_PACKET = ("child sender", "child absent count", "child absent ids", "child pair", "child tag")

# Each frame type's field names, in frame order.  A type not named here
# has one field, its type byte.
FIELDS = {
    wire.QUERY: ("type", "round", "function"),
    wire.AGG: ("type", *_PACKET),
    wire.PROBE: ("type", "round", "targets"),
    wire.PROBE_RESP: ("type", "child count", *_CHILD_PACKET, *_PACKET),
}

# An AGG's fields after its sender: a flip there rewrites no sender.
PAST_SENDER = FIELDS[wire.AGG][2:]
SENDERS = range(64)  # the ids a rewrite draws from unless its caller names some


class Fault(NamedTuple):
    """One fault: its kind, its draws (the field aimed at, which occurrence
    of it, and the bit, type or sender id to write), which depend on the
    kind and the frame's type alone, and the field it hit in the frame at
    hand ("" for a drop, or for a fault the frame had no field to take)."""

    kind: str
    field: str
    at: int
    value: int
    hit: str


def _packet_fields(names: tuple[str, ...], at: int, n_absent: int, sealed: bool) -> list[tuple[str, int, int]]:
    """The fields of a packet (or a probe entry's child packet, not sealed)
    that starts at byte ``at`` and names n_absent absent ids."""
    widths = (4, 4, 4 * n_absent, 16) + ((16,) if sealed else ()) + (8,)
    spans = []
    for name, width in zip(names, widths):
        spans.append((name, at, at + width))
        at += width
    return spans


def field_map(payload: bytes) -> list[tuple[str, int, int]]:
    """Each field of the frame, in order, as (name, start, end) byte
    offsets: as far as the frame's fields go, and only whole fields."""
    if not payload:
        return []
    spans = [("type", 0, 1)]
    kind, size = payload[0], len(payload)
    if kind == wire.QUERY and size >= 10:
        spans += [("round", 1, 9), ("function", 9, 10)]
    elif kind == wire.PROBE and size >= 9:
        spans += [("round", 1, 9), ("targets", 9, 9 + (size - 9) // 4 * 4)]
    elif kind == wire.AGG and size >= 9:
        n_absent = int.from_bytes(payload[5:9], "big")
        packet = _packet_fields(_PACKET, 1, n_absent, True)
        spans += packet if packet[-1][2] <= size else packet[:2]
    elif kind == wire.PROBE_RESP:
        body, offset = payload[1:], 0
        while offset < len(body):
            try:
                children, own, stop = decode_probe_entry(body, offset)
            except ValueError:
                break
            spans.append(("child count", 1 + offset, 5 + offset))
            at = 1 + offset + 4
            for child in children:
                spans += _packet_fields(_CHILD_PACKET, at, len(child.absent), False)
                at = spans[-1][2]
            spans += _packet_fields(_PACKET, 1 + own, int.from_bytes(body[own + 4 : own + 8], "big"), True)
            offset = stop
    return spans


def _aim(spans, names: tuple[str, ...], field: str, at: int) -> tuple[str, int, int] | None:
    """Occurrence ``at``, modulo their count, among spans of the named field,
    or of the next name in names, in order and wrapping, that spans has."""
    start = names.index(field)
    for name in names[start:] + names[:start]:
        found = [span for span in spans if span[0] == name]
        if found:
            return found[at % len(found)]
    return None


def fault(
    rng: random.Random, kind: str, payload: bytes, *,
    flips: tuple[str, ...] | None = None, types: tuple[int, ...] | None = None, senders=SENDERS,
) -> tuple[bytes | None, Fault]:
    """The frame after a fault of the given kind, or None if it is lost, and
    the fault.  flips scopes a flip to some of the frame type's fields
    (default: all of them), types are those a retype may write (default:
    every other one in ``TYPES``), and senders the ids a rewrite may
    write."""
    if kind == "drop":
        return None, Fault(kind, "", 0, 0, "")
    frame_type = payload[0] if payload else None
    names = FIELDS.get(frame_type, ("type",))
    spans = field_map(payload)
    at = value = 0
    if kind == "cut":
        field, at = rng.choice(names), rng.getrandbits(32)
        aimed = _aim(spans, names, field, at)
    elif kind == "flip":
        names = flips or names
        field, at, value = rng.choice(names), rng.getrandbits(32), rng.getrandbits(32)
        aimed = _aim([span for span in spans if span[2] > span[1]], names, field, at)
    elif kind == "retype":
        field, value = "type", rng.choice(types or tuple(t for t in TYPES if t != frame_type))
        aimed = spans[0] if spans else None
    elif kind == "rewrite":
        field, at, value = "sender", rng.getrandbits(32), rng.choice(senders)
        aimed = _aim(spans, (field,), field, at)
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    drawn = Fault(kind, field, at, value, "" if aimed is None else aimed[0])
    if aimed is None:
        return payload, drawn
    _, start, end = aimed
    if kind == "cut":
        return payload[:start], drawn
    if kind == "flip":
        bit = value % (8 * (end - start))
        flipped = bytearray(payload)
        flipped[start + bit // 8] ^= 1 << bit % 8
        return bytes(flipped), drawn
    if kind == "retype":
        return bytes([value]) + payload[1:], drawn
    return payload[:start] + value.to_bytes(4, "big") + payload[end:], drawn
