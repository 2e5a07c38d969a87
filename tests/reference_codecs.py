"""Field-by-field reference codecs the tests compare the package against.

The package packs a packet's header once and slices it back out, folds tags
as integers, and walks probe-response entries without unpacking them.  These
build the same bytes, and read the same fields, the plain way.
"""

from __future__ import annotations

import struct

from concealed_agg import crypto, wire


def header_ad(sender: int, absent: tuple[int, ...], tag: bytes) -> bytes:
    """Associated data of an aggregation packet: its clear header fields, the
    packet's bytes [0, 8 + 4 * len(absent)) followed by its tag."""
    return struct.pack(f">II{len(absent)}I", sender, len(absent), *absent) + tag


def combine_macs(own: bytes, children: list[bytes]) -> bytes:
    """XOR-fold child tags into a node's own tag, one ``xor_tags`` at a time."""
    out = own
    for tag in children:
        out = crypto.xor_tags(out, tag)
    return out


def decode_probe_entry(body: bytes, offset: int = 0) -> tuple[list[wire.AggPacket], int, int]:
    """The child packets of the probe-response entry at offset, in the order
    they came, where its own packet starts (its child block, what that
    packet binds, is the bytes before) and where it ends; ValueError if the
    body ends first."""

    def need(end: int) -> None:
        if len(body) < end:
            raise ValueError("truncated probe response entry")

    need(offset + 4)
    (count,) = struct.unpack_from(">I", body, offset)
    at = offset + 4
    children = []
    for _ in range(count):
        need(at + 8)
        sender, n_absent = struct.unpack_from(">II", body, at)
        end = at + 8 + 4 * n_absent + 16 + crypto.TAG_LEN  # absent ids, pair, tag
        need(end)
        absent = struct.unpack_from(f">{n_absent}I", body, at + 8)
        dsum, dsum_prime, tag = struct.unpack_from(f">QQ{crypto.TAG_LEN}s", body, end - 16 - crypto.TAG_LEN)
        children.append(wire.AggPacket(sender, absent, dsum, dsum_prime, tag))
        at = end
    need(at + 8)
    (n_absent,) = struct.unpack_from(">I", body, at + 4)
    stop = at + 8 + 4 * n_absent + wire.SEALED_PAIR_LEN + crypto.TAG_LEN
    need(stop)
    return children, at, stop
