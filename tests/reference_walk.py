"""The attestation walk the plain way, for the tests to compare the station's
lean one against.

The station probes one tree depth at a time, with one request per link that
the simulator's relays fan out and bundle, reads claims off prefix sums and
folds tags as integers.  This asks each node it probes directly
(``respond_attestation``), parses the answer with
``reference_codecs.decode_probe_entry``, opens it with ``crypto.open_sealed``,
folds tags one at a time (``reference_codecs.combine_macs``) and judges each
pair with ``reference_ipet.ipet``: no bundles, no depth batching, no relays
and no prefix sums.  The decisions are the paper's: probe the station's
children whose packet fails, or all of them in an audit; below a node that
fails, probe all its children if it was silent, else those whose reported
packet fails, each held to the tag reported for it; then clear a committed
node that failed only IPET if its answer less its failing children's
packets passes.

It covers fault-free worlds: under link faults the transport decides what
is lost, which a walk without a transport cannot predict.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import reference_codecs
import reference_ipet

from concealed_agg import crypto, wire
from concealed_agg.errors import AuthFailure, ProtocolError
from concealed_agg.simulator import World
from concealed_agg.topology import BS_ID


class Walk(NamedTuple):
    """The walk's decisions, as sets: the nodes judged, those that did not
    commit, those cleared by exoneration (each with the re-aggregate that
    cleared it) and the outliers."""

    judged: frozenset[int]
    non_committed: frozenset[int]
    cleared: dict[int, wire.AggPacket]
    outliers: frozenset[int]


class Round(NamedTuple):
    """A round's outcome from the station's packets: its integrity, its raw
    sum (None unless passed or attested) and its walk (None if none ran)."""

    integrity: str
    raw_sum: int | None
    walk: Walk | None


def _ipet(world: World, pair: tuple[int, int], claim: tuple[int, tuple[int, ...]], round_no: int):
    (equal, sum_raw), _ = reference_ipet.ipet(world, pair, claim, round_no)
    return equal, sum_raw


def passes(world: World, root: int, pkt: wire.AggPacket, round_no: int) -> bool:
    """Whether a packet's pair passes IPET over its claim under root."""
    return _ipet(world, (pkt.dsum, pkt.dsum_prime), (root, pkt.absent), round_no)[0]


def participants(world: World, absent: tuple[int, ...]) -> frozenset[int]:
    """The sensors a station claim covers: all but the absent roots' subtrees."""
    out = set(world.nodes)
    for a in absent:
        if a in world.nodes:
            out -= world.tree.subtree(a)
    return frozenset(out)


def ask(world: World, nid: int, round_no: int) -> tuple[wire.AggPacket, list[wire.AggPacket]] | None:
    """nid's resent packet and the child packets it reports, asked of nid
    directly; None if it does not answer, or its answer does not parse,
    names another sender or does not open on nid's channel to the station."""
    try:
        raw = world.nodes[nid].respond_attestation(round_no)
    except ProtocolError:
        return None
    if not raw or raw[0] != wire.PROBE_RESP:
        return None
    try:
        children, at, stop = reference_codecs.decode_probe_entry(raw, 1)
    except ValueError:
        return None
    sender, count = struct.unpack_from(">II", raw, at)
    absent = struct.unpack_from(f">{count}I", raw, at + 8)
    sealed_at = at + 8 + 4 * count
    sealed, tag = raw[sealed_at : stop - crypto.TAG_LEN], raw[stop - crypto.TAG_LEN : stop]
    if sender != nid:
        return None
    key = world.prov.node_keys[nid][0]
    channel = crypto.channel_key(crypto.derive_bs_channel_key(key, nid))
    ad = reference_codecs.header_ad(sender, absent, tag) + raw[1:at]  # the header, tag and child block
    try:
        pair = crypto.open_sealed(channel, round_no, sealed, ad)
    except AuthFailure:
        return None
    dsum, dsum_prime = struct.unpack(">QQ", pair)
    return wire.AggPacket(sender, absent, dsum, dsum_prime, tag), children


def subtract(pkt: wire.AggPacket, failing: list[wire.AggPacket]) -> wire.AggPacket | None:
    """A node's packet less its failing children's: the pair less theirs mod
    M, and the absent roots less each of theirs, one by one, plus their ids;
    None when the children name an absent root the node does not."""
    rest = list(pkt.absent)
    dsum, dsum_prime = pkt.dsum, pkt.dsum_prime
    for child in failing:
        for root in child.absent:
            if root not in rest:
                return None
            rest.remove(root)
        dsum = crypto.undiffuse(dsum, child.dsum)
        dsum_prime = crypto.undiffuse(dsum_prime, child.dsum_prime)
    rest += [child.sender for child in failing]
    return wire.AggPacket(pkt.sender, tuple(sorted(rest)), dsum, dsum_prime, pkt.tag)


def walk(world: World, round_no: int, packets: dict[int, wire.AggPacket], members: frozenset[int]) -> Walk:
    """The walk over the station's packets from its children, probing only
    members below them."""
    children = world.tree.children
    pins = {cid: pkt.tag for cid, pkt in packets.items()}
    level = {cid for cid, pkt in packets.items() if not passes(world, cid, pkt, round_no)} or set(packets)
    verdicts: dict[int, tuple[bool, bool]] = {}
    answered: dict[int, tuple[wire.AggPacket, dict[int, wire.AggPacket]]] = {}
    while level:
        below: set[int] = set()
        for nid in level:
            answer = ask(world, nid, round_no)
            if answer is None:
                verdicts[nid] = (False, False)
                below.update(children[nid])
                continue
            pkt, reported = answer
            own = crypto.mac_pair(crypto.mac_key(world.prov.node_keys[nid][0]), pkt.dsum, pkt.dsum_prime)
            committed = reference_codecs.combine_macs(own, [c.tag for c in reported]) == pkt.tag
            verdicts[nid] = (committed and pins.get(nid, pkt.tag) == pkt.tag, passes(world, nid, pkt, round_no))
            if verdicts[nid] == (True, True):
                continue
            kids = {c.sender: c for c in reported}
            answered[nid] = pkt, kids
            for cid in children[nid]:
                if cid in kids and not passes(world, cid, kids[cid], round_no):
                    pins[cid] = kids[cid].tag
                    below.add(cid)
        level = below & members

    failed = {nid for nid, verdict in verdicts.items() if verdict != (True, True)}
    cleared = {}
    for nid, (committed, ipet_ok) in verdicts.items():
        if committed and not ipet_ok:
            pkt, kids = answered[nid]
            failing = [kids[cid] for cid in children[nid] if cid in failed]
            reagg = subtract(pkt, failing) if failing else None
            if reagg is not None and passes(world, nid, reagg, round_no):
                cleared[nid] = reagg
    return Walk(
        judged=frozenset(verdicts),
        non_committed=frozenset(nid for nid, (committed, _) in verdicts.items() if not committed),
        cleared=cleared,
        outliers=frozenset(failed - set(cleared)),
    )


def fold(packets: dict[int, wire.AggPacket], children: tuple[int, ...]) -> tuple[tuple[int, int], list[int]]:
    """The ring sum of the children's packets and the absent roots: each
    child without a packet, and every root a packet names."""
    dsum = dsum_prime = 0
    absent: list[int] = []
    for cid in children:
        pkt = packets.get(cid)
        if pkt is None:
            absent.append(cid)
        else:
            dsum, dsum_prime = crypto.add_mod(dsum, pkt.dsum), crypto.add_mod(dsum_prime, pkt.dsum_prime)
            absent += pkt.absent
    return (dsum, dsum_prime), absent


def run(world: World, round_no: int, packets: dict[int, wire.AggPacket], audited: bool) -> Round:
    """The round from the station's packets from its children: its verdict,
    the walk when the verdict fails or the round is audited, and, when it
    fails, the raw sum over what the walk keeps.  The station's children
    that did not fail keep their packets; then, top-down, each cleared node
    whose parent was kept and which is still an absent root comes back
    through its re-aggregate."""
    station = world.tree.children[BS_ID]
    pair, absent = fold(packets, station)
    members = participants(world, tuple(absent))
    if not members:
        return Round("rejected", None, None)
    equal, sum_raw = _ipet(world, pair, (BS_ID, tuple(sorted(absent))), round_no)
    if equal:
        return Round("passed", sum_raw, walk(world, round_no, packets, members) if audited else None)
    result = walk(world, round_no, packets, members)
    dropped = result.outliers | set(result.cleared)
    pair, absent = fold({cid: pkt for cid, pkt in packets.items() if cid not in dropped}, station)
    kept = {BS_ID}
    for nid in sorted(result.cleared, key=world.tree.depth.__getitem__):
        if world.tree.parent[nid] in kept and nid in absent:
            reagg = result.cleared[nid]
            kept.add(nid)
            pair = crypto.add_mod(pair[0], reagg.dsum), crypto.add_mod(pair[1], reagg.dsum_prime)
            absent.remove(nid)
            absent += reagg.absent
    if not participants(world, tuple(absent)):
        return Round("rejected", None, result)
    equal, sum_raw = _ipet(world, pair, (BS_ID, tuple(sorted(absent))), round_no)
    return Round("attested", sum_raw, result) if equal else Round("rejected", None, result)
