"""Base-station logic: query dissemination, final aggregation, IPET, ComAtt.

The station keeps two things per provisioned node: its key, and how many
rounds in a row it has been absent, from which ``unreachable`` is read.  It
advances each node's seed pair, from the chain key and origin it is built
with, as rounds advance, one keyed PRF call per node and round, keeping
prefix sums of both chains in the tree's Euler-tour order, so the seed sum
of any subtree is a difference of two prefix sums.  Conviction is no node
state: it is each round's outlier list.

Packets name only the roots of the subtrees missing from them.  Every
pair-equality test (IPET), the round's verdict and each probe's, therefore
checks a claim: a root's subtree less its absent roots' subtrees.  Once the
absent roots are confirmed to be disjoint strict descendants of the root, the
claim's seed sums cost O(|absent|) ring operations, constant on an honest
round, in wall-clock time too (the traced ``basestation.verdict_us`` is flat
from n=64 to n=16384); a malformed claim fails the test.  The station derives
a round's participant set once, from its final absent roots; ledger
maintenance is the only per-round work linear in n.

The station is the root of the aggregation tree: it folds in its children's
packets with the same ``wire.keep_child_packet`` every sensor runs.  It is
the root of the attestation walk too, which it runs when the final pair
fails the identical-pair equality test (or an operator forces an audit):
it starts as a node that answered, with its closed fold and kept packets.
Below it and every failing node that answered, one rule selects the
children to probe: those whose reported packet fails IPET at the station,
each pinned to the tag reported for it.  A silent node's children are all
probed, unpinned, and the station probes all of its own when none fails
(an audit).  A probed node must recommit to the packet it emitted: its
resent tag must match its pin and the XOR of its own recomputed MAC with
the tags of the child packets it reports, and its resent pair must pass
IPET over its own claim.  The walk probes one tree depth at a time, with
one request naming every node it probes there and one bundle of their
answers back, each answer still sealed on its own node's direct channel.

Every node that answered and committed, the station included, is then
re-aggregated alike: its answer less its failing children's packets as it
reported them.  For an honest node that is exactly its own re-aggregation
without them, and no node is ever asked for one: a keyed node that
misreports a child's packet gets no more than it could by lying in its own
answer.  A probed node whose re-aggregate passes IPET is exonerated.  The
attested value is the station's re-aggregate plus, top-down, each
exonerated one whose parent was added; the report carries it, and nothing
of the walk stays on the station.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from typing import NamedTuple

from . import crypto, wire
from .errors import AuthFailure, NoSuchRound, StaleRound
from .topology import BS_ID, Tree, Provisioning

log = logging.getLogger(__name__)

ABSENT_THRESHOLD = 3  # absent rounds in a row that make a node unreachable


class Claim(NamedTuple):
    """What an aggregate covers: the subtree of ``root`` less the subtrees of
    the ``absent`` roots."""

    root: int
    absent: tuple[int, ...]


class IpetVerdict(NamedTuple):
    equal: bool
    sum_raw: int


_verdict = partial(tuple.__new__, IpetVerdict)  # IpetVerdict from a field tuple, built in C


@dataclass(frozen=True)
class AttestationReport:
    outliers: frozenset[int]
    non_committed: frozenset[int]
    probes: int
    transcript: tuple[tuple[int, bool, bool], ...]
    pair: tuple[int, int]  # the round's pair and claim without the outliers
    claim: Claim


@dataclass(frozen=True)
class QueryResult:
    round: int
    function: str
    value: float | None
    participants: frozenset[int]
    integrity: str  # passed | attested | rejected
    report: AttestationReport | None = None
    raw_sum: int | None = None


def format_report_line(result: QueryResult) -> str:
    value = "NA" if result.value is None else f"{result.value:.4f}"
    probes = result.report.probes if result.report is not None else 0
    outliers = (
        ",".join(str(i) for i in sorted(result.report.outliers))
        if result.report is not None and result.report.outliers
        else "-"
    )
    return (
        f"round={result.round} function={result.function} value={value} "
        f"n_participants={len(result.participants)} integrity={result.integrity} "
        f"probes={probes} outliers={outliers}"
    )


def _subtract(node: wire.AggPacket, failing: list[wire.AggPacket]) -> wire.AggPacket | None:
    """A node's re-aggregate without its failing children, from their packets:
    its packet with its pair less theirs in the ring, and its absent roots
    less theirs (as multisets) plus their own ids; its tag, which nothing
    reads, stays.  None when some child's absent roots are not among
    the node's, so the child cannot be what the node folded.  For honest
    nodes this is exactly the node's own re-aggregation without them."""
    rest = sorted(node.absent)
    for root in chain.from_iterable(child.absent for child in failing):
        at = bisect_left(rest, root)
        if at == len(rest) or rest[at] != root:
            return None
        del rest[at]
    dsum = node.dsum - sum(child.dsum for child in failing) & crypto.MASK
    dsum_prime = node.dsum_prime - sum(child.dsum_prime for child in failing) & crypto.MASK
    absent = tuple(sorted(rest + [child.sender for child in failing]))
    return wire.AggPacket(node.sender, absent, dsum, dsum_prime, node.tag)


class BaseStation:
    def __init__(
        self,
        tree: Tree,
        prov: Provisioning,
        codec: crypto.FixedPointCodec,
        chains: dict[int, crypto.Keyed],
        edges: dict[int, crypto.Keyed],
    ):
        """``chains`` and ``edges`` (by child id) are the keyed states the
        sensors hold: each key is keyed once and its holders share it."""
        self.tree = tree
        self.codec = codec
        self._keys = {nid: k for nid, (k, _) in prov.node_keys.items()}
        self._child_channels = {cid: edges[cid] for cid in tree.children[BS_ID]}
        # Every round's result keeps its participant set; a claim with no
        # absent roots, the honest round, shares this one.
        self._all_sensors = frozenset(tree.order[1:])
        # A node's direct channel and MAC are keyed on its first probe: most
        # rounds probe no one, and key derivation for every node dominated set-up.
        self._direct: dict[int, tuple[crypto.Keyed, crypto.Keyed]] = {}
        # Seed ledger in tour order: each sensor's D_j << 64 | D'_j at the
        # ledger round, and both chains' prefix sums, where entry i sums the
        # seeds at tour positions below i (the station, at position 0, has none).
        tour = tree.order[1:]
        self._chains = [chains[nid] for nid in tour]
        origins = [prov.origins[nid] for nid in tour]
        self._seeds = [o << 64 | o for o in origins]
        self._prefix_d = self._prefix_dp = [0, 0, *accumulate(origins)]
        self._ledger_round = 0
        self._absent_streak: dict[int, int] = {}  # absent rounds in a row, of nodes absent last round
        self._fold = wire.Fold()  # the station's children's packets in the last round disseminated
        self._last_round = 0
        # Cost counters of the current round, reset when it is disseminated.
        self.counters: dict[str, int] = {"seed_regens": 0, "verify_ops": 0}

    # === Seed ledger ========================================================

    def advance_ledger(self, round_no: int) -> None:
        """Advance every node's seed pair to round_no (maintenance work):
        one keyed PRF call per node and round for both chains."""
        if round_no < self._ledger_round:
            raise ValueError(f"seed ledger cannot rewind to round {round_no}")
        next_seed = crypto.next_seed
        mask = crypto.MASK
        while self._ledger_round < round_no:
            self._ledger_round += 1
            r = self._ledger_round
            self._seeds = seeds = [next_seed(k, pair, r) for k, pair in zip(self._chains, self._seeds)]
            self._prefix_d = [0, 0, *accumulate([pair >> 64 for pair in seeds])]
            self._prefix_dp = [0, 0, *accumulate([pair & mask for pair in seeds])]
            # Seeds regenerated, two per node, though they cost one PRF call.
            self.counters["seed_regens"] += 2 * len(seeds)

    def _claim_seed_sums(self, root: int, absent: tuple[int, ...]) -> tuple[int, int] | None:
        """Both chains' seed sums over a claim at the ledger round, as whole
        numbers (the same mod M), or None if the claim is malformed: an
        absent root that is no node, not a strict descendant of the claim's
        root, or repeated or nested in another."""
        pos, size = self.tree.pos, self.tree.size
        start, end = self.tree.span(root)
        pd, pdp = self._prefix_d, self._prefix_dp
        sd = pd[end] - pd[start]
        sdp = pdp[end] - pdp[start]
        spans = sorted((pos[a], pos[a] + size[a]) for a in absent if a in pos)
        if len(spans) != len(absent):
            return None
        floor = start + 1
        for s, e in spans:
            if s < floor or e > end:
                return None
            sd -= pd[e] - pd[s]
            sdp -= pdp[e] - pdp[s]
            floor = e
        return sd, sdp

    # === Round flow =========================================================

    def disseminate(self, round_no: int, function: str) -> list[tuple[int, bytes]]:
        if round_no <= self._last_round:
            raise StaleRound(f"base station: round {round_no} <= {self._last_round}")
        self._last_round = round_no
        self.counters = dict.fromkeys(self.counters, 0)
        self.advance_ledger(round_no)
        self._fold = wire.Fold()
        query = wire.encode_query(round_no, function)
        return [(cid, query) for cid in self.tree.children[BS_ID]]

    def receive_packet(self, body: bytes) -> None:
        """Fold a child's packet into the current round through the intake
        every parent runs."""
        wire.keep_child_packet(self._fold, self._child_channels, self._last_round, body, 0, BS_ID)

    def finalize(self, round_no: int) -> tuple[int, int, Claim]:
        """Close the fold of the children's packets: the final pair and the
        round's claim, the whole tree less the silent children and every
        absent root the packets name.  NoSuchRound for any round but the
        last one disseminated (round 0 never is)."""
        if round_no != self._last_round or not round_no:
            raise NoSuchRound(f"base station: round {round_no} is not the last disseminated ({self._last_round})")
        dsum, dsum_prime, absent, _ = self._fold.close(self.tree.children[BS_ID])
        return dsum, dsum_prime, Claim(BS_ID, absent)

    def participants(self, claim: Claim) -> frozenset[int]:
        """The sensors a station-level claim covers: all but those in the
        absent roots' subtrees.  Ids that name no sensor are skipped here;
        they fail the claim's IPET."""
        if not claim.absent:
            return self._all_sensors
        order = self.tree.order
        runs = []
        cur = 1  # tour position 0 is the station
        for s, e in sorted(self.tree.span(a) for a in claim.absent if a in self._keys):
            if s > cur:
                runs.append(order[cur:s])
            cur = max(cur, e)
        runs.append(order[cur:])
        return frozenset(chain.from_iterable(runs))

    def ipet_check(
        self, pair: tuple[int, int], claim: Claim, round_no: int, count_ops: bool = True
    ) -> IpetVerdict:
        """Revert both components over the claim's seed sums and compare; a
        malformed claim fails, with its raw sum reported as 0."""
        if round_no != self._ledger_round:
            self.advance_ledger(round_no)  # lands on round_no or raises
        root, absent = claim
        if absent or root != BS_ID:
            sums = self._claim_seed_sums(root, absent)
            if sums is None:
                log.info("base station: malformed absent list %s under %d", absent[:8], root)
                return _verdict((False, 0))
            sd, sdp = sums
        else:  # the whole tree: the ledger's totals
            sd, sdp = self._prefix_d[-1], self._prefix_dp[-1]
        sum_raw = pair[0] - sd & crypto.MASK
        if count_ops:
            # A range sum and a subtraction per absent root on each chain,
            # the root's range sum, two reversions and the comparison.
            self.counters["verify_ops"] += 4 * len(absent) + 2 + 3
        return _verdict((sum_raw == pair[1] - sdp & crypto.MASK, sum_raw))

    # === Attestation ========================================================

    def _bs_keys(self, nid: int) -> tuple[crypto.Keyed, crypto.Keyed]:
        """nid's direct channel to the station and its MAC, keyed once."""
        keys = self._direct.get(nid)
        if keys is None:
            key = self._keys[nid]
            channel = crypto.channel_key(crypto.derive_bs_channel_key(key, nid))
            keys = self._direct[nid] = channel, crypto.mac_key(key)
        return keys

    def _fits(self, root: int, pkt: wire.AggPacket) -> bool:
        """``ipet_check``'s verdict on a packet's pair over its claim under
        root, with the ledger already at the round; a malformed claim fails."""
        _, absent, dsum, dsum_prime, _ = pkt
        if absent:
            sums = self._claim_seed_sums(root, absent)
            if sums is None:
                log.info("base station: malformed absent list %s under %d", absent[:8], root)
                return False
            sd, sdp = sums
        else:
            start = self.tree.pos[root]
            end = start + self.tree.size[root]
            sd, sdp = self._prefix_d[end] - self._prefix_d[start], self._prefix_dp[end] - self._prefix_dp[start]
        return dsum - sd & crypto.MASK == dsum_prime - sdp & crypto.MASK

    def _failing_children(self, nid: int, kids: dict[int, wire.AggPacket]) -> list[int]:
        """The walk's child-selection rule: nid's children, ascending, whose
        packet as nid reports it fails IPET here.  Other ids it reports are
        neither checked nor probed."""
        return [cid for cid in self.tree.children[nid] if cid in kids and not self._fits(cid, kids[cid])]

    def _probe_level(
        self, round_no: int, targets: tuple[int, ...], ask, answered: dict[int, tuple[wire.AggPacket, dict]]
    ) -> dict[int, tuple[wire.AggPacket, tuple[bool, bool], list[wire.AggPacket]]]:
        """Probe one tree depth's targets, one request per link that leads to
        any, and check each answer as it opens; by node, its packet, verdict
        and reported child packets.  A node's entry, matched by the sender it
        names, opens only on its own direct channel and for the round asked
        about, so whoever relays it can drop it, not forge or replay it.  A
        node whose parent answered is pinned to the tag its parent reported
        for it; a silent parent reports nothing, so its children have no pin."""
        wanted = set(targets)
        parent = self.tree.parent
        answers: dict[int, tuple[wire.AggPacket, tuple[bool, bool], list[wire.AggPacket]]] = {}
        for raw in ask(round_no, targets):
            if not raw or raw[0] != wire.PROBE_RESP:
                continue
            try:
                spans = wire.probe_entry_spans(raw, 1)
            except ValueError as exc:
                log.info("base station: probe response rejected: %s", exc)
                continue
            for start, at, stop, reported in spans:
                agg_body = raw[at:stop]
                nid = int.from_bytes(agg_body[:4], "big")
                if nid not in wanted or nid in answers:
                    continue
                channel, mac = self._direct.get(nid) or self._bs_keys(nid)
                try:
                    pkt = wire.open_packet(channel, round_no, agg_body, raw[start:at])
                except AuthFailure as exc:
                    log.info("base station: probe response from %d rejected: %s", nid, exc)
                    continue
                # Committed: its MAC XOR the tags it reports is its tag, and any pin matches.
                calc = int.from_bytes(crypto.mac_pair(mac, pkt.dsum, pkt.dsum_prime), "big")
                for child in reported:
                    calc ^= int.from_bytes(child.tag, "big")
                up = answered.get(parent[nid])
                committed = calc == int.from_bytes(pkt.tag, "big") and (up is None or up[1][nid].tag == pkt.tag)
                answers[nid] = pkt, (committed, self._fits(nid, pkt)), reported
        return answers

    def com_att(self, round_no: int, ask, participants: frozenset[int]) -> AttestationReport:
        """Walk the tree localizing outliers (the divide-and-conquer audit),
        then re-aggregate the round without them; NoSuchRound, as from
        ``finalize``, for any round but the last one disseminated.

        ask(round_no, targets) must send the station's probe of the targets
        down its child links, as their first relay does, and return each
        link's answer as it arrived, None for each that was lost: a bundle
        of the entries of the nodes it names.

        The walk's root is the station, a node that answered with its closed
        fold and kept packets.  It probes one tree depth at a time, with one
        request naming every node it probes there: below the station and
        each failing node that answered, the children ``_failing_children``
        selects, each pinned to the tag reported for it; below a silent
        node, all its children.  The station alone probes all its children
        when none fails (an audit), and only below its children must a
        probed node be a participant.

        The walk keeps one record, each probed node's verdict in probe order:
        whether it committed (its resent tag matches its own MAC folded with
        the tags of the child packets it reports, and its pin, if any) and
        whether its pair passes IPET; it fails unless both hold.  Within a
        depth the record lists the children of each failing node in turn, in
        the order those nodes were recorded, each node's ascending.

        Exoneration re-aggregates each node that answered and committed, the
        station included, less its failing children's packets as it
        reported them.  A probed node whose re-aggregate passes IPET is
        cleared; the outliers are the failed nodes not cleared.  The report
        carries the sets and transcript read off the record, and
        ``reaggregate_final``'s pair and claim.
        """
        dsum, dsum_prime, (_, absent) = self.finalize(round_no)
        self.advance_ledger(round_no)  # once for the walk: a no-op at the round, or raises
        children, packets = self.tree.children, self._fold.child_packets  # parsed once per walk
        # The station and each failing node that answered: its packet and
        # its reported child packets, by id.
        answered = {BS_ID: (wire.AggPacket(BS_ID, absent, dsum, dsum_prime, crypto.ZERO_TAG), packets)}
        verdicts: dict[int, tuple[bool, bool]] = {}  # node -> (committed, ipet_ok)
        # The nodes of one depth in probe order; each is listed once, by its
        # parent, so probes go top-down.
        level = self._failing_children(BS_ID, packets) or sorted(packets)
        while level:
            answers = self._probe_level(round_no, tuple(sorted(level)), ask, answered)
            next_level: list[int] = []
            for nid in level:
                answer = answers.get(nid)
                if answer is None:
                    # Silent (or unopenable) probe: the node cannot commit.
                    verdicts[nid] = (False, False)
                    below = children[nid]
                else:
                    pkt, verdicts[nid], reported = answer
                    if verdicts[nid] == (True, True):
                        continue
                    kids = {child.sender: child for child in reported}
                    answered[nid] = pkt, kids
                    below = self._failing_children(nid, kids)
                next_level += filter(participants.__contains__, below)
            level = next_level

        suspects = {nid for nid, verdict in verdicts.items() if verdict != (True, True)}
        non_committed = frozenset(nid for nid, (committed, _) in verdicts.items() if not committed)

        # Exoneration pass.  Non-committed nodes are dishonest outright and get
        # no second chance.  A failing child was probed because its parent
        # reported it; a node with none reproduces the pair that failed.  The
        # station's re-aggregate is never None (its fold gathered every absent
        # root its children listed); the round's final IPET checks it.
        reaggregates: dict[int, wire.AggPacket] = {}
        for nid, (pkt, kids) in answered.items():
            if nid in non_committed:
                continue
            reagg = _subtract(pkt, [kids[cid] for cid in children[nid] if cid in suspects])
            if reagg is not None and (nid == BS_ID or self._fits(nid, reagg)):
                reaggregates[nid] = reagg
        pair, claim = self.reaggregate_final(reaggregates)
        return AttestationReport(
            outliers=frozenset(suspects.difference(reaggregates)),
            non_committed=non_committed,
            probes=len(verdicts),
            transcript=tuple((nid, *verdict) for nid, verdict in verdicts.items()),
            pair=pair,
            claim=claim,
        )

    def reaggregate_final(self, reaggregates: dict[int, wire.AggPacket]) -> tuple[tuple[int, int], Claim]:
        """The attested pair and claim from the walk's re-aggregates by node,
        with no further exchange: the station's; then, in tour order, each
        cleared node whose parent was added, through its re-aggregate: its
        pair, and its absent roots in place of its own id."""
        root = reaggregates[BS_ID]
        dsum, dsum_prime, absent = root.dsum, root.dsum_prime, list(root.absent)
        added = {BS_ID}
        parent = self.tree.parent
        for nid in sorted(reaggregates, key=self.tree.pos.__getitem__)[1:]:  # the station is first
            # A parent's re-aggregate that did not list nid as absent already
            # holds nid's subtree; adding it again would count it twice.
            if parent[nid] not in added or nid not in absent:
                continue
            reagg = reaggregates[nid]
            added.add(nid)
            dsum = crypto.add_mod(dsum, reagg.dsum)
            dsum_prime = crypto.add_mod(dsum_prime, reagg.dsum_prime)
            absent.remove(nid)
            absent.extend(reagg.absent)
        return (dsum, dsum_prime), Claim(BS_ID, tuple(sorted(absent)))

    # === Liveness and decoding ==============================================

    def monitor(self, list_star: frozenset[int]) -> frozenset[int]:
        """The sensors absent from this round's list; each one's absence
        streak grows by one, and every other sensor's ends.  An honest
        round's list is ``participants``' own set of every sensor: O(1) here."""
        absent = frozenset() if list_star is self._all_sensors else self._all_sensors.difference(list_star)
        streaks = self._absent_streak
        self._absent_streak = {nid: streaks.get(nid, 0) + 1 for nid in absent}
        return absent

    @property
    def unreachable(self) -> frozenset[int]:
        """The sensors absent ABSENT_THRESHOLD or more rounds in a row."""
        return frozenset(nid for nid, streak in self._absent_streak.items() if streak >= ABSENT_THRESHOLD)

    def decode_value(self, function: str, raw_sum: int, participants: frozenset[int]) -> float:
        if function == "mean":
            return self.codec.decode_mean(raw_sum, len(participants))
        return self.codec.decode_sum(raw_sum, len(participants))
