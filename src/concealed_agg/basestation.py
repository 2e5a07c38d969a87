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
round; a malformed claim fails the test.  The station derives a round's
participant set once, from its final absent roots; ledger maintenance is
the only per-round work linear in n.

When the final pair fails the identical-pair equality test (or an operator
forces an audit), the station walks the tree top-down: each probed node must
recommit to the packet it emitted (its resent tag must match the tag pinned
by the parent-side XOR chain, and the XOR of its own recomputed MAC with its
children's tags must reproduce it) and its resent pair must pass IPET over
its own claim.  Failing nodes have their children enqueued.  The walk probes
siblings as a group, with one request through their parent and one bundle
of their answers back, each answer still sealed on its own node's direct
channel.  Only tree children of a failing node are probed, so every probed
node's parent is the station or a failing probed node.  A committed node
that failed only IPET, and has failing children, gets one chance to be
exonerated by a re-aggregate without them.  When all those children
committed, the station forms it from the answers it holds: the node's pair
less theirs, and its absent roots less theirs plus their ids; for honest
nodes that is exactly the node's own re-aggregation, at no network cost.
Otherwise, or if that result fails IPET (a keyed child can lie about its
pair or absent roots and still commit), the station asks the node itself.

The station is the root of the aggregation tree and takes in its children's
packets with the same ``wire.keep_child_packet`` and ``wire.fold_packets``
every sensor runs.  The attested value costs no further exchange: the
station folds its children that did not fail, then adds back, top-down, each
exonerated node whose parent was added, using the re-aggregate packet that
cleared it.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

from . import crypto, wire
from .errors import AuthFailure, ReplayDetected, StaleRound
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


@dataclass(frozen=True)
class AttestationReport:
    outliers: frozenset[int]
    non_committed: frozenset[int]
    probes: int
    transcript: tuple[tuple[int, bool, bool], ...]


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
    """A node's re-aggregate without its failing children, from their answers:
    its packet with its pair less theirs in the ring, and its absent roots
    less theirs (as multisets) plus their own ids; its counter and tag, which
    nothing reads, stay.  None when some child's absent roots are not among
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
    return wire.AggPacket(node.sender, node.counter, absent, dsum, dsum_prime, node.tag)


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
        self._child_channels = {
            cid: crypto.SecureChannel(edges[cid]) for cid in tree.children[BS_ID]
        }
        # Every round's result keeps its participant set; a claim with no
        # absent roots, the honest round, shares this one.
        self._all_sensors = frozenset(tree.order[1:])
        # A node's direct channel and MAC are keyed on its first probe: most
        # rounds probe no one, and key derivation for every node dominated set-up.
        self._direct: dict[int, tuple[crypto.SecureChannel, crypto.Keyed]] = {}
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
        self._round_packets: dict[int, wire.AggPacket] = {}
        # The re-aggregate packets that exonerated nodes in this round's walk.
        self._cleared: dict[int, wire.AggPacket] = {}
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
        """Both chains' seed sums over a claim at the ledger round, or None if
        the claim is malformed: an absent root that is no node, not a strict
        descendant of the claim's root, or repeated or nested in another."""
        pos, size = self.tree.pos, self.tree.size
        start = pos[root]
        end = start + size[root]
        pd, pdp = self._prefix_d, self._prefix_dp
        sd = pd[end] - pd[start]
        sdp = pdp[end] - pdp[start]
        if not absent:
            return sd & crypto.MASK, sdp & crypto.MASK
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
        return sd & crypto.MASK, sdp & crypto.MASK

    # === Round flow =========================================================

    def disseminate(self, round_no: int, function: str) -> list[tuple[int, bytes]]:
        if round_no <= self._last_round:
            raise StaleRound(f"base station: round {round_no} <= {self._last_round}")
        self._last_round = round_no
        self.counters = dict.fromkeys(self.counters, 0)
        self.advance_ledger(round_no)
        self._round_packets = {}
        self._cleared = {}
        query = wire.encode_query(round_no, function)
        return [(cid, query) for cid in self.tree.children[BS_ID]]

    def receive_packet(self, body: bytes) -> None:
        """Keep a child's packet through the intake every parent runs."""
        wire.keep_child_packet(self._round_packets, self._child_channels, body, BS_ID)

    def finalize(self, round_no: int) -> tuple[int, int, Claim]:
        """Fold the children's packets into the final pair and the round's
        claim: the whole tree less the silent children and every absent root
        the packets name."""
        dsum, dsum_prime, absent, _ = wire.fold_packets(self._round_packets, self.tree.children[BS_ID])
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
        self,
        pair: tuple[int, int],
        claim: Claim,
        round_no: int,
        count_ops: bool = True,
    ) -> IpetVerdict:
        """Revert both components over the claim's seed sums and compare.

        A malformed claim fails, with its raw sum reported as 0.
        """
        if round_no != self._ledger_round:
            self.advance_ledger(round_no)  # lands on round_no or raises
        root, absent = claim
        sums = self._claim_seed_sums(root, absent)
        if sums is None:
            log.info("base station: malformed absent list %s under %d", absent[:8], root)
            return IpetVerdict(False, 0)
        sum_raw = crypto.undiffuse(pair[0], sums[0])
        if count_ops:
            # A range sum and a subtraction per absent root on each chain,
            # the root's range sum, two reversions and the comparison.
            self.counters["verify_ops"] += 4 * len(absent) + 2 + 3
        return IpetVerdict(sum_raw == crypto.undiffuse(pair[1], sums[1]), sum_raw)

    # === Attestation ========================================================

    def _bs_keys(self, nid: int) -> tuple[crypto.SecureChannel, crypto.Keyed]:
        """nid's direct channel to the station and its MAC, keyed once."""
        keys = self._direct.get(nid)
        if keys is None:
            key = self._keys[nid]
            channel = crypto.SecureChannel(crypto.channel_key(crypto.derive_bs_channel_key(key, nid)))
            keys = self._direct[nid] = channel, crypto.mac_key(key)
        return keys

    def _fits(self, root: int, pkt: wire.AggPacket) -> bool:
        """``ipet_check``'s verdict on a packet's pair over its claim under
        root, with the ledger already at the round; a malformed claim fails."""
        sums = self._claim_seed_sums(root, pkt.absent)
        if sums is None:
            log.info("base station: malformed absent list %s under %d", pkt.absent[:8], root)
            return False
        return (pkt.dsum - sums[0]) & crypto.MASK == (pkt.dsum_prime - sums[1]) & crypto.MASK

    def _probe_group(
        self, round_no: int, parent: int, targets: tuple[int, ...], ask, pinned: dict[int, int]
    ) -> dict[int, tuple[wire.AggPacket, tuple[bool, bool], bytes]]:
        """Probe sibling targets through their parent and check each answer as
        it opens; by node, its packet, verdict and child-tag block.  A node's
        entry, matched by the sender it names, opens only on the node's own
        direct channel, so whoever relays the bundle can drop it, not forge it."""
        raw = ask(parent, wire.encode_probe(round_no, targets))
        if not raw or raw[0] != wire.PROBE_RESP:
            return {}
        body = raw[1:]
        try:
            spans = wire.probe_entry_spans(body)
        except ValueError as exc:
            log.info("base station: probe response via %d rejected: %s", parent, exc)
            return {}
        wanted = set(targets)
        answers: dict[int, tuple[wire.AggPacket, tuple[bool, bool], bytes]] = {}
        for start, at, stop in spans:
            agg_body = body[at:stop]
            nid = int.from_bytes(agg_body[:4], "big")
            if nid not in wanted or nid in answers:
                continue
            bound = body[start + 4 : at]
            channel, mac = self._direct.get(nid) or self._bs_keys(nid)
            try:
                pkt = wire.open_packet(channel, agg_body, bound)
            except (ReplayDetected, AuthFailure) as exc:
                log.info("base station: probe response from %d rejected: %s", nid, exc)
                continue
            # Committed: its MAC XOR the child tags it vouches for is its tag, and any pin matches.
            calc = int.from_bytes(crypto.mac_pair(mac, pkt.dsum, pkt.dsum_prime), "big")
            for _, child_tag in wire.iter_child_tags(bound):
                calc ^= child_tag
            tag = int.from_bytes(pkt.tag, "big")
            answers[nid] = pkt, (calc == tag == pinned.get(nid, tag), self._fits(nid, pkt)), bound
        return answers

    def com_att(self, round_no: int, ask, participants: frozenset[int]) -> AttestationReport:
        """Walk the tree localizing outliers (the divide-and-conquer audit).

        ask(node_id, request) must carry a request from the station to the
        node and return its answer, or None if nothing comes back: a probe
        naming a sibling group goes to the group's parent (the station for its
        own children) and returns the bundle of their answers, a
        re-aggregation request goes to the node itself.  Groups are probed in
        the order they are found, and only the round's participants are probed
        below the station's children.

        The walk keeps one record, each probed node's verdict in probe order:
        whether it committed (its resent tag matches its own MAC folded with
        the child tags it vouches for, and the tag pinned for it, if any) and
        whether its pair passes IPET.  A node fails unless both hold, and then
        its children are probed: all of them if it was silent, else those it
        vouches for, each pinned to the tag it vouched.  The report's sets and
        transcript are read off that record once the walk ends.

        Exoneration then tries each committed node that failed only IPET on
        the station's subtraction of its failing children's answers from its
        own, and sends the node a re-aggregation request only when that cannot
        clear it.  The outliers are the failed nodes it does not clear.
        """
        self.advance_ledger(round_no)  # once for the walk: a no-op at the round, or raises
        packets, children = self._round_packets, self.tree.children
        verdicts: dict[int, tuple[bool, bool]] = {}  # node -> (committed, ipet_ok)
        # The tag each probed node must resend, as an integer: the one in the
        # packet the station holds from it, or the one its parent vouched for.
        # A silent node vouches for nothing, so its children have no pin.
        pinned = {cid: int.from_bytes(pkt.tag, "big") for cid, pkt in packets.items()}
        answered: dict[int, wire.AggPacket] = {}
        # Sibling groups in probe order: (parent, ascending target ids).  Each
        # node is enqueued once, by its parent, so probes go top-down.
        queue: deque[tuple[int, tuple[int, ...]]] = deque()
        if packets:
            queue.append((BS_ID, tuple(sorted(packets))))
        while queue:
            parent, group = queue.popleft()
            answers = self._probe_group(round_no, parent, group, ask, pinned)
            for nid in group:
                answer = answers.get(nid)
                if answer is None:
                    # Silent (or unopenable) probe: the node cannot commit.
                    verdicts[nid] = (False, False)
                    below = children[nid]
                else:
                    answered[nid], verdicts[nid], bound = answer
                    if verdicts[nid] == (True, True):
                        continue
                    # Only a failing node pins its children; an id it vouches for
                    # that is not its child entered its MAC check, but is not probed.
                    child_tags = dict(wire.iter_child_tags(bound))
                    below = list(filter(child_tags.__contains__, children[nid]))
                    for cid in below:
                        pinned[cid] = child_tags[cid]
                below = tuple(filter(participants.__contains__, below))
                if below:
                    queue.append((nid, below))

        suspects = {nid for nid, verdict in verdicts.items() if verdict != (True, True)}
        non_committed = frozenset(nid for nid, (committed, _) in verdicts.items() if not committed)

        # Exoneration pass.  Non-committed nodes are dishonest outright and get
        # no second chance, and a node with no failing child would only
        # reproduce the pair that just failed.  A subtraction that does not
        # clear the node may be a keyed child's lie, not the node's, so the
        # node is then asked as well.
        for nid, (committed, ipet_ok) in verdicts.items():
            if not committed or ipet_ok:
                continue
            failing = tuple(filter(suspects.__contains__, children[nid]))
            if not failing:
                continue
            reagg = None
            if non_committed.isdisjoint(failing):
                reagg = _subtract(answered[nid], [answered[cid] for cid in failing])
            if reagg is None or not self._fits(nid, reagg):
                raw = ask(nid, wire.encode_reagg(round_no, failing))
                reagg = wire.open_reagg_reply(self._bs_keys(nid)[0], raw)
                if reagg is None or not self._fits(nid, reagg):
                    continue
            self._cleared[nid] = reagg

        return AttestationReport(
            outliers=frozenset(suspects.difference(self._cleared)),
            non_committed=non_committed,
            probes=len(verdicts),
            transcript=tuple((nid, *verdict) for nid, verdict in verdicts.items()),
        )

    def reaggregate_final(self, outliers: frozenset[int]) -> tuple[tuple[int, int], Claim]:
        """The final pair and claim less the outlier subtrees, from what the
        walk holds, with no further exchange.  The station's children that did
        not fail keep their packets; then each exonerated node whose parent
        was added, in tour order, is added through its re-aggregate (which
        left out its failing children): its pair, and its absent roots in
        place of its own id."""
        cleared = self._cleared
        kept = {
            cid: pkt for cid, pkt in self._round_packets.items()
            if cid not in outliers and cid not in cleared
        }
        dsum, dsum_prime, absent, _ = wire.fold_packets(kept, self.tree.children[BS_ID])
        absent = list(absent)
        added = {BS_ID}
        parent = self.tree.parent
        for nid in sorted(cleared, key=self.tree.pos.__getitem__):
            # A parent's re-aggregate that did not list nid as absent already
            # holds nid's subtree; adding it again would count it twice.
            if parent[nid] not in added or nid not in absent:
                continue
            reagg = cleared[nid]
            added.add(nid)
            dsum = crypto.add_mod(dsum, reagg.dsum)
            dsum_prime = crypto.add_mod(dsum_prime, reagg.dsum_prime)
            absent.remove(nid)
            absent.extend(reagg.absent)
        return (dsum, dsum_prime), Claim(BS_ID, tuple(sorted(absent)))

    # === Liveness and decoding ==============================================

    def monitor(self, list_star: frozenset[int]) -> frozenset[int]:
        """The sensors absent from this round's list; each one's absence
        streak grows by one, and every other sensor's ends."""
        absent = self._all_sensors.difference(list_star)
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
