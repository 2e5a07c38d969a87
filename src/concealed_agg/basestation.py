"""Base-station logic: query dissemination, final aggregation, IPET, ComAtt.

The station owns a registry of every provisioned node (both long-term keys,
the seed-chain origin, liveness status) and maintains each node's current
seed pair incrementally as rounds advance, together with registry-wide seed
sums.  The per-round integrity verdict is then a pair of ring subtractions
and one comparison, plus one subtraction per absent node; the seed ledger
maintenance is what makes the verdict itself O(1).

When the final pair fails the identical-pair equality test (or an operator
forces an audit), the station walks the tree top-down: each probed node must
recommit to the packet it emitted (its resent tag must match the tag pinned
by the parent-side XOR chain, and the XOR of its own recomputed MAC with its
children's tags must reproduce it) and its resent pair must pass IPET over
its own participant list.  Failing nodes have their children enqueued.
Committed nodes that failed only IPET get one chance to exonerate themselves
by re-aggregating with the current outlier set excluded.

The station is the root of the aggregation tree and folds its children's
packets with the same ``wire.fold_packets`` step every sensor runs; the
final re-aggregation is that fold again with the outliers excluded, and
re-aggregation replies are opened by ``wire.open_reagg_reply``.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

from . import crypto, wire
from .errors import (
    AuthFailure,
    DuplicateParticipant,
    EmptyParticipants,
    ReplayDetected,
    StaleRound,
    UnknownParticipant,
)
from .topology import Tree, Provisioning

log = logging.getLogger(__name__)

ALIVE = "alive"
UNREACHABLE = "unreachable"
OUTLIER = "outlier"

DEFAULT_ABSENT_THRESHOLD = 3


@dataclass
class NodeRecord:
    id: int
    key: bytes
    key_prime: bytes
    origin: int
    status: str = ALIVE


@dataclass(frozen=True)
class IpetVerdict:
    equal: bool
    sum_raw: int
    sum_prime_raw: int


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


@dataclass
class _Probe:
    """Everything learned from one answered probe."""

    node: int
    pair: tuple[int, int]
    participants: tuple[int, ...]
    resent_tag: bytes
    child_tags: dict[int, bytes]


class BaseStation:
    def __init__(
        self,
        tree: Tree,
        prov: Provisioning,
        codec: crypto.FixedPointCodec,
        absent_threshold: int = DEFAULT_ABSENT_THRESHOLD,
    ):
        self.tree = tree
        self.codec = codec
        self.absent_threshold = absent_threshold
        self.registry: dict[int, NodeRecord] = {
            nid: NodeRecord(nid, k, kp, prov.origins[nid])
            for nid, (k, kp) in prov.node_keys.items()
        }
        self._child_channels = {
            cid: crypto.SecureChannel(prov.edge_keys[cid]) for cid in tree.children[tree.root]
        }
        self._bs_channels = {
            nid: crypto.SecureChannel(crypto.derive_bs_channel_key(rec.key, nid))
            for nid, rec in self.registry.items()
        }
        # Seed ledger: each node's (D_j, D'_j) at the current ledger round,
        # plus registry-wide sums of both components.
        self._seeds: dict[int, tuple[int, int]] = {
            nid: (rec.origin, rec.origin) for nid, rec in self.registry.items()
        }
        self._ledger_round = 0
        self._total_d = sum(d for d, _ in self._seeds.values()) & crypto.MASK
        self._total_dp = sum(dp for _, dp in self._seeds.values()) & crypto.MASK
        self._absent_streak: dict[int, int] = {nid: 0 for nid in self.registry}
        self._round_packets: dict[int, wire.AggPacket] = {}
        self._last_round = 0
        # Cost counters, reset by the caller as it sees fit.
        self.counters: dict[str, int] = {"seed_regens": 0, "verify_ops": 0}

    # === Seed ledger ========================================================

    def advance_ledger(self, round_no: int) -> None:
        """Advance every registry seed chain to round_no (maintenance work)."""
        if round_no < self._ledger_round:
            raise ValueError(f"seed ledger cannot rewind to round {round_no}")
        while self._ledger_round < round_no:
            self._ledger_round += 1
            total_d = 0
            total_dp = 0
            for nid, (d, dp) in self._seeds.items():
                rec = self.registry[nid]
                d = crypto.next_seed(rec.key, d, self._ledger_round)
                dp = crypto.next_seed(rec.key_prime, dp, self._ledger_round)
                self._seeds[nid] = (d, dp)
                total_d += d
                total_dp += dp
            self._total_d = total_d & crypto.MASK
            self._total_dp = total_dp & crypto.MASK
            self.counters["seed_regens"] += 2 * len(self._seeds)

    def seed_sums(self, participants: frozenset[int], count_ops: bool = True) -> tuple[int, int]:
        """Seed sums over the participant set at the ledger round.

        Uses registry totals minus absentees when that is cheaper, which is
        what keeps the honest-path verdict constant-time.
        """
        absent = [nid for nid in self._seeds if nid not in participants]
        ops = 0
        if len(absent) <= len(participants):
            sd, sdp = self._total_d, self._total_dp
            for nid in absent:
                d, dp = self._seeds[nid]
                sd = crypto.sub_mod(sd, d)
                sdp = crypto.sub_mod(sdp, dp)
            ops = 2 * len(absent)
        else:
            sd = sdp = 0
            for nid in participants:
                d, dp = self._seeds[nid]
                sd = crypto.add_mod(sd, d)
                sdp = crypto.add_mod(sdp, dp)
            ops = 2 * len(participants)
        if count_ops:
            self.counters["verify_ops"] += ops
        return sd, sdp

    # === Round flow =========================================================

    def disseminate(self, round_no: int, function: str) -> list[tuple[int, bytes]]:
        if round_no <= self._last_round:
            raise StaleRound(f"base station: round {round_no} <= {self._last_round}")
        self._last_round = round_no
        self.advance_ledger(round_no)
        self._round_packets = {}
        query = wire.encode_query(round_no, function)
        return [(cid, query) for cid in self.tree.children[self.tree.root]]

    def receive_packet(self, body: bytes) -> None:
        sender = wire.decode_agg_body(body)[0]
        channel = self._child_channels.get(sender)
        if channel is None:
            log.info("base station: packet from non-child %d ignored", sender)
            return
        if sender in self._round_packets:
            log.info("base station: duplicate packet from child %d ignored", sender)
            return
        try:
            self._round_packets[sender] = wire.open_packet(channel, body)
        except (ReplayDetected, AuthFailure) as exc:
            log.info("base station: rejected packet from child %d: %s", sender, exc)

    def packets(self) -> dict[int, wire.AggPacket]:
        return dict(self._round_packets)

    def finalize(self, round_no: int) -> tuple[int, int, frozenset[int]]:
        """Fold children packets into the final pair and participant union."""
        fold = wire.fold_packets(self._round_packets)
        if fold.overlap:
            raise DuplicateParticipant(f"round {round_no}: a node id appears in two sibling lists")
        return fold.dsum, fold.dsum_prime, frozenset(fold.participants)

    def ipet_check(
        self,
        pair: tuple[int, int],
        participants: frozenset[int],
        round_no: int,
        count_ops: bool = True,
    ) -> IpetVerdict:
        """Revert both components over the participants' seed sums and compare."""
        unknown = set(participants) - set(self.registry)
        if unknown:
            raise UnknownParticipant(f"no registry record for {sorted(unknown)[:4]}")
        self.advance_ledger(round_no)
        if round_no != self._ledger_round:
            raise ValueError(f"seed ledger at round {self._ledger_round}, not {round_no}")
        sd, sdp = self.seed_sums(participants, count_ops=count_ops)
        sum_raw = crypto.undiffuse(pair[0], sd)
        sum_prime_raw = crypto.undiffuse(pair[1], sdp)
        if count_ops:
            self.counters["verify_ops"] += 3  # two reversions plus the comparison
        return IpetVerdict(sum_raw == sum_prime_raw, sum_raw, sum_prime_raw)

    # === Attestation ========================================================

    def _open_probe_response(self, nid: int, raw: bytes | None) -> _Probe | None:
        if raw is None:
            return None
        try:
            msg_type, body = wire.parse_frame(raw)
            if msg_type != wire.PROBE_RESP:
                return None
            _, child_tags, agg_body = wire.decode_probe_resp(body)
            pkt = wire.open_packet(self._bs_channels[nid], agg_body)
        except (ReplayDetected, AuthFailure, ValueError) as exc:
            log.info("base station: probe response from %d rejected: %s", nid, exc)
            return None
        return _Probe(nid, (pkt.dsum, pkt.dsum_prime), pkt.participants, pkt.tag, child_tags)

    def com_att(self, round_no: int, exchange) -> AttestationReport:
        """Walk the tree localizing outliers (the divide-and-conquer audit).

        exchange(node_id, payload) must deliver a probe or re-aggregation
        request to the node and return its response bytes, or None if the
        node stays silent.
        """
        packets = self._round_packets
        all_participants = wire.fold_packets(packets).participants
        expected_tag: dict[int, bytes | None] = {cid: packets[cid].tag for cid in packets}
        queue: deque[int] = deque(sorted(packets))
        enqueued: set[int] = set(queue)
        transcript: list[tuple[int, bool, bool]] = []
        probe_order: list[int] = []
        list_l: set[int] = set()
        list_c: set[int] = set()

        def enqueue_children(parent: int, vouched: dict[int, bytes] | None) -> None:
            tags = vouched if vouched is not None else {}
            candidates = tags.keys() if vouched is not None else self.tree.children.get(parent, ())
            for cid in sorted(candidates):
                if cid in all_participants and cid not in enqueued:
                    expected_tag[cid] = tags.get(cid)
                    enqueued.add(cid)
                    queue.append(cid)

        while queue:
            nid = queue.popleft()
            probe_order.append(nid)
            probe = self._open_probe_response(nid, exchange(nid, wire.encode_probe(round_no)))
            if probe is None:
                # Silent (or unopenable) probe: the node cannot commit.
                transcript.append((nid, False, False))
                list_l.add(nid)
                list_c.add(nid)
                enqueue_children(nid, None)
                continue
            mac_calc = crypto.combine_macs(
                crypto.mac_pair(self.registry[nid].key, *probe.pair),
                list(probe.child_tags.values()),
            )
            committed = mac_calc == probe.resent_tag
            pinned = expected_tag.get(nid)
            if pinned is not None:
                committed = committed and probe.resent_tag == pinned
            try:
                ipet_ok = self.ipet_check(
                    probe.pair, frozenset(probe.participants), round_no, count_ops=False
                ).equal
            except UnknownParticipant:
                ipet_ok = False
            transcript.append((nid, committed, ipet_ok))
            if committed and ipet_ok:
                continue
            list_l.add(nid)
            if not committed:
                list_c.add(nid)
            enqueue_children(nid, probe.child_tags)

        # Exoneration pass: committed nodes that failed only IPET re-aggregate
        # with the current outlier set excluded; non-committed nodes are
        # dishonest outright and get no second chance.
        for nid in probe_order:
            if nid not in list_l or nid in list_c:
                continue
            exclusions = frozenset(list_l - {nid})
            pkt = self._open_reagg_response(nid, exchange, round_no, exclusions)
            if pkt is None:
                continue
            verdict = self.ipet_check(
                (pkt.dsum, pkt.dsum_prime), frozenset(pkt.participants), round_no, count_ops=False
            )
            if verdict.equal:
                list_l.discard(nid)

        for nid in list_l:
            self.registry[nid].status = OUTLIER
        return AttestationReport(
            outliers=frozenset(list_l),
            non_committed=frozenset(list_c & list_l),
            probes=len(transcript),
            transcript=tuple(transcript),
        )

    def _open_reagg_response(
        self, nid: int, exchange, round_no: int, exclusions: frozenset[int]
    ) -> wire.AggPacket | None:
        raw = exchange(nid, wire.encode_reagg(round_no, tuple(sorted(exclusions))))
        return wire.open_reagg_reply(self._bs_channels[nid], raw)

    def reaggregate_final(
        self, round_no: int, exclusions: frozenset[int], exchange
    ) -> tuple[tuple[int, int], frozenset[int]]:
        """Rebuild the final pair with the outlier subtrees removed.

        Children whose subtrees are clean contribute their original packets;
        children containing exclusions are asked to re-aggregate; excluded or
        unresponsive children are dropped wholesale.
        """
        fold = wire.fold_packets(
            self._round_packets,
            exclusions,
            lambda cid: self._open_reagg_response(cid, exchange, round_no, exclusions),
        )
        return (fold.dsum, fold.dsum_prime), frozenset(fold.participants)

    # === Liveness and decoding ==============================================

    def monitor(self, list_star: frozenset[int]) -> frozenset[int]:
        """Track per-round absence; persistent absentees become unreachable.

        Outlier status set by attestation takes precedence and is never
        downgraded here.
        """
        absent = frozenset(nid for nid in self.registry if nid not in list_star)
        for nid, rec in self.registry.items():
            if nid in absent:
                self._absent_streak[nid] += 1
                if self._absent_streak[nid] >= self.absent_threshold and rec.status == ALIVE:
                    rec.status = UNREACHABLE
            else:
                self._absent_streak[nid] = 0
                if rec.status == UNREACHABLE:
                    rec.status = ALIVE
        return absent

    def decode_value(self, function: str, raw_sum: int, participants: frozenset[int]) -> float:
        if not participants:
            raise EmptyParticipants("no participants to decode")
        if function == "mean":
            return self.codec.decode_mean(raw_sum, len(participants))
        return self.codec.decode_sum(raw_sum, len(participants))
