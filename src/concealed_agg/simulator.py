"""Deterministic in-process network simulator.

Every frame of a round crosses one bus, ``World.deliver``, which carries it
between a node and one of its ancestors and charges one message and its
length in bytes per link between them: the difference of their depths.  It
is the only place that counts traffic, and the one seam for a keyless
attacker on the links: a test that cuts, flips or drops frames wraps it.

Data rounds run depth-first off a stack of (src, dst, frame) entries, so a
scenario replays identically for a given seed.  The station's queries are
pushed so that its lowest child pops first.  A node whose QUERY opens the
round pushes an end-of-subtree marker, (node, node, None), beneath the
frames it sends; a leaf, which sends none, gets one too.  The marker pops
only after every frame its subtree sends, and every frame those cause, has
been handled, so the node then emits, and its frame goes to its parent at
once: with every child that reported folded in, and the rest left out as
absent roots.  A single silent node thus costs only its own subtree, never
the whole branch.

Attestation traffic is probes, each a synchronous request and answer,
``World.ask``, over the bus: it happens strictly after the round's data
traffic has drained.  The station is the walk's first relay: for each tree
depth it probes, it fans the depth's targets out over its own links and
walks each link's answer itself.  Below each of its children, a relay asks
a lone target for itself, with one probe without targets over every link to
it and the target's own answer back, and forwards two or more targets in
one request, straight to the deepest node that leads to all of them: a
chain of single-child links is one frame.  A child that is a target is
asked for itself too.  So a request that names targets reaches a relay only
where they branch.  Each relay below the station sends the answers back up
as one bundle, walking each answer's entries to their ends and forwarding
those that parse as the bytes that arrived, so a fault on one branch loses
only that branch's entries.  Each link so carries one request down and one
answer or bundle up per depth at most.  No node is ever asked to
re-aggregate.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

from . import crypto, wire
from .adversary import CompromiseSpec, apply_plan
from .basestation import BaseStation, QueryResult, format_report_line
from .errors import DisconnectedGraph, ProtocolError, ScenarioInvalid, StaleRound
from .node import SensorNode
from .topology import (
    BS_ID,
    Tree,
    adjacency_from_edges,
    build_tree,
    path_graph,
    provision,
    random_geometric_graph,
    random_recursive_tree,
    star_graph,
)

GENERATORS = ("recursive", "geometric", "path", "star")
SEED_LIMIT = 2**64  # seeds lie in [0, SEED_LIMIT): _sub_seed packs one into 8 bytes
ROUND_LIMIT = 2**64  # rounds lie in [1, ROUND_LIMIT): QUERY and next_seed carry 8 bytes
LABEL_LIMIT = 16  # bytes in a _sub_seed label, blake2b's cap on its person parameter


def _sub_seed(master: int, label: str) -> int:
    """Independent stream seeds derived from the scenario seed; the label is
    at most LABEL_LIMIT bytes."""
    import hashlib

    digest = hashlib.blake2b(
        master.to_bytes(8, "big", signed=False), digest_size=8, person=label.encode()
    ).digest()
    return int.from_bytes(digest, "big")


# === Metrics ================================================================


@dataclass
class RoundMetrics:
    round: int
    messages: int = 0
    bytes: int = 0
    seed_regens: int = 0
    probes: int = 0
    verify_ops: int = 0


CSV_COLUMNS = ("round", "messages", "bytes", "seed_regens", "probes")


@dataclass
class Metrics:
    rounds: list[RoundMetrics] = field(default_factory=list)

    def totals(self) -> dict[str, int]:
        return {
            col: sum(getattr(rm, col) for rm in self.rounds)
            for col in CSV_COLUMNS
            if col != "round"
        }

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for rm in self.rounds:
            lines.append(",".join(str(getattr(rm, col)) for col in CSV_COLUMNS))
        totals = self.totals()
        lines.append("total," + ",".join(str(totals[col]) for col in CSV_COLUMNS[1:]))
        return "\n".join(lines) + "\n"


# === Scenarios ==============================================================


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: topology, domain, rounds, attack plan."""

    seed: int = 0
    rounds: int = 1
    function: str = "sum"
    n: int | None = None
    generator: str | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    domain: tuple[float, float, int] = (0.0, 1000.0, 100)
    compromises: tuple[CompromiseSpec, ...] = ()
    trigger_round: int = 1
    audit_prob: float = 0.0  # chance of walking the tree after a passing verdict
    source: str = "<scenario>"

    def validate(self) -> None:
        if not 0 <= self.seed < SEED_LIMIT:
            raise ScenarioInvalid(f"{self.source}: seed {self.seed} outside [0, 2**64)")
        if not 1 <= self.rounds < ROUND_LIMIT:
            raise ScenarioInvalid(f"{self.source}: rounds {self.rounds} outside [1, 2**64)")
        if self.function not in wire.FUNC_CODES:
            raise ScenarioInvalid(f"{self.source}: unknown function {self.function!r}")
        if not 0.0 <= self.audit_prob <= 1.0:
            raise ScenarioInvalid(f"{self.source}: audit probability outside [0, 1]")
        low, high, scale = self.domain
        finite = math.isfinite(low) and math.isfinite(high)
        if not (finite and low < high and type(scale) is int and scale > 0):
            raise ScenarioInvalid(f"{self.source}: bad sensor domain {self.domain}")
        if self.edges is None:
            if self.generator is None or self.n is None:
                raise ScenarioInvalid(f"{self.source}: need explicit edges or a generator with n")
            if self.generator not in GENERATORS:
                raise ScenarioInvalid(f"{self.source}: unknown generator {self.generator!r}")
            if self.n < 1:
                raise ScenarioInvalid(f"{self.source}: need at least one sensor")
        if self.trigger_round < 1:
            raise ScenarioInvalid(f"{self.source}: trigger round must be >= 1")


# === The world ==============================================================


class World:
    """A provisioned network plus base station, ready to run rounds."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        rng_topo = random.Random(_sub_seed(scenario.seed, "topology"))
        try:
            if scenario.edges is not None:
                adjacency = adjacency_from_edges(scenario.edges)
            elif scenario.generator == "recursive":
                adjacency = random_recursive_tree(scenario.n, rng_topo)
            elif scenario.generator == "geometric":
                adjacency = random_geometric_graph(scenario.n, rng_topo)
            elif scenario.generator == "path":
                adjacency = path_graph(scenario.n)
            else:
                adjacency = star_graph(scenario.n)
            self.tree: Tree = build_tree(adjacency)
            del adjacency  # released before the nodes and their keyed states are built
        except (DisconnectedGraph, ValueError) as exc:
            raise ScenarioInvalid(f"{scenario.source}: {exc}") from exc
        if scenario.edges is not None and scenario.n is not None:
            if self.tree.n_sensors != scenario.n:
                raise ScenarioInvalid(
                    f"{scenario.source}: {self.tree.n_sensors} sensors in edges, header says {scenario.n}"
                )
        self.codec = crypto.FixedPointCodec(*scenario.domain)
        if self.tree.n_sensors * self.codec.max_raw >= crypto.MODULUS:
            raise ScenarioInvalid(
                f"{scenario.source}: a sum of {self.tree.n_sensors} readings over the "
                f"sensor domain {scenario.domain} does not fit the 2**64 ring"
            )
        self.prov = prov = provision(self.tree, _sub_seed(scenario.seed, "provision"), self.codec)
        # Each key is keyed once, and both of its holders share the state.
        chains = {nid: crypto.chain_key(*keys) for nid, keys in prov.node_keys.items()}
        edges = {nid: crypto.channel_key(key) for nid, key in prov.edge_keys.items()}
        self.nodes: dict[int, SensorNode] = {}
        for nid in self.tree.sensor_ids:
            children = self.tree.children[nid]
            self.nodes[nid] = SensorNode(
                node_id=nid,
                parent_id=self.tree.parent[nid],
                children=children,
                key=prov.node_keys[nid][0],
                chain=chains[nid],
                edge=edges[nid],
                child_edges={cid: edges[cid] for cid in children},
                origin=prov.origins[nid],
                sense_key=prov.sense_keys[nid],
                codec=self.codec,
            )
        self.bs = BaseStation(self.tree, prov, self.codec, chains, edges)
        try:
            apply_plan(self.nodes, scenario.compromises, scenario.trigger_round)
        except ScenarioInvalid as exc:
            raise ScenarioInvalid(f"{scenario.source}: {exc}") from exc
        self._audit_rng = random.Random(_sub_seed(scenario.seed, "audit"))
        self.metrics = Metrics()
        self.results: list[QueryResult] = []
        self._rm: RoundMetrics | None = None

    # --- the frame bus --------------------------------------------------------

    def deliver(self, src: int, dst: int, payload: bytes) -> bytes | None:
        """Carry one frame from src to dst, a node and one of its ancestors:
        the frame as it arrives, or None if it is lost.  Charges one message
        and len(payload) bytes per link between the two."""
        depth = self.tree.depth
        links = abs(depth[src] - depth[dst])
        rm = self._rm
        rm.messages += links
        rm.bytes += links * len(payload)
        return payload

    def ask(self, src: int, dst: int, request: bytes) -> bytes | None:
        """A probe from src to dst and dst's answer, each over the bus; None
        if either is lost or dst does not answer."""
        request = self.deliver(src, dst, request)
        if request is None:
            return None
        answer = self._answer(dst, request)
        return None if answer is None else self.deliver(dst, src, answer)

    def _answer(self, nid: int, request: bytes) -> bytes | None:
        """nid's answer to a probe.  A probe that names targets is relayed
        (``_fan_out``): nid sends back one bundle of the answers' entries
        that parse, as they arrived, or nothing if none does.  The station
        only relays, and a request that is no probe gets no answer."""
        if not request or request[0] != wire.PROBE:
            return None
        try:
            round_no, targets = wire.decode_probe(request[1:])
        except ValueError:  # a probe that does not parse gets no answer
            return None
        if targets:
            return wire.bundle_probe_answers(self._fan_out(nid, round_no, targets))
        node = self.nodes.get(nid)
        if node is None:
            return None
        try:
            return node.respond_attestation(round_no)
        except ProtocolError:
            return None

    def _fan_out(self, relay: int, round_no: int, targets: tuple[int, ...]) -> list[bytes | None]:
        """The relay asks each target that is its child for itself, and
        below each child a lone target for itself too, over every link to
        it, or two or more with one request, sent to the deepest node that
        leads to all of them; targets outside its subtree get nothing.  The
        answers as they arrived, None for each that was lost, in tour order."""
        tree = self.tree
        pos, size, parent = tree.pos, tree.size, tree.parent
        start = pos[relay]
        end = start + size[relay]
        below = sorted((pos[t], t) for t in targets if t in pos and start < pos[t] < end)
        probe = wire.encode_probe(round_no)
        kids = tree.children[relay]
        kid_pos = [pos[kid] for kid in kids]
        answers = []
        i = 0
        while i < len(below):
            at, target = below[i]
            up = parent[target]
            if up != relay:
                # The targets in the subtree of the relay's child that holds
                # this one are the next ones in tour order, below[i:j]; the
                # deepest node that leads to all of them is the lowest
                # ancestor of this one's parent whose span reaches the last.
                kid = kids[bisect_right(kid_pos, at) - 1]
                j = bisect_left(below, (pos[kid] + size[kid],), i)
                if j > i + 1:
                    last = below[j - 1][0]
                    while pos[up] + size[up] <= last:
                        up = parent[up]
                    group = tuple(sorted(t for _, t in below[i:j]))
                    answers.append(self.ask(relay, up, wire.encode_probe(round_no, group)))
                    i = j
                    continue
            # The relay's child, or the one target below its child.
            answers.append(self.ask(relay, target, probe))
            i += 1
        return answers

    def _run_data_phase(self, round_no: int, queries: list[tuple[int, bytes]]) -> None:
        stack = [(BS_ID, dst, payload) for dst, payload in reversed(queries)]
        nodes, deliver, push, pop = self.nodes, self.deliver, stack.append, stack.pop
        while stack:
            src, dst, payload = pop()
            if payload is None:  # dst's subtree has drained: its frame goes at once
                src = dst
                dst, payload = nodes[src].emit()
            payload = deliver(src, dst, payload)
            if payload is None:
                continue
            if dst == BS_ID:
                msg_type, body = wire.parse_frame(payload)
                if msg_type == wire.AGG:
                    self.bs.receive_packet(body)
                continue
            node = nodes[dst]
            before = node.state
            try:
                outs = node.handle_message(payload)
            except StaleRound:
                continue
            # Only a QUERY opens a round, with a new state; only one that
            # opens the station's round gets a marker.
            state = node.state
            if state is not before and state.round == round_no:
                push((dst, dst, None))  # beneath the frames it sends
            if outs:
                for ndst, npayload in reversed(outs):
                    push((dst, ndst, npayload))

    # --- rounds --------------------------------------------------------------

    def run_round(self, round_no: int) -> QueryResult:
        bs, function = self.bs, self.scenario.function
        queries = bs.disseminate(round_no, function)  # a stale round books no metrics row
        rm = RoundMetrics(round=round_no)
        self.metrics.rounds.append(rm)
        self._rm = rm
        self._run_data_phase(round_no, queries)

        dsum, dsum_prime, claim = bs.finalize(round_no)
        participants = kept = bs.participants(claim)
        ask = partial(self._fan_out, BS_ID)  # the station is the walk's first relay
        integrity, raw_sum, report = "rejected", None, None
        if participants:
            verdict = bs.ipet_check((dsum, dsum_prime), claim, round_no)
            audited = self._audit_rng.random() < self.scenario.audit_prob
            if verdict.equal:
                integrity, raw_sum = "passed", verdict.sum_raw
                if audited:
                    report = bs.com_att(round_no, ask, participants)
            else:
                report = bs.com_att(round_no, ask, participants)
                kept = bs.participants(report.claim)
                if kept:
                    fresh = bs.ipet_check(report.pair, report.claim, round_no, count_ops=False)
                    if fresh.equal:
                        integrity, raw_sum = "attested", fresh.sum_raw
        value = None if raw_sum is None else bs.decode_value(function, raw_sum, kept)
        result = QueryResult(round_no, function, value, kept, integrity, report, raw_sum)
        bs.monitor(participants)
        rm.seed_regens = bs.counters["seed_regens"]
        rm.verify_ops = bs.counters["verify_ops"]
        rm.probes = report.probes if report is not None else 0
        self.results.append(result)
        return result

    def run(self) -> list[QueryResult]:
        for round_no in range(1, self.scenario.rounds + 1):
            self.run_round(round_no)
        return self.results

    def report_text(self) -> str:
        return "".join(format_report_line(r) + "\n" for r in self.results)


# === Scaling experiments =====================================================


@dataclass(frozen=True)
class ScalingRow:
    n: int
    trials: int
    mean_probes: float
    max_probes: int
    mean_depth: float
    mean_messages: float


def _trial_label(n: int, trial: int) -> str:
    return f"scale.{n}.{trial}"


def measure_scaling(
    sizes: tuple[int, ...], trials: int, seed: int = 0, generator: str = "recursive"
) -> list[ScalingRow]:
    """Attestation cost versus network size.

    Each trial: one random tree, one uniformly chosen forging node, one round,
    one audit walk.  The probe count grows with the forger's depth, which is
    logarithmic in n for random recursive trees.  Each trial's seed is
    derived under a label naming its size and index; ScenarioInvalid, before
    any trial runs, if the longest would not fit ``_sub_seed``.
    """
    longest = max((_trial_label(n, trials - 1) for n in sizes), key=len, default="")
    if len(longest.encode()) > LABEL_LIMIT:
        raise ScenarioInvalid(
            f"trial seed label {longest!r} is longer than {LABEL_LIMIT} bytes: "
            "use fewer trials or smaller sizes"
        )
    rows = []
    for n in sizes:
        probe_counts: list[int] = []
        depths: list[float] = []
        messages: list[int] = []
        for trial in range(trials):
            trial_seed = _sub_seed(seed, _trial_label(n, trial))
            rng = random.Random(trial_seed)
            victim = rng.randint(1, n)
            delta = rng.getrandbits(64) | 1
            scenario = Scenario(
                seed=trial_seed,
                rounds=1,
                n=n,
                generator=generator,
                compromises=(CompromiseSpec(victim, "forge_children", (delta,)),),
            )
            world = World(scenario)
            result = world.run()[0]
            probe_counts.append(world.metrics.rounds[0].probes)
            depths.append(
                statistics.fmean(world.tree.depth[v] for v in world.tree.sensor_ids)
            )
            messages.append(world.metrics.rounds[0].messages)
        rows.append(
            ScalingRow(
                n=n,
                trials=trials,
                mean_probes=statistics.fmean(probe_counts),
                max_probes=max(probe_counts),
                mean_depth=statistics.fmean(depths),
                mean_messages=statistics.fmean(messages),
            )
        )
    return rows
