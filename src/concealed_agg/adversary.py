"""Adversary model: compromised-node behaviors and attack plans.

A behavior is a deterministic function of the attack plan, so every
experiment replays bit-for-bit.  Behaviors activate at a trigger round and
stay active afterwards; in particular a forger keeps forging when asked to
re-aggregate, which is what pins it inside the outlier list.

Behavior kinds:

  forge_own       shift the node's own reading before diffusion; the shift is
                  applied consistently under both chains, so it is invisible
                  to pair-equality checking by design (the documented
                  blind spot), but bounded by the sensor domain.
  forge_children  add a ring delta to the emitted first-chain sum only; the
                  canonical detectable forgery.  With dual=True the delta is
                  applied to both chains, which models an adversary who can
                  keep the pair consistent; the simulator only grants that
                  power over data of compromised nodes.
  noncommit       forge like forge_children, and additionally answer probes
                  with a pair different from the committed one.
  replay          resend a captured earlier packet verbatim instead of a
                  fresh one; rejected by the parent's channel counter.
  drop_child      silently discard a specific child's packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto
from .errors import ReadingOutOfRange, ScenarioInvalid

KINDS = ("forge_own", "forge_children", "noncommit", "replay", "drop_child")


def _derived_delta(node_id: int) -> int:
    # Deterministic nonzero ring delta for noncommit probe perturbation.
    return ((node_id * 0x9E3779B97F4A7C15) | 1) & crypto.MASK


@dataclass
class Behavior:
    kind: str
    trigger_round: int = 1
    delta: int = 0  # ring units (forge_children/noncommit) ; raw units (forge_own)
    dual: bool = False
    probe_delta: int = 0
    dropped: frozenset[int] = frozenset()
    replay_source: int | None = None
    _captured: dict[int, bytes] = field(default_factory=dict, repr=False)

    def active(self, round_no: int) -> bool:
        return round_no >= self.trigger_round

    def forge_reading(self, raw: int, round_no: int, codec: crypto.FixedPointCodec) -> int:
        if self.kind != "forge_own" or not self.active(round_no):
            return raw
        forged = raw + self.delta
        if not 0 <= forged <= codec.max_raw:
            raise ReadingOutOfRange(f"forged reading {forged} outside the sensor domain")
        return forged

    def forge_pair(self, dsum: int, dsum_prime: int, round_no: int) -> tuple[int, int]:
        if self.kind not in ("forge_children", "noncommit") or not self.active(round_no):
            return dsum, dsum_prime
        dsum = crypto.add_mod(dsum, self.delta)
        if self.dual:
            dsum_prime = crypto.add_mod(dsum_prime, self.delta)
        return dsum, dsum_prime

    def probe_pair(self, dsum: int, dsum_prime: int, round_no: int) -> tuple[int, int]:
        if self.kind != "noncommit" or not self.active(round_no):
            return dsum, dsum_prime
        return crypto.add_mod(dsum, self.probe_delta), dsum_prime

    def drops_child(self, child: int, round_no: int) -> bool:
        return self.kind == "drop_child" and self.active(round_no) and child in self.dropped

    def emit_payload(self, round_no: int, payload: bytes) -> bytes:
        if self.kind != "replay":
            return payload
        if not self.active(round_no):
            self._captured[round_no] = payload
            return payload
        return self._captured.get(self.replay_source, payload)


# === Behavior constructors (attach to a node, return the behavior) ==========


def forge_children(node, delta: int, *, trigger_round: int = 1, dual: bool = False) -> Behavior:
    node.behavior = Behavior("forge_children", trigger_round, delta=delta & crypto.MASK, dual=dual)
    return node.behavior


def forge_own(node, delta_raw: int, *, trigger_round: int = 1) -> Behavior:
    node.behavior = Behavior("forge_own", trigger_round, delta=delta_raw)
    return node.behavior


def noncommit(node, delta: int | None = None, *, trigger_round: int = 1) -> Behavior:
    if delta is None:
        delta = _derived_delta(node.node_id)
    node.behavior = Behavior(
        "noncommit",
        trigger_round,
        delta=delta & crypto.MASK,
        probe_delta=_derived_delta(node.node_id ^ 0x5A5A),
    )
    return node.behavior


def replay(node, source_round: int, *, trigger_round: int) -> Behavior:
    if not 1 <= source_round < trigger_round:
        raise ScenarioInvalid("replay source round must precede the trigger round")
    node.behavior = Behavior("replay", trigger_round, replay_source=source_round)
    return node.behavior


def drop_child(node, child: int, *, trigger_round: int = 1) -> Behavior:
    if child not in node.children:
        raise ScenarioInvalid(f"node {node.node_id} has no child {child} to drop")
    node.behavior = Behavior("drop_child", trigger_round, dropped=frozenset({child}))
    return node.behavior


# === Attack plans ===========================================================


@dataclass(frozen=True)
class CompromiseSpec:
    node_id: int
    kind: str
    args: tuple = ()


@dataclass(frozen=True)
class AttackPlan:
    compromises: tuple[CompromiseSpec, ...] = ()
    trigger_round: int = 1

    @property
    def compromised(self) -> frozenset[int]:
        return frozenset(spec.node_id for spec in self.compromises)


def apply_plan(nodes: dict, plan: AttackPlan) -> None:
    """Attach plan behaviors to their nodes; validates ids and kinds."""
    seen: set[int] = set()
    for spec in plan.compromises:
        if spec.node_id not in nodes:
            raise ScenarioInvalid(f"compromised node {spec.node_id} not provisioned")
        if spec.node_id in seen:
            raise ScenarioInvalid(f"node {spec.node_id} compromised twice")
        seen.add(spec.node_id)
        node = nodes[spec.node_id]
        trigger = plan.trigger_round
        if spec.kind == "forge_children":
            forge_children(node, int(spec.args[0]), trigger_round=trigger,
                           dual=bool(spec.args[1]) if len(spec.args) > 1 else False)
        elif spec.kind == "forge_own":
            forge_own(node, int(spec.args[0]), trigger_round=trigger)
        elif spec.kind == "noncommit":
            noncommit(node, int(spec.args[0]) if spec.args else None, trigger_round=trigger)
        elif spec.kind == "replay":
            replay(node, int(spec.args[0]), trigger_round=trigger)
        elif spec.kind == "drop_child":
            drop_child(node, int(spec.args[0]), trigger_round=trigger)
        else:
            raise ScenarioInvalid(f"unknown behavior kind {spec.kind!r}")
