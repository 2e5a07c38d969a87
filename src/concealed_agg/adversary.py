"""Adversary model: compromised-node behaviors and how a scenario arms them.

A behavior is a deterministic function of its compromise, so every
experiment replays bit-for-bit.  Behaviors activate at a trigger round and
stay active afterwards; in particular a forger keeps forging when asked to
re-aggregate, which is what pins it inside the outlier list.

Behavior kinds (BUILDERS gives each one's arguments):

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


# === Compromise kinds =======================================================


def _forge_own(node, trigger_round: int, delta_raw: int) -> Behavior:
    if abs(delta_raw) > node.codec.max_raw:
        raise ScenarioInvalid(f"node {node.node_id}: forge_own takes <delta_raw> no larger in magnitude than "
                              f"the {node.codec.max_raw} raw units a reading can absorb, got {delta_raw}")
    return Behavior("forge_own", trigger_round, delta=delta_raw)


def _forge_children(node, trigger_round: int, delta: int, dual: bool = False) -> Behavior:
    return Behavior("forge_children", trigger_round, delta=delta & crypto.MASK, dual=dual)


def _noncommit(node, trigger_round: int, delta: int | None = None) -> Behavior:
    if delta is None:
        delta = _derived_delta(node.node_id)
    probe_delta = _derived_delta(node.node_id ^ 0x5A5A)
    return Behavior("noncommit", trigger_round, delta=delta & crypto.MASK, probe_delta=probe_delta)


def _replay(node, trigger_round: int, source_round: int) -> Behavior:
    if not 1 <= source_round < trigger_round:
        raise ScenarioInvalid("replay source round must precede the trigger round")
    return Behavior("replay", trigger_round, replay_source=source_round)


def _drop_child(node, trigger_round: int, child: int) -> Behavior:
    if child not in node.children:
        raise ScenarioInvalid(f"node {node.node_id} has no child {child} to drop")
    return Behavior("drop_child", trigger_round, dropped=frozenset({child}))


# kind -> (usage, argument types, builder(node, trigger_round, *args)).  The
# usage's <required> arguments come before its [optional] ones; each argument
# must have exactly its type, so a bool is no integer and only a bool is dual.
BUILDERS = {
    "forge_own": ("<delta_raw>", (int,), _forge_own),
    "forge_children": ("<delta> [dual]", (int, bool), _forge_children),
    "noncommit": ("[delta]", (int,), _noncommit),
    "replay": ("<source_round>", (int,), _replay),
    "drop_child": ("<child>", (int,), _drop_child),
}

KINDS = tuple(BUILDERS)


@dataclass(frozen=True)
class CompromiseSpec:
    node_id: int
    kind: str
    args: tuple = ()


def apply_plan(nodes: dict, compromises: tuple[CompromiseSpec, ...], trigger_round: int) -> None:
    """Attach each compromise's behavior to its node, armed from trigger_round.

    Raises ScenarioInvalid for an unknown node or kind, a node compromised
    twice, or arguments that do not fit the kind.
    """
    seen: set[int] = set()
    for spec in compromises:
        if spec.node_id not in nodes:
            raise ScenarioInvalid(f"compromised node {spec.node_id} not provisioned")
        if spec.node_id in seen:
            raise ScenarioInvalid(f"node {spec.node_id} compromised twice")
        seen.add(spec.node_id)
        if spec.kind not in BUILDERS:
            raise ScenarioInvalid(f"unknown behavior kind {spec.kind!r}")
        usage, types, build = BUILDERS[spec.kind]
        args = spec.args
        if not (
            usage.count("<") <= len(args) <= len(types)
            and all(type(arg) is want for arg, want in zip(args, types))
        ):
            raise ScenarioInvalid(f"node {spec.node_id}: {spec.kind} takes {usage}, got {args}")
        node = nodes[spec.node_id]
        node.behavior = build(node, trigger_round, *args)
