"""Adversary model: what a compromised node does at each protocol step.

This is the Dolev–Yao split (Dolev & Yao, 1983): the network belongs to the
attacker, so keyless faults act on the simulator's bus, and a compromised
node is an insider that holds its own keys, so it can lie at any step it
takes and still seal and tag what it sends.  A ``Behavior`` holds one hook
per step.  At each step the node passes the hook its honest value and the
round and uses what the hook returns; a step with no hook stays honest.

  reading   the sensed raw value
  keeps     a child's AGG frame, whole; None drops it
  pair      the folded pair before tagging, at emission
  answer    the probe answer (absent, pair, child_packets) before sealing:
            the child packets kept, by id, as received
  payload   the sealed AGG frame

Each kind a scenario names (BUILDERS gives its arguments) sets only its own
hooks, armed from a trigger round on and deterministic, so every experiment
replays bit-for-bit.

  forge_own       reading + delta, stopping at the sensor domain's edge:
                  consistent under both chains, so invisible to
                  pair-equality checking by design (the documented blind
                  spot), but bounded by the domain.
  forge_children  pair: a ring delta on the first sum, the canonical
                  detectable forgery.  With dual, on both sums: any keyed
                  aggregator can keep its pair consistent this way.
  noncommit       pair as forge_children, and answer: a first sum other than
                  the committed one.
  replay          payload: its source round's frame, whose channel tag
                  fails under the parent's round.
  drop_child      keeps: drops one child's packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import crypto, wire
from .errors import ScenarioInvalid

Hook = Callable[[Any, int], Any]  # (honest value, round) -> the value the node uses


def _honest(value, round_no: int):
    return value


@dataclass(frozen=True)
class Behavior:
    reading: Hook = _honest
    keeps: Hook = _honest
    pair: Hook = _honest
    answer: Hook = _honest
    payload: Hook = _honest


def _armed(trigger_round: int, forge: Callable[[Any], Any]) -> Hook:
    """A hook that forges from trigger_round on and is honest before it."""
    return lambda value, round_no: forge(value) if round_no >= trigger_round else value


def _shift(delta: int, dual: bool = False) -> Callable[[tuple[int, int]], tuple[int, int]]:
    """Adds a ring delta to a pair's first sum, and with dual to both."""
    return lambda pair: (crypto.add_mod(pair[0], delta), crypto.add_mod(pair[1], delta) if dual else pair[1])


def _derived_delta(node_id: int) -> int:
    # Deterministic nonzero ring delta for noncommit's forgery and probe answer.
    return ((node_id * 0x9E3779B97F4A7C15) | 1) & crypto.MASK


# === Compromise kinds =======================================================


def _forge_own(node, trigger_round: int, delta_raw: int) -> Behavior:
    max_raw = node.codec.max_raw
    if abs(delta_raw) > max_raw:
        raise ScenarioInvalid(f"node {node.node_id}: forge_own takes <delta_raw> no larger in magnitude than "
                              f"the {max_raw} raw units a reading can absorb, got {delta_raw}")
    return Behavior(reading=_armed(trigger_round, lambda raw: min(max(raw + delta_raw, 0), max_raw)))


def _forge_children(node, trigger_round: int, delta: int, dual: bool = False) -> Behavior:
    return Behavior(pair=_armed(trigger_round, _shift(delta, dual)))


def _noncommit(node, trigger_round: int, delta: int | None = None) -> Behavior:
    forge = _shift(_derived_delta(node.node_id) if delta is None else delta)
    perturb = _shift(_derived_delta(node.node_id ^ 0x5A5A))
    return Behavior(pair=_armed(trigger_round, forge),
                    answer=_armed(trigger_round, lambda answer: (answer[0], perturb(answer[1]), answer[2])))


def _replay(node, trigger_round: int, source_round: int) -> Behavior:
    if not 1 <= source_round < trigger_round:
        raise ScenarioInvalid("replay source round must precede the trigger round")
    captured = []  # the source round's frame, once sent

    def payload(frame: bytes, round_no: int) -> bytes:
        if round_no == source_round:
            captured.append(frame)
        return captured[0] if captured and round_no >= trigger_round else frame

    return Behavior(payload=payload)


def _drop_child(node, trigger_round: int, child: int) -> Behavior:
    if child not in node.children:
        raise ScenarioInvalid(f"node {node.node_id} has no child {child} to drop")
    return Behavior(keeps=_armed(trigger_round, lambda frame: None if wire.packet_sender(frame, 1) == child else frame))


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
