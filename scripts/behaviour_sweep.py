#!/usr/bin/env python3
"""Fingerprint the simulator's observable behaviour over randomized worlds.

    PYTHONPATH=src python3 scripts/behaviour_sweep.py [worlds]   # default 104

Each world cycles through the four generators, the five adversary kinds and
three audit settings (off, forced, probability 0.5), runs four rounds, and
half of them carry a second forger.  The script prints one sha256 each over
the reports, the per-round metrics other than bytes (messages, seed
regenerations, probes), the attestation transcripts and the registry
statuses, plus a combined hash of those four.  Bytes per round get a hash of
their own, outside the combined one, so that a wire-format change can be
checked for unchanged behaviour too.  So does the frame order: `frames`
hashes the (source, destination, type, length) of every frame each world
sends over the bus, ``World.deliver``, in the order it sends them, and
`contents` hashes the same frames' ends and every byte of each, so a
change that keeps the wire format byte for byte must keep it.  And
`faults` runs each world again with a seeded keyless attacker on its AGG
frames, which drops, cuts, flips a bit past the sender field of, or retypes
about one in five, and hashes the reports, participants and transcripts of
that run.  It leaves out sender rewrites: which sibling such a rewrite may
cost is the parent's intake rule, not a behaviour to pin.  Run it against
two source trees to check that a refactor left behaviour unchanged: the
hashes must match.
`scripts/behaviour_sweep_520.txt` holds the output over 520 worlds, which CI
diffs against; a change that alters counts or verdicts by design updates it
and says why.  Any
exception other than a ProtocolError ends the script with a traceback.
"""

from __future__ import annotations

import hashlib
import random
import sys

from concealed_agg import wire
from concealed_agg.adversary import KINDS, CompromiseSpec
from concealed_agg.errors import ProtocolError
from concealed_agg.simulator import GENERATORS, Scenario, World

AUDITS = ({}, {"audit_prob": 1.0}, {"audit_prob": 0.5})


def compromises(rng: random.Random, n: int, kind: str, tree) -> list[CompromiseSpec]:
    victim = rng.randint(1, n)
    if kind == "forge_own":
        args = (rng.randint(-40, 40),)
    elif kind == "forge_children":
        args = (rng.getrandbits(64) | 1, True) if rng.random() < 0.25 else (rng.getrandbits(64) | 1,)
    elif kind == "noncommit":
        args = (rng.getrandbits(64),) if rng.random() < 0.5 else ()
    elif kind == "replay":
        args = (1,)
    else:  # drop_child needs an interior node
        interior = [v for v in tree.sensor_ids if tree.children[v]]
        if interior:
            victim = rng.choice(interior)
            args = (rng.choice(tree.children[victim]),)
        else:
            kind, args = "forge_children", (12345,)
    specs = [CompromiseSpec(victim, kind, args)]
    if rng.random() < 0.5:
        other = rng.randint(1, n)
        if other != victim:
            specs.append(CompromiseSpec(other, "forge_children", (rng.getrandbits(64) | 1,)))
    return specs


def _recording(deliver, frames, contents, world_index: int):
    """deliver, first adding each frame's ends, type and length to frames,
    and its ends and bytes to contents."""

    def recorded(src: int, dst: int, payload: bytes) -> bytes | None:
        frames.update(f"{world_index}|{src},{dst},{payload[:1].hex()},{len(payload)}".encode())
        contents.update(f"{world_index}|{src},{dst},{len(payload)}|".encode() + payload)
        return deliver(src, dst, payload)

    return recorded


def _agg_faults(deliver, rng: random.Random):
    """deliver behind a keyless attacker that drops, cuts, flips a bit past
    the sender field of, or retypes about one AGG frame in five.  A retype
    never makes a QUERY, so every run reaches its verdicts."""
    agg = bytes([wire.AGG])

    def faulted(src: int, dst: int, payload: bytes) -> bytes | None:
        if payload[:1] == agg and rng.random() < 0.2:
            fault = rng.randrange(4)
            if fault == 0:
                return None
            if fault == 1:
                payload = payload[: rng.randrange(len(payload))]
            elif fault == 2:
                flipped = bytearray(payload)
                flipped[rng.randrange(5, len(payload))] ^= 1 << rng.randrange(8)
                payload = bytes(flipped)
            else:
                payload = bytes([rng.choice((wire.PROBE, wire.REAGG_RESP, 0x7F))]) + payload[1:]
        return deliver(src, dst, payload)

    return faulted


def _run(scenario: Scenario, wrap) -> tuple[World | None, str]:
    """The world after its rounds, with wrap(world.deliver) as its bus, and
    "ok" or the ProtocolError that ended it (no world if it ended set-up)."""
    world = None
    try:
        world = World(scenario)
        world.deliver = wrap(world.deliver)
        world.run()
        return world, "ok"
    except ProtocolError as exc:
        return world, f"{type(exc).__name__}: {exc}"


def _result_line(i: int, r) -> str:
    rep = r.report
    audit_text = "-" if rep is None else (
        f"{sorted(rep.outliers)}|{sorted(rep.non_committed)}|{rep.probes}|{rep.transcript}"
    )
    return f"{i}|{r.round}|{r.integrity}|{sorted(r.participants)}|{r.raw_sum}|" + audit_text


def fingerprint(worlds: int) -> tuple[dict[str, str], dict[str, int]]:
    """The sweep's hashes (the four parts, combined, bytes, frames, faults,
    contents) and its outcome counts."""
    parts = {name: hashlib.sha256() for name in ("reports", "metrics", "transcripts", "statuses")}
    wire_bytes, frames, faults = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    contents = hashlib.sha256()
    outcomes: dict[str, int] = {}
    for i in range(worlds):
        rng = random.Random(7919 * i + 17)
        gen, kind, audit = GENERATORS[i % 4], KINDS[(i // 4) % 5], AUDITS[i % 3]
        n = rng.randint(6, 48)
        tree = World(Scenario(seed=1000 + i, rounds=4, n=n, generator=gen, **audit)).tree
        trigger = 2 if kind == "replay" else rng.randint(1, 2)
        scenario = Scenario(
            seed=1000 + i, rounds=4, n=n, generator=gen,
            compromises=tuple(compromises(rng, n, kind, tree)), trigger_round=trigger, **audit,
        )
        world, outcome = _run(scenario, lambda deliver: _recording(deliver, frames, contents, i))
        faulted, faulted_outcome = _run(
            scenario, lambda deliver: _agg_faults(deliver, random.Random(7919 * i + 18))
        )
        faults.update(f"{i}|{faulted_outcome}".encode())
        if faulted is not None:
            faults.update(faulted.report_text().encode())
            for r in faulted.results:
                faults.update(_result_line(i, r).encode())
        key = outcome.split(":")[0]
        outcomes[key] = outcomes.get(key, 0) + 1
        if world is None:
            parts["reports"].update(f"{i}|{outcome}".encode())
            continue
        parts["reports"].update(f"{i}|{outcome}|{world.report_text()}".encode())
        for rm in world.metrics.rounds:
            parts["metrics"].update(f"{i}|{rm.round},{rm.messages},{rm.seed_regens},{rm.probes}".encode())
            wire_bytes.update(f"{i}|{rm.round},{rm.bytes}".encode())
        for r in world.results:
            parts["transcripts"].update(_result_line(i, r).encode())
            outcomes[r.integrity] = outcomes.get(r.integrity, 0) + 1
        statuses = sorted((nid, rec.status) for nid, rec in world.bs.registry.items())
        parts["statuses"].update(f"{i}|{statuses}".encode())

    total = hashlib.sha256()
    for h in parts.values():
        total.update(h.digest())
    hashes = {name: h.hexdigest() for name, h in parts.items()}
    hashes["combined"] = total.hexdigest()
    hashes["bytes"] = wire_bytes.hexdigest()
    hashes["frames"] = frames.hexdigest()
    hashes["faults"] = faults.hexdigest()
    hashes["contents"] = contents.hexdigest()
    return hashes, dict(sorted(outcomes.items()))


def main(worlds: int) -> None:
    hashes, outcomes = fingerprint(worlds)
    for name, digest in hashes.items():
        print(f"{name:12s} {digest}")
    print("worlds", worlds, "outcomes", outcomes)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 104)
