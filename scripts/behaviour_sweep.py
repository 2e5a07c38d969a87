#!/usr/bin/env python3
"""Fingerprint the simulator's observable behaviour over randomized worlds.

    PYTHONPATH=src python3 scripts/behaviour_sweep.py [worlds] [--worlds-out FILE]
    PYTHONPATH=src python3 scripts/behaviour_sweep.py --diff A B
    PYTHONPATH=src python3 scripts/behaviour_sweep.py --world I

Each world cycles through the four generators, the five adversary kinds and
three audit settings (off, forced, probability 0.5), runs four rounds, and
half of them carry a second forger.  The script prints one sha256 each over
the reports, the per-round metrics other than bytes (messages, seed
regenerations, probes), the attestation transcripts and each sensor's
liveness after the last round (unreachable or alive, in id order), plus a
combined hash of those four.  Bytes per round get a hash of
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

When they do not, the per-world ledger says where.  `--worlds-out FILE`
writes one JSON line per world: its index, generator, compromise specs and
audit setting, one digest per part over that world's share of the part's
bytes, its outcome, and its result lines (those of the plain run, then those
of the faulted run).  `--diff A B` compares two such ledgers and lists each
world that differs, the parts whose digests differ and its first differing
result line, then a summary; it exits 1 when they differ.  `--world I` runs
one world and prints its result lines.

`scripts/behaviour_sweep_520.txt` holds the output over 520 worlds, which CI
diffs against; a change that alters counts or verdicts by design updates it
and says why.  Any
exception other than a ProtocolError ends the script with a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys

from concealed_agg import wire
from concealed_agg.adversary import KINDS, CompromiseSpec
from concealed_agg.errors import ProtocolError
from concealed_agg.simulator import GENERATORS, Scenario, World

AUDITS = ({}, {"audit_prob": 1.0}, {"audit_prob": 0.5})
# The parts the combined hash covers, in its order, and those hashed apart.
COMBINED_PARTS = ("reports", "metrics", "transcripts", "statuses")
OWN_PARTS = ("bytes", "frames", "faults", "contents")
PARTS = COMBINED_PARTS + OWN_PARTS


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


class _Tee:
    """A hash-like sink that feeds every update to each of its hashes."""

    def __init__(self, *hashes):
        self._hashes = hashes

    def update(self, data: bytes) -> None:
        for h in self._hashes:
            h.update(data)


def _world(i: int, totals: dict, outcomes: dict[str, int]) -> dict:
    """Run world i, feeding each part's bytes to its hash in totals and to
    the world's own, and counting its outcomes; the world's ledger record."""
    own = {name: hashlib.sha256() for name in totals}
    h = {name: _Tee(totals[name], own[name]) for name in totals}
    rng = random.Random(7919 * i + 17)
    gen, kind, audit = GENERATORS[i % 4], KINDS[(i // 4) % 5], AUDITS[i % 3]
    n = rng.randint(6, 48)
    tree = World(Scenario(seed=1000 + i, rounds=4, n=n, generator=gen, **audit)).tree
    trigger = 2 if kind == "replay" else rng.randint(1, 2)
    specs = compromises(rng, n, kind, tree)
    scenario = Scenario(
        seed=1000 + i, rounds=4, n=n, generator=gen,
        compromises=tuple(specs), trigger_round=trigger, **audit,
    )
    world, outcome = _run(scenario, lambda deliver: _recording(deliver, h["frames"], h["contents"], i))
    faulted, faulted_outcome = _run(
        scenario, lambda deliver: _agg_faults(deliver, random.Random(7919 * i + 18))
    )
    h["faults"].update(f"{i}|{faulted_outcome}".encode())
    fault_lines = []
    if faulted is not None:
        h["faults"].update(faulted.report_text().encode())
        fault_lines = [_result_line(i, r) for r in faulted.results]
        for line in fault_lines:
            h["faults"].update(line.encode())
    key = outcome.split(":")[0]
    outcomes[key] = outcomes.get(key, 0) + 1
    lines = []
    if world is None:
        h["reports"].update(f"{i}|{outcome}".encode())
    else:
        h["reports"].update(f"{i}|{outcome}|{world.report_text()}".encode())
        for rm in world.metrics.rounds:
            h["metrics"].update(f"{i}|{rm.round},{rm.messages},{rm.seed_regens},{rm.probes}".encode())
            h["bytes"].update(f"{i}|{rm.round},{rm.bytes}".encode())
        lines = [_result_line(i, r) for r in world.results]
        for r, line in zip(world.results, lines):
            h["transcripts"].update(line.encode())
            outcomes[r.integrity] = outcomes.get(r.integrity, 0) + 1
        unreachable = world.bs.unreachable
        statuses = [(nid, "unreachable" if nid in unreachable else "alive") for nid in world.tree.sensor_ids]
        h["statuses"].update(f"{i}|{statuses}".encode())
    return {
        "world": i,
        "generator": gen,
        "compromises": [[spec.node_id, spec.kind, list(spec.args)] for spec in specs],
        "audit": audit.get("audit_prob"),
        "parts": {name: digest.hexdigest() for name, digest in own.items()},
        "outcome": outcome,
        "lines": lines,
        "fault_lines": fault_lines,
    }


def sweep(worlds: int) -> tuple[dict[str, str], dict[str, int], list[dict]]:
    """The sweep's hashes (the four parts, combined, bytes, frames, faults,
    contents), its outcome counts and each world's ledger record."""
    totals = {name: hashlib.sha256() for name in PARTS}
    outcomes: dict[str, int] = {}
    records = [_world(i, totals, outcomes) for i in range(worlds)]
    combined = hashlib.sha256()
    for name in COMBINED_PARTS:
        combined.update(totals[name].digest())
    hashes = {name: totals[name].hexdigest() for name in COMBINED_PARTS}
    hashes["combined"] = combined.hexdigest()
    hashes.update((name, totals[name].hexdigest()) for name in OWN_PARTS)
    return hashes, dict(sorted(outcomes.items())), records


def fingerprint(worlds: int) -> tuple[dict[str, str], dict[str, int]]:
    """The sweep's hashes and its outcome counts."""
    hashes, outcomes, _ = sweep(worlds)
    return hashes, outcomes


def _read_ledger(path: str) -> dict[int, dict]:
    with open(path, encoding="utf-8") as f:
        return {rec["world"]: rec for rec in map(json.loads, f)}


def _first_difference(a: list[str], b: list[str]) -> tuple[str, str] | None:
    for line_a, line_b in itertools.zip_longest(a, b, fillvalue="(none)"):
        if line_a != line_b:
            return line_a, line_b
    return None


def diff_ledgers(a: dict[int, dict], b: dict[int, dict]) -> list[str]:
    """What tells ledger b from ledger a: per world that differs, its
    setting, the parts whose digests differ and the first differing result
    line (the plain run's, else the faulted run's), then a summary."""
    out: list[str] = []
    by_part: dict[str, int] = {}
    differing = 0
    for i in sorted(a.keys() | b.keys()):
        if i not in a or i not in b:
            differing += 1
            out.append(f"world {i}: only in {'B' if i in b else 'A'}")
            continue
        ra, rb = a[i], b[i]
        parts = [name for name in ra["parts"] if ra["parts"][name] != rb["parts"].get(name)]
        if not parts:
            continue
        differing += 1
        for name in parts:
            by_part[name] = by_part.get(name, 0) + 1
        out.append(
            f"world {i} {ra['generator']} compromises={ra['compromises']} audit={ra['audit']}: "
            f"{','.join(parts)}"
        )
        if ra["outcome"] != rb["outcome"]:
            out.append(f"  - outcome {ra['outcome']}")
            out.append(f"  + outcome {rb['outcome']}")
        first = _first_difference(ra["lines"], rb["lines"]) or _first_difference(
            ra["fault_lines"], rb["fault_lines"]
        )
        if first is not None:
            out.append(f"  - {first[0]}")
            out.append(f"  + {first[1]}")
    counts = " ".join(f"{name} {by_part[name]}" for name in PARTS if name in by_part) or "-"
    out.append(f"{differing} of {len(a.keys() | b.keys())} worlds differ; worlds by part: {counts}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fingerprint the simulator's behaviour over randomized worlds."
    )
    parser.add_argument("worlds", nargs="?", type=int, default=104, help="worlds to sweep (default 104)")
    parser.add_argument("--worlds-out", metavar="FILE", help="also write each world's ledger record, one JSON line each")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two ledgers; exit 1 if they differ")
    parser.add_argument("--world", type=int, metavar="I", help="print world I's result lines")
    args = parser.parse_args(argv)
    if args.diff:
        lines = diff_ledgers(*map(_read_ledger, args.diff))
        print("\n".join(lines))
        return int(len(lines) > 1)
    if args.world is not None:
        record = _world(args.world, {name: hashlib.sha256() for name in PARTS}, {})
        faulted = [f"faulted {line}" for line in record["fault_lines"]]
        print("\n".join([f"outcome {record['outcome']}", *record["lines"], *faulted]))
        return 0
    hashes, outcomes, records = sweep(args.worlds)
    for name, digest in hashes.items():
        print(f"{name:12s} {digest}")
    print("worlds", args.worlds, "outcomes", outcomes)
    if args.worlds_out:
        with open(args.worlds_out, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(rec) + "\n" for rec in records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
