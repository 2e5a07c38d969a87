#!/usr/bin/env python3
"""concealed-agg benchmark: closed-loop protocol rounds on fixed workloads.

    python3 benchmarks/run.py                      # every workload, end-to-end metrics
    python3 benchmarks/run.py --workload honest_path --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload forged_recursive --trace 1   # per-layer metrics

One process and one thread per workload: the base station is the only client
and each round starts when the previous one has returned.  The gated round
and verdict times are divided by the time of ``reference.reference_loop``,
run between rounds, so that they do not drift with the host's speed.  Every
round is checked against ``oracle.Oracle``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit status is 0 only when every check passed.  README.md in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "concealed_agg" / "__init__.py").is_file():
    raise SystemExit(f"{Path(__file__).name}: no concealed_agg source under {SRC}")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

from concealed_agg import wire  # noqa: E402
from concealed_agg.adversary import CompromiseSpec  # noqa: E402
from concealed_agg.simulator import Scenario, World  # noqa: E402
from oracle import Oracle  # noqa: E402
from reference import reference_loop  # noqa: E402
from tracer import EntryPoints, Tracer  # noqa: E402

# Captured before any tracing patch, so the harness's own decoding makes no spans.
_decode_reagg_resp = wire.decode_reagg_resp


@dataclass(frozen=True)
class Workload:
    generator: str
    n: int
    forged: bool
    # Independent topologies (and forger placements) per run, each built,
    # timed as set-up, then given an equal share of the run.  Averaging over
    # several keeps seed-to-seed layout differences small against the bounds.
    worlds: int


WORKLOADS = {
    # Realistic sensor layout, many small packets; set-up is the O(n^2)
    # geometric build.  The attestation layer does no work.
    "honest_geometric": Workload("geometric", 2048, forged=False, worlds=5),
    # n/64 forge_children and n/64 noncommit nodes: every round is attested,
    # so the walk, exoneration, final re-aggregation and verdicts dominate.
    "forged_recursive": Workload("recursive", 1024, forged=True, worlds=24),
    # The deepest tree: every packet carries its whole subtree's participant
    # list, so the wire codec and participant sets dominate.
    "honest_path": Workload("path", 1024, forged=False, worlds=5),
}

MIN_ROUNDS = 100  # p90 of round time needs ten samples beyond it
VERDICT_REPLAYS = 16  # calls behind each untraced round's replayed-verdict time
REPLAY_ROUNDS = 2  # rounds of the first world replayed by the determinism guard
VERDICT_SIZES = (64, 1024, 4096, 16384)
SPANS_DIR = BENCH_DIR / "out"


def scenarios(name: str, seed: int, n: int | None = None) -> list[Scenario]:
    """The workload's scenarios for a seed; the program sees nothing else."""
    wl = WORKLOADS[name]
    n = n or wl.n
    rng = random.Random(f"{name}/{seed}")
    out = []
    for _ in range(wl.worlds):
        compromises: tuple[CompromiseSpec, ...] = ()
        if wl.forged:
            per_kind = max(1, n // 64)
            placed = rng.sample(range(1, n + 1), 2 * per_kind)
            compromises = tuple(
                CompromiseSpec(nid, "forge_children" if i < per_kind else "noncommit",
                               (rng.getrandbits(64) | 1,))
                for i, nid in enumerate(placed)
            )
        out.append(Scenario(
            seed=rng.getrandbits(64), n=n, generator=wl.generator,
            compromises=compromises, source=f"{name}/{seed}",
        ))
    return out


class VerdictTimer:
    """Times the first BaseStation.ipet_check of each round: the round's verdict."""

    def __init__(self, bs):
        self.first: float | None = None
        self.first_args: tuple = ()
        self._bs = bs
        bs.ipet_check = self._timed  # the instance attribute shadows the method

    def _timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        # Looked up on the class at call time, so a traced method is used when installed.
        verdict = type(self._bs).ipet_check(self._bs, *args, **kwargs)
        if self.first is None:
            self.first = time.perf_counter() - t0
            self.first_args = args[:3]  # (pair, participants, round_no)
        return verdict

    def replay(self, times: int) -> float:
        """Mean wall time of the round's verdict called again with the same
        arguments.  The ledger is already at the round and op counting is off,
        so the calls change no state."""
        check = type(self._bs).ipet_check
        t0 = time.perf_counter()
        for _ in range(times):
            check(self._bs, *self.first_args, count_ops=False)
        return (time.perf_counter() - t0) / times

    def close(self) -> None:
        del self._bs.ipet_check


@dataclass
class Run:
    """Samples and failures gathered by one benchmark run."""

    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    setup_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)  # untraced rounds
    traced_round_s: list[float] = field(default_factory=list)
    verdict_s: list[float] = field(default_factory=list)
    # Round times, each divided by the reference loop's time around its round.
    round_norm: list[float] = field(default_factory=list)
    traced_round_norm: list[float] = field(default_factory=list)
    # Replayed-verdict times, divided the same way.
    verdict_norm: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    readings: int = 0  # accepted readings in untraced rounds
    world_counts: list[tuple[float, float]] = field(default_factory=list)  # (msgs, bytes) per round
    probes: int = 0  # over traced rounds, as are the two below
    ipet_only: int = 0
    exonerated: int = 0
    reagg_ok: int = 0

    def fail(self, where: str, why: str) -> None:
        self.failures.append(f"{where}: {why}")
        print(f"FAIL {where}: {why}", file=sys.stderr)


def signature(world: World, result) -> tuple:
    """What a replay of the round must reproduce exactly."""
    rm = world.metrics.rounds[-1]
    outliers = sorted(result.report.outliers) if result.report is not None else []
    return rm.messages, rm.bytes, rm.probes, result.integrity, result.raw_sum, outliers


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, min_rounds: int = MIN_ROUNDS) -> tuple[Run, dict]:
    """Run one workload; returns the run and its metrics as name -> (value, unit)."""
    run = Run()
    worlds = scenarios(name, seed, n)
    tracer = Tracer() if trace else None
    points = None
    setup_stats: dict = {}
    round_stats: dict = {}
    if trace:
        def count_reagg(resp: bytes) -> None:
            run.reagg_ok += _decode_reagg_resp(wire.parse_frame(resp)[1])[1]

        points = EntryPoints(tracer, {"node.handle_reagg_request": count_reagg})

    reference: list[tuple] = []
    start = time.perf_counter()
    for k, scenario in enumerate(worlds):
        if trace:
            tracer.stats, tracer.trace_id, tracer.keep = setup_stats, (name, k, 0), True
            points.install()
        t0 = time.perf_counter()
        try:
            world = World(scenario)
        finally:
            run.setup_s.append(time.perf_counter() - t0)
            if trace:
                points.uninstall()
                tracer.keep = False
        oracle = Oracle(scenario, world.tree.parent, world.prov.sense_keys)
        timer = VerdictTimer(world.bs)
        end_at = start + seconds * (k + 1) / len(worlds)
        last = k == len(worlds) - 1
        counts = []
        round_no = 0
        ref_before = time_reference()
        try:
            while True:
                round_no += 1
                traced = trace and round_no % 2 == 0
                if traced:
                    tracer.stats, tracer.trace_id = round_stats, (name, k, round_no)
                    tracer.keep = k == 0 and round_no == 2
                    points.install()
                timer.first = None
                error = None
                t0 = time.perf_counter()
                try:
                    result = world.run_round(round_no)
                except Exception as exc:  # a round that raises is a failed round
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    elapsed = time.perf_counter() - t0
                    if traced:
                        points.uninstall()
                        tracer.keep = False
                replay_s = None
                if not traced and error is None and timer.first is not None:
                    replay_s = timer.replay(VERDICT_REPLAYS)
                ref_after = time_reference()
                run.reference_s.append(ref_after)
                ref = (ref_before + ref_after) / 2
                ref_before = ref_after
                run.attempted += 1
                where = f"{name} world {k} round {round_no}"
                if error is not None:
                    run.fail(where, error)
                    break
                why = oracle.check(round_no, result)
                if why is not None:
                    run.fail(where, why)
                rm = world.metrics.rounds[-1]
                counts.append((rm.messages, rm.bytes))
                if k == 0 and round_no <= REPLAY_ROUNDS:
                    reference.append(signature(world, result))
                if traced:
                    run.traced_round_s.append(elapsed)
                    run.traced_round_norm.append(elapsed / ref)
                    if result.report is not None:
                        run.probes += result.report.probes
                        ipet_only = {nid for nid, committed, ok in result.report.transcript
                                     if committed and not ok}
                        run.ipet_only += len(ipet_only)
                        run.exonerated += len(ipet_only - result.report.outliers)
                else:
                    run.round_s.append(elapsed)
                    run.round_norm.append(elapsed / ref)
                    if timer.first is not None:
                        run.verdict_s.append(timer.first)
                    if replay_s is not None:
                        run.verdict_norm.append(replay_s / ref_after)  # the adjacent reference
                    if result.integrity in ("passed", "attested"):
                        run.readings += len(result.participants)
                # Two rounds at least, so that a traced run traces every world.
                if round_no >= 2 and time.perf_counter() >= end_at and (
                    not last or len(run.round_s) + len(run.traced_round_s) >= min_rounds
                ):
                    break
        finally:
            timer.close()
        if counts:
            run.world_counts.append((statistics.fmean(c[0] for c in counts),
                                     statistics.fmean(c[1] for c in counts)))
        del world, timer

    replay_guard(run, name, worlds[0], reference)
    if not trace:
        return run, end_to_end(run)
    check_span_cover(run, name, round_stats)
    verdict_us = verdict_scaling(run, seed)
    metrics = per_layer(run, round_stats, setup_stats, len(worlds), verdict_us)
    tracer.write_spans(SPANS_DIR / f"spans-{name}.jsonl")
    return run, metrics


def replay_guard(run: Run, name: str, scenario: Scenario, reference: list[tuple]) -> None:
    """Simulated counts and outcomes must repeat exactly for the same scenario."""
    world = World(scenario)
    for round_no, want in enumerate(reference, start=1):
        run.attempted += 1
        where = f"{name} replay round {round_no}"
        try:
            got = signature(world, world.run_round(round_no))
        except Exception as exc:  # a round that raises is a failed round
            run.fail(where, f"{type(exc).__name__}: {exc}")
            return
        if got != want:
            run.fail(where, f"(msgs, bytes, probes, ...) {got[:3]} != first run {want[:3]}")


def check_span_cover(run: Run, name: str, round_stats: dict) -> None:
    """Self times of the spans under run_round must add up to the traced round time."""
    traced = sum(run.traced_round_s)
    covered = sum(seconds for _, seconds in round_stats.values())
    if not traced or abs(covered - traced) > 0.01 * traced:
        run.fail(f"{name} trace", f"span self times {covered:.6f} s cover traced rounds {traced:.6f} s")


def verdict_scaling(run: Run, seed: int) -> dict[int, float]:
    """Verdict wall time on honest recursive trees, one world and one round each."""
    rng = random.Random(f"verdict/{seed}")
    out = {}
    for n in VERDICT_SIZES:
        scenario = Scenario(seed=rng.getrandbits(64), n=n, generator="recursive")
        world = World(scenario)
        timer = VerdictTimer(world.bs)
        run.attempted += 1
        try:
            result = world.run_round(1)
        except Exception as exc:  # a round that raises is a failed round
            run.fail(f"verdict n={n}", f"{type(exc).__name__}: {exc}")
            continue
        finally:
            timer.close()
        why = Oracle(scenario, world.tree.parent, world.prov.sense_keys).check(1, result)
        if why is not None:
            run.fail(f"verdict n={n}", why)
        if timer.first is not None:
            out[n] = timer.first * 1e6
        del world, result
    return out


def end_to_end(run: Run) -> dict:
    """The gated end-to-end metrics (BENCHMARK.json)."""
    if len(run.round_norm) < 2 or len(run.verdict_norm) < 2:  # only when rounds failed
        return {}
    return {
        "round_norm_p50": (statistics.median(run.round_norm), "ratio"),
        "round_norm_p90": (p90(run.round_norm), "ratio"),
        "verify_norm_p50": (statistics.median(run.verdict_norm), "ratio"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "msgs_per_round": (statistics.fmean(c[0] for c in run.world_counts), "count"),
        "bytes_per_round": (statistics.fmean(c[1] for c in run.world_counts), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def printed_only(run: Run) -> dict:
    """End-to-end figures printed beside the gated ones; README.md says why
    they are not gated."""
    out = {}
    if len(run.round_s) >= 2:
        out["round_ms_p50"] = (statistics.median(run.round_s) * 1e3, "ms")
        out["round_ms_p90"] = (p90(run.round_s) * 1e3, "ms")
        out["readings_per_s"] = (run.readings / sum(run.round_s), "1/s")
    if len(run.verdict_s) >= 2:
        out["verify_us_p50"] = (statistics.median(run.verdict_s) * 1e6, "us")
        out["verify_us_p90"] = (p90(run.verdict_s) * 1e6, "us")
    if len(run.verdict_norm) >= 2:
        out["verify_norm_p90"] = (p90(run.verdict_norm), "ratio")
    if run.reference_s:
        out["reference_ms_p50"] = (statistics.median(run.reference_s) * 1e3, "ms")
    out["round_fail_frac"] = (len(run.failures) / max(run.attempted, 1), "ratio")
    out["rounds_timed"] = (len(run.round_s), "count")
    return out


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def per_layer(run: Run, round_stats: dict, setup_stats: dict, builds: int,
              verdict_us: dict[int, float]) -> dict:
    rounds = max(len(run.traced_round_s), 1)

    def calls(name: str) -> tuple[float, str]:
        return round_stats.get(name, (0, 0.0))[0] / rounds, "count"

    def self_ms(name: str, stats: dict = round_stats, per: int = rounds) -> tuple[float, str]:
        return stats.get(name, (0, 0.0))[1] * 1e3 / per, "ms"

    def ratio(part: int, whole: int) -> tuple[float, str]:
        return (part / whole if whole else 0.0), "ratio"

    m: dict = {}
    for fn in ("next_seed", "seal", "open_sealed", "mac_pair", "xor_tags"):
        m[f"crypto.{fn}.calls"] = calls(f"crypto.{fn}")
        m[f"crypto.{fn}.self_ms"] = self_ms(f"crypto.{fn}")
    m["crypto.sense_raw.self_ms"] = self_ms("crypto.sense_raw")
    for fn in ("encode_agg_body", "decode_agg_body"):
        m[f"wire.{fn}.calls"] = calls(f"wire.{fn}")
        m[f"wire.{fn}.self_ms"] = self_ms(f"wire.{fn}")
    for fn in ("open_packet", "seal_packet", "probe_codec"):
        m[f"wire.{fn}.self_ms"] = self_ms(f"wire.{fn}")
    for fn in ("handle_message", "respond_attestation", "handle_reagg_request"):
        m[f"node.{fn}.calls"] = calls(f"node.{fn}")
        m[f"node.{fn}.self_ms"] = self_ms(f"node.{fn}")
    m["node.reagg_ok_ratio"] = ratio(
        run.reagg_ok, round_stats.get("node.handle_reagg_request", (0, 0.0))[0])
    m["basestation.ipet_check.calls"] = calls("basestation.ipet_check")
    for fn in ("ipet_check", "com_att", "reaggregate_final", "advance_ledger",
               "receive_packet", "finalize", "monitor"):
        m[f"basestation.{fn}.self_ms"] = self_ms(f"basestation.{fn}")
    m["basestation.receive_packet.calls"] = calls("basestation.receive_packet")
    m["basestation.com_att.probes"] = (run.probes / rounds, "count")
    m["basestation.exonerate_ratio"] = ratio(run.exonerated, run.ipet_only)
    m["simulator.run_round.self_ms"] = self_ms("simulator.run_round")
    m["simulator.run_round.traced_ms"] = (sum(run.traced_round_s) * 1e3 / rounds, "ms")
    plain = statistics.median(run.round_norm) if run.round_norm else 0.0
    traced = statistics.median(run.traced_round_norm) if run.traced_round_norm else 0.0
    m["simulator.trace_overhead_frac"] = (((traced - plain) / plain if plain else 0.0), "ratio")
    m["simulator.world_init.self_ms"] = self_ms("simulator.world_init", setup_stats, builds)
    for fn in ("generate", "build_tree", "provision"):
        m[f"topology.{fn}.self_ms"] = self_ms(f"topology.{fn}", setup_stats, builds)
    for n in VERDICT_SIZES:
        m[f"basestation.verdict_us.n{n}"] = (verdict_us.get(n, 0.0), "us")
    m["src_lines"] = (src_lines(), "lines")
    return m


def src_lines() -> int:
    """Line count of the program's Python source, tracked beside the results."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def result_line(run: Run, metrics: dict) -> str:
    return json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def print_metrics(name: str, metrics: dict) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"{name:<17} {metric:<38} {value:>16.6f} {unit}")


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined result line."""
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False,
        )
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit status {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    run, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(args.workload, metrics if args.trace else {**metrics, **printed_only(run)})
    print(result_line(run, metrics), flush=True)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
