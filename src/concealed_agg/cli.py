"""Command-line entry points: run a scenario and scaling sweeps.

Scenario files are line-oriented text.  Keywords (one per line, `#` starts a
comment):

    nodes <n>                      sensor count (required with a generator)
    edge <a> <b>                   explicit link; repeatable; 0 is the station
    generator <family>             recursive | geometric | path | star
    seed <int>                     scenario seed in [0, 2**64) (CONCEALED_AGG_SEED overrides)
    rounds <int>
    function sum|mean
    domain <low> <high> <scale>    fixed-point sensor domain
    trigger <round>                round at which compromised behavior starts
    compromise <id> <kind> [args]  forge_children <delta> [dual]
                                   forge_own <delta_raw>
                                   noncommit [delta]
                                   replay <source_round>
                                   drop_child <child>
    audit-prob <float>             chance of an audit walk after a passing verdict
    force-attest                   audit every round: audit-prob 1, whatever
                                   audit-prob line the same file holds

A `--topology` file is read by the same parser and holds only `nodes` and
`edge` lines; in either file a second `nodes` line is an error.

Exit codes: 0 all rounds reached a verdict, 1 runtime protocol failure,
2 invalid scenario (the diagnostic names the offending line) or an output
directory that cannot be written.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from pathlib import Path

from .adversary import KINDS, CompromiseSpec
from .errors import ProtocolError, ScenarioInvalid
from .simulator import GENERATORS, SEED_LIMIT, Scenario, World, measure_scaling

ENV_SEED = "CONCEALED_AGG_SEED"


# === Scenario files =========================================================


def parse_scenario(text: str, source: str = "<scenario>", edges_only: bool = False) -> Scenario:
    """A scenario file's Scenario; with edges_only, a topology file, whose
    only lines are `nodes` and `edge`."""
    n = None
    edges: list[tuple[int, int]] = []
    generator = None
    fields: dict = {}
    compromises: list[CompromiseSpec] = []
    force_attest = False

    def fail(lineno: int, msg: str):
        raise ScenarioInvalid(f"{source}:{lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if edges_only and key not in ("nodes", "edge"):
                fail(lineno, f"unrecognized line {raw.strip()!r}")
            if key == "nodes" and len(args) == 1:
                if n is not None:
                    fail(lineno, "duplicate nodes line")
                n = int(args[0])
            elif key == "edge" and len(args) == 2:
                if generator is not None:
                    fail(lineno, "edge lines cannot be mixed with a generator")
                if n is None:
                    fail(lineno, "edge before nodes line")
                a, b = int(args[0]), int(args[1])
                if a == b:
                    fail(lineno, f"edge {a} {b} is a self-loop")
                if not (0 <= a <= n and 0 <= b <= n):
                    fail(lineno, f"edge {a} {b} out of range for {n} sensors")
                edges.append((a, b))
            elif key == "generator" and len(args) == 1:
                if edges:
                    fail(lineno, "generator cannot be mixed with edge lines")
                if args[0] not in GENERATORS:
                    fail(lineno, f"unknown generator {args[0]!r}")
                generator = args[0]
            elif key == "seed" and len(args) == 1:
                fields["seed"] = int(args[0])
            elif key == "rounds" and len(args) == 1:
                fields["rounds"] = int(args[0])
            elif key == "function" and len(args) == 1:
                fields["function"] = args[0]
            elif key == "domain" and len(args) == 3:
                fields["domain"] = (float(args[0]), float(args[1]), int(args[2]))
            elif key == "trigger" and len(args) == 1:
                fields["trigger_round"] = int(args[0])
            elif key == "compromise" and len(args) >= 2:
                nid, kind = int(args[0]), args[1]
                if kind not in KINDS:
                    fail(lineno, f"unknown behavior {kind!r}")
                extra = tuple(True if a == "dual" else int(a) for a in args[2:])
                compromises.append(CompromiseSpec(nid, kind, extra))
            elif key == "force-attest" and not args:
                force_attest = True
            elif key == "audit-prob" and len(args) == 1:
                fields["audit_prob"] = float(args[0])
                # Checked here, as a force-attest line would hide it from validate.
                if not 0.0 <= fields["audit_prob"] <= 1.0:
                    fail(lineno, "audit probability outside [0, 1]")
            else:
                fail(lineno, f"unrecognized line {raw.strip()!r}")
        except ScenarioInvalid:
            raise
        except ValueError as exc:
            fail(lineno, f"bad value in {raw.strip()!r} ({exc})")
    if force_attest:
        fields["audit_prob"] = 1.0
    return Scenario(
        n=n,
        edges=tuple(edges) if edges else None,
        generator=generator,
        compromises=tuple(compromises),
        source=source,
        **fields,
    )


def load_scenario(path: str, edges_only: bool = False) -> Scenario:
    """The scenario, or the topology, in a UTF-8 file; ScenarioInvalid if the
    file cannot be read or is not UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid(f"{path}: {exc}") from exc
    return parse_scenario(text, source=path, edges_only=edges_only)


# === Output writers =========================================================


def write_outputs(out_dir: str, files: dict[str, str], timestamp: bool) -> bool:
    """Write each file's text into out_dir, made if missing, headed by a time
    stamp if asked; False, after one diagnostic line, if that fails."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    head = f"# generated {stamp}\n" if timestamp else ""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(head + text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write output directory {out_dir}: {exc}", file=sys.stderr)
        return False
    return True


# === Commands ===============================================================


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    from dataclasses import replace

    updates = {}
    if args.topology:
        topology = load_scenario(args.topology, edges_only=True)
        updates.update(n=topology.n, edges=topology.edges, generator=None)
    if args.seed is not None:
        updates["seed"] = args.seed
    if os.environ.get(ENV_SEED):
        try:
            updates["seed"] = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ScenarioInvalid(f"{ENV_SEED}: {exc}") from exc
    if args.rounds is not None:
        updates["rounds"] = args.rounds
    if args.function is not None:
        updates["function"] = args.function
    if args.audit_prob is not None and not 0.0 <= args.audit_prob <= 1.0:
        raise ScenarioInvalid(f"--audit-prob {args.audit_prob}: audit probability outside [0, 1]")
    if args.force_attest:
        updates["audit_prob"] = 1.0
    elif args.audit_prob is not None:
        updates["audit_prob"] = args.audit_prob
    return replace(scenario, **updates) if updates else scenario


def cmd_run(args) -> int:
    try:
        if args.scenario:
            scenario = load_scenario(args.scenario)
        elif args.topology:
            scenario = Scenario(source=args.topology)
        else:
            print("run: need a scenario file or --topology", file=sys.stderr)
            return 2
        scenario = _apply_overrides(scenario, args)
        world = World(scenario)
        world.run()
    except ScenarioInvalid as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1
    report = world.report_text()
    files = {"report.txt": report, "metrics.csv": world.metrics.to_csv()}
    if not write_outputs(args.out, files, not args.no_timestamp):
        return 2
    print(report, end="")
    return 0


def _parse_sizes(raw: list[str]) -> tuple[int, ...]:
    sizes: list[int] = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                sizes.append(int(piece))
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive integers")
    return tuple(sizes)


def cmd_scaling(args, parser) -> int:
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
        parser.error(f"--seed {args.seed} outside [0, 2**64)")
    try:
        rows = measure_scaling(sizes, args.trials, seed=args.seed or 0, generator=args.generator)
    except ScenarioInvalid as exc:
        parser.error(str(exc))  # exits 2
    lines = ["n,trials,mean_probes,max_probes,mean_depth,mean_messages"]
    for r in rows:
        lines.append(
            f"{r.n},{r.trials},{r.mean_probes:.4f},{r.max_probes},{r.mean_depth:.4f},{r.mean_messages:.1f}"
        )
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out and not write_outputs(args.out, {"scaling.csv": table}, not args.no_timestamp):
        return 2
    return 0


# === Entry point ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concealed-agg",
        description="Concealed hop-by-hop aggregation: scenario runner and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write report/metrics")
    p_run.add_argument("scenario", nargs="?", help="scenario file path")
    p_run.add_argument("--topology", help="topology file (nodes/edge lines) overriding the scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--rounds", type=int, default=None)
    p_run.add_argument("--function", choices=("sum", "mean"), default=None)
    p_run.add_argument("--force-attest", action="store_true",
                       help="audit every round: --audit-prob 1, which it overrides")
    p_run.add_argument("--audit-prob", type=float, default=None)
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--no-timestamp", action="store_true", help="omit generation timestamps")

    p_sc = sub.add_parser("scaling", help="attestation cost versus network size")
    p_sc.add_argument("--sizes", nargs="+", required=True, help="comma or space separated sizes")
    p_sc.add_argument("--trials", type=int, default=100)
    p_sc.add_argument("--seed", type=int, default=None)
    p_sc.add_argument("--generator", choices=GENERATORS, default="recursive")
    p_sc.add_argument("--out", default=None)
    p_sc.add_argument("--no-timestamp", action="store_true")
    p_sc.set_defaults(parser=p_sc)  # its usage errors print its own usage line

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_scaling(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
