#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, summarized per gated metric.

    python3 scripts/paired_bench.py PARENT CHANGE --workload honest_path \
        [--seconds S] [--seed 2] [--pairs 10]

Each pair runs ``benchmarks/run.py --workload W --seed K`` once from each
tree, one after the other, alternating which tree runs first so that a host
that slows down or speeds up during a pair charges both sides alike.  The
benchmark sets the run length; ``--seconds S`` is passed on only when given.
Each run's last line of standard output is its result line (a JSON object
with a ``metrics`` table).  For each end-to-end metric that the
change tree's BENCHMARK.json gates, the script then prints the parent's and
the change's medians, the distance between the quartiles of the parent's
runs, the median of the per-pair relative changes (change / parent - 1), and
in how many pairs the change read lower than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seconds: float | None, seed: int) -> str:
    """The result line of one benchmark run from a source tree; seconds None
    leaves the run length to the benchmark."""
    command = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        command += "--seconds", str(seconds)
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: benchmark run failed (exit status {proc.returncode})")
    return lines[-1]


def gated_metrics(tree: Path) -> list[str]:
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["end_to_end"]]


def summarize(parent_lines: list[str], change_lines: list[str], metrics: list[str]) -> list[dict]:
    """One row per metric over paired result lines (pair i is parent_lines[i]
    and change_lines[i]): both medians, the parent's interquartile range,
    the median per-pair relative change (None when a parent reading is 0)
    and the number of pairs whose change reading is lower than its parent's."""
    if len(parent_lines) != len(change_lines) or not parent_lines:
        raise ValueError("need the same nonzero number of parent and change result lines")
    parent = [json.loads(line)["metrics"] for line in parent_lines]
    change = [json.loads(line)["metrics"] for line in change_lines]
    rows = []
    for name in metrics:
        pairs = [(p[name]["value"], c[name]["value"]) for p, c in zip(parent, change)]
        deltas = [c / p - 1 for p, c in pairs if p]
        quartiles = statistics.quantiles([p for p, _ in pairs], n=4) if len(pairs) > 1 else [pairs[0][0]] * 3
        rows.append({
            "metric": name,
            "parent": statistics.median(p for p, _ in pairs),
            "change": statistics.median(c for _, c in pairs),
            "parent_iqr": quartiles[2] - quartiles[0],
            "delta": statistics.median(deltas) if len(deltas) == len(pairs) else None,
            "lower": sum(c < p for p, c in pairs),
            "pairs": len(pairs),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<17} {'parent':>14} {'parent IQR':>14} {'change':>14} {'delta':>8} {'lower':>7}"]
    for row in rows:
        delta = "n/a" if row["delta"] is None else f"{row['delta']:+.1%}"
        out.append(f"{row['metric']:<17} {row['parent']:>14.6g} {row['parent_iqr']:>14.6g} {row['change']:>14.6g} "
                   f"{delta:>8} {row['lower']:>3}/{row['pairs']}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, help="run length; the benchmark's own when not given")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines: dict[str, list[str]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            lines[side].append(run_once(trees[side], args.workload, args.seconds, args.seed))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    length = "benchmark-length" if args.seconds is None else f"{args.seconds:g} s"
    print(f"{args.workload}: {args.pairs} pairs of {length} runs, seed {args.seed}")
    print(format_rows(summarize(lines["parent"], lines["change"], gated_metrics(trees["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
