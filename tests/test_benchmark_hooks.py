"""The names the benchmark harness looks up in the package still resolve.

``benchmarks/tracer.py`` patches its entry points by name and
``benchmarks/run.py`` calls a few package functions directly, so a refactor
that renames, moves or re-signs one of them breaks the harness.  These
checks make that fail in the test suite, not only in a traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from concealed_agg import wire
from concealed_agg.adversary import CompromiseSpec
from concealed_agg.simulator import Scenario, World

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """benchmarks/run.py and the tracer it imports, as modules; the sys.path
    and modules they add are taken out again afterwards."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
        run = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run, sys.modules["tracer"]
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if str(BENCH_DIR) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]


@pytest.mark.parametrize("script", ["run.py", "tracer.py"])
def test_every_package_name_the_harness_imports_or_reads_resolves(script):
    # Each name imported from the package, and each attribute read off an
    # imported package module (wire.parse_frame, wire.decode_reagg_resp, ...).
    tree = ast.parse((BENCH_DIR / script).read_text(encoding="utf-8"))
    modules = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module.startswith("concealed_agg"):
            package = importlib.import_module(stmt.module)
            for alias in stmt.names:
                assert hasattr(package, alias.name), f"{stmt.module}.{alias.name}"
                value = getattr(package, alias.name)
                if type(value) is type(wire):
                    modules[alias.asname or alias.name] = value
    assert modules or script == "run.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"


def test_traced_entry_points_resolve_and_trace_an_attested_round(bench):
    run, tracer_mod = bench
    points = tracer_mod.entry_points()
    for owner, attr, name in points:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr}"
    originals = [vars(owner)[attr] for owner, attr, _ in points]
    tracer = tracer_mod.Tracer()
    entry_points = tracer_mod.EntryPoints(tracer, {"node.handle_reagg_request": lambda resp: None})
    world = World(Scenario(seed=3, n=20, generator="recursive",
                           compromises=(CompromiseSpec(6, "forge_children", (12345,)),)))
    entry_points.install()
    try:
        result = world.run_round(1)
    finally:
        entry_points.uninstall()
    assert [vars(owner)[attr] for owner, attr, _ in points] == originals
    assert result.integrity == "attested"
    for name in ("wire.open_packet", "wire.seal_packet", "wire.decode_agg_body", "crypto.next_seed",
                 "node.handle_message", "node.respond_attestation", "basestation.com_att"):
        assert tracer.stats[name][0] > 0, name
    # The harness's own decoder of a re-aggregation answer.
    resp = wire.encode_reagg_resp(1, True, b"pkt")
    assert run._decode_reagg_resp(wire.parse_frame(resp)[1]) == (1, True, b"pkt")


def test_verdict_replay_calls_ipet_check_without_counting(bench):
    # VerdictTimer shadows BaseStation.ipet_check and replays the round's
    # verdict with count_ops=False.
    run, _ = bench
    world = World(Scenario(seed=5, n=12, generator="geometric"))
    timer = run.VerdictTimer(world.bs)
    try:
        result = world.run_round(1)
        ops = world.bs.counters["verify_ops"]
        assert timer.first is not None and timer.replay(3) >= 0.0
        assert world.bs.counters["verify_ops"] == ops
    finally:
        timer.close()
    assert result.integrity == "passed"
    assert "ipet_check" not in vars(world.bs)
