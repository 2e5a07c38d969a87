"""Deterministic simulator: event scheduling, round flow, metrics, scaling."""

import pytest
from conftest import plaintext_sum

from concealed_agg import crypto, wire
from concealed_agg.adversary import CompromiseSpec
from concealed_agg.errors import ScenarioInvalid
from concealed_agg.simulator import (
    CSV_COLUMNS,
    Metrics,
    RoundMetrics,
    Scenario,
    World,
    measure_scaling,
    run,
)


def test_three_node_path_honest_round():
    world = World(Scenario(seed=100, n=3, generator="path"))
    result = world.run_round(1)
    assert result.integrity == "passed"
    assert result.participants == frozenset({1, 2, 3})
    assert result.raw_sum == plaintext_sum(world, 1)
    assert result.value == pytest.approx(world.codec.decode_sum(result.raw_sum, 3))


def test_same_seed_replays_byte_identical():
    scenario = Scenario(seed=101, n=10, generator="recursive", rounds=4,
                        compromises=(CompromiseSpec(3, "forge_children", (5,)),),
                        trigger_round=2, audit_prob=0.5)
    a, b = World(scenario), World(scenario)
    a.run()
    b.run()
    assert a.report_text() == b.report_text()
    assert a.metrics.to_csv() == b.metrics.to_csv()


def test_different_seeds_differ():
    r1 = World(Scenario(seed=1, n=10, generator="recursive")).run()[0]
    r2 = World(Scenario(seed=2, n=10, generator="recursive")).run()[0]
    assert r1.value != r2.value


def test_forge_scenario_reports_outliers():
    results, metrics = run(Scenario(seed=102, n=9, generator="recursive",
                                    compromises=(CompromiseSpec(5, "forge_children", (42,)),)))
    assert results[0].integrity == "attested"
    assert results[0].report is not None
    assert 5 in results[0].report.outliers
    assert metrics.rounds[0].probes == results[0].report.probes > 0


def test_honest_round_message_count_is_2n():
    for generator, n in (("star", 12), ("path", 7), ("recursive", 25), ("geometric", 14)):
        world = World(Scenario(seed=103, n=n, generator=generator))
        world.run_round(1)
        assert world.metrics.rounds[0].messages == 2 * n, generator


def test_multi_round_counters_strictly_increase():
    world = World(Scenario(seed=104, n=6, generator="recursive", rounds=5))
    world.run()
    for node in world.nodes.values():
        assert node.up_channel._send_counter == 5  # one emission per round
    seen = [world.bs._child_channels[cid].last_accepted for cid in world.tree.children[0]]
    assert all(c == 5 for c in seen)


def test_csv_schema_and_total_footer():
    world = World(Scenario(seed=105, n=4, generator="star", rounds=2))
    world.run()
    lines = world.metrics.to_csv().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS) == "round,messages,bytes,seed_regens,probes"
    assert len(lines) == 4
    assert lines[-1].startswith("total,")
    totals = [int(x) for x in lines[-1].split(",")[1:]]
    per_round = [[int(x) for x in line.split(",")[1:]] for line in lines[1:3]]
    assert totals == [sum(col) for col in zip(*per_round)]


def test_metrics_totals_helper():
    m = Metrics([RoundMetrics(1, messages=3, bytes=10), RoundMetrics(2, messages=4, bytes=20)])
    assert m.totals() == {"messages": 7, "bytes": 30, "seed_regens": 0, "probes": 0}


def test_report_text_field_names_pinned():
    world = World(Scenario(seed=106, n=3, generator="star", force_attest=True))
    world.run()
    line = world.report_text().strip()
    for field in ("round=", "function=", "value=", "n_participants=", "integrity=", "probes=", "outliers="):
        assert field in line
    assert line.startswith("round=1 ")


def test_audit_probability_draws_are_seeded():
    scenario = Scenario(seed=107, n=4, generator="star", rounds=6, audit_prob=0.5)
    audited = [r.report is not None for r in World(scenario).run()]
    assert audited == [r.report is not None for r in World(scenario).run()]
    assert any(audited) and not all(audited)  # holds for this seed


def test_programming_error_in_probe_answer_is_not_silence(monkeypatch):
    # Only protocol errors count as a silent node; a bug must surface.
    world = World(Scenario(seed=109, n=4, generator="star", force_attest=True))

    def broken(round_no):
        raise RuntimeError("bug in the probe answer")

    monkeypatch.setattr(world.nodes[2], "respond_attestation", broken)
    with pytest.raises(RuntimeError, match="bug in the probe answer"):
        world.run_round(1)


def test_truncated_probe_response_counts_as_silence(monkeypatch):
    # A probe response cut to 12 bytes on its way up does not parse: the
    # probe counts as silent, and the round still reaches its verdict.
    world = World(Scenario(seed=3, n=20, generator="recursive", force_attest=True))
    honest = world._exchange

    def cutting(nid, payload):
        resp = honest(nid, payload)
        if nid == 1 and payload[0] == wire.PROBE:
            return resp[:12]
        return resp

    monkeypatch.setattr(world, "_exchange", cutting)
    result = world.run_round(1)
    assert result.integrity == "passed"
    assert (1, False, False) in result.report.transcript
    assert 1 in result.report.non_committed


def test_rejected_when_everything_is_compromised():
    world = World(Scenario(seed=108, n=1, generator="star",
                           compromises=(CompromiseSpec(1, "forge_children", (9,)),)))
    result = world.run_round(1)
    assert result.integrity == "rejected"
    assert result.value is None


# === Scenario validation ====================================================


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rounds=0, n=2, generator="star"),
        dict(n=2, generator="star", function="median"),
        dict(n=2, generator="star", audit_prob=1.5),
        dict(n=2, generator="star", domain=(5.0, 5.0, 100)),
        dict(n=2, generator="star", domain=(0.0, 10.0, 0)),
        dict(n=2),
        dict(generator="star"),
        dict(n=0, generator="star"),
        dict(n=2, generator="ring"),
        dict(n=3, edges=((0, 1), (0, 2))),  # header/edge count mismatch
        dict(edges=((0, 1), (2, 3))),  # disconnected
    ],
)
def test_invalid_scenarios_rejected(kwargs):
    with pytest.raises(ScenarioInvalid):
        World(Scenario(seed=1, **kwargs))


def test_explicit_edges_without_count_ok():
    world = World(Scenario(seed=109, edges=((0, 1), (1, 2))))
    assert world.run_round(1).integrity == "passed"


# === Scaling =================================================================


def test_scaling_single_node_needs_one_probe():
    rows = measure_scaling((1,), trials=3, seed=110)
    assert rows[0].mean_probes == 1.0
    assert rows[0].max_probes == 1


def test_scaling_star_probes_every_station_child():
    rows = measure_scaling((6,), trials=2, seed=111, generator="star")
    assert rows[0].mean_probes == 6.0  # depth-1 audit degenerates to one level


def test_scaling_rows_shape_and_determinism():
    rows = measure_scaling((4, 8), trials=2, seed=112)
    assert [r.n for r in rows] == [4, 8]
    assert all(r.trials == 2 for r in rows)
    assert rows == measure_scaling((4, 8), trials=2, seed=112)
    assert all(r.max_probes <= r.n for r in rows)
