"""Deterministic simulator: depth-first data phase, round flow, metrics, scaling."""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest
from conftest import on_links, plaintext_sum
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto, wire
from concealed_agg.adversary import Behavior, CompromiseSpec
from concealed_agg.basestation import format_report_line
from concealed_agg.errors import ProtocolError, ReadingOutOfRange, ReplayDetected, ScenarioInvalid
from concealed_agg.node import SensorNode
from concealed_agg.simulator import (
    CSV_COLUMNS,
    GENERATORS,
    Metrics,
    RoundMetrics,
    Scenario,
    World,
    _sub_seed,
    measure_scaling,
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
    world = World(Scenario(seed=102, n=9, generator="recursive",
                           compromises=(CompromiseSpec(5, "forge_children", (42,)),)))
    results, metrics = world.run(), world.metrics
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
    # The station accepted counter 5 from each child and nothing above it:
    # counter 5 again is a replay, and the child's next counter opens.
    for cid in world.tree.children[0]:
        rx = world.bs._child_channels[cid]
        with pytest.raises(ReplayDetected):
            rx.open(5, crypto.seal(rx.key, 5, bytes(16)))
        assert rx.open(*world.nodes[cid].up_channel.seal_next(bytes(16))) == bytes(16)


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
    world = World(Scenario(seed=106, n=3, generator="star", audit_prob=1.0))
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
    world = World(Scenario(seed=109, n=4, generator="star", audit_prob=1.0))

    def broken(round_no):
        raise RuntimeError("bug in the probe answer")

    monkeypatch.setattr(world.nodes[2], "respond_attestation", broken)
    with pytest.raises(RuntimeError, match="bug in the probe answer"):
        world.run_round(1)


def test_truncated_probe_response_counts_as_silence():
    # Node 1 is probed in the station's group, with node 2.  Its own answer
    # cut to 12 bytes on the link up from it, or its own probe cut to 5 bytes
    # on the link down to it, does not parse: the probe counts as silent, the
    # round still reaches its verdict, and node 2's answer is not lost.
    own_probe = wire.encode_probe(1)
    for cut in ("answer", "probe"):
        world = World(Scenario(seed=3, n=20, generator="recursive", audit_prob=1.0))
        answers = []

        def cutting(src, dst, payload, cut=cut, answers=answers):
            if cut == "probe" and (src, dst, payload) == (0, 1, own_probe):
                return payload[:5]
            if cut == "answer" and (src, dst) == (1, 0) and payload[0] == wire.PROBE_RESP:
                answers.append(payload)  # node 1's own answer comes before any bundle it relays
                if len(answers) == 1:
                    return payload[:12]
            return payload

        on_links(world, cutting)
        result = world.run_round(1)
        assert result.integrity == "passed"
        assert (1, False, False) in result.report.transcript
        assert 1 in result.report.non_committed
        assert (2, True, True) in result.report.transcript  # node 1's sibling in the group


def test_attested_round_charges_each_sibling_group_once():
    # Station 0 -> 1 -> {2, 3}, 2 -> {4, 5}; 2 forges.  A sibling group
    # under parent p costs the request (9 B + 4 B per target) over depth(p)
    # links, each target's 9 B probe and its answer over one link, and the
    # bundle of the answers over depth(p) links.  A leaf answers in 69 B, a
    # node with two children in 93 B; a bundle is 9 B plus its answers less
    # their 9 B headers.
    world = World(Scenario(seed=5, edges=((0, 1), (1, 2), (1, 3), (2, 4), (2, 5)),
                           compromises=(CompromiseSpec(2, "forge_children", (12345,)),)))
    result = world.run_round(1)
    assert result.integrity == "attested" and result.report.outliers == frozenset({2})
    assert [nid for nid, _, _ in result.report.transcript] == [1, 2, 3, 4, 5]
    data = (10, 5 * (10 + 57))  # a query down and a 57 B packet up per node
    groups = (  # (messages, bytes): request, probes, answers, bundle
        (0 + 1 + 1 + 0, 0 + 9 + 93 + 0),  # (1,) under the station, depth 0
        (1 + 2 + 2 + 1, 17 + 2 * 9 + (93 + 69) + 153),  # (2, 3) under 1
        (2 + 2 + 2 + 2, 2 * 17 + 2 * 9 + 2 * 69 + 2 * 129),  # (4, 5) under 2
    )
    # Exoneration sends nothing: 1's failing child 2 committed, so the
    # station clears 1 on 1's answer less 2's.  Node 2 has no failing
    # child, and the attested value is built at the station.
    messages = data[0] + sum(g[0] for g in groups)
    sent = data[1] + sum(g[1] for g in groups)
    assert (messages, sent) == (26, 1235)
    rm = world.metrics.rounds[0]
    assert (rm.messages, rm.bytes, rm.probes) == (messages, sent, 5)
    # A group none of whose targets answers sends nothing back up, and a
    # target that is not the addressee's child gets no probe.
    world.nodes[4].state = world.nodes[5].state = None

    def charged(request):
        before = (rm.messages, rm.bytes)
        assert world.ask(0, 2, request) is None
        return rm.messages - before[0], rm.bytes - before[1]

    assert charged(wire.encode_probe(1, (4, 5))) == (2 + 2, 2 * 17 + 2 * 9)
    assert charged(wire.encode_probe(1, (3,))) == (2, 2 * 13)


def test_station_answers_only_as_a_relay():
    # The station's own sibling group is asked over no link, so a fault on
    # the bus can turn that request into one only a sensor could answer: it
    # gets no answer, not a lookup error.
    world = World(Scenario(seed=5, n=4, generator="star"))
    world.run_round(1)
    for request in (wire.encode_probe(1), wire.encode_reagg(1, (1,)), b""):
        assert world.ask(0, 0, request) is None


def _two_parse_bundle(round_no: int, answers: list[bytes]) -> bytes | None:
    """The bundle of a relay that decodes every answer and re-frames the
    entries of those that parse; None when none does."""
    entries: list[bytes] = []
    for answer in answers:
        msg_type, body = wire.parse_frame(answer)
        if msg_type == wire.PROBE_RESP:
            try:
                entries += wire.decode_probe_resp(body)[1]
            except ValueError:
                pass
    return wire.encode_probe_resp(round_no, entries) if entries else None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relay_forwards_what_a_two_parse_relay_would(data):
    # Each target's answer cut, bit-flipped, retyped or followed by bytes of
    # another answer: the bundle the relay sends up equals the one a relay
    # that decoded each answer and re-framed its entries would send.
    world = World(Scenario(seed=3, n=20, generator="recursive"))
    world.run_round(1)
    children = world.tree.children
    parent = data.draw(st.sampled_from([v for v in sorted(children) if len(children[v]) > 1]))
    targets = tuple(data.draw(st.lists(st.sampled_from(children[parent]), min_size=1, unique=True).map(sorted)))
    honest = [world.nodes[cid].respond_attestation(1) for cid in children[parent]]
    answers = []
    for cid in targets:
        answer = data.draw(st.sampled_from(honest))
        for fault in data.draw(st.lists(st.sampled_from(("cut", "flip", "retype", "append")), max_size=3)):
            if fault == "cut":
                answer = answer[: data.draw(st.integers(0, len(answer)))]
            elif fault == "flip" and answer:
                at = data.draw(st.integers(0, len(answer) - 1))
                answer = answer[:at] + bytes([answer[at] ^ 1 << data.draw(st.integers(0, 7))]) + answer[at + 1:]
            elif fault == "retype" and answer:
                answer = bytes([data.draw(st.sampled_from((wire.PROBE_RESP, wire.AGG, 0x7F)))]) + answer[1:]
            elif fault == "append":
                other = data.draw(st.sampled_from(honest))
                answer += other[data.draw(st.one_of(st.just(9), st.integers(0, len(other)))):]
        world.nodes[cid].respond_attestation = lambda round_no, answer=answer: answer
        answers.append(answer)
    assert world.ask(0, parent, wire.encode_probe(1, targets)) == _two_parse_bundle(1, answers)


def test_malformed_query_is_ignored_and_timed_out():
    # A QUERY cut on link 1->3, emptied, or retyped does not parse at node 3:
    # node 3 ignores it, node 1 times it out as silent (absent root 3), and
    # the round reaches a verdict that blames no one.
    for garble in (lambda p: p[:5], lambda p: b"", lambda p: b"\x7f" + p[1:]):
        world = World(Scenario(seed=3, n=20, generator="recursive", audit_prob=1.0))
        on_links(world, lambda src, dst, p, garble=garble:
                 garble(p) if (src, dst) == (1, 3) and p[0] == wire.QUERY else p)
        result = world.run_round(1)
        assert result.integrity == "passed"
        assert world.nodes[1].state.emitted.absent == (3,)
        assert 3 not in result.participants
        assert result.report.outliers == frozenset()


def test_query_moved_to_another_round_opens_no_marker():
    # Bit 4 of the round field of the QUERY on link 1->2 is flipped in round
    # 1, so nodes 2-6 of a 6-node path open round 17.  That is not the
    # station's round: none of them gets an end-of-subtree marker, so none
    # emits, and the only AGG of round 1 is node 1's.  Their chains are then
    # past rounds 2 and 3, whose queries are stale to them, so each round
    # passes over node 1 alone.  QUERY frames are unauthenticated (ROADMAP
    # item 13); this pins the marker rule until a QUERY MAC changes it.
    world = World(Scenario(seed=3, n=6, generator="path", rounds=3))
    sent = []

    def flip(src, dst, payload):
        sent.append((src, dst, payload[0]))
        if (src, dst) == (1, 2) and payload[0] == wire.QUERY and world.metrics.rounds[-1].round == 1:
            flipped = bytearray(payload)
            flipped[8] ^= 1 << 4
            return bytes(flipped)
        return payload

    on_links(world, flip)
    results = world.run()
    assert [world.nodes[v].state.round for v in range(2, 7)] == [17] * 5
    assert all(world.nodes[v].state.emitted is None for v in range(2, 7))
    assert [(src, dst) for src, dst, t in sent if t == wire.AGG] == [(1, 0)] * 3
    for r in results:
        assert (r.integrity, sorted(r.participants)) == ("passed", [1])
        assert r.raw_sum == plaintext_sum(world, r.round, [1])


def test_malformed_reaggregation_request_is_a_refusal():
    # Non-committed forger 6 sits below 4 and 1.  Node 1 is cleared at the
    # station, since its failing child 4 committed; node 4 is asked over the
    # network to leave out 6, and that request is cut to 2 bytes: it gets no
    # reply, which counts as a refusal, so 4 stays an outlier, its subtree
    # leaves the attested value, and 6 is still localized.  Node 4 is
    # honest: blaming it for a cut frame is the same keyless-attacker defect
    # (ROADMAP item 2) as a cut probe counting as non-committed, and the
    # assertion on it marks that defect.
    world = World(Scenario(seed=3, n=20, generator="recursive",
                           compromises=(CompromiseSpec(6, "noncommit"),)))
    sent = []

    def cutting(src, dst, payload):
        if payload[0] == wire.REAGG:
            sent.append(dst)
            if dst == 4:
                return payload[:2]
        return payload

    on_links(world, cutting)
    result = world.run_round(1)
    assert sent == [4]
    assert result.integrity == "attested"
    assert 6 in result.report.outliers
    assert 4 in result.report.outliers
    assert result.participants == frozenset(world.tree.sensor_ids) - world.tree.subtree(4)
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)


def test_honest_rounds_share_one_participant_set():
    # Results are kept for every round, so a participant set per honest
    # round would grow memory with the number of rounds run.
    world = World(Scenario(seed=7, n=30, generator="recursive", rounds=3))
    first, *rest = world.run()
    assert first.participants == frozenset(world.tree.sensor_ids)
    assert all(r.participants is first.participants for r in rest)


def test_silent_child_is_timed_out_at_the_deadline():
    # Every frame node 4 of a path sends is lost: node 3 still emits, when
    # its subtree has drained, with 4 as an absent root.  Message count
    # pinned from the simulator that armed a timeout for every node.
    world = World(Scenario(seed=1, n=6, generator="path", audit_prob=1.0))
    seen = []
    node = world.nodes[3]
    honest_handle, honest_emit = node.handle_message, node.emit

    def handle(payload):
        seen.append(payload[0])
        return honest_handle(payload)

    def emit():
        seen.append("emit")
        return honest_emit()

    node.handle_message, node.emit = handle, emit
    on_links(world, lambda src, dst, payload: None if src == 4 else payload)
    result = world.run_round(1)
    assert seen == [wire.QUERY, "emit"]
    assert world.nodes[3].state.emitted.absent == (4,)
    assert result.integrity == "passed" and result.participants == frozenset({1, 2, 3})
    assert (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes) == (9, 317)


@settings(max_examples=200, deadline=None)
@given(generator=st.sampled_from(GENERATORS), n=st.integers(1, 60), seed=st.integers(0, 2**32),
       data=st.data())
def test_silent_nodes_at_any_depth_cost_only_their_subtrees(generator, n, seed, data):
    # Every frame a silent node sends is lost, its queries to its children
    # included: exactly the sensors with no silent node on their path to the
    # station take part, and the round passes over them in both rounds.
    silent = data.draw(st.sets(st.integers(1, n)))
    world = World(Scenario(seed=seed, n=n, generator=generator, rounds=2))
    parent = world.tree.parent

    def heard(nid):
        while nid != 0:
            if nid in silent:
                return False
            nid = parent[nid]
        return True

    expected = frozenset(filter(heard, world.tree.sensor_ids))
    on_links(world, lambda src, dst, payload: None if src in silent else payload)
    for result in world.run():
        assert result.participants == expected
        if expected:
            assert result.integrity == "passed"
            assert result.raw_sum == plaintext_sum(world, result.round, expected)
        else:
            assert result.integrity == "rejected"


def test_round_that_raises_still_reports_its_traffic():
    # Node 2 forges its reading out of range and raises as soon as it is
    # queried; the two QUERY frames that reached it are still charged.
    world = World(Scenario(seed=1, n=4, generator="path",
                           compromises=(CompromiseSpec(2, "forge_own", (-100000,)),)))
    with pytest.raises(ReadingOutOfRange):
        world.run_round(1)
    assert (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes) == (2, 20)


def test_every_frame_crosses_the_bus():
    # A forced audit with a network re-aggregation: non-committed 6 sits
    # below 4, which the station asks to leave 6 out.  Every frame type
    # passes the bus, and the bus's own tally of links is the round's
    # traffic.
    world = World(Scenario(seed=3, n=20, generator="recursive", audit_prob=1.0,
                           compromises=(CompromiseSpec(6, "noncommit"),)))
    depth = world.tree.depth
    types, messages, sent = set(), 0, 0

    def recording(src, dst, payload):
        nonlocal messages, sent
        types.add(payload[0])
        links = abs(depth[src] - depth[dst])
        messages += links
        sent += links * len(payload)
        return payload

    on_links(world, recording)
    assert world.run_round(1).integrity == "attested"
    assert types == {wire.QUERY, wire.AGG, wire.PROBE, wire.PROBE_RESP, wire.REAGG, wire.REAGG_RESP}
    assert (messages, sent) == (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes)


def test_dropped_child_of_a_path_becomes_an_absent_root():
    world = World(Scenario(seed=1, n=6, generator="path",
                           compromises=(CompromiseSpec(2, "drop_child", (3,)),)))
    result = world.run_round(1)
    assert world.nodes[2].state.emitted.absent == (3,)
    assert result.participants == frozenset({1, 2})
    assert (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes) == (12, 410)


def test_leaves_get_no_timeout(monkeypatch):
    # No node is sent a frame to make it emit: each emits when its subtree
    # has drained, a leaf as soon as it is queried.  Every sensor handles its
    # QUERY, and its parent handles its AGG unless the parent is the
    # station: on the 64-node path that is 127 frames.  A star's sensors are
    # all leaves.
    seen = []
    honest = SensorNode.handle_message

    def recording(self, payload):
        seen.append(payload[0])
        return honest(self, payload)

    monkeypatch.setattr(SensorNode, "handle_message", recording)
    for generator, n in (("star", 12), ("path", 64), ("recursive", 40)):
        seen.clear()
        world = World(Scenario(seed=5, n=n, generator=generator))
        assert world.run_round(1).integrity == "passed"
        relayed = n - len(world.tree.children[0])
        assert sorted(seen) == [wire.QUERY] * n + [wire.AGG] * relayed, generator


# Hashes of scripts/behaviour_sweep.py over its first 40 worlds (every
# generator and adversary kind).  The reports and transcripts are pinned from
# the simulator before its data phase was streamlined, the bytes from the
# simulator that exonerates committed ancestors at the station by ring
# subtraction.  The statuses, each sensor's liveness, and the combined hash
# (which also covers message counts) are pinned from the station that reads
# liveness from absence streaks and keeps no conviction status.  A change
# meant to keep behaviour must keep them all; a deliberate behaviour or
# traffic change updates them and says so.
SWEEP_WORLDS = 40
SWEEP_PARTS = {
    "reports": "171b744f36a45b5e17f8d370e413fa210aeebd8886e76ee4eab4eac027fc7d07",
    "transcripts": "aac052d4611929553ff223a89121c66f9218e46b9b992e66b37e1a863102985e",
    "statuses": "12401925ebb21c50c3e3baa28a2c22ff542d3efa618b7b4b3f995bf347b7dfdf",
}
SWEEP_COMBINED = "1915d13e21ad3c7d4e6054618735ef20dd5bdf53ee5598b7f91aea4af0838b08"
SWEEP_BYTES = "e7f9ea03c965e21680edcc8d59241f1e649e0593f5f1e20e7714be828e4d4b87"
# The order of the frames on the bus over the same 40 worlds, each frame's
# ends, type and length, pinned from the simulator whose nodes timed out
# their silent children with a TIMEOUT alarm.
SWEEP_FRAMES = "9400e09ec4fe1c89973ce23455f24132ec8256d76e563bd6511562a540a5fe4d"
# Every byte of those frames, with their ends, in the same order: the wire
# format itself.  Pinned from the simulator whose channels authenticate
# without encrypting and whose PRFs are keyed once, before the packet codec
# was streamlined; a change that keeps the wire must keep it.
SWEEP_CONTENTS = "5596b45e1e9fb21f0b47995de54b0f1da73bed60bd370d09dd4edbf0e79313bb"
# The reports, participants and transcripts of the same 40 worlds run again
# behind a keyless attacker on AGG frames (drops, cuts, flips past the sender
# field, retypes), pinned from the simulator whose sensors kept a pending set.
SWEEP_FAULTS = "4729b95b1b3aedad9596d819786bb7ff63745d71f00ec3d17ad27e72d04a7fa3"
# The same three parts over the script's default 104 worlds, where every
# generator meets every adversary kind under every audit setting; reports and
# transcripts unchanged since the data phase was streamlined, statuses pinned
# with the 40-world ones.
SWEEP_104_PARTS = {
    "reports": "dc89132f68e2e6d744d299ea4e807204800722bb6ff2b1f9e11b6b8f827178f6",
    "transcripts": "066d1ec7ab09db1b8cd449cdc777cf9636d2c54eddb7c3e232c4a60aa2dd1bbb",
    "statuses": "cebdc3a3f84051032c1207dd99cb5e8e035d9041b8baf49d03524c46b23378c3",
}


def _sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_sweep.py"
    spec = importlib.util.spec_from_file_location("behaviour_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_behaviour_sweep_fingerprint_is_pinned():
    hashes, outcomes = _sweep().fingerprint(SWEEP_WORLDS)
    assert outcomes["ok"] == SWEEP_WORLDS
    assert {part: hashes[part] for part in SWEEP_PARTS} == SWEEP_PARTS
    assert (hashes["combined"], hashes["bytes"]) == (SWEEP_COMBINED, SWEEP_BYTES)
    assert hashes["frames"] == SWEEP_FRAMES
    assert hashes["contents"] == SWEEP_CONTENTS
    assert hashes["faults"] == SWEEP_FAULTS


def test_behaviour_sweep_verdicts_over_104_worlds_are_pinned():
    hashes, outcomes = _sweep().fingerprint(104)
    assert outcomes["ok"] == 104
    assert {part: hashes[part] for part in SWEEP_104_PARTS} == SWEEP_104_PARTS


def _one_sided_dual_forgery(monkeypatch):
    """A range check of the kind that catches a pair-consistent forger: a
    dual forge_children node shifts only its first chain."""
    honest = Behavior.forge_pair

    def one_sided(self, dsum, dsum_prime, round_no):
        forged = honest(self, dsum, dsum_prime, round_no)
        return (forged[0], dsum_prime) if self.dual else forged

    monkeypatch.setattr(Behavior, "forge_pair", one_sided)
    return lambda kind, args: kind == "forge_children" and args[1:] == [True]


def _drop_child_keeps_its_child(monkeypatch):
    monkeypatch.setattr(Behavior, "drops_child", lambda self, child, round_no: False)
    return lambda kind, args: kind == "drop_child"


@pytest.mark.parametrize("change", [_one_sided_dual_forgery, _drop_child_keeps_its_child])
def test_behaviour_sweep_diff_names_the_worlds_a_change_reaches(change, monkeypatch, tmp_path, capsys):
    # A change that only worlds with one kind of compromise can see: the
    # ledger diff names exactly those worlds.
    sweep = _sweep()
    base, changed = tmp_path / "base.jsonl", tmp_path / "changed.jsonl"
    assert sweep.main([str(SWEEP_WORLDS), "--worlds-out", str(base)]) == 0
    reaches = change(monkeypatch)
    assert sweep.main([str(SWEEP_WORLDS), "--worlds-out", str(changed)]) == 0
    capsys.readouterr()
    assert sweep.main(["--diff", str(base), str(changed)]) == 1
    out = capsys.readouterr().out.splitlines()
    named = {int(line.split()[1]) for line in out if line.startswith("world ")}
    ledger = [json.loads(line) for line in base.read_text().splitlines()]
    expected = {rec["world"] for rec in ledger if any(reaches(kind, args) for _, kind, args in rec["compromises"])}
    assert expected and named == expected
    assert out[-1].startswith(f"{len(expected)} of {SWEEP_WORLDS} worlds differ; worlds by part: ")
    assert sweep.main(["--diff", str(base), str(base)]) == 0
    assert capsys.readouterr().out == f"0 of {SWEEP_WORLDS} worlds differ; worlds by part: -\n"


def _keyless(rng: random.Random):
    """A keyless attacker on every link: it drops, cuts, flips a bit of, or
    rewrites the sender of some frames.  It never flips a QUERY's round,
    which would make the receiver replay its seed chains that far."""
    query = bytes([wire.QUERY])

    def fault(src, dst, payload):
        r = rng.random()
        if r < 0.08:
            return None
        if r < 0.12:
            return payload[: rng.randrange(len(payload) + 1)]
        if r < 0.16:
            lo = 9 if payload[:1] == query else 0
            if lo >= len(payload):
                return payload
            flipped = bytearray(payload)
            flipped[rng.randrange(lo, len(payload))] ^= 1 << rng.randrange(8)
            return bytes(flipped)
        if r < 0.22 and payload[:1] == bytes([wire.AGG]) and len(payload) >= 5:
            return payload[:1] + rng.randrange(64).to_bytes(4, "big") + payload[5:]
        return payload

    return fault


def test_each_node_that_opens_the_round_emits_once_after_its_subtree():
    # Under keyless drops, cuts, flips and AGG-sender rewrites, with the
    # sweep's forgers: every node whose QUERY opened the round sends exactly
    # one AGG, any other node sends none, and that AGG crosses the bus after
    # every data frame its subtree sent.
    sweep = _sweep()
    data_types = {wire.QUERY, wire.AGG}
    for i in range(60):
        rng = random.Random(i)
        generator, kind = GENERATORS[i % 4], sweep.KINDS[(i // 4) % 5]
        n = rng.randint(2, 40)
        tree = World(Scenario(seed=i, n=n, generator=generator)).tree
        world = World(Scenario(seed=i, rounds=3, n=n, generator=generator, audit_prob=0.5,
                               compromises=tuple(sweep.compromises(rng, n, kind, tree)),
                               trigger_round=2 if kind == "replay" else rng.randint(1, 2)))
        sent: list[tuple[int, int]] = []  # (sender, type) of each frame, as sent
        on_links(world, _keyless(rng))
        faulty = world.deliver

        def recording(src, dst, payload, faulty=faulty, sent=sent):
            sent.append((src, payload[0]))
            return faulty(src, dst, payload)

        world.deliver = recording
        for round_no in (1, 2, 3):
            sent.clear()
            world.run_round(round_no)
            data = [(src, t) for src, t in sent if t in data_types]
            opened = {v for v, node in world.nodes.items()
                      if node.state is not None and node.state.round == round_no}
            aggs = {}
            for at, (src, t) in enumerate(data):
                if t == wire.AGG:
                    assert src not in aggs, (i, round_no, src)
                    aggs[src] = at
            assert set(aggs) == opened, (i, round_no)
            for v, at in aggs.items():
                subtree = world.tree.subtree(v)
                assert all(src not in subtree for src, _ in data[at + 1:]), (i, round_no, v)


# The report line, transcript, non-committed set and metrics row of every
# round of 60 small worlds whose every round is walked (audit_prob=1.0),
# behind the keyless attacker above on every link: PROBE, PROBE_RESP, REAGG
# and REAGG_RESP frames included, which no sweep hash faults.  A round that
# raises a ProtocolError is recorded by its class name.  Pinned from the
# simulator whose relay decoded each answer and re-framed the entries.
WALK_FAULTS = "ec63e8f9d79b31628eb5e5f706750524e7d86f2a0036c2087bc67eb2a702a56c"


def test_walk_under_keyless_faults_is_pinned():
    sweep = _sweep()
    digest = hashlib.sha256()
    for i in range(60):
        rng = random.Random(500 + i)
        generator, kind = GENERATORS[i % 4], sweep.KINDS[(i // 4) % 5]
        n = rng.randint(2, 40)
        tree = World(Scenario(seed=500 + i, n=n, generator=generator)).tree
        world = World(Scenario(seed=500 + i, rounds=3, n=n, generator=generator, audit_prob=1.0,
                               compromises=tuple(sweep.compromises(rng, n, kind, tree)),
                               trigger_round=2 if kind == "replay" else rng.randint(1, 2)))
        on_links(world, _keyless(rng))
        for round_no in (1, 2, 3):
            try:
                result = world.run_round(round_no)
            except ProtocolError as exc:
                digest.update(f"{i}|{round_no}|{type(exc).__name__}".encode())
                continue
            rep, rm = result.report, world.metrics.rounds[-1]
            walk = "-" if rep is None else f"{rep.transcript}|{sorted(rep.non_committed)}"
            digest.update(f"{i}|{format_report_line(result)}|{walk}|{rm}".encode())
    assert digest.hexdigest() == WALK_FAULTS


@pytest.fixture(scope="module")
def lossy_worlds():
    """Two honest 64-sensor worlds per generator, every round audited, run
    for 10 rounds behind seeded independent 1% loss on every frame."""
    worlds = []
    for generator in GENERATORS:
        for seed in (1, 2):
            world = World(Scenario(seed=seed, rounds=10, n=64, generator=generator, audit_prob=1.0))
            rng = random.Random(seed)
            on_links(world, lambda src, dst, payload, rng=rng: None if rng.random() < 0.01 else payload)
            world.run()
            worlds.append(world)
    return worlds


def test_benign_loss_keeps_every_accepted_value_exact(lossy_worlds):
    # A lost frame costs its subtree, never the value: whatever a round
    # accepts is the plain sum over the participants it names.
    accepted = [(world, r) for world in lossy_worlds for r in world.results if r.integrity != "rejected"]
    assert accepted
    for world, r in accepted:
        assert r.raw_sum == plaintext_sum(world, r.round, r.participants), (world.scenario, r.round)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a lost probe or answer counts as non-committed")
def test_benign_loss_blames_no_honest_node(lossy_worlds):
    blamed = {(world.scenario.generator, world.scenario.seed, r.round): sorted(r.report.outliers)
              for world in lossy_worlds for r in world.results if r.report is not None and r.report.outliers}
    assert blamed == {}


@pytest.mark.parametrize("generator", GENERATORS)
def test_honest_round_keys_nothing(monkeypatch, generator):
    # Every PRF is keyed at set-up: rounds 2 and 3 of an honest 64-node world
    # construct no blake2b state, while keying one is counted.
    world = World(Scenario(seed=7, n=64, generator=generator))
    world.run_round(1)
    built = []
    real = hashlib.blake2b

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    for round_no in (2, 3):
        assert world.run_round(round_no).integrity == "passed"
    assert built == []
    crypto.mac_key(bytes(crypto.KEY_LEN))
    assert built == [1]


def test_walk_keys_each_probed_node_once(monkeypatch):
    # A walk keys a probed node's direct channel and MAC on its first probe;
    # a later walk over the same nodes, with forgers probed a second time
    # (forge_children and noncommit, one each), builds no blake2b state.
    plan = (CompromiseSpec(5, "forge_children", (77,)), CompromiseSpec(9, "noncommit", ()))
    world = World(Scenario(seed=7, n=32, generator="recursive", compromises=plan, audit_prob=1.0))
    first = world.run_round(1)
    built = []
    real = hashlib.blake2b

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    second = world.run_round(2)
    assert second.integrity == first.integrity == "attested"
    assert [t[0] for t in second.report.transcript] == [t[0] for t in first.report.transcript]
    assert {5, 9} <= second.report.outliers
    assert built == []


@pytest.mark.parametrize("generator", GENERATORS)
def test_a_probe_costs_two_channel_tags_and_one_mac(monkeypatch, generator):
    # An honest round with a forced audit.  Each of the n sensors MACs its
    # pair and seals one packet its parent opens; each probe is one seal at
    # the node, and one open and one MAC at the station.
    n = 32
    world = World(Scenario(seed=7, n=n, generator=generator, audit_prob=1.0))
    calls = dict.fromkeys(("_channel_tag", "mac_pair"), 0)
    for name in calls:

        def counting(*args, name=name, real=getattr(crypto, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(crypto, name, counting)
    result = world.run_round(1)
    probes = result.report.probes
    assert result.integrity == "passed" and probes == len(world.tree.children[0])
    assert calls == {"_channel_tag": 2 * n + 2 * probes, "mac_pair": n + probes}


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
        dict(n=2, generator="star", domain=(0.0, float("inf"), 100)),
        dict(n=2, generator="star", domain=(float("-inf"), 10.0, 100)),
        dict(n=2, generator="star", domain=(0.0, 10.0, 100.0)),  # scale must be an int
        dict(n=2, generator="star", domain=(0.0, 10.0, True)),
        dict(n=4, generator="path", domain=(0.0, 1000.0, 10**20)),  # 4 * 1e23 wraps the ring
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), offset=st.integers(-3 * 2**12, 3 * 2**12))
def test_a_world_whose_sum_could_wrap_the_ring_is_rejected(n, offset):
    # Readings of up to max_raw on n sensors fit the 2**64 ring exactly when
    # n * max_raw < 2**64; near that bound a float high rounds to a multiple
    # of a power of two, so max_raw is read back from the codec.
    domain = (0.0, float(2**64 // n + offset), 1)
    max_raw = crypto.FixedPointCodec(*domain).max_raw
    scenario = Scenario(seed=n, n=n, generator="path", domain=domain)
    if n * max_raw >= 2**64:
        with pytest.raises(ScenarioInvalid, match=r"2\*\*64 ring"):
            World(scenario)
        return
    world = World(scenario)
    result = world.run_round(1)
    sensors = [crypto.sense_key(world.prov.sense_keys[v]) for v in world.tree.sensor_ids]
    readings = sum(crypto.sense_raw(sensor, 1, max_raw) for sensor in sensors)
    assert result.integrity == "passed" and result.raw_sum == readings < 2**64


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


def _no_trial(world, scenario):
    raise AssertionError("a trial ran")


def test_scaling_label_too_long_is_refused_before_any_trial(monkeypatch):
    # A trial's seed label is blake2b's person parameter, at most 16 bytes;
    # "scale.16384.10000" and "scale.1000000.100" are 17.  The sweep refuses
    # them before its first trial, rather than after every earlier one.
    monkeypatch.setattr(World, "__init__", _no_trial)
    for sizes, trials, label in (((4, 16384), 10001, "scale.16384.10000"),
                                 ((1000000,), 101, "scale.1000000.100")):
        with pytest.raises(ScenarioInvalid, match=f"'{label}' is longer than 16 bytes"):
            measure_scaling(sizes, trials)


def test_derived_seeds_are_pinned():
    # Pinned before the scaling labels were checked up front; a label of
    # exactly 16 bytes still derives its seed.
    assert _sub_seed(0, "topology") == 10633921651861815725
    assert _sub_seed(112, "scale.4.1") == 920121800088873385
    assert _sub_seed(5, "scale.16384.9999") == 18213735988465470109
    assert _sub_seed(2**64 - 1, "audit") == 9057486228567554215


def test_scaling_rows_shape_and_determinism():
    rows = measure_scaling((4, 8), trials=2, seed=112)
    assert [r.n for r in rows] == [4, 8]
    assert all(r.trials == 2 for r in rows)
    assert rows == measure_scaling((4, 8), trials=2, seed=112)
    assert all(r.max_probes <= r.n for r in rows)
