"""Deterministic simulator: depth-first data phase, round flow, metrics, scaling."""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import fault_grammar
import pytest
from conftest import behaviour_sweep, on_links, plaintext_sum
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto, wire
from concealed_agg.adversary import BUILDERS, Behavior, CompromiseSpec
from concealed_agg.basestation import format_report_line
from concealed_agg.errors import AuthFailure, ProtocolError, ReadingOutOfRange, ScenarioInvalid, StaleRound
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
    # The round is every channel's counter, and rounds strictly increase.
    # After five rounds of one emission per node each, the station kept each
    # child's round-5 packet, which opens there in round 5 and in no round
    # next to it, and it refuses to run round 5 again.
    world = World(Scenario(seed=104, n=6, generator="recursive", rounds=5))
    world.run()
    assert [rm.messages for rm in world.metrics.rounds] == [2 * 6] * 5
    assert all(node.state.round == 5 and node.state.emitted for node in world.nodes.values())
    assert set(world.bs._round_packets) == set(world.tree.children[0])
    for cid, pkt in world.bs._round_packets.items():
        node, rx = world.nodes[cid], world.bs._child_channels[cid]
        _, body = wire.seal_packet(node.up_channel, 5, cid, pkt.absent, pkt.dsum, pkt.dsum_prime, pkt.tag)
        assert wire.open_packet(rx, 5, body) == pkt
        for round_no in (4, 6):
            with pytest.raises(AuthFailure):
                wire.open_packet(rx, round_no, body)
    with pytest.raises(StaleRound):
        world.bs.disseminate(5, "sum")


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
    # Station 0 -> 1 -> {2, 3}, 2 -> {4, 5}; 2 forges.  The station probes
    # its child 1, which fails; of the packets 1 reports only 2's fails, so
    # 2 alone is probed below 1, and both packets 2 reports pass.  A target
    # alone below one of the station's links is asked for itself: its 9 B
    # probe and its answer each cross every link between it and the
    # station.  An answer is its type byte, a 4 B child count, 32 B per
    # leaf child packet and the node's own 48 B packet.  A request that
    # names targets (9 B + 4 B per target) and a relay's bundle of the
    # answers (one type byte and their entries) are charged below.
    world = World(Scenario(seed=5, edges=((0, 1), (1, 2), (1, 3), (2, 4), (2, 5)),
                           compromises=(CompromiseSpec(2, "forge_children", (12345,)),)))
    result = world.run_round(1)
    assert result.integrity == "attested" and result.report.outliers == frozenset({2})
    assert [nid for nid, _, _ in result.report.transcript] == [1, 2]
    data = (10, 5 * (10 + 49))  # a query down and a 49 B packet up per node
    groups = (  # (messages, bytes): a probe down and an answer up
        (1 + 1, 9 + 117),  # (1,), over the link 0-1
        (2 + 2, 2 * 9 + 2 * 117),  # (2,), over the links 0-1 and 1-2
    )
    # Exoneration sends nothing: the station clears 1 on 1's answer less
    # the packet 1 reports for 2.  Node 2 has no failing child, and the
    # attested value is built at the station.
    messages = data[0] + sum(g[0] for g in groups)
    sent = data[1] + sum(g[1] for g in groups)
    assert (messages, sent) == (16, 673)
    rm = world.metrics.rounds[0]
    assert (rm.messages, rm.bytes, rm.probes) == (messages, sent, 2)
    # A group none of whose targets answers sends nothing back up, and a
    # target that is not the addressee's child gets no probe.
    world.nodes[4].state = world.nodes[5].state = None

    def charged(request):
        before = (rm.messages, rm.bytes)
        assert world.ask(0, 2, request) is None
        return rm.messages - before[0], rm.bytes - before[1]

    assert charged(wire.encode_probe(1, (4, 5))) == (2 + 2, 2 * 17 + 2 * 9)
    assert charged(wire.encode_probe(1, (3,))) == (2, 2 * 13)


def _shared_paths_world() -> World:
    """Station 0 -> 1 -> {2, 3}, 2 -> {4, 5}, 3 -> {6, 7}, with forging leaves
    4 and 6: nodes 1, 2, 3, 4 and 6 fail, and 4 and 6, probed at depth 3
    under different parents, share the link 0-1 to the station."""
    edges = ((0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7))
    forgers = tuple(CompromiseSpec(v, "forge_children", (12345,)) for v in (4, 6))
    return World(Scenario(seed=5, edges=edges, compromises=forgers))


def test_one_request_per_depth_shares_the_links_of_its_groups():
    # The walk probes depth 1 {1}, depth 2 {2, 3} and depth 3 {4, 6}, each
    # with one request the station relays first.  A request is 9 B plus 4 B
    # per target it names, a target's own probe 9 B; an answer is a type
    # byte, a 4 B child count, 32 B per reported child packet (none has
    # absent ids) and the node's own 48 B packet; a bundle is a type byte
    # and the entries it carries.  The station's own hop crosses no link.
    # A target alone below a relay's child is asked by the relay itself,
    # its probe and answer each crossing every link between them.
    world = _shared_paths_world()
    result = world.run_round(1)
    assert result.integrity == "attested" and result.report.outliers == frozenset({4, 6})
    assert [nid for nid, _, _ in result.report.transcript] == [1, 2, 3, 4, 6]
    data = (14, 7 * (10 + 49))  # a query down and a 49 B packet up per node
    depths = (  # (messages, bytes) over links
        # 0 asks 1; 1's 117 B answer.
        (1 + 1, 9 + 117),
        # (2, 3) forwarded to 1; 1 asks 2 and 3; their 117 B answers; 1's
        # 233 B bundle.
        (1 + 2 + 2 + 1, 17 + 2 * 9 + 2 * 117 + 233),
        # (4, 6) forwarded to 1 once; 1 asks 4 and 6 over two links each;
        # their 53 B answers back over the same two links; 1's 105 B
        # bundle.  Link 0-1 carries one request and one bundle where a
        # request and a bundle per target would put two of each on it:
        # 2 messages and 13 + 13 + 53 + 53 - 17 - 105 = 10 B more.
        (1 + 2 * 2 + 2 * 2 + 1, 17 + 4 * 9 + 4 * 53 + 105),
    )
    messages = data[0] + sum(d[0] for d in depths)
    sent = data[1] + sum(d[1] for d in depths)
    assert (messages, sent) == (32, 1411)
    rm = world.metrics.rounds[0]
    assert (rm.messages, rm.bytes, rm.probes) == (messages, sent, 5)


@pytest.mark.parametrize("fault", ["cut", "flip"])
def test_fault_on_one_branchs_bundle_spares_the_other_branch(fault):
    # Node 4's answer is cut to 5 bytes, or has the top bit of its child
    # count flipped, on its way up to relay 1, which asked it over the links
    # 1-2 and 2-4.  Relay 1 walks it, drops it, and still forwards 6's
    # answer, which comes after it in tour order: 4 counts as silent, 6 is
    # judged on its answer.
    world = _shared_paths_world()
    frames = []

    def faulty(src, dst, payload):
        if (src, dst) == (4, 1) and payload[0] == wire.PROBE_RESP:
            frames.append(payload)
            if fault == "cut":
                return payload[:5]
            return payload[:1] + bytes([payload[1] ^ 0x80]) + payload[2:]
        return payload

    on_links(world, faulty)
    result = world.run_round(1)
    assert len(frames) == 1
    transcript = {nid: (committed, ok) for nid, committed, ok in result.report.transcript}
    assert transcript[4] == (False, False) and transcript[6] == (True, False)
    assert result.integrity == "attested" and result.report.outliers == frozenset({4, 6})
    assert result.raw_sum == plaintext_sum(world, 1, result.participants)


def test_relay_forwards_a_probe_for_a_node_below_its_children():
    # Node 1 is asked about 4 and 5, children of its child 2: it forwards
    # (4, 5) to 2, which asks both, and the bundle comes back through both
    # relays.  Eight frames cross one link each: the request to 1 and on to
    # 2 (17 B each), 4's and 5's probes (9 B), their answers (53 B) and each
    # bundle of them (105 B).
    world = _shared_paths_world()
    world.run_round(1)
    rm = world.metrics.rounds[0]
    sent = []
    on_links(world, lambda src, dst, payload: sent.append((src, dst)) or payload)
    before = (rm.messages, rm.bytes)
    bundle = world.ask(0, 1, wire.encode_probe(1, (4, 5)))
    answers = [world.nodes[v].respond_attestation(1) for v in (4, 5)]
    assert bundle == wire.encode_probe_resp([answer[1:] for answer in answers])
    assert sent == [(0, 1), (1, 2), (2, 4), (4, 2), (2, 5), (5, 2), (2, 1), (1, 0)]
    assert (rm.messages - before[0], rm.bytes - before[1]) == (8, 2 * 17 + 2 * 9 + 2 * 53 + 2 * 105)
    # Asked about 4 alone, node 1 asks 4 for itself over both links, and
    # its bundle holds 4's answer: 9 B down and 53 B up over two links each.
    sent.clear()
    before = (rm.messages, rm.bytes)
    bundle = world.ask(0, 1, wire.encode_probe(1, (4,)))
    assert bundle == world.nodes[4].respond_attestation(1)
    assert sent == [(0, 1), (1, 4), (4, 1), (1, 0)]
    assert (rm.messages - before[0], rm.bytes - before[1]) == (6, 13 + 2 * 9 + 2 * 53 + 53)
    # Node 2 asked about 3, outside its subtree, asks no one and sends
    # nothing back.
    before = (rm.messages, rm.bytes)
    assert world.ask(0, 2, wire.encode_probe(1, (3,))) is None
    assert (rm.messages - before[0], rm.bytes - before[1]) == (2, 2 * 13)


def test_relay_asks_a_lone_target_for_itself_over_every_link_to_it():
    # A 12-node path with a bottom forger: each depth's one target is alone
    # below the station's one link, so the station asks it for itself, and
    # the walk is one target-less probe down to each node and its answer
    # back, 24 frames, where a request to each target's parent and a
    # bundle of its answer took 46.  Each still crosses every link between
    # its ends: 2 * (1 + ... + 12) = 156 links on top of the data phase's
    # 24 messages.  Bytes: the data phase's 12 * (10 + 49); a 9 B probe per
    # link; node v's answer, its 48 B packet after a type byte, a 4 B child
    # count and its child's 32 B packet (none for leaf 12), over v links.
    # A one-target request to each target's parent and a bundle of its
    # answer would cost 264 B more.
    world = World(Scenario(seed=3, n=12, generator="path",
                           compromises=(CompromiseSpec(12, "forge_children", (12345,)),)))
    walk = []

    def recording(src, dst, payload):
        if payload[0] in (wire.PROBE, wire.PROBE_RESP):
            walk.append((src, dst, payload[0]))
        return payload

    on_links(world, recording)
    result = world.run_round(1)
    assert result.integrity == "attested" and result.report.outliers == frozenset({12})
    assert walk == [frame for v in range(1, 13) for frame in ((0, v, wire.PROBE), (v, 0, wire.PROBE_RESP))]
    rm = world.metrics.rounds[0]
    walk_bytes = 9 * 78 + 85 * sum(range(1, 12)) + 53 * 12
    assert (rm.messages, rm.bytes, rm.probes) == (24 + 156, 12 * 59 + walk_bytes, 12) == (180, 7656, 12)


def test_request_names_targets_only_where_they_branch():
    # The walk probes 4 and 6 at depth 3, below 2 and 3.  Their paths from
    # the station branch at node 1: the station forwards the request (4, 6)
    # to 1 only, and 1 asks each of them for itself, over two links, so no
    # request reaches 2 or 3.  Depth 2's targets 2 and 3 branch at 1 too.
    world = _shared_paths_world()
    requests = []

    def recording(src, dst, payload):
        if payload[0] == wire.PROBE:
            requests.append((src, dst, wire.decode_probe(payload[1:])[1]))
        return payload

    on_links(world, recording)
    result = world.run_round(1)
    assert result.report.outliers == frozenset({4, 6})
    assert requests == [(0, 1, ()), (0, 1, (2, 3)), (1, 2, ()), (1, 3, ()), (0, 1, (4, 6)), (1, 4, ()), (1, 6, ())]


def test_station_answers_only_as_a_relay():
    # The station's own sibling group is asked over no link, so a fault on
    # the bus can turn that request into one only a sensor could answer: it
    # gets no answer, not a lookup error.
    world = World(Scenario(seed=5, n=4, generator="star"))
    world.run_round(1)
    for request in (wire.encode_probe(1), wire.encode_reagg(1, (1,)), b""):
        assert world.ask(0, 0, request) is None


def test_attested_round_sends_no_frame_from_a_node_to_itself():
    # The station fans each walk request out over its own links and reads
    # each link's answer itself: no frame goes from the station to itself.
    world = World(Scenario(seed=3, n=20, generator="recursive",
                           compromises=(CompromiseSpec(6, "forge_children", (12345,)),)))
    ends = []

    def recording(src, dst, payload):
        ends.append((src, dst, payload[0]))
        return payload

    on_links(world, recording)
    result = world.run_round(1)
    assert result.integrity == "attested" and result.report.probes > 0
    assert any(t == wire.PROBE_RESP for _, _, t in ends)
    assert all(src != dst for src, dst, _ in ends)


def _two_parse_bundle(answers: list[bytes]) -> bytes | None:
    """The bundle of a relay that decodes every answer and re-frames the
    entries of those that parse; None when none does."""
    entries: list[bytes] = []
    for answer in answers:
        msg_type, body = wire.parse_frame(answer)
        if msg_type == wire.PROBE_RESP:
            try:
                entries += wire.decode_probe_resp(body)
            except ValueError:
                pass
    return wire.encode_probe_resp(entries) if entries else None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relay_forwards_what_a_two_parse_relay_would(data):
    # Each target's answer cut, bit-flipped, retyped or followed by bytes of
    # another answer: the bundle the relay sends up equals the one a relay
    # that decoded each answer and re-framed its entries would send.  Asked
    # through an ancestor of the targets' parent, two or more answers pass
    # through two relays: the ancestor forwards the request to the parent
    # and re-bundles the parent's bundle.  The ancestor asks a lone target
    # for itself, and bundles its answer once, which a second re-framing
    # leaves as it is.
    world = World(Scenario(seed=3, n=20, generator="recursive"))
    world.run_round(1)
    children = world.tree.children
    parent = data.draw(st.sampled_from([v for v in sorted(children) if len(children[v]) > 1]))
    relays = [parent]
    while relays[-1] != 0:
        relays.append(world.tree.parent[relays[-1]])
    via = data.draw(st.sampled_from(relays))
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
                answer += other[data.draw(st.one_of(st.just(1), st.integers(0, len(other)))):]
        world.nodes[cid].respond_attestation = lambda round_no, answer=answer: answer
        answers.append(answer)
    bundle = _two_parse_bundle(answers)
    if via != parent and bundle is not None:
        bundle = _two_parse_bundle([bundle])
    assert world.ask(0, via, wire.encode_probe(1, targets)) == bundle


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


def test_cut_probe_entry_of_a_forgers_parent_counts_as_silence():
    # Non-committed forger 6 sits below 4 and 1.  The packet 1 reports for 4
    # fails, so 4 is probed, alone below the station's link to 1, and its
    # answer is cut to 5 bytes on its way up to the station: 4 counts as
    # silent, so both its children are probed, and 6 is still localized.
    # Node 1 is cleared on its answer less the packet it reports for 4, so
    # the value is exact over the kept set.
    # Node 4 is honest: blaming it for a cut frame is the keyless-attacker
    # defect of a cut probe counting as non-committed (ROADMAP item 2), and
    # the assertion on it marks that defect.
    world = World(Scenario(seed=3, n=20, generator="recursive",
                           compromises=(CompromiseSpec(6, "noncommit"),)))
    assert world.tree.parent[4] == 1 and world.tree.children[4] == (6, 9)
    cut = []

    def cutting(src, dst, payload):
        if (src, dst) == (4, 0) and payload[0] == wire.PROBE_RESP:
            cut.append(payload)
            if len(cut) == 1:  # 4's own answer; its bundle of 6's and 9's comes next
                return payload[:5]
        return payload

    on_links(world, cutting)
    result = world.run_round(1)
    assert len(cut) == 2
    transcript = {nid: (committed, ok) for nid, committed, ok in result.report.transcript}
    assert transcript[4] == (False, False) and transcript[9] == (True, True)
    assert result.integrity == "attested"
    assert 6 in result.report.outliers and 1 not in result.report.outliers
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
    # pinned from the simulator that armed a timeout for every node, bytes
    # from the probe answer that carries node 2's packet.
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
    assert (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes) == (9, 301)


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
    # Node 2's reading hook raises as soon as it is queried; the two QUERY
    # frames that reached it are still charged.
    world = World(Scenario(seed=1, n=4, generator="path"))

    def out_of_range(raw, round_no):
        raise ReadingOutOfRange(f"reading {raw} outside the sensor domain")

    world.nodes[2].behavior = Behavior(reading=out_of_range)
    with pytest.raises(ReadingOutOfRange):
        world.run_round(1)
    assert (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes) == (2, 20)


def test_every_frame_crosses_the_bus():
    # A forced audit of a round with non-committed forger 6 below 4: every
    # frame type a round sends passes the bus, and the bus's own tally of
    # links is the round's traffic.  No node is asked to re-aggregate.
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
    assert types == {wire.QUERY, wire.AGG, wire.PROBE, wire.PROBE_RESP}
    assert (messages, sent) == (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes)


def test_dropped_child_of_a_path_becomes_an_absent_root():
    world = World(Scenario(seed=1, n=6, generator="path",
                           compromises=(CompromiseSpec(2, "drop_child", (3,)),)))
    result = world.run_round(1)
    assert world.nodes[2].state.emitted.absent == (3,)
    assert result.participants == frozenset({1, 2})
    assert (world.metrics.rounds[0].messages, world.metrics.rounds[0].bytes) == (12, 362)


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


# scripts/behaviour_sweep_520.txt is the sweep's output over 520 worlds:
# every generator, adversary kind and audit setting, each world run plainly
# and again behind the sweep's keyless attacker.  It pins the reports,
# metrics, transcripts and statuses, their combined hash, the bytes, the
# frame order, the frames' contents and the faulted runs, and the outcome
# counts, "ok" included.  A change meant to keep behaviour must keep the
# file byte for byte; a deliberate behaviour or traffic change regenerates
# it and says so.  The --diff test sweeps the first SWEEP_WORLDS.
SWEEP_FILE = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_sweep_520.txt"
SWEEP_WORLDS = 40


def test_behaviour_sweep_fingerprint_is_pinned(capsys):
    assert behaviour_sweep().main(["520"]) == 0
    assert capsys.readouterr().out == SWEEP_FILE.read_text(encoding="utf-8")


def test_no_round_of_the_sweep_sends_a_reaggregation_frame(monkeypatch):
    # Over the sweep's worlds, plain runs, no REAGG or REAGG_RESP frame
    # crosses the bus, though the walks probe and exonerate.
    sweep = behaviour_sweep()
    types = Counter()
    recording = sweep._recording

    def counting(deliver, frames, contents, world_index):
        recorded = recording(deliver, frames, contents, world_index)

        def counted(src, dst, payload):
            types[payload[0]] += 1
            return recorded(src, dst, payload)

        return counted

    monkeypatch.setattr(sweep, "_recording", counting)
    _, outcomes = sweep.fingerprint(SWEEP_WORLDS)
    assert outcomes["attested"] > 0 and types[wire.PROBE_RESP] > 0
    assert types[wire.REAGG] == types[wire.REAGG_RESP] == 0


def _rebuild(monkeypatch, kind, change):
    """Every `kind` compromise gets change(behavior, *args) instead."""
    usage, types, build = BUILDERS[kind]
    monkeypatch.setitem(BUILDERS, kind, (usage, types, lambda node, trigger_round, *args: change(
        build(node, trigger_round, *args), *args)))


def _one_sided_dual_forgery(monkeypatch):
    """A range check of the kind that catches a pair-consistent forger: a
    dual forge_children node shifts only its first chain."""

    def one_sided(behavior, delta, dual=False):
        forge = behavior.pair
        return Behavior(pair=lambda pair, round_no: (forge(pair, round_no)[0], pair[1])) if dual else behavior

    _rebuild(monkeypatch, "forge_children", one_sided)
    return lambda kind, args: kind == "forge_children" and args[1:] == [True]


def _drop_child_keeps_its_child(monkeypatch):
    _rebuild(monkeypatch, "drop_child", lambda behavior, child: Behavior())
    return lambda kind, args: kind == "drop_child"


@pytest.mark.parametrize("change", [_one_sided_dual_forgery, _drop_child_keeps_its_child])
def test_behaviour_sweep_diff_names_the_worlds_a_change_reaches(change, monkeypatch, tmp_path, capsys):
    # A change that only worlds with one kind of compromise can see: the
    # ledger diff names exactly those worlds.
    sweep = behaviour_sweep()
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


# Every field of a QUERY but its round: flipping a round bit asks the
# receiver to replay its seed chains that far (ROADMAP item 13).
QUERY_FLIPS = ("type", "function")


def _keyless(rng: random.Random):
    """A keyless attacker (fault_grammar) on every link: it drops 8% of the
    frames, cuts 4%, flips a bit of 4%, and rewrites the sender of 6% of the
    AGG frames.  It never flips a QUERY's round."""

    def attack(src, dst, payload):
        r = rng.random()
        if r < 0.08:
            kind = "drop"
        elif r < 0.12:
            kind = "cut"
        elif r < 0.16:
            kind = "flip"
        elif r < 0.22 and payload[:1] == bytes([wire.AGG]):
            kind = "rewrite"
        else:
            return payload
        flips = QUERY_FLIPS if payload[:1] == bytes([wire.QUERY]) else None
        return fault_grammar.fault(rng, kind, payload, flips=flips)[0]

    return attack


def test_each_node_that_opens_the_round_emits_once_after_its_subtree():
    # Under keyless drops, cuts, flips and AGG-sender rewrites, with the
    # sweep's forgers: every node whose QUERY opened the round sends exactly
    # one AGG, any other node sends none, and that AGG crosses the bus after
    # every data frame its subtree sent.
    sweep = behaviour_sweep()
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
# behind the keyless attacker above on every link: PROBE and PROBE_RESP
# frames included, which no sweep hash faults.  A round that raises a
# ProtocolError is recorded by its class name.  The attacker aims at named
# fields and draws nothing from a frame's length, but the metrics row
# carries the bytes, so the pin still moves with the wire: pinned from the
# fault grammar, the walk that sends one request per tree depth and first
# probes only the station's children whose packet fails, with no frame
# from the station to itself, and whose relays ask a lone target for itself.
WALK_FAULTS = "76ff5c1e676cb760f222d5825f155df760751b9ad575aa7768efbba83359e30f"
BLAMED_HONEST = 183


def test_walk_under_keyless_faults_is_pinned():
    sweep = behaviour_sweep()
    digest = hashlib.sha256()
    blamed = 0  # honest nodes in outliers, summed over every round
    for i in range(60):
        rng = random.Random(500 + i)
        generator, kind = GENERATORS[i % 4], sweep.KINDS[(i // 4) % 5]
        n = rng.randint(2, 40)
        tree = World(Scenario(seed=500 + i, n=n, generator=generator)).tree
        specs = tuple(sweep.compromises(rng, n, kind, tree))
        world = World(Scenario(seed=500 + i, rounds=3, n=n, generator=generator, audit_prob=1.0,
                               compromises=specs,
                               trigger_round=2 if kind == "replay" else rng.randint(1, 2)))
        compromised = {spec.node_id for spec in specs}
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
            if rep is not None:
                blamed += len(rep.outliers - compromised)
    assert digest.hexdigest() == WALK_FAULTS
    # ROADMAP item 2: the walk convicts a node whose answer a keyless fault
    # lost or spoiled.  Until that is fixed, this many honest nodes land in
    # outliers; the fix brings it to 0.
    assert blamed == BLAMED_HONEST


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
def test_an_honest_round_makes_six_prf_calls_per_sensor(monkeypatch, generator):
    # With no audit, each of the n sensors advances its seed chains once,
    # senses once, MACs its pair once and seals one packet its parent opens;
    # the station's ledger advances each sensor's chains once more.
    n = 32
    world = World(Scenario(seed=7, n=n, generator=generator))
    calls = dict.fromkeys(("next_seed", "sense_raw", "mac_pair", "_channel_tag"), 0)
    for name in calls:

        def counting(*args, name=name, real=getattr(crypto, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(crypto, name, counting)
    result = world.run_round(1)
    assert result.integrity == "passed" and result.report is None
    assert calls == {"next_seed": 2 * n, "sense_raw": n, "mac_pair": n, "_channel_tag": 2 * n}


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


def test_scaling_star_probes_only_the_forger():
    # The station IPETs its own children's packets and probes only the one
    # that fails.
    rows = measure_scaling((6,), trials=2, seed=111, generator="star")
    assert rows[0].mean_probes == 1.0


def test_forged_1024_sensor_star_costs_one_probe():
    # A query down and a packet up per sensor, then one probe and one answer
    # over the forger's link: 2n + 2 messages.
    n = 1024
    world = World(Scenario(seed=113, n=n, generator="star",
                           compromises=(CompromiseSpec(700, "forge_children", (99,)),)))
    result = world.run_round(1)
    assert result.integrity == "attested" and result.report.outliers == frozenset({700})
    assert result.report.transcript == ((700, True, False),)
    assert world.metrics.rounds[0].messages == 2 * n + 2


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
