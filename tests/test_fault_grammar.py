"""The keyless fault grammar: its field map against the package's decoders,
and draws that do not depend on a frame's length."""

import hashlib
import random
from collections import Counter, defaultdict

from conftest import behaviour_sweep
from fault_grammar import FIELDS, KINDS, PAST_SENDER, fault, field_map

from concealed_agg import wire
from concealed_agg.simulator import Scenario, World


def _sweep_frames(monkeypatch, worlds) -> list[bytes]:
    """Every frame the given sweep worlds put on the bus, plain runs."""
    sweep = behaviour_sweep()
    frames = []
    recording = sweep._recording

    def keeping(deliver, hashes, contents, world_index):
        recorded = recording(deliver, hashes, contents, world_index)

        def kept(src, dst, payload):
            frames.append(payload)
            return recorded(src, dst, payload)

        return kept

    monkeypatch.setattr(sweep, "_recording", keeping)
    for i in worlds:
        sweep._world(i, {name: hashlib.sha256() for name in sweep.PARTS}, {})
    return frames


def test_field_map_tiles_every_frame_the_sweep_sends_and_reads_what_wire_reads(monkeypatch):
    # Over the first 40 sweep worlds, and world 229, the first whose walk
    # sends a request that names targets and gets a bundle back, each frame's
    # fields run end to end from byte 0 to its last byte, and the senders,
    # rounds and targets they hold are those the package's decoders read.
    # Every field of every type is met, at least a byte wide.  A flip turns
    # one bit inside the field it hit, and a cut ends where that field starts.
    rng = random.Random(0)
    met = defaultdict(set)
    for payload in _sweep_frames(monkeypatch, [*range(40), 229]):
        spans = field_map(payload)
        met[payload[0]] |= {name for name, start, end in spans if end > start}
        assert [start for _, start, _ in spans] == [0] + [end for _, _, end in spans[:-1]]
        assert spans[-1][2] == len(payload)
        assert {name for name, _, _ in spans} <= set(FIELDS[payload[0]])
        read = defaultdict(list)  # what the rounds, targets and senders hold
        for name, start, end in spans:
            width = 8 if name == "round" else 4
            if name in ("round", "targets", "sender", "child sender"):
                read[name] += [int.from_bytes(payload[at : at + width], "big") for at in range(start, end, width)]
        body = payload[1:]
        if payload[0] == wire.AGG:
            assert read["sender"] == [wire.decode_agg_body(body)[0]]
        elif payload[0] == wire.QUERY:
            assert read["round"] == [wire.decode_query(payload, 1)[0]]
        elif payload[0] == wire.PROBE:
            assert (*read["round"], tuple(read["targets"])) == wire.decode_probe(body)
        else:
            entries = wire.probe_entry_spans(body)
            assert read["sender"] == [wire.packet_sender(body, at) for _, at, _, _ in entries]
            assert read["child sender"] == [pkt.sender for *_, children in entries for pkt in children]
        flipped, drawn = fault(rng, "flip", payload)
        diff = int.from_bytes(payload, "big") ^ int.from_bytes(flipped, "big")
        assert diff.bit_count() == 1
        at = len(payload) - 1 - (diff.bit_length() - 1) // 8
        assert any(name == drawn.hit and start <= at < end for name, start, end in spans)
        cut, drawn = fault(rng, "cut", payload)
        assert any(name == drawn.hit and start == len(cut) for name, start, _ in spans)
    assert met == {frame_type: set(names) for frame_type, names in FIELDS.items()}


def test_a_frames_length_moves_no_draw():
    # One seed gives an honest 49-byte AGG, one that carries absent ids and
    # one with bytes past its last field the same draws, and leaves the
    # random stream in the same state.  The bytes past the last field are no
    # field: the padded frame's faults are the honest one's, padding kept.
    honest = wire.frame(wire.AGG, wire.encode_agg_body(5, (), bytes(range(32)), bytes(8)))
    absent = wire.frame(wire.AGG, wire.encode_agg_body(5, (7, 9, 11), bytes(range(32)), bytes(8)))
    padded = honest + bytes(4)
    assert len(honest) == 49
    for seed in range(40):
        rngs = [random.Random(seed) for _ in range(3)]
        for kind in KINDS * 4:
            flips = PAST_SENDER if seed % 2 else None
            (h, drawn), (_, other), (p, pad) = (
                fault(rng, kind, frame, flips=flips) for rng, frame in zip(rngs, (honest, absent, padded))
            )
            assert drawn[:4] == other[:4] == pad[:4], (seed, kind)
            assert drawn == pad
            assert p == (h if kind in ("drop", "cut") else h + bytes(4))
        assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()


def test_probe_resp_flips_spread_over_a_leaf_entrys_fields():
    # A leaf's one-entry answer has no child packet and no absent ids: the
    # flips aimed at those fields are reduced over the fields it has, so
    # seeded flips hit every non-empty field, none more than twice its
    # uniform share (passed on to the next field, they hit the sender 46%
    # of the time).
    world = World(Scenario(seed=21, n=4, edges=((0, 1), (1, 2), (1, 3), (1, 4))))
    world.run_round(1)
    answer = world.nodes[2].respond_attestation(1)
    fields = {name for name, start, end in field_map(answer) if end > start}
    assert not any(name.startswith("child ") and name != "child count" for name in fields)
    draws = 1300
    hits = Counter(fault(random.Random(seed), "flip", answer)[1].hit for seed in range(draws))
    assert set(hits) == fields
    assert max(hits.values()) <= 2 * draws / len(fields)
