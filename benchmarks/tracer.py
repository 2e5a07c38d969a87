"""Span tracing of concealed-agg's public entry points, applied from outside.

Nothing under ``src/`` knows about tracing.  ``EntryPoints`` replaces each
traced function with a wrapper where its callers look it up, and puts the
original back on ``uninstall``:

* ``node`` and ``basestation`` reach ``crypto.*`` and ``wire.*`` through the
  module object, so those are patched on the module;
* ``simulator`` imports the graph generators, ``build_tree`` and
  ``provision`` by name, so those are patched in ``simulator``'s namespace;
* methods are patched on their class.

Every wrapped call records a span: name, start, end, parent span and the
trace id current when it started.  Self time (the span's duration minus the
part its child spans cover) and call counts are summed on the fly into the
active ``stats`` table; full span records are kept only while ``keep`` is
set, because a traced round makes tens of thousands of spans.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from concealed_agg import basestation, crypto, node, simulator, wire

# Attestation-phase message codec, reported together as wire.probe_codec.
PROBE_CODEC = (
    "encode_probe", "decode_probe", "encode_probe_resp", "decode_probe_resp",
    "encode_reagg", "decode_reagg", "encode_reagg_resp", "decode_reagg_resp",
)
GENERATORS = ("random_recursive_tree", "random_geometric_graph", "path_graph", "star_graph")
BS_METHODS = (
    "ipet_check", "com_att", "reaggregate_final", "advance_ledger",
    "receive_packet", "finalize", "monitor",
)


def entry_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced entry point."""
    points = [
        (crypto, fn, f"crypto.{fn}")
        for fn in ("next_seed", "seal", "open_sealed", "mac_pair", "xor_tags", "sense_raw")
    ]
    points += [
        (wire, fn, f"wire.{fn}")
        for fn in ("encode_agg_body", "decode_agg_body", "open_packet", "seal_packet")
    ]
    points += [(wire, fn, "wire.probe_codec") for fn in PROBE_CODEC]
    points += [
        (node.SensorNode, m, f"node.{m}")
        for m in ("handle_message", "respond_attestation", "handle_reagg_request")
    ]
    points += [(basestation.BaseStation, m, f"basestation.{m}") for m in BS_METHODS]
    points += [
        (simulator.World, "__init__", "simulator.world_init"),
        (simulator.World, "run_round", "simulator.run_round"),
    ]
    points += [(simulator, fn, "topology.generate") for fn in GENERATORS]
    points += [
        (simulator, "build_tree", "topology.build_tree"),
        (simulator, "provision", "topology.provision"),
    ]
    return points


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.trace_id: tuple = ()
        self.keep = False
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, trace id)
        self._stack: list[list] = []  # open spans: [child seconds, id]
        self._next_id = 0

    def wrap(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(result), if given, runs after the span ends."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if self.keep:
                    self.spans.append((frame[1], parent, name, start, end, self.trace_id))
            if observe is not None:
                observe(result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, trace_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "trace": list(trace_id),
                }) + "\n")


class EntryPoints:
    """The traced entry points, switchable on and off between rounds."""

    def __init__(self, tracer: Tracer, observers: dict | None = None):
        observers = observers or {}
        self._patches = [
            (owner, attr, vars(owner)[attr], tracer.wrap(name, vars(owner)[attr], observers.get(name)))
            for owner, attr, name in entry_points()
        ]

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
