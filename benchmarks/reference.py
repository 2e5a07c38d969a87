"""A fixed, program-independent workload timed beside every round.

On a shared host the speed of the machine drifts by up to about 1.5x within
seconds, as other tenants come and go; every timing drifts with it.  The
harness times ``reference_loop`` right before each round (and once after the
last), and divides each round's time by the mean of the two reference times
around it.  The quotient is the round's cost in reference loops: a slower
program raises it, a slower host raises both of its terms.

The loop uses only the standard library and none of the program's code, so an
optimisation of the program cannot move it.  Its mix follows the program's hot
paths: keyed blake2b over short messages, integer/bytes conversion, ring
arithmetic, dict and set updates, tuple allocation and a binary heap.
"""

from __future__ import annotations

import hashlib
import heapq

ITERATIONS = 1000  # 3 to 5 ms on a shared 2.1 GHz Xeon vCPU with Python 3.11
_KEY = bytes(range(32))
_PERSON = b"bench.ref"
_MASK = (1 << 64) - 1


def reference_loop(iterations: int = ITERATIONS) -> int:
    """Run the fixed workload; the return value only keeps the work live."""
    acc = 0
    seen: dict[int, int] = {}
    members: set[int] = set()
    heap: list[tuple[int, int]] = []
    for i in range(iterations):
        digest = hashlib.blake2b(i.to_bytes(8, "big"), digest_size=8, key=_KEY,
                                 person=_PERSON).digest()
        value = int.from_bytes(digest, "big")
        acc = (acc + value * 0x9E3779B97F4A7C15) & _MASK
        seen[value & 1023] = i
        members.add(i & 511)
        heapq.heappush(heap, (value & 0xFFFF, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc ^= bytes(x ^ 0x5C for x in digest[:4])[0]
    return acc ^ len(seen) ^ len(members)
