"""Independent check of every benchmarked round.

Readings are recomputed from the provisioned sense keys with
``hashlib.blake2b`` directly, not through ``concealed_agg.crypto``, so a
broken crypto optimisation cannot vouch for itself.  The expected outcome
follows from the scenario alone: an honest network passes with every sensor
counted; a network with compromised aggregators is attested, its outliers are
exactly the compromised nodes, and the value covers every sensor outside the
compromised nodes' subtrees.
"""

from __future__ import annotations

import hashlib
import math

# blake2b personalisation of the program's synthetic sensor readings.
SENSE_PERSON = b"diff.sense"
MODULUS = 1 << 64


def reading_raw(sense_key: bytes, round_no: int, max_raw: int) -> int:
    digest = hashlib.blake2b(
        round_no.to_bytes(8, "big"), digest_size=8, key=sense_key, person=SENSE_PERSON
    ).digest()
    return int.from_bytes(digest, "big") % (max_raw + 1)


class Oracle:
    def __init__(self, scenario, parent: dict[int, int], sense_keys: dict[int, bytes]):
        if scenario.function != "sum":
            raise ValueError("the oracle checks sum queries only")
        self.low, high, self.scale = scenario.domain
        self.max_raw = round((high - self.low) * self.scale)
        self.sense_keys = sense_keys
        self.compromised = frozenset(spec.node_id for spec in scenario.compromises)
        self.integrity = "attested" if self.compromised else "passed"
        self.kept = frozenset(nid for nid in sense_keys if not self._under_compromised(nid, parent))

    def _under_compromised(self, nid: int, parent: dict[int, int]) -> bool:
        if not self.compromised:
            return False
        while nid in parent:
            if nid in self.compromised:
                return True
            nid = parent[nid]
        return False

    def check(self, round_no: int, result) -> str | None:
        """Return why the round's result is wrong, or None if it is right."""
        if result.integrity != self.integrity:
            return f"integrity {result.integrity}, expected {self.integrity}"
        outliers = result.report.outliers if result.report is not None else frozenset()
        if outliers != self.compromised:
            return f"outliers {sorted(outliers)[:8]}, expected {sorted(self.compromised)[:8]}"
        if result.participants != self.kept:
            return f"{len(result.participants)} participants kept, expected {len(self.kept)}"
        raw_sum = sum(reading_raw(self.sense_keys[nid], round_no, self.max_raw) for nid in self.kept)
        if result.raw_sum != raw_sum % MODULUS:
            return f"raw sum {result.raw_sum}, expected {raw_sum}"
        expected = len(self.kept) * self.low + raw_sum / self.scale
        if result.value is None or not math.isclose(result.value, expected, rel_tol=1e-12, abs_tol=1e-9):
            return f"value {result.value}, expected {expected}"
        return None
