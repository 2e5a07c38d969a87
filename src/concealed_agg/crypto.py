"""Diffusion primitives: seed chains, fixed-point readings, MACs, authenticated channels.

A sensor reading is concealed by adding a per-round keyed seed to its
fixed-point encoding modulo M = 2**64 ("diffusion").  Addition makes the
scheme an additive privacy homomorphism: the sum of diffused values reverts
to the sum of readings once the matching seed sum is subtracted.  Every node
keeps two seed chains, D and D', over the same origin, so an aggregate travels
as a pair of independently masked copies of the same sum.

Both chains advance together, with one keyed PRF call per round: keyed with
the chain key K || K' (the node's two 16-byte keys), over D || D' || round,
it returns the next D || D' as one 16-byte output.  Under the PRF assumption
an output on a fresh input (the round number is in every input) is
indistinguishable from uniform, so its two 8-byte halves are independent and
uniform, as two outputs under separate keys K and K' would be.  No party
ever computes one chain alone: a captured node yields both keys, and one key
alone reveals neither chain.

Pairwise channels authenticate and do not encrypt: a sealed blob is the
payload in the clear and a 16-byte tag over the counter, the associated data
and the payload, one PRF call to seal and one to open, each through
``_channel_tag``.  The caller builds the associated data: ``wire`` packs a
packet's header once at the sender and slices it from the packet at the
receiver.  Diffusion conceals.  Every channel plaintext (an AGG packet, a
probe-response entry, a re-aggregation reply) is a ring sum of per-node
diffused values D_i + r_i and D'_i + r_i, masked by seeds that only node i
and the station hold and that no other round uses.  So a link
eavesdropper, or an ancestor relaying the packet, learns exactly what the
edge-key holder learns.

Every PRF is keyed once, at set-up: ``chain_key``, ``mac_key``,
``channel_key`` and ``sense_key`` each return a blake2b state holding its
parameters and padded key block (keyed BLAKE2 hashes the key as its first
block, RFC 7693 section 3.3), and checked key lengths.  A call copies the
state, feeds the copy its input and reads the digest, instead of building
and keying a new hasher.  No state is ever updated itself, so all holders
of a key share one: both ends of an edge, and a node and the station's
seed ledger for K || K'.

Tags fold as integers, read big-endian and written back at their length: the
bytes a per-byte XOR gives.  ``wire.fold_packets`` XORs a node's child tags
into one integer, the node XORs in its own MAC and writes the tag once.  The
functions here are pure and safe to call from any number of threads, a keyed
state included, because calls only copy it; a ``SeedState`` or a
``SecureChannel`` holds a position or counters and belongs to one endpoint.
"""

from __future__ import annotations

import hashlib
from hmac import compare_digest
from dataclasses import dataclass
from functools import cached_property

from .errors import AuthFailure, ReadingOutOfRange, ReplayDetected

# === Ring arithmetic ========================================================

MODULUS = 1 << 64
MASK = MODULUS - 1
PAIR_MASK = (1 << 128) - 1

KEY_LEN = 16
CHAIN_KEY_LEN = 2 * KEY_LEN
TAG_LEN = 8
CHANNEL_TAG_LEN = 16
ZERO_TAG = bytes(TAG_LEN)

# Domain-separation labels for the keyed PRF (blake2b "person" parameter).
_PERSON_SEED = b"diff.seed.dual"
_PERSON_MAC = b"diff.mac"
_PERSON_CHANTAG = b"diff.chan.tag"
_PERSON_SENSE = b"diff.sense"


def add_mod(a: int, b: int) -> int:
    return (a + b) & MASK


# === Fixed-point reading codec ==============================================


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps real readings in [low, high] to ring residues and back.

    raw = round((m - low) * scale); decoding is exact to within 1/(2*scale).
    Sums of raws decode with the participant count restoring the offsets.
    """

    low: float = 0.0
    high: float = 1000.0
    scale: int = 100

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError("codec requires low < high")
        if self.scale <= 0:
            raise ValueError("codec requires positive scale")

    @cached_property
    def max_raw(self) -> int:
        return round((self.high - self.low) * self.scale)

    def encode(self, reading: float) -> int:
        raw = round((reading - self.low) * self.scale)
        if not 0 <= raw <= self.max_raw:
            raise ReadingOutOfRange(f"reading {reading!r} outside [{self.low}, {self.high}]")
        return raw

    def decode(self, raw: int) -> float:
        return self.low + raw / self.scale

    def decode_sum(self, raw_sum: int, count: int) -> float:
        # A sum of k encoded readings carries k copies of the low offset.
        return count * self.low + raw_sum / self.scale

    def decode_mean(self, raw_sum: int, count: int) -> float:
        return self.decode_sum(raw_sum, count) / count


# === Keys and the generator map =============================================


def new_key(rng) -> bytes:
    """Draw a fresh 16-byte key from a random.Random-like source."""
    return rng.randbytes(KEY_LEN)


def _check_key(key: bytes) -> bytes:
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")
    return key


# A blake2b state keyed for one use.  Calls copy it and never update it.
Keyed = hashlib.blake2b


def _keyed(key: bytes, person: bytes, out_len: int) -> Keyed:
    return hashlib.blake2b(digest_size=out_len, key=key, person=person)


def chain_key(key: bytes, key_prime: bytes) -> Keyed:
    """The dual seed chains' PRF for ``next_seed``, keyed with K || K'."""
    return _keyed(_check_key(key) + _check_key(key_prime), _PERSON_SEED, 16)


def mac_key(key: bytes) -> Keyed:
    """A node's MAC for ``mac`` and ``mac_pair``, keyed with K."""
    return _keyed(_check_key(key), _PERSON_MAC, TAG_LEN)


def channel_key(key: bytes) -> Keyed:
    """A channel's tag for ``seal``, ``open_sealed`` and ``SecureChannel``."""
    return _keyed(_check_key(key), _PERSON_CHANTAG, CHANNEL_TAG_LEN)


def sense_key(key: bytes) -> Keyed:
    """A node's synthetic sensor for ``sense_raw``."""
    return _keyed(_check_key(key), _PERSON_SENSE, 8)


def next_seed(chain: Keyed, seeds: int, round_no: int) -> int:
    """Advance both seed chains one step.  ``seeds`` packs the pair as
    D << 64 | D' (taken mod 2**128); the result is the next D << 64 | D', the
    16-byte keyed PRF over (D || D' || round), three 8-byte big-endian words.
    round_no must fit in 64 bits."""
    h = chain.copy()
    h.update(((seeds & PAIR_MASK) << 64 | round_no).to_bytes(24, "big"))
    return int.from_bytes(h.digest(), "big")


@dataclass
class SeedState:
    """Current position of a node's two diffusion seed chains, packed
    D << 64 | D', under the ``chain_key`` state for K || K'."""

    key: Keyed
    seeds: int
    round: int = 0

    def __post_init__(self) -> None:
        if getattr(self.key, "digest_size", None) != 16:
            raise ValueError("a seed chain needs the state chain_key returns")

    @classmethod
    def from_origin(cls, chain_key: Keyed, origin: int) -> "SeedState":
        """Both chains start at the same origin."""
        origin &= MASK
        return cls(chain_key, origin << 64 | origin)

    def advance_to(self, round_no: int) -> int:
        """Advance both chains to round_no and return the packed pair there.

        Rounds are replayed one at a time so a node that missed queries
        still lands on the same value the base station computes.
        """
        if round_no == self.round + 1:  # the usual case: the next round
            self.round = round_no
            self.seeds = next_seed(self.key, self.seeds, round_no)
            return self.seeds
        if round_no < self.round:
            raise ValueError(f"seed chain cannot rewind from {self.round} to {round_no}")
        while self.round < round_no:
            self.round += 1
            self.seeds = next_seed(self.key, self.seeds, self.round)
        return self.seeds


def diffuse(seed: int, reading: int) -> int:
    """Conceal an encoded reading under a seed: (seed + reading) mod M."""
    return (seed + reading) & MASK


def undiffuse(diffused_sum: int, seed_sum: int) -> int:
    """Reverse diffusion on an aggregate: (diffused_sum - seed_sum) mod M."""
    return (diffused_sum - seed_sum) & MASK


def sense_raw(sensor: Keyed, round_no: int, max_raw: int) -> int:
    """Deterministic per-round synthetic reading in [0, max_raw]."""
    h = sensor.copy()
    h.update(round_no.to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big") % (max_raw + 1)


# === Authentication tags ====================================================


def mac_pair(key: Keyed, dsum: int, dsum_prime: int) -> bytes:
    """A node's MAC over a diffused pair in its wire form: two 8-byte
    big-endian words, K chain first."""
    h = key.copy()
    h.update(((dsum & MASK) << 64 | dsum_prime & MASK).to_bytes(16, "big"))
    return h.digest()


def xor_tags(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length tags."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def combine_macs(own: bytes, children: list[bytes]) -> bytes:
    """XOR-fold child tags into a node's own tag; order-independent."""
    out = own
    for tag in children:
        out = xor_tags(out, tag)
    return out


# === Authenticated pairwise channels ========================================


def _channel_tag(key: Keyed, counter: int, ad: bytes, payload: bytes) -> bytes:
    h = key.copy()
    h.update((counter << 32 | len(ad)).to_bytes(12, "big") + ad + payload)
    return h.digest()


def seal(key: Keyed, counter: int, plaintext: bytes, ad: bytes = b"") -> bytes:
    """Authenticate a payload under the channel key: the payload, in the
    clear, followed by a tag over the counter, the length-prefixed associated
    data ``ad`` (also in the clear) and the payload.  One PRF call."""
    return plaintext + _channel_tag(key, counter, ad, plaintext)


def open_sealed(key: Keyed, counter: int, blob: bytes, ad: bytes = b"") -> bytes:
    """Inverse of seal: the payload bytes.  Raises AuthFailure on any bit of
    tampering with the blob, the counter or the associated data."""
    payload = blob[:-CHANNEL_TAG_LEN]
    if not compare_digest(blob[-CHANNEL_TAG_LEN:], _channel_tag(key, counter, ad, payload)):
        raise AuthFailure("channel tag mismatch")
    return payload


class SecureChannel:
    """One endpoint of an authenticated pairwise link with replay protection.

    Counters are strictly increasing per direction: the sender stamps each
    blob with the next counter, the receiver accepts a blob only if its
    counter exceeds the last one accepted.  Both endpoints may share one
    ``channel_key`` state: the counters are each endpoint's own.
    """

    __slots__ = ("key", "_send_counter", "_recv_last")

    def __init__(self, key: Keyed):
        self.key = key
        self._send_counter = 0
        self._recv_last = 0

    def seal_next(self, plaintext: bytes, ad: bytes = b"") -> tuple[int, bytes]:
        """``seal`` under the next counter: the counter and the blob."""
        counter = self._send_counter = self._send_counter + 1
        return counter, plaintext + _channel_tag(self.key, counter, ad, plaintext)

    def open(self, counter: int, blob: bytes, ad: bytes = b"") -> bytes:
        """``open_sealed``, refusing a counter not above the last accepted."""
        if counter <= self._recv_last:
            raise ReplayDetected(f"counter {counter} <= last accepted {self._recv_last}")
        payload = blob[:-CHANNEL_TAG_LEN]
        if not compare_digest(blob[-CHANNEL_TAG_LEN:], _channel_tag(self.key, counter, ad, payload)):
            raise AuthFailure("channel tag mismatch")
        self._recv_last = counter
        return payload


def derive_bs_channel_key(node_key: bytes, node_id: int) -> bytes:
    """Key for the node's direct logical channel to the base station.

    Derived from the node's long-term key so provisioning stays two keys per
    node plus one per edge; domain-separated from every other PRF use.
    """
    return hashlib.blake2b(
        node_id.to_bytes(4, "big"), digest_size=KEY_LEN, key=node_key, person=b"diff.bschan"
    ).digest()
