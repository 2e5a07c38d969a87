"""Crypto core: seed chains, diffusion, codec, MACs, sealed channels."""

import hashlib
import random

import pytest
from conftest import seed_at
from reference_codecs import combine_macs
from hypothesis import given, settings
from hypothesis import strategies as st

from concealed_agg import crypto, wire
from concealed_agg.errors import AuthFailure, ReadingOutOfRange

M = crypto.MODULUS


def _key(rng):
    return rng.randbytes(crypto.KEY_LEN)


def _chain_key(rng):
    return crypto.chain_key(_key(rng), _key(rng))


def _flip(key: bytes, bit: int) -> bytes:
    return (int.from_bytes(key, "big") ^ 1 << bit).to_bytes(len(key), "big")


# === Seed chain =============================================================


def test_next_seed_deterministic():
    rng = random.Random(1)
    k, d = _chain_key(rng), rng.getrandbits(128)
    assert crypto.next_seed(k, d, 3) == crypto.next_seed(k, d, 3)


def test_next_seed_distinct_across_rounds_and_keys():
    # Sampling oracle: 1000 random triples, vary one input, expect 0 collisions
    # in either chain's half of the next seed pair.
    rng = random.Random(2)
    collisions_j = 0
    collisions_k = 0
    for _ in range(1000):
        k1, k2 = _chain_key(rng), _chain_key(rng)
        d = rng.getrandbits(128)
        j = rng.randint(1, 2**32)
        base = divmod(crypto.next_seed(k1, d, j), M)  # (D, D')
        later = divmod(crypto.next_seed(k1, d, j + 1), M)
        other = divmod(crypto.next_seed(k2, d, j), M)
        collisions_j += sum(a == b for a, b in zip(base, later))
        collisions_k += sum(a == b for a, b in zip(base, other))
    assert collisions_j == 0
    assert collisions_k == 0


def test_both_keys_drive_both_chains():
    # One bit of K, or of K', changes both halves of the next seed pair, and
    # the two halves differ: 1000 samples, 0 exceptions.
    rng = random.Random(5)
    equal_halves = 0
    unmoved_halves = 0
    for _ in range(1000):
        key, key_prime = _key(rng), _key(rng)
        d = rng.getrandbits(128)
        j = rng.randint(1, 2**32)
        seeds = divmod(crypto.next_seed(crypto.chain_key(key, key_prime), d, j), M)  # (D, D')
        equal_halves += seeds[0] == seeds[1]
        bit = rng.randrange(8 * crypto.KEY_LEN)
        for flipped in (crypto.chain_key(_flip(key, bit), key_prime),
                        crypto.chain_key(key, _flip(key_prime, bit))):
            moved = divmod(crypto.next_seed(flipped, d, j), M)
            unmoved_halves += sum(a == b for a, b in zip(seeds, moved))
    assert equal_halves == 0
    assert unmoved_halves == 0


def test_chain_key_length_checked_where_the_chain_is_built():
    for bad in (bytes(16), bytes(33)):
        with pytest.raises(ValueError):
            crypto.SeedState.from_origin(bad, 0)
    for key, key_prime in ((bytes(16), bytes(17)), (bytes(15), bytes(16))):
        with pytest.raises(ValueError):
            crypto.chain_key(key, key_prime)


def test_seed_at_replays_chain():
    rng = random.Random(3)
    key, key_prime = _key(rng), _key(rng)
    k, origin = crypto.chain_key(key, key_prime), rng.getrandbits(32)
    d = origin << 64 | origin
    for j in range(1, 6):
        d = crypto.next_seed(k, d, j)
        assert seed_at(key + key_prime, origin, j) == d
    assert seed_at(key + key_prime, origin, 0) == origin << 64 | origin


def test_seed_state_advance_and_rewind():
    rng = random.Random(4)
    key, key_prime = _key(rng), _key(rng)
    s = crypto.SeedState.from_origin(crypto.chain_key(key, key_prime), 77)
    s.advance_to(4)
    assert s.round == 4 and s.seeds == seed_at(key + key_prime, 77, 4)
    with pytest.raises(ValueError):
        s.advance_to(2)


# === Diffusion ==============================================================


def test_diffuse_identities():
    assert crypto.diffuse(12345, 0) == 12345
    assert crypto.diffuse(0, 777) == 777
    assert crypto.diffuse(M - 1, 1) == 0


def test_undiffuse_trivial():
    rng = random.Random(5)
    for _ in range(100):
        d, m = rng.getrandbits(64), rng.getrandbits(64)
        assert crypto.undiffuse(crypto.diffuse(d, m), d) == m
    x = rng.getrandbits(64)
    assert crypto.undiffuse(x, x) == 0


def test_undiffuse_sum_matches_plaintext_oracle():
    # Plaintext-sum oracle: sum readings directly, no diffusion involved.
    rng = random.Random(6)
    for _ in range(200):
        pairs = [(rng.getrandbits(64), rng.getrandbits(40)) for _ in range(50)]
        oracle = sum(m for _, m in pairs) % M
        dsum = sum(crypto.diffuse(d, m) for d, m in pairs) % M
        ssum = sum(d for d, _ in pairs) % M
        assert crypto.undiffuse(dsum, ssum) == oracle


@given(
    st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), min_size=1, max_size=60)
)
def test_homomorphism_property(pairs):
    dsum = sum(crypto.diffuse(d, m) for d, m in pairs) % M
    ssum = sum(d for d, _ in pairs) % M
    assert crypto.undiffuse(dsum, ssum) == sum(m for _, m in pairs) % M


# === Fixed-point codec ======================================================


def test_codec_bounds_and_roundtrip():
    codec = crypto.FixedPointCodec(0.0, 1000.0, 100)
    assert codec.max_raw == 100000
    assert codec.encode(0.0) == 0
    assert codec.encode(1000.0) == codec.max_raw
    assert codec.decode(codec.encode(273.15)) == pytest.approx(273.15, abs=1 / 200)
    with pytest.raises(ReadingOutOfRange):
        codec.encode(-0.01)
    with pytest.raises(ReadingOutOfRange):
        codec.encode(1000.01)


def test_codec_sum_and_mean_with_offset():
    codec = crypto.FixedPointCodec(-40.0, 60.0, 10)
    raws = [codec.encode(v) for v in (-40.0, 0.0, 25.5, 60.0)]
    total = sum(raws) % M
    assert codec.decode_sum(total, 4) == pytest.approx(-40.0 + 0.0 + 25.5 + 60.0, abs=4 / 20)
    assert codec.decode_mean(total, 4) == pytest.approx(45.5 / 4, abs=1 / 20)


@given(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
def test_codec_roundtrip_property(value):
    codec = crypto.FixedPointCodec(0.0, 1000.0, 100)
    assert abs(codec.decode(codec.encode(value)) - value) <= 1 / 200 + 1e-9


# === MAC tags ===============================================================


def _pair(rng) -> tuple[int, int]:
    return rng.getrandbits(64), rng.getrandbits(64)


def test_mac_deterministic_and_collision_free():
    # Collision-count oracle over 10k random pair / key pairs: one bit of
    # either word of the pair, or another key, changes the tag.
    rng = random.Random(7)
    k = crypto.mac_key(_key(rng))
    p = _pair(rng)
    assert crypto.mac_pair(k, *p) == crypto.mac_pair(k, *p)
    assert len(crypto.mac_pair(k, *p)) == crypto.TAG_LEN
    collisions = 0
    for _ in range(10_000):
        k1, k2 = crypto.mac_key(_key(rng)), crypto.mac_key(_key(rng))
        p1 = _pair(rng)
        p2 = list(p1)
        p2[rng.randrange(2)] ^= 1 << rng.randrange(64)
        if crypto.mac_pair(k1, *p1) == crypto.mac_pair(k1, *p2):
            collisions += 1
        if crypto.mac_pair(k1, *p1) == crypto.mac_pair(k2, *p1):
            collisions += 1
    assert collisions == 0


def test_combine_macs_group_laws():
    rng = random.Random(8)
    t = crypto.mac_pair(crypto.mac_key(_key(rng)), *_pair(rng))
    a = crypto.mac_pair(crypto.mac_key(_key(rng)), *_pair(rng))
    b = crypto.mac_pair(crypto.mac_key(_key(rng)), *_pair(rng))
    assert combine_macs(t, []) == t
    assert combine_macs(t, [t]) == crypto.ZERO_TAG
    assert combine_macs(t, [a, b]) == combine_macs(t, [b, a])


@given(st.lists(st.binary(min_size=8, max_size=8), min_size=0, max_size=8), st.binary(min_size=8, max_size=8))
def test_combine_macs_order_independent(children, own):
    rng = random.Random(9)
    shuffled = children[:]
    rng.shuffle(shuffled)
    assert combine_macs(own, children) == combine_macs(own, shuffled)


def test_pair_bytes_layout():
    # A pair's wire form, which its MAC covers and a sealed packet carries:
    # first chain word leads, both fixed-width big-endian.
    key = bytes(range(crypto.KEY_LEN))
    for dsum, dsum_prime in ((1, 2), (M - 1, M - 1), (0, M - 1)):
        blob = dsum.to_bytes(8, "big") + dsum_prime.to_bytes(8, "big")
        direct = hashlib.blake2b(blob, digest_size=crypto.TAG_LEN, key=key, person=b"diff.mac").digest()
        assert crypto.mac_pair(crypto.mac_key(key), dsum, dsum_prime) == direct
        _, body = wire.seal_packet(crypto.channel_key(key), 1, 7, (), dsum, dsum_prime, crypto.ZERO_TAG)
        assert wire.decode_agg_body(body)[2][:16] == blob


# === Sealed channels ========================================================


def test_seal_open_roundtrip():
    rng = random.Random(10)
    k = crypto.channel_key(_key(rng))
    pt = rng.randbytes(16)
    assert crypto.open_sealed(k, 1, crypto.seal(k, 1, pt)) == pt


def test_open_bitflip_always_fails():
    # Fuzz oracle: flip every single bit of the sealed blob, expect 100% rejection.
    rng = random.Random(11)
    k = crypto.channel_key(_key(rng))
    sealed = crypto.seal(k, 5, rng.randbytes(16))
    for bit in range(len(sealed) * 8):
        tampered = bytearray(sealed)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthFailure):
            crypto.open_sealed(k, 5, bytes(tampered))


def test_open_wrong_counter_fails_auth():
    # The round, the channel's counter, is authenticated: a payload sealed
    # for one round is torn under the next.
    rng = random.Random(12)
    k = crypto.channel_key(_key(rng))
    sealed = crypto.seal(k, 3, rng.randbytes(16))
    with pytest.raises(AuthFailure):
        crypto.open_sealed(k, 4, sealed)


def test_open_blob_shorter_than_a_tag_fails_auth():
    k = crypto.channel_key(_key(random.Random(16)))
    for length in (0, 1, crypto.CHANNEL_TAG_LEN - 1):
        with pytest.raises(AuthFailure):
            crypto.open_sealed(k, 1, bytes(length))


def test_channel_replay_detection():
    # The round is the counter, known at both ends: a blob opens in the round
    # it was sealed for, and replayed in any later round it fails its tag.
    rng = random.Random(13)
    k = crypto.channel_key(_key(rng))
    blob1, blob2 = crypto.seal(k, 1, b"a" * 16), crypto.seal(k, 2, b"b" * 16)
    assert crypto.open_sealed(k, 1, blob1) == b"a" * 16
    assert crypto.open_sealed(k, 2, blob2) == b"b" * 16
    for late in (2, 3):
        with pytest.raises(AuthFailure):
            crypto.open_sealed(k, late, blob1)
    with pytest.raises(AuthFailure):
        crypto.open_sealed(k, 3, blob2)


def test_channel_out_of_order_counter_skip_ok():
    # A round whose blob was lost costs nothing later: the next round's blob
    # opens, and the lost round's blob, arriving late, does not.
    rng = random.Random(14)
    k = crypto.channel_key(_key(rng))
    blob1 = crypto.seal(k, 1, b"x" * 16)  # lost on the wire
    blob2 = crypto.seal(k, 2, b"y" * 16)
    assert crypto.open_sealed(k, 2, blob2) == b"y" * 16
    with pytest.raises(AuthFailure):
        crypto.open_sealed(k, 2, blob1)
    assert crypto.open_sealed(k, 3, crypto.seal(k, 3, b"w" * 16)) == b"w" * 16


def test_channel_tamper_does_not_advance_counter():
    # A channel keeps no state: a tampered blob fails, and the genuine one
    # still opens in its round afterwards.
    rng = random.Random(15)
    k = crypto.channel_key(_key(rng))
    blob = crypto.seal(k, 1, b"z" * 16)
    bad = bytearray(blob)
    bad[0] ^= 1
    with pytest.raises(AuthFailure):
        crypto.open_sealed(k, 1, bytes(bad))
    assert crypto.open_sealed(k, 1, blob) == b"z" * 16  # genuine delivery still accepted


@settings(max_examples=50)
@given(st.binary(min_size=0, max_size=64), st.integers(1, 2**64 - 1))
def test_seal_open_roundtrip_property(pt, counter):
    k = crypto.channel_key(bytes(range(16)))
    assert crypto.open_sealed(k, counter, crypto.seal(k, counter, pt)) == pt


# === Pre-keyed states ========================================================


def _one_shot(data: bytes, key: bytes, person: bytes, size: int) -> bytes:
    return hashlib.blake2b(data, key=key, person=person, digest_size=size).digest()


def test_prekeyed_prfs_match_one_shot_blake2b():
    # Over random keys and inputs, each state keyed once gives the bytes a
    # fresh keyed blake2b call gives, and its first answer, asked again after
    # the others, has not moved.
    rng = random.Random(20)
    max_raw = 99999
    for _ in range(50):
        key, key_prime = _key(rng), _key(rng)
        chain = crypto.chain_key(key, key_prime)
        mac, chan, sense = crypto.mac_key(key), crypto.channel_key(key), crypto.sense_key(key)

        def keyed(seeds, round_no, pair, counter, ad, pt):
            return (
                crypto.next_seed(chain, seeds, round_no),
                crypto.mac_pair(mac, *pair),
                crypto.seal(chan, counter, pt, ad)[len(pt):],
                crypto.sense_raw(sense, round_no, max_raw),
            )

        def one_shot(seeds, round_no, pair, counter, ad, pt):
            seed_in = (seeds << 64 | round_no).to_bytes(24, "big")
            tag_in = (counter << 32 | len(ad)).to_bytes(12, "big") + ad + pt
            reading = _one_shot(round_no.to_bytes(8, "big"), key, b"diff.sense", 8)
            return (
                int.from_bytes(_one_shot(seed_in, key + key_prime, b"diff.seed.dual", 16), "big"),
                _one_shot(pair[0].to_bytes(8, "big") + pair[1].to_bytes(8, "big"), key, b"diff.mac", 8),
                _one_shot(tag_in, key, b"diff.chan.tag", 16),
                int.from_bytes(reading, "big") % (max_raw + 1),
            )

        inputs = [
            (rng.getrandbits(128), rng.getrandbits(64), (rng.getrandbits(64), rng.getrandbits(64)),
             rng.getrandbits(64), rng.randbytes(rng.randrange(40)), rng.randbytes(rng.randrange(80)))
            for _ in range(20)
        ]
        answers = [keyed(*args) for args in inputs]
        assert answers == [one_shot(*args) for args in inputs]
        assert keyed(*inputs[0]) == answers[0]


def test_channel_endpoints_share_one_stateless_keyed_state():
    # Both ends of an edge hold one keyed state and no counters: a blob either
    # end seals for a round opens at the other in that round, and sealing or
    # opening leaves the state as it was, so the next round opens at both.
    key = crypto.channel_key(_key(random.Random(21)))
    before = key.copy().digest()
    to_b, to_a = crypto.seal(key, 1, b"to b" * 4), crypto.seal(key, 1, b"to a" * 4)
    assert crypto.open_sealed(key, 1, to_b) == b"to b" * 4
    assert crypto.open_sealed(key, 1, to_a) == b"to a" * 4
    with pytest.raises(AuthFailure):
        crypto.open_sealed(key, 2, to_b)
    assert key.copy().digest() == before
    assert crypto.open_sealed(key, 2, crypto.seal(key, 2, b"next" * 4)) == b"next" * 4


def test_keys_are_checked_where_a_state_is_keyed():
    for keyed in (crypto.mac_key, crypto.channel_key, crypto.sense_key):
        with pytest.raises(ValueError):
            keyed(bytes(15))


# === Forgery blindness =======================================================


def test_single_component_perturbation_never_passes():
    """10k random one-sided perturbations of an honest pair: IPET equality
    would require delta = 0 mod M, so 0 passes expected."""
    rng = random.Random(16)
    undetected = 0
    for _ in range(10_000):
        m = rng.getrandbits(32)
        d1, d2 = rng.getrandbits(64), rng.getrandbits(64)
        delta = rng.getrandbits(64) | 1
        forged = (crypto.diffuse(d1, m) + delta) % M
        honest = crypto.diffuse(d2, m)
        if crypto.undiffuse(forged, d1) == crypto.undiffuse(honest, d2):
            undetected += 1
    assert undetected == 0


def test_dual_consistent_shift_passes():
    # Shifting both components by the same delta is the documented blind spot.
    rng = random.Random(17)
    m = rng.getrandbits(32)
    d1, d2 = rng.getrandbits(64), rng.getrandbits(64)
    delta = 424242
    a = (crypto.diffuse(d1, m) + delta) % M
    b = (crypto.diffuse(d2, m) + delta) % M
    assert crypto.undiffuse(a, d1) == crypto.undiffuse(b, d2) == (m + delta) % M


def test_sense_raw_in_range_and_keyed():
    rng = random.Random(18)
    k1, k2 = crypto.sense_key(_key(rng)), crypto.sense_key(_key(rng))
    vals = {crypto.sense_raw(k1, r, 1000) for r in range(1, 200)}
    assert all(0 <= v <= 1000 for v in vals)
    assert len(vals) > 50  # spread, not constant
    assert crypto.sense_raw(k1, 7, 10**6) != crypto.sense_raw(k2, 7, 10**6)


def test_bs_channel_key_derivation_distinct():
    rng = random.Random(19)
    k = _key(rng)
    assert crypto.derive_bs_channel_key(k, 1) != crypto.derive_bs_channel_key(k, 2)
    assert crypto.derive_bs_channel_key(k, 1) != k


# === Known-answer vectors ===================================================
# Outputs pinned from the byte-at-a-time reference implementation, so any
# rewrite of the primitives must keep every byte.

KAT_KEY = bytes(range(16))
KAT_KEY2 = bytes(range(16, 32))
KAT_AD = b"\x00\x00\x00\x07header"


def test_seal_known_answers_and_roundtrip():
    # A sealed pair and a 40-byte plaintext.  The tag vectors were computed
    # with hashlib.blake2b directly (the channel key, personal label
    # "diff.chan.tag", (counter << 32 | len(ad)) as 12 bytes || ad ||
    # plaintext in, 16 bytes out), and the blob is the plaintext, in the
    # clear, followed by that tag.
    cases = (
        (KAT_KEY, 7, bytes(range(16)), "ca5970408b8cabbe65ebf41354a74d68"),
        (KAT_KEY2, 2**40 + 3, bytes(range(100, 140)), "088706957fcf32f5bf60c5cb877d1dec"),
    )
    for key, counter, plaintext, tag_hex in cases:
        direct = hashlib.blake2b(
            (counter << 32 | len(KAT_AD)).to_bytes(12, "big") + KAT_AD + plaintext,
            digest_size=16, key=key, person=b"diff.chan.tag",
        ).digest()
        assert direct.hex() == tag_hex
        keyed = crypto.channel_key(key)
        sealed = crypto.seal(keyed, counter, plaintext, KAT_AD)
        assert sealed[: len(plaintext)] == plaintext
        assert sealed.hex() == plaintext.hex() + tag_hex
        assert crypto.open_sealed(keyed, counter, sealed, KAT_AD) == plaintext


def test_seed_chain_known_answers():
    # Vectors computed with hashlib.blake2b directly (key K || K', personal
    # label "diff.seed.dual", D || D' || round in, the next D || D' out), as
    # conftest.seed_at does.
    chain_key = KAT_KEY + KAT_KEY2
    seeds = 0x0123456789ABCDEF << 64 | 0xFEDCBA9876543210
    expected = 0x3558A025B32A78BBD48A002A4FD10229
    direct = hashlib.blake2b(
        (seeds << 64 | 5).to_bytes(24, "big"), digest_size=16, key=chain_key, person=b"diff.seed.dual"
    ).digest()
    assert int.from_bytes(direct, "big") == expected
    chain = crypto.chain_key(KAT_KEY, KAT_KEY2)
    assert crypto.next_seed(chain, seeds, 5) == expected
    assert divmod(expected, M) == (3843998365740857531, 15315053664554517033)  # (D, D')
    # The pair is taken mod 2**128.
    assert crypto.next_seed(chain, 2**128 + 5, 2**32 + 1) == 0xC6457D2232C3D1128B517F0A27E6A582
    assert seed_at(KAT_KEY2 + KAT_KEY, 42, 3) == 0x45B21CF36AB4155C72E68ED9637D8E41


def test_mac_and_tag_fold_known_answers():
    key, key2 = crypto.mac_key(KAT_KEY), crypto.mac_key(KAT_KEY2)
    assert crypto.mac_pair(key, 123456789, M - 1).hex() == "14918e826482d3a8"
    own = crypto.mac_pair(key, 1, 2)
    children = [crypto.mac_pair(key2, i, i + 1) for i in range(3)]
    assert own.hex() == "c2e17bb1d96942fd"
    assert [t.hex() for t in children] == ["ff00a52b4fd67129", "c86efcca902314ae", "444900f515cbc921"]
    assert combine_macs(own, []).hex() == "c2e17bb1d96942fd"
    assert combine_macs(own, children[:1]).hex() == "3de1de9a96bf33d4"
    assert combine_macs(own, children).hex() == "b1c622a51357ee5b"


def test_sensing_and_key_derivation_known_answers():
    assert crypto.sense_raw(crypto.sense_key(KAT_KEY), 9, 99999) == 87292
    assert crypto.derive_bs_channel_key(KAT_KEY, 17).hex() == "bd7ed3b940ae60446b16a90d0dba36e2"


def test_xor_tags_keeps_leading_zero_bytes():
    a = bytes([0, 0, 1, 2, 3, 4, 5, 6])
    assert crypto.xor_tags(a, crypto.ZERO_TAG) == a
    assert crypto.xor_tags(a, a) == crypto.ZERO_TAG
