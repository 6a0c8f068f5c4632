"""Mode orchestration on the fabric vs the oracle: round-trips and tampering."""

import functools
import gc
import random
import sys
import types
from array import array

import pytest

from pimcrypt import fabric, oracle
from pimcrypt.controller import ExecutionStats
from pimcrypt.kernels import aes, ghash, modes
from pimcrypt.kernels.modes import TagMismatch


@pytest.mark.parametrize("klen", [16, 32])
def test_cbc_round_trip(klen, rng):
    key, iv = rng.randbytes(klen), rng.randbytes(16)
    pt = rng.randbytes(16 * 5)
    ct = modes.cbc_encrypt(key, iv, pt)
    assert ct == oracle.cbc_encrypt(key, iv, pt)
    assert modes.cbc_decrypt(key, iv, ct) == pt


@pytest.mark.parametrize("klen", [16, 32])
def test_ctr_matches_oracle(klen, rng):
    key, ctr0 = rng.randbytes(klen), rng.randbytes(16)
    data = rng.randbytes(100)  # non-multiple of 16
    out = modes.ctr_crypt(key, ctr0, data)
    assert out == oracle.ctr_crypt(key, ctr0, data)
    assert modes.ctr_crypt(key, ctr0, out) == data


@pytest.mark.parametrize("klen", [16, 32])
def test_ccm_round_trip(klen, rng):
    key, nonce = rng.randbytes(klen), rng.randbytes(13)
    aad, pt = rng.randbytes(20), rng.randbytes(45)
    out = modes.ccm_encrypt(key, nonce, aad, pt)
    assert out == oracle.ccm_encrypt(key, nonce, aad, pt)
    assert modes.ccm_decrypt(key, nonce, aad, out) == pt


@pytest.mark.parametrize("klen", [16, 32])
def test_gcm_round_trip(klen, rng):
    key, iv = rng.randbytes(klen), rng.randbytes(12)
    aad, pt = rng.randbytes(20), rng.randbytes(50)
    out = modes.gcm_encrypt(key, iv, aad, pt)
    assert out == oracle.gcm_encrypt(key, iv, aad, pt)
    assert modes.gcm_decrypt(key, iv, aad, out) == pt


def test_gcm_long_iv(rng):
    key, iv = rng.randbytes(16), rng.randbytes(37)
    pt = rng.randbytes(33)
    out = modes.gcm_encrypt(key, iv, b"", pt)
    assert out == oracle.gcm_encrypt(key, iv, b"", pt)
    assert modes.gcm_decrypt(key, iv, b"", out) == pt


def test_gcm_empty_plaintext(rng):
    key, iv = rng.randbytes(16), rng.randbytes(12)
    out = modes.gcm_encrypt(key, iv, b"aad only", b"")
    assert out == oracle.gcm_encrypt(key, iv, b"aad only", b"")


def test_tamper_detection(rng):
    key, iv, nonce = rng.randbytes(16), rng.randbytes(12), rng.randbytes(13)
    aad, pt = b"header", rng.randbytes(40)
    out = modes.gcm_encrypt(key, iv, aad, pt)
    for i in (0, len(out) - 1):  # flip in ciphertext and in tag
        bad = bytearray(out)
        bad[i] ^= 1
        with pytest.raises(TagMismatch):
            modes.gcm_decrypt(key, iv, aad, bytes(bad))
    with pytest.raises(TagMismatch):  # modified AAD
        modes.gcm_decrypt(key, iv, b"tampered", out)

    out2 = modes.ccm_encrypt(key, nonce, aad, pt)
    bad2 = bytearray(out2)
    bad2[-1] ^= 0x80
    with pytest.raises(TagMismatch):
        modes.ccm_decrypt(key, nonce, aad, bytes(bad2))


def test_stats_accumulate(rng):
    # Serial chaining is one pass per block, and each pass counts into
    # the caller's stats once: one block adds its program's schedule
    # once, and n blocks add exactly n one-block calls.
    for klen in (16, 32):
        key, iv = rng.randbytes(klen), rng.randbytes(16)
        one = ExecutionStats()
        modes.cbc_encrypt(key, iv, rng.randbytes(16), stats=one)
        prog = aes.build_aes_program(8 * klen, "encrypt", "pre")
        assert set(one.per_function) == set(prog.functions)
        for name, fs in one.per_function.items():
            runs = [inv for inv in prog.schedule if inv.function == name]
            iterations = sum(inv.iterations for inv in runs)
            assert (fs.invocations, fs.iterations, fs.commands) == (
                len(runs), iterations,
                iterations * prog.functions[name].count)
        for n in (2, 5):
            stats = ExecutionStats()
            modes.cbc_encrypt(key, iv, rng.randbytes(16 * n), stats=stats)
            expect = ExecutionStats()
            for _ in range(n):
                expect.merge(one)
            assert stats == expect


def test_ghash_of_empty_input_is_zero():
    h = bytes(range(16))
    assert modes.ghash_digest(h, b"") == oracle.ghash(h, b"") == bytes(16)


@pytest.mark.parametrize("call", [
    lambda: modes.sha3_digest(100, b"msg"),
    lambda: modes.sha3_digest_batch(100, [b"msg"]),
    lambda: modes.hmac_sha3(100, b"key", b"msg"),
])
def test_unsupported_sha3_size_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("msgs", [
    [], [b"m"] * 5, [b"short", bytes(136)],
], ids=["none", "five", "unequal-blocks"])
def test_sha3_digest_batch_rejects_what_one_run_cannot_absorb(msgs):
    with pytest.raises(ValueError):
        modes.sha3_digest_batch(256, msgs)


# -- bulk modes against `cryptography`, across lane counts -------------------
#
# 16 blocks fill one pass; 17 and 33 spill into a second and third lane;
# 1025 fills all fabric.SUBARRAYS lanes of one run and starts another.  The
# chain planes of CBC decryption and CTR are staged per lane, so a block
# past the 16th that lands in the wrong lane or tile shows here.

def _cipher(key, mode):
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
    return Cipher(algorithms.AES(key), mode)


def _crypt(ctx, data):
    return ctx.update(data) + ctx.finalize()


BULK_BLOCKS = [1, 16, 17, 33, 1025]


@pytest.mark.parametrize("klen", [16, 32])
@pytest.mark.parametrize("nblocks", BULK_BLOCKS)
def test_ecb_and_cbc_decrypt_match_cryptography(nblocks, klen, rng):
    from cryptography.hazmat.primitives.ciphers import modes as cm
    key, iv = rng.randbytes(klen), rng.randbytes(16)
    data = rng.randbytes(16 * nblocks)
    ecb = _cipher(key, cm.ECB())
    assert modes.ecb_crypt(key, data) == _crypt(ecb.encryptor(), data)
    assert modes.ecb_crypt(key, data, "decrypt") == _crypt(ecb.decryptor(),
                                                           data)
    cbc = _cipher(key, cm.CBC(iv))
    assert modes.cbc_decrypt(key, iv, data) == _crypt(cbc.decryptor(), data)


@pytest.mark.parametrize("klen", [16, 32])
@pytest.mark.parametrize("nblocks", BULK_BLOCKS)
def test_ctr_and_gcm_match_cryptography(nblocks, klen, rng):
    from cryptography.hazmat.primitives.ciphers import modes as cm
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    key, ctr0, iv = rng.randbytes(klen), rng.randbytes(16), rng.randbytes(12)
    aad = rng.randbytes(20)
    for size in (16 * nblocks, 16 * nblocks - 5):   # whole and partial
        data = rng.randbytes(size)
        ctr = _cipher(key, cm.CTR(ctr0))
        assert modes.ctr_crypt(key, ctr0, data) == _crypt(ctr.encryptor(),
                                                          data)
        sealed = AESGCM(key).encrypt(iv, data, aad)
        assert modes.gcm_encrypt(key, iv, aad, data) == sealed
        assert modes.gcm_decrypt(key, iv, aad, sealed) == data


@pytest.mark.parametrize("klen", [0, 15, 20, 33])
def test_bad_key_length_is_a_value_error(klen):
    from cryptography.hazmat.primitives.ciphers import modes as cm
    with pytest.raises(ValueError):
        _cipher(bytes(klen), cm.ECB())
    with pytest.raises(ValueError):
        modes.ecb_crypt(bytes(klen), bytes(16))
    with pytest.raises(ValueError):
        modes.gcm_encrypt(bytes(klen), bytes(12), b"", bytes(16))


@pytest.mark.parametrize("direction", ["bogus", "Encrypt", 5, None])
def test_ecb_rejects_a_bad_direction_whatever_the_data(direction):
    # Checked where the key is staged: empty data runs no pass at all.
    for key in (bytes(16), bytes(32)):
        for data in (b"", bytes(16), bytes(48)):
            with pytest.raises(ValueError, match="direction"):
                modes.ecb_crypt(key, data, direction)


@pytest.mark.parametrize("length", [0, 8, 15, 17])
def test_iv_and_counter_block_must_be_one_block(length):
    from cryptography.hazmat.primitives.ciphers import modes as cm
    key, block = bytes(16), bytes(length)
    for mode in (cm.CBC(block), cm.CTR(block)):
        with pytest.raises(ValueError):
            _cipher(key, mode)
    for call in (lambda: modes.cbc_encrypt(key, block, bytes(32)),
                 lambda: modes.cbc_decrypt(key, block, bytes(32)),
                 lambda: modes.ctr_crypt(key, block, bytes(20))):
        with pytest.raises(ValueError):
            call()


def test_lockstep_lanes_are_the_modeled_subarrays():
    # 256 KiB of SRAM in 4 KiB subarrays, all of them compute-enabled
    from pimcrypt.fabric import SUBARRAYS
    from pimcrypt.perfmodel import FabricConfig
    assert SUBARRAYS == FabricConfig().active_subarrays == 64


def test_lockstep_counts_every_pass(rng):
    # 33 blocks in one 3-lane run cost what three one-pass runs do.
    key, data = rng.randbytes(16), rng.randbytes(16 * 33)
    wide, passes = ExecutionStats(), ExecutionStats()
    modes.ecb_crypt(key, data, stats=wide)
    for off in range(0, len(data), 256):
        modes.ecb_crypt(key, data[off:off + 256], stats=passes)
    assert wide == passes


# -- parameter boundaries -----------------------------------------------------

@pytest.mark.parametrize("tag_len", [4, 8, 12, 13, 14, 15, 16])
def test_gcm_short_tags_truncate_the_full_tag(tag_len, rng):
    key, iv, pt = rng.randbytes(16), rng.randbytes(12), rng.randbytes(20)
    full = modes.gcm_encrypt(key, iv, b"", pt)
    out = modes.gcm_encrypt(key, iv, b"", pt, tag_len=tag_len)
    assert out == full[:len(pt) + tag_len]
    assert modes.gcm_decrypt(key, iv, b"", out, tag_len=tag_len) == pt


@pytest.mark.parametrize("tag_len", [0, 3, 5, 11, 17])
def test_gcm_rejects_tag_lengths(tag_len):
    with pytest.raises(ValueError):
        modes.gcm_encrypt(bytes(16), bytes(12), b"", b"msg", tag_len=tag_len)
    with pytest.raises(ValueError):
        modes.gcm_decrypt(bytes(16), bytes(12), b"", bytes(32),
                          tag_len=tag_len)


def test_gcm_rejects_an_empty_iv():
    with pytest.raises(ValueError):
        modes.gcm_encrypt(bytes(16), b"", b"", b"msg")
    with pytest.raises(ValueError):
        modes.gcm_decrypt(bytes(16), b"", b"", bytes(32))


@pytest.mark.parametrize("tag_len", [4, 6, 10, 16])
def test_ccm_tag_lengths_match_cryptography(tag_len, rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESCCM
    key, nonce = rng.randbytes(16), rng.randbytes(11)
    aad, pt = rng.randbytes(9), rng.randbytes(40)
    out = modes.ccm_encrypt(key, nonce, aad, pt, tag_len=tag_len)
    assert out == AESCCM(key, tag_length=tag_len).encrypt(nonce, pt, aad)
    assert modes.ccm_decrypt(key, nonce, aad, out, tag_len=tag_len) == pt


@pytest.mark.parametrize("tag_len", [0, 2, 5, 15, 18])
def test_ccm_rejects_tag_lengths(tag_len):
    with pytest.raises(ValueError, match="tag length"):
        modes.ccm_encrypt(bytes(16), bytes(13), b"", b"msg", tag_len=tag_len)
    with pytest.raises(ValueError, match="tag length"):
        modes.ccm_decrypt(bytes(16), bytes(13), b"", bytes(32),
                          tag_len=tag_len)


@pytest.mark.parametrize("nonce_len", [3, 6, 14])
def test_ccm_decrypt_checks_the_nonce_length(nonce_len):
    with pytest.raises(ValueError, match="nonce"):
        modes.ccm_decrypt(bytes(16), bytes(nonce_len), b"", bytes(32))


def _iv_for_j0(key: bytes, j0: bytes) -> bytes:
    """The 16-byte GCM IV whose pre-counter block is ``j0``.

    J0 = GHASH_H(IV || 0^64 || [128]_64) = IV·H² ⊕ 128·H, so
    IV = (J0 ⊕ 128·H) · H^(2^128 − 3), H^(2^128 − 3) being H⁻².
    """
    h = int.from_bytes(oracle.aes_encrypt_block(key, bytes(16)), "big")
    inv2, base, e = 1 << 127, h, 2 ** 128 - 3   # 1 << 127 is GF(2^128)'s 1
    while e:
        if e & 1:
            inv2 = oracle.gf128_mul(inv2, base)
        base, e = oracle.gf128_mul(base, base), e >> 1
    x = int.from_bytes(j0, "big") ^ oracle.gf128_mul(128, h)
    iv = oracle.gf128_mul(x, inv2).to_bytes(16, "big")
    assert oracle.ghash(h.to_bytes(16, "big"),
                        iv + (128).to_bytes(16, "big")) == j0
    return iv


@pytest.mark.parametrize("klen", [16, 32])
def test_gcm_counter_wraps_in_its_low_32_bits(klen, rng):
    # inc32 (SP 800-38D): J0 = 5a..5a fffffffe counts the payload as
    # ...ffffffff, ...00000000, ...00000001, never carrying into byte 11.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    key, aad, pt = rng.randbytes(klen), rng.randbytes(7), rng.randbytes(64)
    iv = _iv_for_j0(key, b"\x5a" * 12 + b"\xff\xff\xff\xfe")
    sealed = AESGCM(key).encrypt(iv, pt, aad)
    for impl in (modes, oracle):
        assert impl.gcm_encrypt(key, iv, aad, pt) == sealed
        assert impl.gcm_decrypt(key, iv, aad, sealed) == pt


@pytest.mark.parametrize("nonce_len,limit", [(13, 1 << 16), (12, 1 << 24)])
def test_ccm_rejects_messages_its_length_field_cannot_hold(nonce_len, limit):
    nonce = bytes(nonce_len)
    for impl in (modes, oracle):
        with pytest.raises(ValueError, match="CCM message"):
            impl.ccm_encrypt(bytes(16), nonce, b"", bytes(limit))
        with pytest.raises(ValueError, match="CCM message"):
            impl.ccm_decrypt(bytes(16), nonce, b"", bytes(limit + 16))


@pytest.mark.parametrize("klen", [8, 17])
def test_ghash_hash_key_must_be_one_block(klen):
    for data in (b"", bytes(16)):
        with pytest.raises(ValueError, match="hash key"):
            modes.ghash_digest(bytes(klen), data)


@pytest.mark.parametrize("tag_len", [16.0, 8.0, True, "16", None])
def test_tag_length_must_be_an_int(tag_len):
    key, iv = bytes(16), bytes(12)
    for encrypt, decrypt in ((modes.gcm_encrypt, modes.gcm_decrypt),
                             (modes.ccm_encrypt, modes.ccm_decrypt)):
        with pytest.raises(ValueError, match="tag length"):
            encrypt(key, iv, b"", b"msg", tag_len=tag_len)
        with pytest.raises(ValueError, match="tag length"):
            decrypt(key, iv, b"", bytes(32), tag_len=tag_len)


@pytest.mark.parametrize("bits", [256.0, True])
def test_sha3_size_must_be_an_int(bits):
    for call in (lambda: modes.sha3_digest(bits, b"msg"),
                 lambda: modes.hmac_sha3(bits, b"key", b"msg")):
        with pytest.raises(ValueError, match="SHA3 output size"):
            call()


def test_ccm_aad_of_0xff00_bytes_takes_the_six_byte_length_form():
    # 0xFF00 is the first AAD length SP 800-38C encodes as ff fe + 4 bytes
    from cryptography.hazmat.primitives.ciphers.aead import AESCCM
    key, nonce, pt = bytes(range(16)), bytes(range(13)), b"payload"
    aad = bytes(i & 0xFF for i in range(0xFF00))
    sealed = AESCCM(key).encrypt(nonce, pt, aad)
    for impl in (modes, oracle):
        assert impl.ccm_encrypt(key, nonce, aad, pt) == sealed


# -- GCM with its GHASH split across lanes ------------------------------------
#
# A GCM call hashes n = ceil(|A| / 16) + ceil(|C| / 16) + 1 blocks, on
# K = modes._ghash_lanes(n) lanes.  The cases put n on both sides of
# every lane threshold, with whole and partial final blocks, AAD, 8-,
# 12- and 16-byte IVs and both key sizes.

GCM_CASES = [(16, 12, False), (32, 12, True), (16, 8, True), (32, 16, False)]
GCM_GHASH_BLOCKS = [1, 2, 9, 95, 96, 97, 191, 192, 193, 383, 384, 385]


@pytest.mark.parametrize("nblocks", GCM_GHASH_BLOCKS)
def test_gcm_across_lane_thresholds_matches_cryptography(nblocks, rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    klen, ivlen, partial = GCM_CASES[GCM_GHASH_BLOCKS.index(nblocks) % 4]
    key, iv = rng.randbytes(klen), rng.randbytes(ivlen)
    aad = rng.randbytes(13 if nblocks > 2 else 0)
    payload_blocks = nblocks - 1 - (1 if aad else 0)
    pt = rng.randbytes(16 * payload_blocks - (7 if partial and payload_blocks
                                              else 0))
    sealed = AESGCM(key).encrypt(iv, pt, aad)
    assert modes.gcm_encrypt(key, iv, aad, pt) == sealed
    assert modes.gcm_decrypt(key, iv, aad, sealed) == pt
    if nblocks < 100:
        assert oracle.gcm_encrypt(key, iv, aad, pt) == sealed
    with pytest.raises(TagMismatch):
        modes.gcm_decrypt(key, iv, aad, sealed[:-1] + bytes([sealed[-1] ^ 4]))


def test_gcm_counter_wraps_with_the_ghash_in_lanes(rng):
    # 100 payload blocks (K = 2) from J0 = 5a..5a fffffff0: the counter
    # wraps in its low 32 bits 15 blocks into the payload's AES run.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    key, pt = rng.randbytes(32), rng.randbytes(16 * 100 - 9)
    iv = _iv_for_j0(key, b"\x5a" * 12 + b"\xff\xff\xff\xf0")
    sealed = AESGCM(key).encrypt(iv, pt, b"")
    assert modes._ghash_lanes(101) == 2
    assert modes.gcm_encrypt(key, iv, b"", pt) == sealed
    assert modes.gcm_decrypt(key, iv, b"", sealed) == pt


def test_interleaved_keys_share_windows_but_no_tables(rng):
    # One message length, so every call runs the same bound GHASH
    # windows on K = 4 lanes; the fused multiply's tables of H^K are the
    # call's own, so no call can multiply by the other key's.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    keys = [rng.randbytes(16), rng.randbytes(32)]
    hash_keys = [rng.randbytes(16), rng.randbytes(16)]
    iv, aad = rng.randbytes(16), rng.randbytes(13)
    pt, data = rng.randbytes(16 * 200 - 5), rng.randbytes(16 * 202)
    assert modes._ghash_lanes(202) == 4
    sealed = [AESGCM(key).encrypt(iv, pt, aad) for key in keys]
    for i in (0, 1, 1, 0):
        assert (modes.ghash_digest(hash_keys[i], data)
                == oracle.ghash(hash_keys[i], data))
        assert modes.gcm_encrypt(keys[i], iv, aad, pt) == sealed[i]
        assert modes.gcm_decrypt(keys[1 - i], iv, aad, sealed[1 - i]) == pt


@pytest.mark.parametrize("ivlen,passes", [(12, 1), (16, 2)])
def test_gcm_encrypt_runs_e0_ej0_and_the_counter_blocks_together(
        ivlen, passes, rng):
    # 14 payload blocks, E(0) and E(J0) fill one 16-block pass; any IV
    # but 12 bytes needs E(0) first, for J0 = GHASH_H(IV ...).
    stats = ExecutionStats()
    modes.gcm_encrypt(rng.randbytes(16), rng.randbytes(ivlen), b"",
                      rng.randbytes(16 * 14), stats=stats)
    assert stats.per_function["BitSliceFwd"].invocations == passes


@pytest.mark.parametrize("ivlen", [12, 16])
def test_a_tampered_gcm_decrypt_runs_no_counter_blocks(ivlen, rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    key, iv, aad = rng.randbytes(16), rng.randbytes(ivlen), b"header"
    pt = rng.randbytes(16 * 40)
    sealed = AESGCM(key).encrypt(iv, pt, aad)
    good, bad = ExecutionStats(), ExecutionStats()
    assert modes.gcm_decrypt(key, iv, aad, sealed, stats=good) == pt
    with pytest.raises(TagMismatch):
        modes.gcm_decrypt(key, iv, aad, bytes([sealed[0] ^ 1]) + sealed[1:],
                          stats=bad)
    # E(0) and E(J0) only: one pass with a 12-byte IV, else two; the
    # payload's counter blocks (three passes) would XOR in ChainXor.
    aes_passes = bad.per_function["BitSliceFwd"].invocations
    assert aes_passes == (1 if ivlen == 12 else 2)
    assert "ChainXor" not in bad.per_function
    assert good.per_function["BitSliceFwd"].invocations == aes_passes + 3


def _with_byte_tables(monkeypatch, call):
    """``call()``, and how many byte tables the fused GHASH multiply
    built in it."""
    built = []
    table = fabric._byte_table
    monkeypatch.setattr(fabric, "_byte_table",
                        lambda v: built.append(v) or table(v))
    return call(), len(built)


@pytest.mark.parametrize("size,ivlen,tables", [(400, 12, 1), (400, 16, 1),
                                               (8192, 12, 12)])
def test_a_gcm_call_shares_its_ghash_subarrays(size, ivlen, tables,
                                               monkeypatch, rng):
    # J0's GHASH, the powers of H, the message's passes and the fold run
    # on one subarray per lane count, so the table of H built for a
    # 16-byte IV's J0 serves the message's one-lane passes as well.  An
    # 8 KiB message hashes on K = 8 lanes: one table each for H, H^2 and
    # H^4 as the powers double, one for H^8, and 8 for the last pass,
    # which multiplies lane j by H^(8 - j); that many at most.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    key, iv, pt = rng.randbytes(16), rng.randbytes(ivlen), rng.randbytes(size)
    sealed = AESGCM(key).encrypt(iv, pt, b"")
    out, built = _with_byte_tables(
        monkeypatch, lambda: modes.gcm_encrypt(key, iv, b"", pt))
    assert out == sealed
    assert built == tables if size == 400 else built <= tables
    back, built = _with_byte_tables(
        monkeypatch, lambda: modes.gcm_decrypt(key, iv, b"", sealed))
    assert back == pt
    assert built == tables if size == 400 else built <= tables


@pytest.mark.parametrize("width,counter0", [
    (32, bytes(range(12)) + b"\xff\xff\xff\xff"),
    (32, bytes(range(12)) + b"\xff\xff\xff\x00"),
    (128, b"\xff" * 16),
    (128, b"\xff" * 15 + b"\x00"),
    (128, bytes(15) + b"\x07"),
], ids=["inc32-wrap", "inc32-ff00", "128-wrap", "128-ff00", "128-low"])
@pytest.mark.parametrize("n", [1, 2, 300])
def test_counter_blocks_count_in_their_low_bits(width, counter0, n):
    # One block at a time: the low ``width`` bits count and wrap, and the
    # bits above them never change.
    c, low = int.from_bytes(counter0, "big"), (1 << width) - 1
    want = [((c & ~low) | ((c + i) & low)).to_bytes(16, "big")
            for i in range(n)]
    assert modes._counter_blocks(counter0, n, width) == want


@pytest.mark.parametrize("tag_len", [4, 6, 8, 10, 12, 14, 16])
def test_ccm_matches_cryptography_across_lengths(tag_len, rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESCCM
    for klen, nonce_len, size in ((16, 13, 0), (32, 7, 1), (16, 12, 16),
                                  (32, 11, 31), (16, 8, 100), (32, 10, 480)):
        key, nonce = rng.randbytes(klen), rng.randbytes(nonce_len)
        aad, pt = rng.randbytes(size % 23), rng.randbytes(size)
        sealed = AESCCM(key, tag_length=tag_len).encrypt(nonce, pt, aad)
        assert modes.ccm_encrypt(key, nonce, aad, pt, tag_len) == sealed
        assert modes.ccm_decrypt(key, nonce, aad, sealed, tag_len) == pt


def test_ccm_rejects_a_ciphertext_shorter_than_its_tag():
    # An empty message's 16-byte tag ending in a zero byte: the first 15
    # bytes decrypt to the first 15 bytes of the MAC, so only the length
    # tells the truncated input apart.
    from cryptography.hazmat.primitives.ciphers.aead import AESCCM
    key = bytes(16)
    nonce = next(n for n in (i.to_bytes(13, "big") for i in range(100000))
                 if AESCCM(key).encrypt(n, b"", b"")[-1] == 0)
    sealed = AESCCM(key).encrypt(nonce, b"", b"")
    assert modes.ccm_decrypt(key, nonce, b"", sealed) == b""
    with pytest.raises(TagMismatch):
        modes.ccm_decrypt(key, nonce, b"", sealed[:-1])


def _bytes_args():
    """Every public function of ``modes`` with valid arguments, the
    positions of its bytes-like ones with the name a ``TypeError`` for
    each starts with, and its output on ``bytes``.  Every bytes-like
    argument is an even number of bytes, so an ``array('H')`` holds
    it."""
    key, key32 = bytes(range(16)), bytes(range(32))
    iv, block = bytes(16), bytes(range(1, 17))
    msg, aad = bytes(range(40)), b"header"
    ccm = modes.ccm_encrypt(key, bytes(12), aad, msg)
    gcm = modes.gcm_encrypt(key32, bytes(12), aad, msg)
    cbc = {0: "AES key", 1: "CBC IV", 2: "CBC input"}
    return {
        "ecb_crypt": ((key, block * 2), {0: "AES key", 1: "ECB input"}),
        "cbc_encrypt": ((key, iv, block * 2), cbc),
        "cbc_decrypt": ((key, iv, block * 2), cbc),
        "ctr_crypt": ((key, block, msg),
                      {0: "AES key", 1: "CTR counter block", 2: "CTR input"}),
        "ccm_encrypt": ((key, bytes(12), aad, msg),
                        {0: "AES key", 1: "CCM input", 2: "CCM input",
                         3: "CCM input"}),
        "ccm_decrypt": ((key, bytes(12), aad, ccm),
                        {0: "AES key", 1: "CCM input", 2: "CCM input",
                         3: "CCM input"}),
        "gcm_encrypt": ((key32, bytes(12), aad, msg),
                        {0: "AES key", 1: "GCM input", 2: "GCM input",
                         3: "GCM input"}),
        "gcm_decrypt": ((key32, bytes(12), aad, gcm),
                        {0: "AES key", 1: "GCM input", 2: "GCM input",
                         3: "GCM input"}),
        "ghash_digest": ((block, msg[:32]),
                         {0: "GHASH hash key", 1: "GHASH input"}),
        "sha3_digest": ((256, msg), {1: "SHA3 message"}),
        "hmac_sha3": ((256, key, msg), {1: "HMAC input", 2: "HMAC input"}),
    }


_BYTES_ARGS = _bytes_args()


@pytest.mark.parametrize("name", sorted(set(modes.__all__) - {"TagMismatch"}))
def test_bytes_like_arguments(name):
    # Any bytes-like value is read as its bytes, a non-byte array's too;
    # str is no bytes-like value, an int is not read as a length, and
    # the TypeError names the argument it rejects.
    fn = getattr(modes, name)
    args, where = _BYTES_ARGS[name]
    want = fn(*args)
    assert type(want) is bytes
    for kind in (bytearray, memoryview, lambda a: array("H", a)):
        got = fn(*(kind(a) if i in where else a for i, a in enumerate(args)))
        assert type(got) is bytes and got == want, kind
    for i, what in where.items():
        for bad in (args[i].hex(), len(args[i])):
            with pytest.raises(TypeError, match=f"^{what}: "):
                fn(*(bad if j == i else a for j, a in enumerate(args)))


def test_sha3_digest_batch_takes_bytes_like_messages():
    msgs = [b"abc", bytes(100)]      # one 136-byte block each
    want = modes.sha3_digest_batch(256, msgs)
    assert modes.sha3_digest_batch(
        256, [bytearray(msgs[0]), memoryview(msgs[1])]) == want
    with pytest.raises(TypeError):
        modes.sha3_digest_batch(256, ["abc"])


# -- CCM: counter blocks in the idle tiles of the CBC-MAC passes --------------
#
# S0 and the payload's counter blocks ride 15 per pass in tiles 1-15 of
# the first MAC passes.  14, 29 and 44 payload blocks fill those tiles
# exactly (with S0); 15 and 30 spill one counter block into the next
# pass.  Partial last blocks add one more block, and AAD of 0, 1 and 2
# blocks moves the first payload block's MAC pass.

CCM_PAYLOAD_BLOCKS = [0, 1, 14, 15, 16, 29, 30, 31]
CCM_TAG_LENGTHS = [4, 6, 8, 10, 12, 14, 16]


def _flip(data: bytes, rng) -> bytes:
    """``data`` with one random bit flipped."""
    out = bytearray(data)
    bit = rng.randrange(8 * len(data))
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("nblocks", CCM_PAYLOAD_BLOCKS)
def test_ccm_across_pass_boundaries_matches_cryptography(nblocks, partial,
                                                         rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESCCM
    case = 2 * CCM_PAYLOAD_BLOCKS.index(nblocks) + partial
    pt = rng.randbytes(16 * nblocks + (5 if partial else 0))
    for aad_len in (0, 9, 25):          # 0, 1 and 2 AAD blocks
        tag_len = CCM_TAG_LENGTHS[(case + aad_len) % 7]
        nonce_len = 7 + (3 * case + aad_len) % 7
        key = rng.randbytes(16 if (case + aad_len) % 2 else 32)
        nonce, aad = rng.randbytes(nonce_len), rng.randbytes(aad_len)
        sealed = AESCCM(key, tag_length=tag_len).encrypt(nonce, pt, aad)
        assert modes.ccm_encrypt(key, nonce, aad, pt, tag_len) == sealed
        assert modes.ccm_decrypt(key, nonce, aad, sealed, tag_len) == pt
        tampered = [(aad, sealed[:-tag_len] + _flip(sealed[-tag_len:], rng))]
        if pt:
            tampered.append((aad, _flip(sealed[:-tag_len], rng)
                             + sealed[-tag_len:]))
        if aad:
            tampered.append((_flip(aad, rng), sealed))
        for bad_aad, bad in tampered:
            with pytest.raises(TagMismatch):
                modes.ccm_decrypt(key, nonce, bad_aad, bad, tag_len)


@pytest.mark.parametrize("nblocks", [0, 14, 15, 31])
def test_ccm_runs_its_counter_blocks_in_the_mac_passes(nblocks, rng):
    # One AES pass per formatted block and no separate counter run; the
    # passes that carry counter blocks XOR chain planes twice.
    key, nonce, aad = rng.randbytes(16), rng.randbytes(12), rng.randbytes(20)
    pt = rng.randbytes(max(16 * nblocks - 3, 0))
    payload = -(-len(pt) // 16)
    formatted = len(modes._ccm_head(nonce, aad, len(pt), 16)) + payload
    carrying = -(-(1 + payload) // 15)
    enc, dec = ExecutionStats(), ExecutionStats()
    sealed = modes.ccm_encrypt(key, nonce, aad, pt, stats=enc)
    assert modes.ccm_decrypt(key, nonce, aad, sealed, stats=dec) == pt
    for stats in (enc, dec):
        assert stats.per_function["BitSliceFwd"].invocations == formatted
        assert stats.per_function["ChainXor"].invocations == (formatted
                                                               + carrying)
    # The encrypt tag, MAC xor S0, is one fold; decryption compares the
    # MAC with S0 xor tag, which its own tile computes.
    assert enc.per_function["Fold"].invocations == 1
    assert "Fold" not in dec.per_function


@pytest.mark.parametrize("klen,counts", [
    (16, {"cbc": (56335, 74495), "gcm": (44239, 74375),
          "ecb-encrypt": (730795, 966875), "ecb-decrypt": (870675, 1181635),
          "cbc-decrypt": (872235, 1183195), "ctr": (732355, 968435),
          "ccm": (383153, 506641)}),
    (32, {"cbc": (78215, 103415), "gcm": (48615, 80159),
          "ecb-encrypt": (1015235, 1342835),
          "ecb-decrypt": (1214655, 1650415),
          "cbc-decrypt": (1216215, 1651975), "ctr": (1016795, 1344395),
          "ccm": (531937, 703297)}),
])
def test_cbc_and_gcm_counts_are_pinned(klen, counts, rng):
    # Five chained CBC blocks and a 14-block GCM call with a 12-byte IV
    # count what they counted before CCM shared its MAC passes.
    key = rng.randbytes(klen)
    cbc, gcm = ExecutionStats(), ExecutionStats()
    modes.cbc_encrypt(key, rng.randbytes(16), rng.randbytes(80), stats=cbc)
    modes.gcm_encrypt(key, rng.randbytes(12), rng.randbytes(20),
                      rng.randbytes(16 * 14), stats=gcm)
    assert (cbc.commands, cbc.cycles) == counts["cbc"]
    assert (gcm.commands, gcm.cycles) == counts["gcm"]
    # ECB, CBC decryption and CTR on 1025 blocks (one 64-lane run and one
    # more) and CCM on 31 payload blocks with 20 bytes of AAD count what
    # they counted before one pass loop ran every AES call.
    iv, data = rng.randbytes(16), rng.randbytes(16 * 1025)
    calls = {
        "ecb-encrypt": lambda s: modes.ecb_crypt(key, data, stats=s),
        "ecb-decrypt": lambda s: modes.ecb_crypt(key, data, "decrypt", s),
        "cbc-decrypt": lambda s: modes.cbc_decrypt(key, iv, data, stats=s),
        "ctr": lambda s: modes.ctr_crypt(key, iv, data, stats=s),
        "ccm": lambda s: modes.ccm_encrypt(key, iv[:12], data[:20],
                                           data[:16 * 31], stats=s),
    }
    for name, call in calls.items():
        stats = ExecutionStats()
        call(stats)
        assert (stats.commands, stats.cycles) == counts[name], name


# What a key-material search walks through besides pimcrypt's own objects.
_REACHES = (dict, list, tuple, set, frozenset, types.FunctionType,
            types.CellType, functools.partial, functools._lru_cache_wrapper)


def _ours(obj) -> bool:
    return str(getattr(type(obj), "__module__", "")).startswith("pimcrypt")


def _held(secrets: dict) -> list[tuple[str, str]]:
    """(holder type, secret name) for each value of ``secrets`` that a
    live object of a pimcrypt type, a pimcrypt module, or a dict, list,
    tuple, set, function, closure cell or cache one of them reaches,
    holds.  Ints below 2**64 are left out: small ints are everywhere."""
    secrets = {value: name for value, name in secrets.items()
               if type(value) is bytes or value.bit_length() > 64}
    gc.collect()
    todo = [module.__dict__ for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "pimcrypt"]
    todo += [obj for obj in gc.get_objects() if _ours(obj)]
    seen, held = set(), []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for child in gc.get_referents(obj):
            if type(child) in (int, bytes) and child in secrets:
                held.append((type(obj).__name__, secrets[child]))
            elif isinstance(child, _REACHES) or _ours(child):
                todo.append(child)
    return held


def _aes_secrets(key: bytes) -> dict:
    words = aes.expand_key_words(key)
    return {key: "key", **{w: "round key" for w in words},
            **{row: "round-key row" for row in aes.key_rows(words)}}


def _hash_key_secrets(h: bytes) -> dict:
    # Entries 0 and 1 of H's byte table are 0 and H's row.
    row = ghash.block_to_row(h)
    table = fabric._byte_table(row)[2:]
    return {h: "H", row: "H's row", **dict.fromkeys(table, "byte table of H")}


def _gcm_secrets(key: bytes) -> dict:
    return {**_aes_secrets(key),
            **_hash_key_secrets(oracle.aes_encrypt_block(key, bytes(16)))}


_MODE_CALLS = {
    "ecb": (lambda k, r: [modes.ecb_crypt(k, r.randbytes(48)),
                          modes.ecb_crypt(k, r.randbytes(48), "decrypt")],
            _aes_secrets),
    "cbc": (lambda k, r: [modes.cbc_encrypt(k, r.randbytes(16),
                                            r.randbytes(48)),
                          modes.cbc_decrypt(k, r.randbytes(16),
                                            r.randbytes(48))],
            _aes_secrets),
    "ctr": (lambda k, r: modes.ctr_crypt(k, r.randbytes(16), r.randbytes(40)),
            _aes_secrets),
    "ccm": (lambda k, r: modes.ccm_decrypt(
        k, b"nonce-13bytes", b"aad", modes.ccm_encrypt(
            k, b"nonce-13bytes", b"aad", r.randbytes(40))),
            _aes_secrets),
    "gcm-12-byte-iv": (lambda k, r: modes.gcm_decrypt(
        k, bytes(12), b"aad", modes.gcm_encrypt(k, bytes(12), b"aad",
                                                r.randbytes(40))),
                       _gcm_secrets),
    "gcm-16-byte-iv": (lambda k, r: modes.gcm_decrypt(
        k, bytes(16), b"aad", modes.gcm_encrypt(k, bytes(16), b"aad",
                                                r.randbytes(40))),
                       _gcm_secrets),
    "ghash": (lambda k, r: modes.ghash_digest(k, r.randbytes(64)),
              _hash_key_secrets),
    "hmac": (lambda k, r: modes.hmac_sha3(256, k, r.randbytes(40)),
             lambda k: {k: "key", k + bytes(136 - len(k)): "key block"}),
}


@pytest.mark.parametrize("mode", _MODE_CALLS)
def test_no_key_material_outlives_the_call(mode):
    # A key no other test uses, so whatever holds it was left by this
    # call; the caches and programs of earlier calls are all alive.
    r = random.Random(f"no key material outlives the {mode} call")
    key = r.randbytes(16)
    call, secrets = _MODE_CALLS[mode]
    call(key, r)
    assert _held(secrets(key)) == []
