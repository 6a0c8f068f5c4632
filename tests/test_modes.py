"""Mode orchestration on the fabric vs the oracle: round-trips and tampering."""

import pytest

from pimcrypt import oracle
from pimcrypt.controller import ExecutionStats
from pimcrypt.kernels import modes
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
    stats = ExecutionStats()
    modes.cbc_encrypt(rng.randbytes(16), rng.randbytes(16),
                      rng.randbytes(32), stats=stats)
    assert stats.cycles > 0 and stats.commands > 0
    # serial chaining: one pass per block
    two_block = stats.cycles
    stats2 = ExecutionStats()
    modes.cbc_encrypt(rng.randbytes(16), rng.randbytes(16),
                      rng.randbytes(64), stats=stats2)
    assert stats2.cycles == 2 * two_block


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


# -- bulk modes against `cryptography`, across lane counts -------------------
#
# 16 blocks fill one pass; 17 and 33 spill into a second and third lane;
# 1025 fills all LOCKSTEP_LANES lanes of one run and starts another.  The
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
    from pimcrypt.perfmodel import FabricConfig
    assert modes.LOCKSTEP_LANES == FabricConfig().active_subarrays


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


@pytest.mark.parametrize("tag_len", [16.0, 8.0, True])
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
