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
