"""Differential property tests: every public ``modes`` function against
``cryptography``, ``hashlib`` or ``hmac``.

Keys are 16 or 32 bytes, messages up to 512 bytes, GCM IVs 1..32 bytes,
CCM nonces 7..13 bytes, AAD up to 64 bytes, and every tag length is
drawn; a few longer draws (GCM up to 8400 bytes with 8-, 12- and
16-byte IVs, CTR and ECB up to 17 KiB) reach the multi-lane GHASH and
AES runs.  A flipped byte must raise ``TagMismatch``, and a key, IV, nonce
or tag length out of range exactly ``ValueError``.  ``cryptography``
takes GCM IVs of 8 bytes or more, so shorter ones, and ``ghash_digest``,
which it does not expose, are checked against ``pimcrypt.oracle``.

The same invalid key, IV, nonce and size draws also go through
``cli.main``, which must exit 2 (usage error) without raising, and a
flipped byte must exit 1 (mismatch).  The CLI takes no tag length, so
the tag length draws stay with the API.
"""

import hashlib
import hmac
import io
import random
import sys
from unittest import mock

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers import modes as cm
from cryptography.hazmat.primitives.ciphers.aead import AESCCM, AESGCM
from hypothesis import given, settings, strategies as st

from pimcrypt import cli, oracle
from pimcrypt.kernels import modes
from pimcrypt.kernels.modes import TagMismatch

# Every example runs the simulator, a chained mode one AES pass per
# block: a few examples per function keep this file to a few seconds.
examples = settings(max_examples=20)


def _exactly(n: int):
    return st.binary(min_size=n, max_size=n)


keys = st.sampled_from([16, 32]).flatmap(_exactly)
whole_blocks = st.integers(0, 32).map(lambda n: 16 * n).flatmap(_exactly)
messages = st.binary(max_size=512)
aads = st.binary(max_size=64)
bad_key_lengths = st.integers(0, 48).filter(lambda n: n not in (16, 32))
bad_block_lengths = st.integers(0, 32).filter(lambda n: n != 16)
CCM_TAGS = [4, 6, 8, 10, 12, 14, 16]
GCM_TAGS = [4, 8, 12, 13, 14, 15, 16]
SHA3_BITS = [224, 256, 384, 512]
BAD_TAGS = [0, 1, 2, 3, 5, 7, 9, 11, 17, 32]
BAD_BITS = [0, 128, 225, 1024]


def _value_error(call) -> None:
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError


def _cli(argv: list[str], data: bytes = b"") -> int:
    """The exit code of ``pimcrypt`` with ``argv`` and ``data`` on stdin;
    what it writes is dropped."""
    stdin = io.TextIOWrapper(io.BytesIO(data))
    with mock.patch.object(sys, "stdin", stdin), \
            mock.patch.object(sys, "stdout", io.TextIOWrapper(io.BytesIO())), \
            mock.patch.object(sys, "stderr", io.StringIO()):
        return cli.main(argv)


def _crypt(mode: str, decrypt: bool, key: bytes, data: bytes,
           iv: bytes | None = None, aad: bytes = b"") -> int:
    """The exit code of ``pimcrypt encrypt`` or ``decrypt`` in ``mode``."""
    argv = ["decrypt" if decrypt else "encrypt", "--mode", mode,
            "--key", key.hex(), "--aad", aad.hex()]
    return _cli(argv + (["--iv", iv.hex()] if iv is not None else []), data)


def _flip(data: bytes, where: int, mask: int) -> bytes:
    out = bytearray(data)
    out[where % len(out)] ^= mask
    return bytes(out)


def _aes(key: bytes, mode, decrypt: bool, data: bytes) -> bytes:
    cipher = Cipher(algorithms.AES(key), mode)
    ctx = cipher.decryptor() if decrypt else cipher.encryptor()
    return ctx.update(data) + ctx.finalize()


@examples
@given(key=keys, data=whole_blocks, decrypt=st.booleans(),
       bad=bad_key_lengths)
def test_ecb_crypt(key, data, decrypt, bad):
    direction = "decrypt" if decrypt else "encrypt"
    assert modes.ecb_crypt(key, data, direction) == \
        _aes(key, cm.ECB(), decrypt, data)
    _value_error(lambda: modes.ecb_crypt(bytes(bad), data, direction))
    _value_error(lambda: modes.ecb_crypt(key, data + b"x", direction))
    assert _crypt("ecb", decrypt, bytes(bad), data) == cli.USAGE_ERROR
    assert _crypt("ecb", decrypt, key, data + b"x") == cli.USAGE_ERROR


@examples
@given(key=keys, iv=_exactly(16), data=whole_blocks, bad=bad_key_lengths,
       bad_iv=bad_block_lengths)
def test_cbc_encrypt(key, iv, data, bad, bad_iv):
    assert modes.cbc_encrypt(key, iv, data) == \
        _aes(key, cm.CBC(iv), False, data)
    _value_error(lambda: modes.cbc_encrypt(bytes(bad), iv, data))
    _value_error(lambda: modes.cbc_encrypt(key, bytes(bad_iv), data))
    assert _crypt("cbc", False, bytes(bad), data, iv) == cli.USAGE_ERROR
    assert _crypt("cbc", False, key, data, bytes(bad_iv)) == cli.USAGE_ERROR


@examples
@given(key=keys, iv=_exactly(16), data=whole_blocks, bad=bad_key_lengths,
       bad_iv=bad_block_lengths)
def test_cbc_decrypt(key, iv, data, bad, bad_iv):
    assert modes.cbc_decrypt(key, iv, data) == \
        _aes(key, cm.CBC(iv), True, data)
    _value_error(lambda: modes.cbc_decrypt(bytes(bad), iv, data))
    _value_error(lambda: modes.cbc_decrypt(key, bytes(bad_iv), data))
    assert _crypt("cbc", True, bytes(bad), data, iv) == cli.USAGE_ERROR
    assert _crypt("cbc", True, key, data, bytes(bad_iv)) == cli.USAGE_ERROR


@examples
@given(key=keys, counter0=_exactly(16), data=messages, bad=bad_key_lengths,
       bad_counter=bad_block_lengths)
def test_ctr_crypt(key, counter0, data, bad, bad_counter):
    assert modes.ctr_crypt(key, counter0, data) == \
        _aes(key, cm.CTR(counter0), False, data)
    _value_error(lambda: modes.ctr_crypt(bytes(bad), counter0, data))
    _value_error(lambda: modes.ctr_crypt(key, bytes(bad_counter), data))
    assert _crypt("ctr", False, bytes(bad), data, counter0) == \
        cli.USAGE_ERROR
    assert _crypt("ctr", False, key, data, bytes(bad_counter)) == \
        cli.USAGE_ERROR


ccm_nonces = st.integers(7, 13).flatmap(_exactly)
bad_ccm_nonce_lengths = st.integers(0, 20).filter(lambda n: not 7 <= n <= 13)


@examples
@given(key=keys, nonce=ccm_nonces, aad=aads, pt=messages,
       tag_len=st.sampled_from(CCM_TAGS), bad=bad_key_lengths,
       bad_nonce=bad_ccm_nonce_lengths, bad_tag=st.sampled_from(BAD_TAGS))
def test_ccm_encrypt(key, nonce, aad, pt, tag_len, bad, bad_nonce, bad_tag):
    assert modes.ccm_encrypt(key, nonce, aad, pt, tag_len) == \
        AESCCM(key, tag_length=tag_len).encrypt(nonce, pt, aad)
    _value_error(lambda: modes.ccm_encrypt(bytes(bad), nonce, aad, pt))
    _value_error(lambda: modes.ccm_encrypt(key, bytes(bad_nonce), aad, pt))
    _value_error(lambda: modes.ccm_encrypt(key, nonce, aad, pt, bad_tag))
    assert _crypt("ccm", False, bytes(bad), pt, nonce, aad) == \
        cli.USAGE_ERROR
    assert _crypt("ccm", False, key, pt, bytes(bad_nonce), aad) == \
        cli.USAGE_ERROR


@examples
@given(key=keys, nonce=ccm_nonces, aad=aads, pt=messages,
       tag_len=st.sampled_from(CCM_TAGS), where=st.integers(0),
       mask=st.integers(1, 255), bad=bad_key_lengths,
       bad_nonce=bad_ccm_nonce_lengths, bad_tag=st.sampled_from(BAD_TAGS))
def test_ccm_decrypt(key, nonce, aad, pt, tag_len, where, mask, bad,
                     bad_nonce, bad_tag):
    sealed = AESCCM(key, tag_length=tag_len).encrypt(nonce, pt, aad)
    assert modes.ccm_decrypt(key, nonce, aad, sealed, tag_len) == pt
    with pytest.raises(TagMismatch):
        modes.ccm_decrypt(key, nonce, aad, _flip(sealed, where, mask),
                          tag_len)
    _value_error(lambda: modes.ccm_decrypt(bytes(bad), nonce, aad, sealed))
    _value_error(lambda: modes.ccm_decrypt(key, bytes(bad_nonce), aad,
                                           sealed))
    _value_error(lambda: modes.ccm_decrypt(key, nonce, aad, sealed, bad_tag))
    # The CLI takes 16-byte tags.
    full = AESCCM(key).encrypt(nonce, pt, aad)
    assert _crypt("ccm", True, key, _flip(full, where, mask), nonce, aad) == \
        cli.MISMATCH_ERROR
    assert _crypt("ccm", True, bytes(bad), full, nonce, aad) == \
        cli.USAGE_ERROR
    assert _crypt("ccm", True, key, full, bytes(bad_nonce), aad) == \
        cli.USAGE_ERROR


def _gcm_sealed(key: bytes, iv: bytes, aad: bytes, pt: bytes,
                tag_len: int) -> bytes:
    full = (AESGCM(key).encrypt(iv, pt, aad) if len(iv) >= 8
            else oracle.gcm_encrypt(key, iv, aad, pt))
    return full[:len(pt) + tag_len]


gcm_ivs = st.integers(1, 32).flatmap(_exactly)


@examples
@given(key=keys, iv=gcm_ivs, aad=aads, pt=messages,
       tag_len=st.sampled_from(GCM_TAGS), bad=bad_key_lengths,
       bad_tag=st.sampled_from(BAD_TAGS))
def test_gcm_encrypt(key, iv, aad, pt, tag_len, bad, bad_tag):
    assert modes.gcm_encrypt(key, iv, aad, pt, tag_len) == \
        _gcm_sealed(key, iv, aad, pt, tag_len)
    _value_error(lambda: modes.gcm_encrypt(bytes(bad), iv, aad, pt))
    _value_error(lambda: modes.gcm_encrypt(key, b"", aad, pt))
    _value_error(lambda: modes.gcm_encrypt(key, iv, aad, pt, bad_tag))
    assert _crypt("gcm", False, bytes(bad), pt, iv, aad) == cli.USAGE_ERROR
    assert _crypt("gcm", False, key, pt, b"", aad) == cli.USAGE_ERROR


@examples
@given(key=keys, iv=gcm_ivs, aad=aads, pt=messages,
       tag_len=st.sampled_from(GCM_TAGS), where=st.integers(0),
       mask=st.integers(1, 255), bad=bad_key_lengths,
       bad_tag=st.sampled_from(BAD_TAGS))
def test_gcm_decrypt(key, iv, aad, pt, tag_len, where, mask, bad, bad_tag):
    sealed = _gcm_sealed(key, iv, aad, pt, tag_len)
    assert modes.gcm_decrypt(key, iv, aad, sealed, tag_len) == pt
    with pytest.raises(TagMismatch):
        modes.gcm_decrypt(key, iv, aad, _flip(sealed, where, mask), tag_len)
    _value_error(lambda: modes.gcm_decrypt(bytes(bad), iv, aad, sealed))
    _value_error(lambda: modes.gcm_decrypt(key, b"", aad, sealed))
    _value_error(lambda: modes.gcm_decrypt(key, iv, aad, sealed, bad_tag))
    # The CLI takes 16-byte tags.
    full = _gcm_sealed(key, iv, aad, pt, 16)
    assert _crypt("gcm", True, key, _flip(full, where, mask), iv, aad) == \
        cli.MISMATCH_ERROR
    assert _crypt("gcm", True, bytes(bad), full, iv, aad) == cli.USAGE_ERROR
    assert _crypt("gcm", True, key, full, b"", aad) == cli.USAGE_ERROR


# Long messages for the multi-lane paths: GCM's GHASH on K = 1..8 lanes,
# and AES runs on up to 64 lanes and, for ECB always, past them.  The
# bytes come from a drawn seed, so an example costs no 17 KiB draw.
@settings(max_examples=10, deadline=None)
@given(key=keys, iv_len=st.sampled_from([8, 12, 16]), seed=st.integers(0),
       gcm_len=st.integers(1400, 8400), aad_len=st.integers(0, 64),
       ctr_len=st.integers(1, 17 * 1024), ecb_blocks=st.integers(1025, 1088),
       where=st.integers(1, 16), mask=st.integers(1, 255))
def test_multi_lane_runs(key, iv_len, seed, gcm_len, aad_len, ctr_len,
                         ecb_blocks, where, mask):
    rng = random.Random(seed)
    iv, aad, pt = (rng.randbytes(n) for n in (iv_len, aad_len, gcm_len))
    sealed = AESGCM(key).encrypt(iv, pt, aad)
    assert modes.gcm_encrypt(key, iv, aad, pt) == sealed
    assert modes.gcm_decrypt(key, iv, aad, sealed) == pt
    tampered = sealed[:-where] + _flip(sealed[-where:], 0, mask)
    with pytest.raises(TagMismatch):
        modes.gcm_decrypt(key, iv, aad, tampered)
    counter0, data = rng.randbytes(16), rng.randbytes(ctr_len)
    assert modes.ctr_crypt(key, counter0, data) == \
        _aes(key, cm.CTR(counter0), False, data)
    blocks = rng.randbytes(16 * ecb_blocks)
    assert modes.ecb_crypt(key, blocks) == _aes(key, cm.ECB(), False, blocks)


@examples
@given(hash_key=_exactly(16), data=whole_blocks, bad=bad_block_lengths)
def test_ghash_digest(hash_key, data, bad):
    assert modes.ghash_digest(hash_key, data) == oracle.ghash(hash_key, data)
    _value_error(lambda: modes.ghash_digest(bytes(bad), data))


@examples
@given(bits=st.sampled_from(SHA3_BITS), msg=messages,
       bad=st.sampled_from(BAD_BITS))
def test_sha3_digest(bits, msg, bad):
    assert modes.sha3_digest(bits, msg) == \
        hashlib.new(f"sha3_{bits}", msg).digest()
    _value_error(lambda: modes.sha3_digest(bad, msg))
    assert _cli(["hash", "--alg", f"sha3-{bad}"], msg) == cli.USAGE_ERROR


@examples
@given(bits=st.sampled_from(SHA3_BITS), key=st.binary(max_size=200),
       msg=messages, bad=st.sampled_from(BAD_BITS))
def test_hmac_sha3(bits, key, msg, bad):
    assert modes.hmac_sha3(bits, key, msg) == \
        hmac.new(key, msg, f"sha3_{bits}").digest()
    _value_error(lambda: modes.hmac_sha3(bad, key, msg))
    assert _cli(["hmac", "--alg", f"sha3-{bad}", "--key", key.hex()],
                msg) == cli.USAGE_ERROR


def test_every_public_function_has_a_differential_test():
    tested = {name[len("test_"):] for name in globals()
              if name.startswith("test_")}
    assert set(modes.__all__) - {"TagMismatch"} <= tested
