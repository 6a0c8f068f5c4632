"""Reference-crypto oracle checks against published vectors and `cryptography`."""

import ast
import hashlib
import hmac as _hmac
import pathlib

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESCCM, AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

import pimcrypt
from pimcrypt import oracle

# FIPS-197 appendix C vectors, asserted directly.
FIPS_KEY128 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_KEY256 = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT128 = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
FIPS_CT256 = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")


def test_aes_fips197_block():
    assert oracle.aes_encrypt_block(FIPS_KEY128, FIPS_PT) == FIPS_CT128
    assert oracle.aes_encrypt_block(FIPS_KEY256, FIPS_PT) == FIPS_CT256
    assert oracle.aes_decrypt_block(FIPS_KEY128, FIPS_CT128) == FIPS_PT
    assert oracle.aes_decrypt_block(FIPS_KEY256, FIPS_CT256) == FIPS_PT


def test_key_expansion_last_round():
    # FIPS-197 A.1 final round key for the pattern key.
    rks = oracle.expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert len(rks) == 11
    assert rks[10] == bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")


# AES-128 and AES-256 keys.
KEYS = st.one_of(st.binary(min_size=16, max_size=16),
                 st.binary(min_size=32, max_size=32))


@given(key=KEYS, block=st.binary(min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_aes_block_matches_cryptography(key, block):
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    assert oracle.aes_encrypt_block(key, block) == (
        enc.update(block) + enc.finalize())
    assert oracle.aes_decrypt_block(key, block) == (
        dec.update(block) + dec.finalize())


@given(key=KEYS, iv=st.binary(min_size=16, max_size=16),
       pt=st.binary(min_size=16, max_size=96).filter(lambda b: len(b) % 16 == 0),
       tail=st.binary(max_size=15))
@settings(max_examples=25, deadline=None)
def test_cbc_ctr_match_cryptography(key, iv, pt, tail):
    ct = oracle.cbc_encrypt(key, iv, pt)
    ref = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    assert ct == ref.update(pt) + ref.finalize()
    assert oracle.cbc_decrypt(key, iv, ct) == pt

    # CTR keeps a partial last block.
    ks = Cipher(algorithms.AES(key), modes.CTR(iv)).encryptor()
    assert oracle.ctr_crypt(key, iv, pt + tail) == (ks.update(pt + tail)
                                                    + ks.finalize())


@given(key=KEYS,
       nonce=st.one_of(st.binary(min_size=12, max_size=12),
                       st.binary(min_size=8, max_size=40)),
       aad=st.binary(max_size=32),
       pt=st.binary(max_size=80))
@settings(max_examples=25, deadline=None)
def test_gcm_matches_cryptography(key, nonce, aad, pt):
    # IVs other than 12 bytes derive J0 through GHASH.
    out = oracle.gcm_encrypt(key, nonce, aad, pt)
    assert out == AESGCM(key).encrypt(nonce, pt, aad)
    assert oracle.gcm_decrypt(key, nonce, aad, out) == pt


@given(key=KEYS, nonce=st.binary(min_size=7, max_size=13),
       aad=st.binary(max_size=24), pt=st.binary(max_size=48))
@settings(max_examples=25, deadline=None)
def test_ccm_matches_cryptography(key, nonce, aad, pt):
    out = oracle.ccm_encrypt(key, nonce, aad, pt)
    assert out == AESCCM(key, tag_length=16).encrypt(nonce, pt, aad)
    assert oracle.ccm_decrypt(key, nonce, aad, out) == pt


def test_gcm_long_iv():
    key, iv = bytes(16), bytes(range(60))
    assert oracle.gcm_encrypt(key, iv, b"", b"hello gcm") == AESGCM(
        key).encrypt(iv, b"hello gcm", b"")


def test_tag_rejection():
    key, nonce = bytes(16), bytes(12)
    out = oracle.gcm_encrypt(key, nonce, b"", b"payload")
    bad = out[:-1] + bytes([out[-1] ^ 1])
    with pytest.raises(oracle.TagMismatch):
        oracle.gcm_decrypt(key, nonce, b"", bad)
    out2 = oracle.ccm_encrypt(key, nonce + b"\x00", b"", b"payload")
    with pytest.raises(oracle.TagMismatch):
        oracle.ccm_decrypt(key, nonce + b"\x00", b"", out2[:-16] + bytes(16))


@pytest.mark.parametrize("bits", [224, 256, 384, 512])
def test_sha3_matches_hashlib(bits, rng):
    for n in [0, 1, oracle.SHA3_RATES[bits] - 1, oracle.SHA3_RATES[bits],
              200, 1000]:
        msg = rng.randbytes(n)
        assert oracle.sha3(bits, msg) == hashlib.new(f"sha3_{bits}",
                                                     msg).digest()


def test_sha3_empty_digests():
    # Canonical empty-message digests. [TRIVIAL]
    assert oracle.sha3(256, b"").hex().startswith("a7ffc6f8bf1ed766")
    assert oracle.sha3(512, b"").hex().startswith("a69f73cca23a9ac5")


@pytest.mark.parametrize("bits", [224, 256, 384, 512])
def test_hmac_matches_hashlib(bits, rng):
    for klen in [0, 16, oracle.SHA3_RATES[bits], 300]:
        key, msg = rng.randbytes(klen), rng.randbytes(77)
        ref = _hmac.new(key, msg, f"sha3_{bits}").digest()
        assert oracle.hmac_sha3(bits, key, msg) == ref


def test_ghash_bitserial_agrees(rng):
    for _ in range(20):
        h = rng.randbytes(16)
        data = rng.randbytes(16 * rng.randrange(1, 6))
        assert oracle.ghash(h, data) == oracle.ghash_bitserial(h, data)


@pytest.mark.parametrize("nonce_len", [3, 6, 14])
def test_ccm_decrypt_checks_the_nonce_length(nonce_len):
    # as ccm_encrypt does, before any tag arithmetic
    with pytest.raises(ValueError):
        oracle.ccm_decrypt(bytes(16), bytes(nonce_len), b"", bytes(32))


@pytest.mark.parametrize("klen", [8, 17])
def test_ghash_hash_key_must_be_one_block(klen):
    for ghash in (oracle.ghash, oracle.ghash_bitserial):
        with pytest.raises(ValueError, match="hash key"):
            ghash(bytes(klen), bytes(16))


@pytest.mark.parametrize("tag_len", [3, 5, 18, 16.0])
def test_ccm_rejects_tag_lengths(tag_len):
    with pytest.raises(ValueError, match="tag length"):
        oracle.ccm_encrypt(bytes(16), bytes(13), b"", b"msg", tag_len=tag_len)
    with pytest.raises(ValueError, match="tag length"):
        oracle.ccm_decrypt(bytes(16), bytes(13), b"", bytes(32),
                           tag_len=tag_len)


@pytest.mark.parametrize("bits", [100, 256.0])
def test_unsupported_sha3_size_is_a_value_error(bits):
    with pytest.raises(ValueError, match="SHA3 output size"):
        oracle.sha3(bits, b"msg")
    with pytest.raises(ValueError, match="SHA3 output size"):
        oracle.hmac_sha3(bits, b"key", b"msg")


_KEY = bytes(16)


@pytest.mark.parametrize("call", [
    lambda: oracle.aes_encrypt_block(_KEY, bytes(15)),
    lambda: oracle.aes_decrypt_block(_KEY, bytes(17)),
    lambda: oracle.cbc_encrypt(_KEY, bytes(8), bytes(16)),
    lambda: oracle.cbc_decrypt(_KEY, bytes(8), bytes(16)),
    lambda: oracle.ctr_crypt(_KEY, bytes(8), b"msg"),
    lambda: oracle.gcm_encrypt(_KEY, b"", b"", b"msg"),
    lambda: oracle.gcm_decrypt(_KEY, b"", b"", bytes(32)),
], ids=["encrypt-15", "decrypt-17", "cbc-enc-iv8", "cbc-dec-iv8", "ctr-8",
        "gcm-enc-empty-iv", "gcm-dec-empty-iv"])
def test_wrong_block_and_iv_lengths_are_value_errors(call):
    # as `modes` rejects them; the oracle checks on its own
    with pytest.raises(ValueError):
        call()


def _oracle_imports(path: pathlib.Path) -> list[int]:
    """Lines of ``path`` that import the oracle, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "oracle" for name in names):
            lines.append(node.lineno)
    return lines


def test_fabric_path_imports_nothing_from_the_oracle():
    # The oracle is only a reference if it shares no code with what it
    # checks: the ISA, fabric, controller and every kernel module.
    src = pathlib.Path(pimcrypt.__file__).parent
    paths = [src / f"{name}.py" for name in ("isa", "fabric", "controller")]
    paths += sorted((src / "kernels").glob("*.py"))
    assert len(paths) > 3
    found = {p.name: lines for p in paths if (lines := _oracle_imports(p))}
    assert found == {}
