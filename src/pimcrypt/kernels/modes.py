"""Cipher modes and hashes orchestrated over the fabric kernels.

This is the host-software layer: it formats counters, padding and tag
material, chops work into subarray passes, and binds the staged data
each kernel program expects.  Every block-cipher invocation, Keccak
permutation and GF(2^128) multiply runs on the simulated fabric; only
byte shuffling happens here.

Serial chains (CBC encryption, the CCM CBC-MAC) run one block per pass
in tile 0 — the fabric cannot parallelize a dependency chain, though
independent streams could still share the remaining tiles.  CBC
decryption, CTR and GHASH batch normally.
"""

from __future__ import annotations

import hmac as _hmac_mod
from functools import lru_cache

from ..controller import Controller, ExecutionStats
from ..fabric import Subarray
from . import aes, ghash, hostio, keccak

__all__ = ["TagMismatch", "ecb_crypt", "cbc_encrypt", "cbc_decrypt",
           "ctr_crypt", "ccm_encrypt", "ccm_decrypt", "gcm_encrypt",
           "gcm_decrypt", "ghash_digest", "sha3_digest", "hmac_sha3"]

AES_BLOCKS_PER_PASS = 16
SHA3_LANES = 4


class TagMismatch(Exception):
    pass


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _merge(stats: ExecutionStats | None, run: ExecutionStats) -> None:
    if stats is not None:
        stats.merge(run)


@lru_cache(maxsize=128)
def _controller(kernel: str, *args) -> Controller:
    """The validated program ``build(*args)`` of one kernel family.

    Programs depend only on their build arguments, never on key or data,
    so one per argument tuple serves every call.
    """
    build = {"aes": aes.build_aes_program, "ghash": ghash.build_ghash_program,
             "sha3": keccak.build_sha3_program}[kernel]
    return Controller(build(*args))


# ---------------------------------------------------------------------------
# AES
# ---------------------------------------------------------------------------

def _key_env(key: bytes, direction: str) -> dict:
    """Staged round-key rows, built per call so no key material outlives
    it."""
    words = aes.expand_key_words(key)
    if direction == "decrypt":
        words = words[::-1]
    if len(key) == 16:
        return {"key_rows": aes.key_rows(words)}
    return {"key_rows": aes.key_rows(words[:8]),
            "key_rows2": aes.key_rows(words[8:])}


def _aes_passes(key: bytes, direction: str, blocks: list[bytes],
                chain: str | None, chain_blocks: list[bytes] | None,
                stats: ExecutionStats | None) -> list[bytes]:
    ctrl = _controller("aes", len(key) * 8, direction, chain)
    base_env = _key_env(key, direction)
    out: list[bytes] = []
    for off in range(0, len(blocks), AES_BLOCKS_PER_PASS):
        env = dict(base_env)
        env["blocks"] = blocks[off:off + AES_BLOCKS_PER_PASS]
        if chain:
            env["chain_blocks"] = chain_blocks[off:off + len(env["blocks"])]
        _merge(stats, ctrl.run(Subarray(block_width=aes.BLOCK_WIDTH), env))
        out += env["out_blocks"]
    return out


def _split_blocks(data: bytes) -> list[bytes]:
    if len(data) % 16:
        raise ValueError("data length must be a multiple of 16 bytes")
    return [data[i:i + 16] for i in range(0, len(data), 16)]


def ecb_crypt(key: bytes, data: bytes, direction: str = "encrypt",
              stats: ExecutionStats | None = None) -> bytes:
    return b"".join(_aes_passes(key, direction, _split_blocks(data),
                                None, None, stats))


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    out, prev = [], iv
    for block in _split_blocks(plaintext):
        prev = _aes_passes(key, "encrypt", [block], "pre", [prev], stats)[0]
        out.append(prev)
    return b"".join(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    ct = _split_blocks(ciphertext)
    return b"".join(_aes_passes(key, "decrypt", ct, "post",
                                [iv] + ct[:-1], stats))


def _counter_blocks(counter0: bytes, n: int) -> list[bytes]:
    c = int.from_bytes(counter0, "big")
    return [((c + i) % (1 << 128)).to_bytes(16, "big") for i in range(n)]


def ctr_crypt(key: bytes, counter0: bytes, data: bytes,
              stats: ExecutionStats | None = None) -> bytes:
    n = -(-len(data) // 16)
    padded = data + bytes(16 * n - len(data))
    out = _aes_passes(key, "encrypt", _counter_blocks(counter0, n),
                      "post", _split_blocks(padded), stats)
    return b"".join(out)[:len(data)]


# ---------------------------------------------------------------------------
# CCM
# ---------------------------------------------------------------------------

def _ccm_format(nonce: bytes, aad: bytes, msg: bytes,
                tag_len: int) -> list[bytes]:
    q = 15 - len(nonce)
    flags = (64 if aad else 0) | (((tag_len - 2) // 2) << 3) | (q - 1)
    buf = bytearray([flags]) + nonce + len(msg).to_bytes(q, "big")
    if aad:
        if len(aad) < 0xFF00:
            buf += len(aad).to_bytes(2, "big")
        else:
            buf += b"\xff\xfe" + len(aad).to_bytes(4, "big")
        buf += aad
        buf += bytes(-len(buf) % 16)
    buf += msg
    buf += bytes(-len(buf) % 16)
    return _split_blocks(bytes(buf))


def _ccm_mac(key: bytes, nonce: bytes, aad: bytes, msg: bytes, tag_len: int,
             stats: ExecutionStats | None) -> bytes:
    mac = bytes(16)
    for block in _ccm_format(nonce, aad, msg, tag_len):
        mac = _aes_passes(key, "encrypt", [block], "pre", [mac], stats)[0]
    return mac[:tag_len]


def _ccm_ctr0(nonce: bytes) -> bytes:
    q = 15 - len(nonce)
    return bytes([q - 1]) + nonce + bytes(q)


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    if not 7 <= len(nonce) <= 13:
        raise ValueError("CCM nonce must be 7..13 bytes")
    mac = _ccm_mac(key, nonce, aad, plaintext, tag_len, stats)
    ctr0 = _ccm_ctr0(nonce)
    keystream = ctr_crypt(key, ctr0, bytes(16 + len(plaintext)), stats)
    ct = _xor(plaintext, keystream[16:])
    return ct + _xor(mac, keystream[:tag_len])


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    ctr0 = _ccm_ctr0(nonce)
    keystream = ctr_crypt(key, ctr0, bytes(16 + len(ct)), stats)
    pt = _xor(ct, keystream[16:])
    mac = _ccm_mac(key, nonce, aad, pt, tag_len, stats)
    if not _hmac_mod.compare_digest(_xor(mac, keystream[:tag_len]), tag):
        raise TagMismatch("CCM tag mismatch")
    return pt


# ---------------------------------------------------------------------------
# GHASH and GCM
# ---------------------------------------------------------------------------

def ghash_digest(hash_key: bytes, data: bytes,
                 stats: ExecutionStats | None = None) -> bytes:
    blocks = _split_blocks(data)
    if not blocks:
        return bytes(16)
    sub = Subarray(block_width=ghash.BLOCK_WIDTH)
    env = {"hash_key": hash_key, "ghash_first": True}
    for off in range(0, len(blocks), 8):
        chunk = blocks[off:off + 8]
        env["xblocks"] = chunk
        final = off + len(chunk) == len(blocks)
        ctrl = _controller("ghash", len(chunk), final)
        _merge(stats, ctrl.run(sub, env))
    return ghash.row_to_block(env["digest_row"])


def _gcm_lengths(aad: bytes, ct: bytes) -> bytes:
    return (8 * len(aad)).to_bytes(8, "big") + (8 * len(ct)).to_bytes(8, "big")


def _pad16(data: bytes) -> bytes:
    return data + bytes(-len(data) % 16)


def _gcm_j0(hash_key: bytes, iv: bytes,
            stats: ExecutionStats | None) -> bytes:
    if len(iv) == 12:
        return iv + b"\x00\x00\x00\x01"
    material = _pad16(iv) + bytes(8) + (8 * len(iv)).to_bytes(8, "big")
    return ghash_digest(hash_key, material, stats)


def gcm_encrypt(key: bytes, iv: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    h = ecb_crypt(key, bytes(16), "encrypt", stats)
    j0 = _gcm_j0(h, iv, stats)
    ctr1 = (int.from_bytes(j0, "big") + 1).to_bytes(16, "big")
    ct = ctr_crypt(key, ctr1, plaintext, stats)
    s = ghash_digest(h, _pad16(aad) + _pad16(ct) + _gcm_lengths(aad, ct),
                     stats)
    tag = ctr_crypt(key, j0, s, stats)[:tag_len]
    return ct + tag


def gcm_decrypt(key: bytes, iv: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    h = ecb_crypt(key, bytes(16), "encrypt", stats)
    j0 = _gcm_j0(h, iv, stats)
    s = ghash_digest(h, _pad16(aad) + _pad16(ct) + _gcm_lengths(aad, ct),
                     stats)
    expect = ctr_crypt(key, j0, s, stats)[:tag_len]
    if not _hmac_mod.compare_digest(expect, tag):
        raise TagMismatch("GCM tag mismatch")
    ctr1 = (int.from_bytes(j0, "big") + 1).to_bytes(16, "big")
    return ctr_crypt(key, ctr1, ct, stats)


# ---------------------------------------------------------------------------
# SHA3 / HMAC
# ---------------------------------------------------------------------------

def _pack_sha3_blocks(padded: list[bytes], rate: int) -> list[list[int]]:
    nblk = len(padded[0]) // rate
    blocks = []
    for b in range(nblk):
        rows = []
        for i in range(rate // 8):
            rows.append(hostio.lane_value(
                [int.from_bytes(p[b * rate + 8 * i:b * rate + 8 * i + 8],
                                "little") for p in padded]))
        blocks.append(rows)
    return blocks


def _rate(bits: int) -> int:
    if bits not in keccak.RATE_BYTES:
        raise ValueError(f"SHA3 output size must be one of "
                         f"{sorted(keccak.RATE_BYTES)} bits, got {bits!r}")
    return keccak.RATE_BYTES[bits]


def _lane_digest(state_rows: list[int], lane: int, nbytes: int) -> bytes:
    lanes = [hostio.lanes_from_value(r)[lane] for r in state_rows[:25]]
    return b"".join(v.to_bytes(8, "little") for v in lanes)[:nbytes]


def sha3_digest_batch(bits: int, msgs: list[bytes],
                      stats: ExecutionStats | None = None) -> list[bytes]:
    """Hash up to four equal-block-count messages in one fabric run."""
    if not 1 <= len(msgs) <= SHA3_LANES:
        raise ValueError("1..4 messages per batch")
    rate = _rate(bits)
    padded = [keccak.pad_sha3(m, rate) for m in msgs]
    if len(set(map(len, padded))) != 1:
        raise ValueError("batched messages must pad to equal block counts")
    padded += [padded[0]] * (SHA3_LANES - len(padded))
    env = {"blocks": _pack_sha3_blocks(padded, rate)}
    ctrl = _controller("sha3", bits, len(env["blocks"]), False)
    _merge(stats, ctrl.run(Subarray(block_width=keccak.BLOCK_WIDTH), env))
    return [_lane_digest(env["state_rows"], i, bits // 8)
            for i in range(len(msgs))]


def sha3_digest(bits: int, msg: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    return sha3_digest_batch(bits, [msg], stats)[0]


def _keyed_absorb(bits: int, key_block: bytes, pad_byte: int, tail: bytes,
                  stats: ExecutionStats | None) -> bytes:
    rate = keccak.RATE_BYTES[bits]
    padded = key_block + keccak.pad_sha3(tail, rate)
    env = {"blocks": _pack_sha3_blocks([padded] * SHA3_LANES, rate),
           "pad_lane": int.from_bytes(bytes([pad_byte] * 8), "little")}
    ctrl = _controller("sha3", bits, len(env["blocks"]), True)
    _merge(stats, ctrl.run(Subarray(block_width=keccak.BLOCK_WIDTH), env))
    return _lane_digest(env["state_rows"], 0, bits // 8)


def hmac_sha3(bits: int, key: bytes, msg: bytes,
              stats: ExecutionStats | None = None) -> bytes:
    rate = _rate(bits)
    if len(key) > rate:
        key = sha3_digest(bits, key, stats)
    key_block = key + bytes(rate - len(key))
    inner = _keyed_absorb(bits, key_block, 0x36, msg, stats)
    return _keyed_absorb(bits, key_block, 0x5C, inner, stats)
