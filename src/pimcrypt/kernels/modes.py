"""Cipher modes and hashes orchestrated over the fabric kernels.

This is the host-software layer: it formats counters, padding and tag
material, chops work into subarray passes, and binds the staged data
each kernel program expects.  Every block-cipher invocation, Keccak
permutation and GF(2^128) multiply runs on the simulated fabric; only
byte shuffling happens here.

Independent AES blocks (ECB, CBC decryption, CTR and GCM's CTR) fill
16-block passes, and up to :data:`LOCKSTEP_LANES` passes of one call run
in lockstep as the lanes of one wide subarray: one controller run
drives them all, as the modeled controller drives every compute
subarray with one command stream.  Modeled commands and cycles still
count every pass.  Serial chains (CBC encryption, the CCM CBC-MAC,
GHASH, the SHA3 absorb) run one pass at a time on one lane; a chained
AES block uses tile 0 only — the fabric cannot parallelize a dependency
chain, though independent streams could still share the other tiles.

The round-key rows are expanded and staged once per call and dropped
with it, so no key material outlives the call; so are their copies
replicated per lane count, which ``aes_load_keys`` caches in the call's
env.  Every AES mode checks the key length, and CBC and CTR check that
the IV or counter block is one block, raising ``ValueError``.

Each kernel family has one staging step, :meth:`_AesKey.stage`,
:func:`_ghash_stage` and :func:`_sponge`, which returns the
:func:`_controller` arguments of a run and a fresh env (the dict its
host actions read and write).  The mode functions here and
``perfmodel.kernel_passes`` both stage through them.
"""

from __future__ import annotations

import hmac as _hmac_mod
from functools import lru_cache
from typing import NamedTuple

from ..controller import Controller, ExecutionStats
from ..fabric import Subarray
from . import aes, ghash, hostio, keccak

__all__ = ["TagMismatch", "ecb_crypt", "cbc_encrypt", "cbc_decrypt",
           "ctr_crypt", "ccm_encrypt", "ccm_decrypt", "gcm_encrypt",
           "gcm_decrypt", "ghash_digest", "sha3_digest", "hmac_sha3"]

AES_BLOCKS_PER_PASS = 16
SHA3_LANES = 4
# Compute subarrays behind the controller: 256 KiB of SRAM in 4 KiB
# subarrays (``perfmodel.FabricConfig().active_subarrays``).
LOCKSTEP_LANES = 64


class TagMismatch(Exception):
    pass


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@lru_cache(maxsize=128)
def _controller(kernel: str, *args) -> Controller:
    """The validated program ``build(*args)`` of one kernel family.

    Programs depend only on their build arguments, never on key or data,
    so one per argument tuple serves every call.
    """
    build = {"aes": aes.build_aes_program, "ghash": ghash.build_ghash_program,
             "sha3": keccak.build_sha3_program}[kernel]
    return Controller(build(*args))


def _run(staged: tuple[tuple, dict], sub: Subarray,
         stats: ExecutionStats | None) -> dict:
    """Run one staged (``_controller`` arguments, env) pair on ``sub``;
    returns the env, which holds what the unload actions read out."""
    args, env = staged
    run = _controller(*args).run(sub, env)
    if stats is not None:
        stats.merge(run)
    return env


# ---------------------------------------------------------------------------
# AES
# ---------------------------------------------------------------------------

class _AesKey(NamedTuple):
    """One call's key: what selects the program, and the staged rows."""
    variant: int
    direction: str
    env: dict

    def stage(self, blocks: list[bytes], chain: str | None = None,
              chain_blocks: list[bytes] | None = None) -> tuple[tuple, dict]:
        """The ``_controller`` arguments and a fresh env for one run of
        ``blocks``, XORed with ``chain_blocks`` before (``"pre"``) or
        after (``"post"``) the cipher."""
        env = dict(self.env, blocks=blocks)
        if chain:
            env["chain_blocks"] = chain_blocks
        return ("aes", self.variant, self.direction, chain), env


def _key_env(key: bytes, direction: str) -> dict:
    """Staged round-key rows, built per call so no key material outlives
    it, with an empty cache that ``aes_load_keys`` fills with the rows
    replicated per lane count, shared by every run of the call."""
    words = aes.expand_key_words(key)
    if direction == "decrypt":
        words = words[::-1]
    if len(key) == 16:
        return {"key_rows": aes.key_rows(words), "lane_key_rows": {}}
    return {"key_rows": aes.key_rows(words[:8]),
            "key_rows2": aes.key_rows(words[8:]), "lane_key_rows": {}}


def _aes_key(key: bytes, direction: str) -> _AesKey:
    if len(key) not in (16, 32):
        raise ValueError(f"AES key must be 16 or 32 bytes, got {len(key)}")
    return _AesKey(len(key) * 8, direction, _key_env(key, direction))


def _aes_passes(k: _AesKey, blocks: list[bytes], chain: str | None,
                chain_blocks: list[bytes] | None,
                stats: ExecutionStats | None) -> list[bytes]:
    """Run ``blocks`` through AES, up to LOCKSTEP_LANES passes per run."""
    per_run = AES_BLOCKS_PER_PASS * LOCKSTEP_LANES
    out: list[bytes] = []
    for off in range(0, len(blocks), per_run):
        run = blocks[off:off + per_run]
        lanes = -(-len(run) // AES_BLOCKS_PER_PASS)
        staged = k.stage(run, chain,
                         chain_blocks[off:off + per_run] if chain else None)
        sub = Subarray(block_width=aes.BLOCK_WIDTH, lanes=lanes)
        out += _run(staged, sub, stats)["out_blocks"]
    return out


def _split_blocks(data: bytes) -> list[bytes]:
    if len(data) % 16:
        raise ValueError("data length must be a multiple of 16 bytes")
    return [data[i:i + 16] for i in range(0, len(data), 16)]


def ecb_crypt(key: bytes, data: bytes, direction: str = "encrypt",
              stats: ExecutionStats | None = None) -> bytes:
    return b"".join(_aes_passes(_aes_key(key, direction),
                                _split_blocks(data), None, None, stats))


def _cbc_mac(k: _AesKey, iv: bytes, blocks: list[bytes],
             stats: ExecutionStats | None) -> list[bytes]:
    """The CBC chain of ``blocks``: one single-block pass per block."""
    out, prev = [], iv
    for block in blocks:
        prev = _aes_passes(k, [block], "pre", [prev], stats)[0]
        out.append(prev)
    return out


def _check_block(name: str, value: bytes) -> None:
    if len(value) != 16:
        raise ValueError(f"{name} must be 16 bytes, got {len(value)}")


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    _check_block("CBC IV", iv)
    return b"".join(_cbc_mac(_aes_key(key, "encrypt"), iv,
                             _split_blocks(plaintext), stats))


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    _check_block("CBC IV", iv)
    ct = _split_blocks(ciphertext)
    return b"".join(_aes_passes(_aes_key(key, "decrypt"), ct, "post",
                                [iv] + ct[:-1], stats))


def _counter_blocks(counter0: bytes, n: int, width: int = 128) -> list[bytes]:
    """``counter0`` and the ``n - 1`` blocks after it, counting in the low
    ``width`` bits only: GCM's inc32 (SP 800-38D) wraps the low 32 bits;
    CTR counts over the whole block, as ``cryptography`` does."""
    c = int.from_bytes(counter0, "big")
    low = (1 << width) - 1
    return [(c & ~low | (c + i) & low).to_bytes(16, "big")
            for i in range(n)]


def _ctr(k: _AesKey, counter0: bytes, data: bytes,
         stats: ExecutionStats | None, width: int = 128) -> bytes:
    n = -(-len(data) // 16)
    padded = data + bytes(16 * n - len(data))
    out = _aes_passes(k, _counter_blocks(counter0, n, width), "post",
                      _split_blocks(padded), stats)
    return b"".join(out)[:len(data)]


def ctr_crypt(key: bytes, counter0: bytes, data: bytes,
              stats: ExecutionStats | None = None) -> bytes:
    _check_block("CTR counter block", counter0)
    return _ctr(_aes_key(key, "encrypt"), counter0, data, stats)


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


def _ccm_mac(k: _AesKey, nonce: bytes, aad: bytes, msg: bytes,
             tag_len: int, stats: ExecutionStats | None) -> bytes:
    blocks = _ccm_format(nonce, aad, msg, tag_len)
    return _cbc_mac(k, bytes(16), blocks, stats)[-1][:tag_len]


def _ccm_ctr0(nonce: bytes) -> bytes:
    q = 15 - len(nonce)
    return bytes([q - 1]) + nonce + bytes(q)


def _ccm_check(nonce: bytes, tag_len: int, msg_len: int) -> None:
    if not 7 <= len(nonce) <= 13:
        raise ValueError("CCM nonce must be 7..13 bytes")
    q = 15 - len(nonce)
    if msg_len >= 1 << 8 * q:
        raise ValueError(f"CCM message must be shorter than 2^{8 * q} "
                         f"bytes with a {len(nonce)}-byte nonce")
    if tag_len not in (4, 6, 8, 10, 12, 14, 16):
        raise ValueError(f"CCM tag length must be 4, 6, ..., 16 bytes, "
                         f"got {tag_len!r}")


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    _ccm_check(nonce, tag_len, len(plaintext))
    k = _aes_key(key, "encrypt")
    mac = _ccm_mac(k, nonce, aad, plaintext, tag_len, stats)
    keystream = _ctr(k, _ccm_ctr0(nonce), bytes(16 + len(plaintext)), stats)
    ct = _xor(plaintext, keystream[16:])
    return ct + _xor(mac, keystream[:tag_len])


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    _ccm_check(nonce, tag_len, len(ciphertext) - tag_len)
    k = _aes_key(key, "encrypt")
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    keystream = _ctr(k, _ccm_ctr0(nonce), bytes(16 + len(ct)), stats)
    pt = _xor(ct, keystream[16:])
    mac = _ccm_mac(k, nonce, aad, pt, tag_len, stats)
    if not _hmac_mod.compare_digest(_xor(mac, keystream[:tag_len]), tag):
        raise TagMismatch("CCM tag mismatch")
    return pt


# ---------------------------------------------------------------------------
# GHASH and GCM
# ---------------------------------------------------------------------------

def _ghash_stage(hash_key: bytes, blocks: list[bytes], first: bool,
                 final: bool) -> tuple[tuple, dict]:
    """The ``_controller`` arguments and a fresh env for one GHASH pass of
    up to 8 blocks: ``first`` clears the running product, ``final``
    reduces it and reads out the digest."""
    return (("ghash", len(blocks), final),
            {"hash_key": hash_key, "ghash_first": first, "xblocks": blocks})


def ghash_digest(hash_key: bytes, data: bytes,
                 stats: ExecutionStats | None = None) -> bytes:
    blocks = _split_blocks(data)
    if not blocks:
        return bytes(16)
    sub = Subarray(block_width=ghash.BLOCK_WIDTH)
    for off in range(0, len(blocks), 8):
        env = _run(_ghash_stage(hash_key, blocks[off:off + 8], off == 0,
                                off + 8 >= len(blocks)), sub, stats)
    return ghash.row_to_block(env["digest_row"])


def _gcm_lengths(aad: bytes, ct: bytes) -> bytes:
    return (8 * len(aad)).to_bytes(8, "big") + (8 * len(ct)).to_bytes(8, "big")


def _pad16(data: bytes) -> bytes:
    return data + bytes(-len(data) % 16)


def _gcm_setup(key: bytes, iv: bytes, tag_len: int,
               stats: ExecutionStats | None) -> tuple[_AesKey, bytes, bytes]:
    """The call's key, the hash key H and the pre-counter block J0."""
    if tag_len not in (4, 8, 12, 13, 14, 15, 16):
        raise ValueError(f"GCM tag length must be 4, 8 or 12..16 bytes, "
                         f"got {tag_len!r}")
    if not iv:
        raise ValueError("GCM IV must not be empty")
    k = _aes_key(key, "encrypt")
    h = _aes_passes(k, [bytes(16)], None, None, stats)[0]
    if len(iv) == 12:
        return k, h, iv + b"\x00\x00\x00\x01"
    material = _pad16(iv) + bytes(8) + (8 * len(iv)).to_bytes(8, "big")
    return k, h, ghash_digest(h, material, stats)


def _gcm_ctr(k: _AesKey, j0: bytes, data: bytes,
             stats: ExecutionStats | None) -> bytes:
    """GCTR from inc32(J0): the GCM payload keystream."""
    return _ctr(k, _counter_blocks(j0, 2, 32)[1], data, stats, 32)


def gcm_encrypt(key: bytes, iv: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    k, h, j0 = _gcm_setup(key, iv, tag_len, stats)
    ct = _gcm_ctr(k, j0, plaintext, stats)
    s = ghash_digest(h, _pad16(aad) + _pad16(ct) + _gcm_lengths(aad, ct),
                     stats)
    return ct + _ctr(k, j0, s, stats)[:tag_len]


def gcm_decrypt(key: bytes, iv: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    k, h, j0 = _gcm_setup(key, iv, tag_len, stats)
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    s = ghash_digest(h, _pad16(aad) + _pad16(ct) + _gcm_lengths(aad, ct),
                     stats)
    expect = _ctr(k, j0, s, stats)[:tag_len]
    if not _hmac_mod.compare_digest(expect, tag):
        raise TagMismatch("GCM tag mismatch")
    return _gcm_ctr(k, j0, ct, stats)


# ---------------------------------------------------------------------------
# SHA3 / HMAC
# ---------------------------------------------------------------------------

def _rate(bits: int) -> int:
    if bits not in keccak.RATE_BYTES:
        raise ValueError(f"SHA3 output size must be one of "
                         f"{sorted(keccak.RATE_BYTES)} bits, got {bits!r}")
    return keccak.RATE_BYTES[bits]


def _sponge(bits: int, msgs: list[bytes],
            pad_byte: int | None = None) -> tuple[tuple, dict]:
    """The ``_controller`` arguments and a fresh env that absorb 1..4
    messages, one per sponge lane; unused lanes repeat the first.

    The messages must pad to equal block counts.  ``pad_byte`` selects
    the keyed program, which XORs that byte into every byte of the
    first block (HMAC's ipad or opad).
    """
    rate = _rate(bits)
    padded = [keccak.pad_sha3(m, rate) for m in msgs]
    if len(set(map(len, padded))) != 1:
        raise ValueError("batched messages must pad to equal block counts")
    padded += [padded[0]] * (SHA3_LANES - len(padded))
    blocks = [[hostio.lane_value([int.from_bytes(p[off:off + 8], "little")
                                  for p in padded])
               for off in range(b, b + rate, 8)]
              for b in range(0, len(padded[0]), rate)]
    env = {"blocks": blocks}
    if pad_byte is not None:
        env["pad_lane"] = int.from_bytes(bytes([pad_byte] * 8), "little")
    return ("sha3", bits, len(blocks), pad_byte is not None), env


def _absorb(bits: int, msgs: list[bytes], stats: ExecutionStats | None,
            pad_byte: int | None = None) -> list[bytes]:
    """The digests of ``msgs``, absorbed by one ``_sponge`` run."""
    env = _run(_sponge(bits, msgs, pad_byte),
               Subarray(block_width=keccak.BLOCK_WIDTH), stats)
    return [_lane_digest(env["state_rows"], i, bits // 8)
            for i in range(len(msgs))]


def _lane_digest(state_rows: list[int], lane: int, nbytes: int) -> bytes:
    lanes = [hostio.lanes_from_value(r)[lane] for r in state_rows[:25]]
    return b"".join(v.to_bytes(8, "little") for v in lanes)[:nbytes]


def sha3_digest_batch(bits: int, msgs: list[bytes],
                      stats: ExecutionStats | None = None) -> list[bytes]:
    """Hash up to four equal-block-count messages in one fabric run."""
    if not 1 <= len(msgs) <= SHA3_LANES:
        raise ValueError("1..4 messages per batch")
    return _absorb(bits, msgs, stats)


def sha3_digest(bits: int, msg: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    return sha3_digest_batch(bits, [msg], stats)[0]


def hmac_sha3(bits: int, key: bytes, msg: bytes,
              stats: ExecutionStats | None = None) -> bytes:
    rate = _rate(bits)
    if len(key) > rate:
        key = sha3_digest(bits, key, stats)
    key_block = key + bytes(rate - len(key))
    inner = _absorb(bits, [key_block + msg], stats, 0x36)[0]
    return _absorb(bits, [key_block + inner], stats, 0x5C)[0]
