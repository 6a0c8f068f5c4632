"""Cipher modes and hashes orchestrated over the fabric kernels.

This is the host-software layer: it formats counters, padding and tag
material and chops work into subarray passes.  Every block-cipher
invocation, Keccak permutation and GF(2^128) multiply runs on the
simulated fabric; only byte shuffling happens here.

No row layout, program or env key is known here: each kernel module
stages its own runs (``aes.Key.stage``, ``ghash.stage``,
``ghash.stage_fold`` and ``keccak.stage``; see their docstrings), so
this module hands bytes to ``aes``, ``ghash`` and ``keccak`` and gets
the run's output blocks or digests back.

One pass loop, :func:`_aes`, runs every AES call.  A serial chain (CBC
encryption, the CCM CBC-MAC) runs first, one pass per step on one lane:
the fabric cannot parallelize a dependency chain, so the step uses tile
0, and the call's first independent blocks (a CCM call's counter blocks)
fill tiles 1..15.  The independent blocks left (all of them in ECB, CBC
decryption, CTR and GCM's CTR) then fill passes of
``aes.BLOCKS_PER_PASS`` blocks, and up to
:data:`~pimcrypt.fabric.SUBARRAYS` passes run in lockstep as the lanes
of one wide subarray: one controller run drives them all, as the modeled
controller drives every compute subarray with one command stream.
Modeled commands and cycles still count every pass.

One function, :func:`_absorb`, runs every SHA3 sponge.  The sponge is a
serial chain too, one block at a time on one lane: ``keccak.stage``
returns one run per block, and every run goes on the same subarray,
whose state rows carry the sponge from one block to the next.

GHASH splits one message across K lanes in lockstep (aggregated Horner,
:func:`_ghash`): K is a power of two up to 8 that grows with the block
count, lane j hashes every K-th block with H^K and finishes with
H^(K-j) (one ``ghash.stage`` call, which cuts the lanes into passes),
the powers of H are fabric multiplies computed inside the call,
and a one-lane fold program XORs the lane digests.  A GCM call runs one
AES run for E(0), E(J0) and its counter blocks where the IV allows; the
fold XORs E(J0) into the tag.  GCM decryption computes E(0) and E(J0),
checks the tag, and only then runs the counter blocks, so a tampered
input is never decrypted.  A CCM call runs S0 and its payload's counter
blocks in tiles 1-15 of its first CBC-MAC passes, 15 per pass, so it
runs one AES pass per formatted block and no separate CTR run: the
encrypt tag, MAC xor S0, is a fold on the fabric, and decryption
compares the MAC with S0 xor tag, which the tile of S0 computes.

Each call expands its own AES key (``aes.Key``) and builds its own
subarrays, one per lane count, which alone keep the GHASH multiply's
byte tables of the powers of H (``fabric.Subarray.tables``), so no key
material outlives the call; a GCM call's J0 GHASH, powers of H, message
passes and fold share its GHASH subarrays.  Every AES mode rejects a key
that is not 16 or 32 bytes, ECB a direction other than ``"encrypt"`` or
``"decrypt"`` (both checked where the key is staged, whatever the data),
and CBC and CTR an IV or counter block that is not one block, raising
``ValueError``.

Every public function takes its keys, IVs, nonces, AAD and messages as
any bytes-like object, read as its bytes by ``layout.as_bytes`` where
it is handed over (the AES key in ``aes.Key``, SHA3 messages in
``keccak.stage``), and returns ``bytes``.  Any other type, ``str`` and
``int`` included, raises a ``TypeError`` that names the argument: an
``int`` is not read as a length, as ``bytes(5)`` would read it.

Every run counts into the caller's
:class:`~pimcrypt.controller.ExecutionStats` once, as it runs, through
:meth:`~pimcrypt.controller.Controller.count` from the run's program,
and nothing is counted when the caller passed none.  :func:`_run` runs
and counts every kernel's staged runs, the passes of :func:`_aes`
among them.
"""

from __future__ import annotations

import hmac as _hmac_mod
import struct
from functools import cache
from itertools import chain, repeat
from typing import Callable

from ..controller import OUTPUT, Controller, ExecutionStats
from ..fabric import SUBARRAYS, Subarray
from . import aes, ghash, keccak
from .layout import as_bytes

__all__ = ["TagMismatch", "ecb_crypt", "cbc_encrypt", "cbc_decrypt",
           "ctr_crypt", "ccm_encrypt", "ccm_decrypt", "gcm_encrypt",
           "gcm_decrypt", "ghash_digest", "sha3_digest", "hmac_sha3"]


class TagMismatch(Exception):
    pass


def _run(sub: Subarray, runs: list[tuple[Controller, dict]],
         stats: ExecutionStats | None) -> list[bytes]:
    """Run staged (program, env) ``runs`` in order on ``sub``, which
    keeps its rows from one run to the next, and count each into
    ``stats``, if given; returns the last run's output blocks or
    digests."""
    for ctrl, env in runs:
        ctrl.run(sub, env)
        if stats is not None:
            ctrl.count(stats, sub.lanes, sub.cost_model)
    return env[OUTPUT]


_Subarrays = Callable[[int], Subarray]


def _subarrays(block_width: int) -> _Subarrays:
    """``subs(lanes)``: a call's subarray of ``lanes`` lanes, built on first
    use, with the rows and GHASH byte tables the last run there left."""
    return cache(lambda lanes: Subarray(block_width=block_width, lanes=lanes))


# ---------------------------------------------------------------------------
# AES
# ---------------------------------------------------------------------------

def _aes(k: aes.Key, blocks: list[bytes], post: list[bytes],
         stats: ExecutionStats | None, steps: int = 0,
         step: Callable[[int, list[bytes]], bytes] | None = None,
         prev: bytes = bytes(16)) -> list[bytes]:
    """The AES pass loop: returns the outputs of a chain of ``steps``
    steps from chain value ``prev``, then E(``blocks[j]``) xor
    ``post[j]`` for every block, ``post`` being aligned with the last
    blocks (the ones before it XOR zero; an empty ``post`` XORs none).

    While chain steps remain, each pass is one lane: tile 0 runs chain
    step i, ``step(i, out)`` xor the previous chain output, ``out`` being
    the block outputs of the passes before it, and tiles 1..15 the next
    up to 15 blocks, which XOR zero before the rounds.  Then each run
    takes up to ``BLOCKS_PER_PASS * SUBARRAYS`` blocks on as many lanes
    as they fill.  Runs share one subarray per lane count, and
    :func:`_run` runs and counts each.
    """
    zero, room = bytes(16), aes.BLOCKS_PER_PASS * SUBARRAYS
    if post:
        post = [zero] * (len(blocks) - len(post)) + post
    chained, out = [prev], []        # chained[i]: the value step i XORs
    subs = _subarrays(aes.BLOCK_WIDTH)
    while len(chained) <= steps or len(out) < len(blocks):
        i, lo = len(chained) - 1, len(out)
        head = [step(i, out)] if i < steps else []
        tiles = blocks[lo:lo + (aes.BLOCKS_PER_PASS - 1 if head else room)]
        after = post[lo:lo + len(tiles)]
        staged = k.stage(head + tiles,
                         head and [chained[-1]] + [zero] * len(tiles),
                         after and [zero] * len(head) + after)
        sub = subs(-(-(len(head) + len(tiles)) // aes.BLOCKS_PER_PASS))
        got = _run(sub, [staged], stats)
        chained += got[:len(head)]
        out += got[len(head):]
    return chained[1:] + out


def _split_blocks(data: bytes) -> list[bytes]:
    if len(data) % 16:
        raise ValueError("data length must be a multiple of 16 bytes")
    return [*struct.unpack("16s" * (len(data) // 16), data)]


def _pad16(data: bytes) -> bytes:
    return data + bytes(-len(data) % 16)


def ecb_crypt(key: bytes, data: bytes, direction: str = "encrypt",
              stats: ExecutionStats | None = None) -> bytes:
    data, = as_bytes("ECB input", [data], None)
    return b"".join(_aes(aes.Key(key, direction), _split_blocks(data), [],
                         stats))


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    iv, = as_bytes("CBC IV", [iv])
    plaintext, = as_bytes("CBC input", [plaintext], None)
    blocks = _split_blocks(plaintext)
    return b"".join(_aes(aes.Key(key, "encrypt"), [], [], stats, len(blocks),
                         lambda i, _: blocks[i], iv))


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    iv, = as_bytes("CBC IV", [iv])
    ciphertext, = as_bytes("CBC input", [ciphertext], None)
    ct = _split_blocks(ciphertext)
    return b"".join(_aes(aes.Key(key, "decrypt"), ct, [iv] + ct[:-1], stats))


def _counter_blocks(counter0: bytes, n: int, width: int = 128) -> list[bytes]:
    """``counter0`` and the ``n - 1`` blocks after it, counting in the low
    ``width`` bits only: GCM's inc32 (SP 800-38D) wraps the low 32 bits;
    CTR counts over the whole block, as ``cryptography`` does.  Two
    ranges, split where the low bits wrap, hold ``n`` <= 2**``width``."""
    c, period = int.from_bytes(counter0, "big"), 1 << width
    base, wrapped = c - c % period, max(0, c % period + n - period)
    counters = chain(range(c, c + n - wrapped), range(base, base + wrapped))
    return [*map(int.to_bytes, counters, repeat(16), repeat("big"))]


def _ctr(k: aes.Key, counter0: bytes, data: bytes,
         stats: ExecutionStats | None, width: int = 128) -> bytes:
    n = -(-len(data) // 16)
    padded = data + bytes(16 * n - len(data))
    out = _aes(k, _counter_blocks(counter0, n, width), _split_blocks(padded),
               stats)
    return b"".join(out)[:len(data)]


def ctr_crypt(key: bytes, counter0: bytes, data: bytes,
              stats: ExecutionStats | None = None) -> bytes:
    counter0, = as_bytes("CTR counter block", [counter0])
    data, = as_bytes("CTR input", [data], None)
    return _ctr(aes.Key(key, "encrypt"), counter0, data, stats)


# ---------------------------------------------------------------------------
# CCM
# ---------------------------------------------------------------------------

def _ccm_head(nonce: bytes, aad: bytes, msg_len: int,
              tag_len: int) -> list[bytes]:
    """The formatted blocks before the payload's: B0 and the AAD's."""
    q = 15 - len(nonce)
    flags = (64 if aad else 0) | (((tag_len - 2) // 2) << 3) | (q - 1)
    buf = bytearray([flags]) + nonce + msg_len.to_bytes(q, "big")
    if aad:
        if len(aad) < 0xFF00:
            buf += len(aad).to_bytes(2, "big")
        else:
            buf += b"\xff\xfe" + len(aad).to_bytes(4, "big")
        buf += aad
        buf += bytes(-len(buf) % 16)
    return _split_blocks(bytes(buf))


def _ccm(k: aes.Key, nonce: bytes, aad: bytes, tag_len: int, msg_len: int,
         post: list[bytes], decrypt: bool,
         stats: ExecutionStats | None) -> tuple[bytes, list[bytes]]:
    """One CCM call's CBC-MAC and counter blocks, as one :func:`_aes`:
    returns the MAC and E(Ctr_j) xor ``post[j]`` for every counter block
    Ctr_j, j = 0 .. len(post) - 1, which ride in the chain's passes.

    The MAC's payload block j (1-based, cut to ``msg_len`` and
    zero-padded) is ``post[j]`` when encrypting and counter output j when
    ``decrypt``: pass h + j - 1 reads it, h being the number of head
    blocks, and the front-loaded counter blocks put it out in pass
    j // 15, at least one pass before.
    """
    head = _ccm_head(nonce, aad, msg_len, tag_len)
    q = 15 - len(nonce)             # Ctr_0: flags q - 1, nonce, zero count
    counters = _counter_blocks(bytes([q - 1]) + nonce + bytes(q), len(post))
    tail = msg_len % 16

    def mac_block(i: int, out: list[bytes]) -> bytes:
        j = i - len(head) + 1
        if j < 1:
            return head[i]
        block = (out if decrypt else post)[j]
        if tail and j == len(post) - 1:
            return block[:tail] + bytes(16 - tail)
        return block

    steps = len(head) + len(post) - 1
    out = _aes(k, counters, post, stats, steps, mac_block)
    return out[steps - 1], out[steps:]


def _ccm_check(nonce: bytes, tag_len: int, length: int,
               sealed: bool = False) -> None:
    """``length`` is the plaintext's, or with ``sealed`` the input's,
    whose last ``tag_len`` bytes are the tag; ``tag_len`` is checked
    before any arithmetic on it."""
    if not 7 <= len(nonce) <= 13:
        raise ValueError("CCM nonce must be 7..13 bytes")
    if type(tag_len) is not int or tag_len not in (4, 6, 8, 10, 12, 14, 16):
        raise ValueError(f"CCM tag length must be 4, 6, ..., 16 bytes, "
                         f"got {tag_len!r}")
    q = 15 - len(nonce)
    if length - sealed * tag_len >= 1 << 8 * q:
        raise ValueError(f"CCM message must be shorter than 2^{8 * q} "
                         f"bytes with a {len(nonce)}-byte nonce")


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    nonce, aad, plaintext = as_bytes("CCM input", [nonce, aad, plaintext],
                                     None)
    _ccm_check(nonce, tag_len, len(plaintext))
    post = [bytes(16)] + _split_blocks(_pad16(plaintext))
    mac, out = _ccm(aes.Key(key, "encrypt"), nonce, aad, tag_len,
                    len(plaintext), post, False, stats)
    # out[0] is S0 = E(Ctr_0), and the tag is MAC xor S0.
    tag = _xor_blocks([mac, out[0]], _subarrays(ghash.BLOCK_WIDTH), stats)
    return b"".join(out[1:])[:len(plaintext)] + tag[:tag_len]


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    nonce, aad, ciphertext = as_bytes("CCM input", [nonce, aad, ciphertext],
                                      None)
    _ccm_check(nonce, tag_len, len(ciphertext), True)
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    post = [_pad16(tag)] + _split_blocks(_pad16(ct))
    mac, out = _ccm(aes.Key(key, "encrypt"), nonce, aad, tag_len, len(ct),
                    post, True, stats)
    # out[0][:len(tag)] is the MAC the tag encrypts; a ciphertext shorter
    # than the tag leaves it short, so it cannot match.
    if not _hmac_mod.compare_digest(mac[:tag_len], out[0][:len(tag)]):
        raise TagMismatch("CCM tag mismatch")
    return b"".join(out[1:])[:len(ct)]


# ---------------------------------------------------------------------------
# GHASH and GCM
# ---------------------------------------------------------------------------

# One GHASH of n blocks runs on K lanes: the largest power of two up to
# _GHASH_MAX_LANES with _GHASH_BLOCKS_PER_LANE * K <= n, and 1 below.
# Each lane past the first adds one modeled power multiply and up to one
# zero block: at most about 5% of the GHASH's cycles from 48 blocks per
# lane on, less than the AES passes a GCM call saves over perfbench's
# aead-bulk mix (at 32 it is more).  Host time per block falls with K
# only as each pass's fixed work spreads over more lanes, since the fused
# GaloisMult window costs one table-driven carry-less multiply per lane
# and block: on a 2-core x86_64 a full 8-block pass, on a subarray that
# already holds the hash key's byte tables, took 12.7, 6.7, 4.8 and 3.8
# us per block at K = 1, 2, 4 and 8, and 3.3 us at K = 16.
_GHASH_MAX_LANES = 8
_GHASH_BLOCKS_PER_LANE = 48


def _ghash_lanes(nblocks: int) -> int:
    """K, the lanes a GHASH of ``nblocks`` blocks is split across."""
    k = 1
    while (2 * k <= _GHASH_MAX_LANES
           and _GHASH_BLOCKS_PER_LANE * 2 * k <= nblocks):
        k *= 2
    return k


def _hash_powers(hash_key: bytes, k: int, subs: _Subarrays,
                 stats: ExecutionStats | None) -> list[bytes]:
    """H^1 .. H^K for a power of two K.  Each doubling is one 1-block
    final pass on as many lanes as powers are known: lane j multiplies
    H^(j+1) by the highest known power."""
    powers = [hash_key]
    while len(powers) < k:
        powers += _run(subs(len(powers)), ghash.stage(
            [powers[-1]] * len(powers), [[p] for p in powers]), stats)
    return powers


def _ghash(hash_key: bytes, blocks: list[bytes], subs: _Subarrays,
           stats: ExecutionStats | None, mask: bytes | None = None) -> bytes:
    """GHASH_H of one or more ``blocks``, XORed with ``mask`` (E(J0) for a
    GCM tag) if given.

    Aggregated Horner (SP 800-38D section 6.4; Gueron and Kounavis,
    "Intel Carry-Less Multiplication Instruction and its Usage for
    Computing the GCM Mode", 2010): zero blocks, which leave GHASH
    unchanged, pad the front to n' = K*m blocks, and lane j runs Horner
    with H^K over padded blocks j, j + K, ..., except that its last step
    multiplies by H^(K-j).  Block p then carries H^(n'-p), as in the
    serial form, and the fold program XORs the lane digests and ``mask``.
    """
    k = _ghash_lanes(len(blocks))
    powers = _hash_powers(hash_key, k, subs, stats)
    m = -(-len(blocks) // k)
    padded = [bytes(16)] * (k * m - len(blocks)) + blocks
    # With K = 1 the last key is H^K itself, so there are no last keys
    # and the passes are those of the serial form.
    digests = _run(subs(k), ghash.stage(
        [powers[-1]] * k, [padded[j::k] for j in range(k)],
        last_keys=powers[::-1] if k > 1 else None), stats)
    if mask is not None:
        digests.append(mask)
    return (digests[0] if len(digests) == 1
            else _xor_blocks(digests, subs, stats))


def _xor_blocks(blocks: list[bytes], subs: _Subarrays,
                stats: ExecutionStats | None) -> bytes:
    """The XOR of 2..32 blocks, run by the one-lane GHASH fold program."""
    return _run(subs(1), [ghash.stage_fold(blocks)], stats)[0]


def ghash_digest(hash_key: bytes, data: bytes,
                 stats: ExecutionStats | None = None) -> bytes:
    hash_key, = as_bytes("GHASH hash key", [hash_key])
    data, = as_bytes("GHASH input", [data], None)
    blocks = _split_blocks(data)
    return (_ghash(hash_key, blocks, _subarrays(ghash.BLOCK_WIDTH), stats)
            if blocks else bytes(16))


def _gcm_start(key: bytes, iv: bytes, tag_len: int, plaintext: bytes,
               subs: _Subarrays, stats: ExecutionStats | None
               ) -> tuple[aes.Key, bytes, bytes, bytes, bytes]:
    """The call's key, the hash key H, the pre-counter block J0, E(J0)
    and the GCTR encryption of ``plaintext``, from inc32(J0).

    With a 12-byte IV, E(0), E(J0) and the payload's counter blocks are
    one AES run.  Any other IV needs H for J0 = GHASH_H(IV ...), so E(0)
    runs first and E(J0) joins the payload's run.
    """
    if type(tag_len) is not int or tag_len not in (4, 8, 12, 13, 14, 15, 16):
        raise ValueError(f"GCM tag length must be 4, 8 or 12..16 bytes, "
                         f"got {tag_len!r}")
    if not iv:
        raise ValueError("GCM IV must not be empty")
    k = aes.Key(key, "encrypt")
    zero = bytes(16)
    if len(iv) == 12:
        head, j0 = [zero], iv + b"\x00\x00\x00\x01"
    else:
        h = _aes(k, [zero], [], stats)[0]
        material = _pad16(iv) + bytes(8) + (8 * len(iv)).to_bytes(8, "big")
        head, j0 = [], _ghash(h, _split_blocks(material), subs, stats)
    payload = _split_blocks(_pad16(plaintext))
    out = _aes(k, head + _counter_blocks(j0, 1 + len(payload), 32), payload,
               stats)
    if head:
        h = out.pop(0)
    return k, h, j0, out[0], b"".join(out[1:])[:len(plaintext)]


def _gcm_tag(h: bytes, ej0: bytes, aad: bytes, ct: bytes, subs: _Subarrays,
             stats: ExecutionStats | None) -> bytes:
    """E(J0) xor GHASH_H(A, C), both on the fabric."""
    data = (_pad16(aad) + _pad16(ct) + (8 * len(aad)).to_bytes(8, "big")
            + (8 * len(ct)).to_bytes(8, "big"))
    return _ghash(h, _split_blocks(data), subs, stats, ej0)


def gcm_encrypt(key: bytes, iv: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    iv, aad, plaintext = as_bytes("GCM input", [iv, aad, plaintext], None)
    subs = _subarrays(ghash.BLOCK_WIDTH)
    _, h, _, ej0, ct = _gcm_start(key, iv, tag_len, plaintext, subs, stats)
    return ct + _gcm_tag(h, ej0, aad, ct, subs, stats)[:tag_len]


def gcm_decrypt(key: bytes, iv: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16,
                stats: ExecutionStats | None = None) -> bytes:
    """Checks the tag before any payload counter block runs, so a
    tampered input is never decrypted."""
    iv, aad, ciphertext = as_bytes("GCM input", [iv, aad, ciphertext], None)
    subs = _subarrays(ghash.BLOCK_WIDTH)
    k, h, j0, ej0, _ = _gcm_start(key, iv, tag_len, b"", subs, stats)
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    expect = _gcm_tag(h, ej0, aad, ct, subs, stats)[:tag_len]
    if not _hmac_mod.compare_digest(expect, tag):
        raise TagMismatch("GCM tag mismatch")
    return _ctr(k, _counter_blocks(j0, 2, 32)[1], ct, stats, 32)


# ---------------------------------------------------------------------------
# SHA3 / HMAC
# ---------------------------------------------------------------------------

def _absorb(bits: int, msgs: list[bytes], stats: ExecutionStats | None,
            pad_byte: int | None = None) -> list[bytes]:
    """The digests of 1..4 ``msgs``, one sponge per 64-bit segment of one
    subarray: :func:`_run` runs every block's ``keccak.stage`` run on it,
    so the state rows and the latch carry over."""
    return _run(Subarray(block_width=keccak.BLOCK_WIDTH),
                keccak.stage(bits, msgs, pad_byte), stats)[:len(msgs)]


def sha3_digest_batch(bits: int, msgs: list[bytes],
                      stats: ExecutionStats | None = None) -> list[bytes]:
    """Hash up to four equal-block-count messages side by side, one
    sponge per 64-bit row segment."""
    return _absorb(bits, msgs, stats)


def sha3_digest(bits: int, msg: bytes,
                stats: ExecutionStats | None = None) -> bytes:
    return sha3_digest_batch(bits, [msg], stats)[0]


def hmac_sha3(bits: int, key: bytes, msg: bytes,
              stats: ExecutionStats | None = None) -> bytes:
    key, msg = as_bytes("HMAC input", [key, msg], None)
    rate = keccak.rate(bits)
    if len(key) > rate:
        key = sha3_digest(bits, key, stats)
    key_block = key + bytes(rate - len(key))
    inner = _absorb(bits, [key_block + msg], stats, 0x36)[0]
    return _absorb(bits, [key_block + inner], stats, 0x5C)[0]
