"""Seeded workload generator: operations that hold only inputs.

A workload is an endless sequence of *rounds*.  Every round of a workload
has the same multiset of operation shapes (kind, key size, lengths, which
decrypt is tampered), so a run that completes whole rounds does the same
amount of fabric work whatever the seed, and the modeled cycles per KiB
do not depend on how many rounds fitted in the run.  The seed and the
round number choose the keys, IVs, nonces, messages, which bit a
tampered input has flipped, and the order of the operations in a round.

Decrypt inputs are produced by encrypting seeded plaintexts with the
``cryptography`` package; the expected outputs are not stored in the
operation, ``check.py`` derives them again from the inputs alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers import modes as cmodes
from cryptography.hazmat.primitives.ciphers.aead import AESCCM

WORKLOADS = ("aead-bulk", "chain-small", "hash-mix", "paper-model")

SHA3_RATE = {224: 144, 256: 136, 384: 104, 512: 72}
KIB = 1024


@dataclass(frozen=True)
class Op:
    """One call into the library: ``kind`` names it, ``args`` are its inputs.

    ``payload`` is the number of message bytes the call processes
    (plaintext or ciphertext body plus AAD, or the hashed message).
    """
    kind: str
    args: dict = field(hash=False)
    payload: int


# ---------------------------------------------------------------------------
# Round shapes.  One tuple per operation; lengths in bytes.
# ---------------------------------------------------------------------------

# aead-bulk: (kind, key bits, message bytes, aad bytes, tampered).
# GCM carries 11 of the 17 calls; 1 of the 8 GCM decrypts is tampered.
_AEAD_BULK = [
    ("gcm_encrypt", 128, 1 * KIB + 3, 0, False),
    ("gcm_encrypt", 256, 2 * KIB, 16, False),
    ("gcm_encrypt", 128, 4500, 64, False),
    ("gcm_decrypt", 128, 1 * KIB, 0, False),
    ("gcm_decrypt", 256, 1100, 8, False),
    ("gcm_decrypt", 128, 1300, 20, False),
    ("gcm_decrypt", 256, 1600, 0, True),
    ("gcm_decrypt", 128, 2 * KIB, 64, False),
    ("gcm_decrypt", 256, 2600, 12, False),
    ("gcm_decrypt", 128, 3500, 0, False),
    ("gcm_decrypt", 256, 8 * KIB, 40, False),
    ("ctr_crypt", 128, 1300, 0, False),
    ("ctr_crypt", 256, 4000, 0, False),
    ("ecb_encrypt", 128, 2 * KIB, 0, False),
    ("ecb_decrypt", 256, 3 * KIB, 0, False),
    ("cbc_decrypt", 128, 1536, 0, False),
    ("cbc_decrypt", 256, 6 * KIB, 0, False),
]

# chain-small: (kind, key bits, message bytes, aad bytes, nonce/IV bytes,
# tampered).  Decrypts are 6 CCM + 2 GCM, one CCM decrypt tampered.
#
# Each workload has an odd number of shapes, so the median latency of a
# run falls inside one shape's samples rather than between two shapes.
_CHAIN_SMALL = [
    ("cbc_encrypt", 256, 96, 0, 16, False),
    ("cbc_encrypt", 128, 256, 0, 16, False),
    ("cbc_encrypt", 256, 512, 0, 16, False),
    ("ccm_encrypt", 128, 0, 0, 13, False),
    ("ccm_encrypt", 256, 64, 16, 7, False),
    ("ccm_encrypt", 128, 320, 0, 12, False),
    ("ccm_encrypt", 256, 480, 32, 11, False),
    ("ccm_decrypt", 128, 0, 8, 12, False),
    ("ccm_decrypt", 256, 16, 0, 13, False),
    ("ccm_decrypt", 128, 70, 0, 8, True),
    ("ccm_decrypt", 256, 128, 24, 12, False),
    ("ccm_decrypt", 128, 480, 0, 10, False),
    ("ccm_decrypt", 256, 512, 0, 12, False),
    ("gcm_encrypt", 128, 100, 0, 8, False),
    ("gcm_encrypt", 256, 400, 20, 16, False),
    ("gcm_decrypt", 128, 256, 16, 16, False),
    ("gcm_decrypt", 256, 33, 0, 8, False),
]

# hash-mix: ("sha3", bits, message bytes) | ("sha3_batch", bits, blocks)
# | ("hmac", bits, key bytes, message bytes).  A batch holds four
# messages of different lengths that pad to the same number of blocks.
_HASH_MIX = [
    ("sha3", 224, 4 * KIB),
    ("sha3", 256, 0),
    ("sha3", 256, 2000),
    ("sha3", 384, 103),
    ("sha3", 384, 1500),
    ("sha3", 512, 71),
    ("sha3", 512, 700),
    ("sha3_batch", 224, 1),
    ("sha3_batch", 256, 4),
    ("sha3_batch", 512, 2),
    ("hmac", 224, 200, 0),
    ("hmac", 256, 16, 1000),
    ("hmac", 384, 32, 2000),
    ("hmac", 384, 104, 64),
    ("hmac", 512, 100, 200),
]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _flip_bit(data: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(8 * len(data))
    out = bytearray(data)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def _tamper(args: dict, rng: random.Random) -> None:
    """Flip one bit of the ciphertext, tag or AAD of a decrypt input."""
    fields = ["ciphertext"] + (["aad"] if args["aad"] else [])
    name = rng.choice(fields)
    args[name] = _flip_bit(args[name], rng)


def _gcm_seal(key: bytes, iv: bytes, aad: bytes, pt: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), cmodes.GCM(iv)).encryptor()
    enc.authenticate_additional_data(aad)
    return enc.update(pt) + enc.finalize() + enc.tag


def _aes_op(kind: str, bits: int, n: int, aad_len: int, iv_len: int,
            tampered: bool, rng: random.Random) -> Op:
    key = rng.randbytes(bits // 8)
    msg = rng.randbytes(n)
    aad = rng.randbytes(aad_len)
    if kind in ("ecb_encrypt", "ecb_decrypt"):
        return Op(kind, {"key": key, "data": msg}, n)
    if kind == "ctr_crypt":
        return Op(kind, {"key": key, "counter0": rng.randbytes(16),
                         "data": msg}, n)
    if kind in ("cbc_encrypt", "cbc_decrypt"):
        return Op(kind, {"key": key, "iv": rng.randbytes(16), "data": msg}, n)
    nonce = rng.randbytes(iv_len)
    args = {"key": key, "iv": nonce, "aad": aad}
    if kind in ("gcm_encrypt", "ccm_encrypt"):
        args["plaintext"] = msg
    elif kind == "gcm_decrypt":
        args["ciphertext"] = _gcm_seal(key, nonce, aad, msg)
    else:  # ccm_decrypt
        args["ciphertext"] = AESCCM(key, tag_length=16).encrypt(
            nonce, msg, aad)
    if tampered:
        _tamper(args, rng)
    return Op(kind, args, n + aad_len)


def _batch_lengths(rate: int, blocks: int) -> list[int]:
    # Spread over [(blocks-1)*rate, blocks*rate - 1]: SHA3 padding adds at
    # least one byte, so all four pad to ``blocks`` blocks.
    return [(blocks - 1) * rate + j * (rate - 1) // 3 for j in range(4)]


def _hash_op(shape: tuple, rng: random.Random) -> Op:
    kind, bits = shape[0], shape[1]
    if kind == "sha3":
        msg = rng.randbytes(shape[2])
        return Op(kind, {"bits": bits, "msg": msg}, len(msg))
    if kind == "sha3_batch":
        msgs = [rng.randbytes(n)
                for n in _batch_lengths(SHA3_RATE[bits], shape[2])]
        return Op(kind, {"bits": bits, "msgs": msgs}, sum(map(len, msgs)))
    key, msg = rng.randbytes(shape[2]), rng.randbytes(shape[3])
    return Op(kind, {"bits": bits, "key": key, "msg": msg}, len(msg))


def make_round(workload: str, seed: int, index: int,
               tiny: bool = False) -> list[Op]:
    """Round ``index`` of ``workload`` under ``seed``.

    ``tiny`` keeps every shape's kind and parameters but caps message
    lengths, for the benchmark's self-test.
    """
    rng = _rng(workload, seed, index)
    if workload == "paper-model":
        return [Op("paper_model", {}, 0)]
    if workload == "aead-bulk":
        shapes = [(k, b, n, a, 12, t) for k, b, n, a, t in _AEAD_BULK]
    elif workload == "chain-small":
        shapes = list(_CHAIN_SMALL)
    elif workload == "hash-mix":
        shapes = list(_HASH_MIX)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        shapes = [_shrink(s) for s in shapes]
    if workload == "hash-mix":
        ops = [_hash_op(s, rng) for s in shapes]
    else:
        ops = [_aes_op(*s, rng) for s in shapes]
    rng.shuffle(ops)
    return ops


def _shrink(shape: tuple) -> tuple:
    if shape[0] == "sha3_batch":
        return shape[:2] + (1,)
    if shape[0] in ("sha3", "hmac"):
        return shape[:-1] + (min(shape[-1], 40),)
    kind, bits, n = shape[:3]
    return (kind, bits, min(n, 32)) + shape[3:]


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """One small operation of every kind the workload calls.

    These run before the timed region so that anything the library
    builds lazily on first use is built, and they are checked like the
    timed operations.
    """
    if workload == "paper-model":
        return make_round(workload, seed, -1)
    seen, out = set(), []
    for op in make_round(workload, seed, -1, tiny=True):
        sig = (op.kind, op.args.get("bits"), len(op.args.get("key", b"")),
               len(op.args.get("iv", b"")) == 12)
        if sig not in seen:
            seen.add(sig)
            out.append(op)
    return out
