"""Expected outputs, derived from an operation's inputs alone.

``reference`` uses only ``cryptography``, ``hashlib`` and ``hmac``, so it
shares no code with the simulator.  ``oracle`` calls the matching
``pimcrypt.oracle`` function; the traced run compares it too, to show
that the in-repo oracle agrees and what it costs.  A decrypt whose tag
does not verify is expected to be rejected: both return ``REJECT``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers import modes as cmodes
from cryptography.hazmat.primitives.ciphers.aead import AESCCM

from workloads import Op

REJECT = "reject"

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_counts.json"


def _cipher(key: bytes, mode, decrypt: bool):
    c = Cipher(algorithms.AES(key), mode)
    return c.decryptor() if decrypt else c.encryptor()


def _gcm(key: bytes, iv: bytes, aad: bytes, data: bytes, decrypt: bool):
    if decrypt:
        ctx = _cipher(key, cmodes.GCM(iv, data[-16:]), True)
        ctx.authenticate_additional_data(aad)
        try:
            return ctx.update(data[:-16]) + ctx.finalize()
        except InvalidTag:
            return REJECT
    ctx = _cipher(key, cmodes.GCM(iv), False)
    ctx.authenticate_additional_data(aad)
    return ctx.update(data) + ctx.finalize() + ctx.tag


def reference(op: Op):
    a = op.args
    k = op.kind
    if k in ("ecb_encrypt", "ecb_decrypt"):
        ctx = _cipher(a["key"], cmodes.ECB(), k == "ecb_decrypt")
        return ctx.update(a["data"]) + ctx.finalize()
    if k == "ctr_crypt":
        ctx = _cipher(a["key"], cmodes.CTR(a["counter0"]), False)
        return ctx.update(a["data"]) + ctx.finalize()
    if k in ("cbc_encrypt", "cbc_decrypt"):
        ctx = _cipher(a["key"], cmodes.CBC(a["iv"]), k == "cbc_decrypt")
        return ctx.update(a["data"]) + ctx.finalize()
    if k == "gcm_encrypt":
        return _gcm(a["key"], a["iv"], a["aad"], a["plaintext"], False)
    if k == "gcm_decrypt":
        return _gcm(a["key"], a["iv"], a["aad"], a["ciphertext"], True)
    if k == "ccm_encrypt":
        return AESCCM(a["key"], 16).encrypt(a["iv"], a["plaintext"], a["aad"])
    if k == "ccm_decrypt":
        try:
            return AESCCM(a["key"], 16).decrypt(a["iv"], a["ciphertext"],
                                                a["aad"])
        except InvalidTag:
            return REJECT
    if k == "sha3":
        return hashlib.new(f"sha3_{a['bits']}", a["msg"]).digest()
    if k == "sha3_batch":
        return [hashlib.new(f"sha3_{a['bits']}", m).digest() for m in a["msgs"]]
    if k == "hmac":
        return hmac.new(a["key"], a["msg"], f"sha3_{a['bits']}").digest()
    if k == "paper_model":
        return golden_paper_result()
    raise ValueError(f"unknown operation kind {k!r}")


def golden_paper_result() -> dict:
    """The pinned per-kernel cycles, and no paper-comparison violations."""
    cycles = json.loads(GOLDEN.read_text())["cycles"]
    return {"cycles": cycles, "violations": 0}


def oracle(op: Op, oracle_mod):
    """The same operation through ``pimcrypt.oracle``."""
    o, a, k = oracle_mod, op.args, op.kind
    if k in ("ecb_encrypt", "ecb_decrypt"):
        fn = o.aes_decrypt_block if k == "ecb_decrypt" else o.aes_encrypt_block
        data = a["data"]
        return b"".join(fn(a["key"], data[i:i + 16])
                        for i in range(0, len(data), 16))
    if k == "ctr_crypt":
        return o.ctr_crypt(a["key"], a["counter0"], a["data"])
    if k == "cbc_encrypt":
        return o.cbc_encrypt(a["key"], a["iv"], a["data"])
    if k == "cbc_decrypt":
        return o.cbc_decrypt(a["key"], a["iv"], a["data"])
    if k in ("gcm_encrypt", "ccm_encrypt"):
        fn = o.gcm_encrypt if k == "gcm_encrypt" else o.ccm_encrypt
        return fn(a["key"], a["iv"], a["aad"], a["plaintext"])
    if k in ("gcm_decrypt", "ccm_decrypt"):
        fn = o.gcm_decrypt if k == "gcm_decrypt" else o.ccm_decrypt
        try:
            return fn(a["key"], a["iv"], a["aad"], a["ciphertext"])
        except o.TagMismatch:
            return REJECT
    if k == "sha3":
        return o.sha3(a["bits"], a["msg"])
    if k == "sha3_batch":
        return [o.sha3(a["bits"], m) for m in a["msgs"]]
    if k == "hmac":
        return o.hmac_sha3(a["bits"], a["key"], a["msg"])
    raise ValueError(f"no oracle counterpart for {k!r}")
