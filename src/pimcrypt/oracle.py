"""Host-side reference crypto, independent of the fabric kernels.

Everything here is deliberately byte/table oriented (the fabric path is
bit-sliced), so the two implementations share no structure.  These
routines are the ground truth the simulator is checked against.

Covers AES-128/256 block ops and the FIPS-197 key schedule, CBC / CTR /
CCM / GCM modes, GHASH (two formulations), Keccak-f[1600], the four SHA3
digests and HMAC.
"""

from __future__ import annotations

import hmac as _hmac_mod

__all__ = [
    "SBOX", "INV_SBOX", "expand_key",
    "aes_encrypt_block", "aes_decrypt_block",
    "cbc_encrypt", "cbc_decrypt", "ctr_crypt",
    "ccm_encrypt", "ccm_decrypt", "gcm_encrypt", "gcm_decrypt",
    "TagMismatch",
    "ghash", "ghash_bitserial", "gf128_mul",
    "keccak_f1600", "sha3", "SHA3_RATES", "hmac_sha3",
]


class TagMismatch(Exception):
    """Authentication tag failed to verify."""


# ---------------------------------------------------------------------------
# AES (FIPS-197), byte-and-table formulation
# ---------------------------------------------------------------------------

SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")

_inv = bytearray(256)
for _i, _v in enumerate(SBOX):
    _inv[_v] = _i
INV_SBOX = bytes(_inv)
del _inv, _i, _v

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C]


def _xtime(b: int) -> int:
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def _gmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a = _xtime(a)
        b >>= 1
    return r


def expand_key(key: bytes) -> list[bytes]:
    """FIPS-197 key schedule; returns the per-round 16-byte keys."""
    if len(key) not in (16, 32):
        raise ValueError("AES key must be 16 or 32 bytes")
    nk = len(key) // 4
    rounds = 10 if nk == 4 else 14
    words = [key[4 * i:4 * i + 4] for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        tmp = words[i - 1]
        if i % nk == 0:
            tmp = bytes(SBOX[b] for b in tmp[1:] + tmp[:1])
            tmp = bytes([tmp[0] ^ _RCON[i // nk - 1]]) + tmp[1:]
        elif nk == 8 and i % nk == 4:
            tmp = bytes(SBOX[b] for b in tmp)
        words.append(bytes(a ^ b for a, b in zip(words[i - nk], tmp)))
    return [b"".join(words[4 * r:4 * r + 4]) for r in range(rounds + 1)]


def _add_round_key(state: bytearray, rk: bytes) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def _shift_rows(state: bytearray) -> None:
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        for c in range(4):
            state[r + 4 * c] = row[(c + r) % 4]


def _inv_shift_rows(state: bytearray) -> None:
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        for c in range(4):
            state[r + 4 * c] = row[(c - r) % 4]


def _mix_columns(state: bytearray) -> None:
    for c in range(4):
        col = state[4 * c:4 * c + 4]
        for r in range(4):
            state[4 * c + r] = (_gmul(col[r], 2) ^ _gmul(col[(r + 1) % 4], 3)
                                ^ col[(r + 2) % 4] ^ col[(r + 3) % 4])


def _inv_mix_columns(state: bytearray) -> None:
    for c in range(4):
        col = state[4 * c:4 * c + 4]
        for r in range(4):
            state[4 * c + r] = (_gmul(col[r], 14) ^ _gmul(col[(r + 1) % 4], 11)
                                ^ _gmul(col[(r + 2) % 4], 13)
                                ^ _gmul(col[(r + 3) % 4], 9))


def aes_encrypt_block(key: bytes, block: bytes) -> bytes:
    rks = expand_key(key)
    state = bytearray(block)
    _add_round_key(state, rks[0])
    for r in range(1, len(rks) - 1):
        state = bytearray(SBOX[b] for b in state)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, rks[r])
    state = bytearray(SBOX[b] for b in state)
    _shift_rows(state)
    _add_round_key(state, rks[-1])
    return bytes(state)


def aes_decrypt_block(key: bytes, block: bytes) -> bytes:
    rks = expand_key(key)
    state = bytearray(block)
    _add_round_key(state, rks[-1])
    for r in range(len(rks) - 2, 0, -1):
        _inv_shift_rows(state)
        state = bytearray(INV_SBOX[b] for b in state)
        _add_round_key(state, rks[r])
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    state = bytearray(INV_SBOX[b] for b in state)
    _add_round_key(state, rks[0])
    return bytes(state)


# ---------------------------------------------------------------------------
# Block cipher modes
# ---------------------------------------------------------------------------

def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    if len(plaintext) % 16:
        raise ValueError("CBC needs a whole number of blocks")
    out, chain = bytearray(), iv
    for i in range(0, len(plaintext), 16):
        chain = aes_encrypt_block(key, _xor(plaintext[i:i + 16], chain))
        out += chain
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) % 16:
        raise ValueError("CBC needs a whole number of blocks")
    out, chain = bytearray(), iv
    for i in range(0, len(ciphertext), 16):
        block = ciphertext[i:i + 16]
        out += _xor(aes_decrypt_block(key, block), chain)
        chain = block
    return bytes(out)


def ctr_crypt(key: bytes, counter0: bytes, data: bytes) -> bytes:
    out = bytearray()
    ctr = int.from_bytes(counter0, "big")
    for i in range(0, len(data), 16):
        stream = aes_encrypt_block(key, ctr.to_bytes(16, "big"))
        out += _xor(data[i:i + 16], stream)
        ctr = (ctr + 1) % (1 << 128)
    return bytes(out)


# -- CCM (SP 800-38C) -------------------------------------------------------

def _ccm_mac(key: bytes, nonce: bytes, aad: bytes, msg: bytes,
             tag_len: int) -> bytes:
    q = 15 - len(nonce)
    flags = (64 if aad else 0) | (((tag_len - 2) // 2) << 3) | (q - 1)
    b0 = bytes([flags]) + nonce + len(msg).to_bytes(q, "big")
    blocks = bytearray(b0)
    if aad:
        if len(aad) < 0xFF00:
            blocks += len(aad).to_bytes(2, "big")
        else:
            blocks += b"\xff\xfe" + len(aad).to_bytes(4, "big")
        blocks += aad
        blocks += bytes(-len(blocks) % 16)
    blocks += msg
    blocks += bytes(-len(blocks) % 16)
    mac = bytes(16)
    for i in range(0, len(blocks), 16):
        mac = aes_encrypt_block(key, _xor(mac, blocks[i:i + 16]))
    return mac[:tag_len]


def _ccm_ctr0(nonce: bytes, tag_len: int, msg_len: int) -> bytes:
    """Counter block 0 of a 7..13-byte nonce; the tag length must be one
    CCM allows and the length field of B0 must hold ``msg_len``."""
    if type(tag_len) is not int or tag_len not in range(4, 17, 2):
        raise ValueError(f"CCM tag length must be 4, 6, ..., 16 bytes, "
                         f"got {tag_len!r}")
    if not 7 <= len(nonce) <= 13:
        raise ValueError("CCM nonce must be 7..13 bytes")
    q = 15 - len(nonce)
    if msg_len >= 256 ** q:
        raise ValueError(f"CCM message too long for a {len(nonce)}-byte "
                         f"nonce")
    return bytes([q - 1]) + nonce + bytes(q)


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes,
                tag_len: int = 16) -> bytes:
    ctr0 = _ccm_ctr0(nonce, tag_len, len(plaintext))
    mac = _ccm_mac(key, nonce, aad, plaintext, tag_len)
    s0 = aes_encrypt_block(key, ctr0)
    ct = ctr_crypt(key, (int.from_bytes(ctr0, "big") + 1).to_bytes(16, "big"),
                   plaintext)
    return ct + _xor(mac, s0[:tag_len])


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16) -> bytes:
    ctr0 = _ccm_ctr0(nonce, tag_len, len(ciphertext) - tag_len)
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    s0 = aes_encrypt_block(key, ctr0)
    pt = ctr_crypt(key, (int.from_bytes(ctr0, "big") + 1).to_bytes(16, "big"),
                   ct)
    mac = _ccm_mac(key, nonce, aad, pt, tag_len)
    if not _hmac_mod.compare_digest(_xor(mac, s0[:tag_len]), tag):
        raise TagMismatch("CCM tag mismatch")
    return pt


# -- GHASH and GCM (SP 800-38D) --------------------------------------------

_R_POLY = 0xE1000000000000000000000000000000


def gf128_mul(x: int, y: int) -> int:
    """Carry-less multiply in GF(2^128), MSB-first bit convention."""
    # Plain polynomial product on reflected operands, then reduce.
    xr = int(f"{x:0128b}"[::-1], 2) if x else 0
    yr = int(f"{y:0128b}"[::-1], 2) if y else 0
    prod = 0
    while yr:
        if yr & 1:
            prod ^= xr
        xr <<= 1
        yr >>= 1
    # prod is a reflected polynomial of degree < 255; reduce mod
    # x^128 + x^7 + x^2 + x + 1.
    for bit in range(prod.bit_length() - 1, 127, -1):
        if prod >> bit & 1:
            prod ^= (1 << bit) | (0x87 << (bit - 128))
    return int(f"{prod & ((1 << 128) - 1):0128b}"[::-1], 2)


def _ghash_key(h: bytes, data: bytes) -> int:
    """The hash key as an int, once ``h`` and ``data`` are checked."""
    if len(h) != 16:
        raise ValueError(f"GHASH hash key must be 16 bytes, got {len(h)}")
    if len(data) % 16:
        raise ValueError("GHASH input must be whole blocks")
    return int.from_bytes(h, "big")


def ghash_bitserial(h: bytes, data: bytes) -> bytes:
    """GHASH via the NIST bit-serial multiply, structured per the standard."""
    hint = _ghash_key(h, data)
    y = 0
    for i in range(0, len(data), 16):
        x = y ^ int.from_bytes(data[i:i + 16], "big")
        z, v = 0, hint
        for bit in range(127, -1, -1):
            if x >> bit & 1:
                z ^= v
            if v & 1:
                v = (v >> 1) ^ _R_POLY
            else:
                v >>= 1
        y = z
    return y.to_bytes(16, "big")


def ghash(h: bytes, data: bytes) -> bytes:
    """GHASH via deferred-reduction carry-less multiplication."""
    hint = _ghash_key(h, data)
    y = 0
    for i in range(0, len(data), 16):
        y = gf128_mul(y ^ int.from_bytes(data[i:i + 16], "big"), hint)
    return y.to_bytes(16, "big")


def _gcm_ghash_input(aad: bytes, ct: bytes) -> bytes:
    return (aad + bytes(-len(aad) % 16) + ct + bytes(-len(ct) % 16)
            + (8 * len(aad)).to_bytes(8, "big")
            + (8 * len(ct)).to_bytes(8, "big"))


def _gcm_j0(key: bytes, iv: bytes) -> bytes:
    if len(iv) == 12:
        return iv + b"\x00\x00\x00\x01"
    h = aes_encrypt_block(key, bytes(16))
    return ghash(h, iv + bytes(-len(iv) % 16)
                 + (8 * len(iv)).to_bytes(16, "big"))


def _gctr(key: bytes, j0: bytes, data: bytes) -> bytes:
    """Keystream from inc32(J0) on: only the low 32 counter bits count."""
    out = bytearray()
    for i in range(0, len(data), 16):
        low = (int.from_bytes(j0[12:], "big") + 1 + i // 16) & 0xFFFFFFFF
        stream = aes_encrypt_block(key, j0[:12] + low.to_bytes(4, "big"))
        out += _xor(data[i:i + 16], stream)
    return bytes(out)


def gcm_encrypt(key: bytes, iv: bytes, aad: bytes,
                plaintext: bytes) -> bytes:
    h = aes_encrypt_block(key, bytes(16))
    j0 = _gcm_j0(key, iv)
    ct = _gctr(key, j0, plaintext)
    tag = _xor(aes_encrypt_block(key, j0),
               ghash(h, _gcm_ghash_input(aad, ct)))
    return ct + tag


def gcm_decrypt(key: bytes, iv: bytes, aad: bytes,
                ciphertext: bytes) -> bytes:
    ct, tag = ciphertext[:-16], ciphertext[-16:]
    h = aes_encrypt_block(key, bytes(16))
    j0 = _gcm_j0(key, iv)
    expect = _xor(aes_encrypt_block(key, j0),
                  ghash(h, _gcm_ghash_input(aad, ct)))
    if not _hmac_mod.compare_digest(expect, tag):
        raise TagMismatch("GCM tag mismatch")
    return _gctr(key, j0, ct)


# ---------------------------------------------------------------------------
# Keccak / SHA3 / HMAC (FIPS-202)
# ---------------------------------------------------------------------------

SHA3_RATES = {224: 144, 256: 136, 384: 104, 512: 72}

_ROT = [[0, 36, 3, 41, 18],
        [1, 44, 10, 45, 2],
        [62, 6, 43, 15, 61],
        [28, 55, 25, 21, 56],
        [27, 20, 39, 8, 14]]

_RC = [0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
       0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
       0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
       0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
       0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
       0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
       0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
       0x8000000000008080, 0x0000000080000001, 0x8000000080008008]

_M64 = (1 << 64) - 1


def _rotl(v: int, s: int) -> int:
    return ((v << s) | (v >> (64 - s))) & _M64


def keccak_f1600(lanes: list[list[int]]) -> list[list[int]]:
    """One permutation over a 5x5 lane matrix ``lanes[x][y]``."""
    a = [row[:] for row in lanes]
    for rnd in range(24):
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x][y] ^= d[x]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(a[x][y], _ROT[x][y])
        for x in range(5):
            for y in range(5):
                a[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y] & _M64)
                                     & b[(x + 2) % 5][y])
        a[0][0] ^= _RC[rnd]
    return a


def _sha3_rate(bits: int) -> int:
    if type(bits) is not int or bits not in SHA3_RATES:
        raise ValueError(f"SHA3 output size must be 224, 256, 384 or 512 "
                         f"bits, got {bits!r}")
    return SHA3_RATES[bits]


def sha3(bits: int, msg: bytes) -> bytes:
    rate = _sha3_rate(bits)
    pad_len = -len(msg) % rate or rate
    padded = bytearray(msg) + bytearray(pad_len)
    padded[len(msg)] ^= 0x06
    padded[-1] ^= 0x80
    lanes = [[0] * 5 for _ in range(5)]
    for off in range(0, len(padded), rate):
        block = padded[off:off + rate]
        for i in range(rate // 8):
            x, y = i % 5, i // 5
            lanes[x][y] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        lanes = keccak_f1600(lanes)
    out = bytearray()
    for i in range(25):
        out += lanes[i % 5][i // 5].to_bytes(8, "little")
    return bytes(out[:bits // 8])


def hmac_sha3(bits: int, key: bytes, msg: bytes) -> bytes:
    rate = _sha3_rate(bits)
    if len(key) > rate:
        key = sha3(bits, key)
    key = key + bytes(rate - len(key))
    ipad = bytes(k ^ 0x36 for k in key)
    opad = bytes(k ^ 0x5C for k in key)
    return sha3(bits, opad + sha3(bits, ipad + msg))
