"""Host-side reference crypto, independent of the fabric kernels.

Everything here is deliberately byte/table oriented (the fabric path is
bit-sliced), so the two implementations share no structure.  These
routines are the ground truth the simulator is checked against.  AES
substitutes bytes with ``bytes.translate`` and multiplies in MixColumns
through GF(2^8) tables built from ``_xtime`` at import; each mode call
expands its key once.

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


def _mul_table(c: int) -> bytes:
    """``c`` times each byte value in GF(2^8), by shift-and-add."""
    table = bytearray(256)
    for b in range(256):
        a, k = b, c
        while k:
            if k & 1:
                table[b] ^= a
            a = _xtime(a)
            k >>= 1
    return bytes(table)


# The MixColumns coefficients' multiply tables, built once at import.
_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = map(_mul_table,
                                                 (2, 3, 9, 11, 13, 14))


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
            tmp = (tmp[1:] + tmp[:1]).translate(SBOX)
            tmp = bytes([tmp[0] ^ _RCON[i // nk - 1]]) + tmp[1:]
        elif nk == 8 and i % nk == 4:
            tmp = tmp.translate(SBOX)
        words.append(_xor(words[i - nk], tmp))
    return [b"".join(words[4 * r:4 * r + 4]) for r in range(rounds + 1)]


# State byte 4c + r is s[r, c].  ShiftRows moves s[r, c + r] to s[r, c].
_SHIFT_ROWS = [(r + 4 * (c + r)) % 16 for c in range(4) for r in range(4)]
_INV_SHIFT_ROWS = [(r + 4 * (c - r)) % 16 for c in range(4) for r in range(4)]


def _xor(a: bytes, b: bytes) -> bytes:
    """The XOR of ``a`` and ``b``, as long as the shorter of the two."""
    n = min(len(a), len(b))
    return (int.from_bytes(a[:n], "big")
            ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


def _sub_shift(state: bytes, box: bytes, order: list[int]) -> bytes:
    """SubBytes with ``box``, then the row shift ``order``."""
    state = state.translate(box)
    return bytes([state[i] for i in order])


def _mix_columns(state: bytes) -> bytes:
    m2, m3 = _MUL2, _MUL3
    out = bytearray(16)
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c:c + 4]
        out[c] = m2[a0] ^ m3[a1] ^ a2 ^ a3
        out[c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
        out[c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
        out[c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
    return bytes(out)


def _inv_mix_columns(state: bytes) -> bytes:
    m9, m11, m13, m14 = _MUL9, _MUL11, _MUL13, _MUL14
    out = bytearray(16)
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c:c + 4]
        out[c] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
        out[c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
        out[c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
        out[c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return bytes(out)


def _check_block(name: str, value: bytes) -> None:
    if len(value) != 16:
        raise ValueError(f"{name} must be 16 bytes, got {len(value)}")


def _encrypt(rks: list[bytes], block: bytes) -> bytes:
    """One block under the expanded key ``rks``."""
    _check_block("AES block", block)
    state = _xor(block, rks[0])
    for rk in rks[1:-1]:
        state = _xor(_mix_columns(_sub_shift(state, SBOX, _SHIFT_ROWS)), rk)
    return _xor(_sub_shift(state, SBOX, _SHIFT_ROWS), rks[-1])


def _decrypt(rks: list[bytes], block: bytes) -> bytes:
    _check_block("AES block", block)
    state = _xor(block, rks[-1])
    for rk in rks[-2:0:-1]:
        state = _inv_mix_columns(_xor(
            _sub_shift(state, INV_SBOX, _INV_SHIFT_ROWS), rk))
    return _xor(_sub_shift(state, INV_SBOX, _INV_SHIFT_ROWS), rks[0])


def aes_encrypt_block(key: bytes, block: bytes) -> bytes:
    return _encrypt(expand_key(key), block)


def aes_decrypt_block(key: bytes, block: bytes) -> bytes:
    return _decrypt(expand_key(key), block)


# ---------------------------------------------------------------------------
# Block cipher modes
# ---------------------------------------------------------------------------

# Each mode call expands its key once and runs every block on the
# expanded key.

def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    _check_block("CBC IV", iv)
    if len(plaintext) % 16:
        raise ValueError("CBC needs a whole number of blocks")
    rks, out, chain = expand_key(key), bytearray(), iv
    for i in range(0, len(plaintext), 16):
        chain = _encrypt(rks, _xor(plaintext[i:i + 16], chain))
        out += chain
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    _check_block("CBC IV", iv)
    if len(ciphertext) % 16:
        raise ValueError("CBC needs a whole number of blocks")
    rks, out, chain = expand_key(key), bytearray(), iv
    for i in range(0, len(ciphertext), 16):
        block = ciphertext[i:i + 16]
        out += _xor(_decrypt(rks, block), chain)
        chain = block
    return bytes(out)


def _ctr(rks: list[bytes], counter0: bytes, data: bytes) -> bytes:
    out = bytearray()
    ctr = int.from_bytes(counter0, "big")
    for i in range(0, len(data), 16):
        stream = _encrypt(rks, ctr.to_bytes(16, "big"))
        out += _xor(data[i:i + 16], stream)
        ctr = (ctr + 1) % (1 << 128)
    return bytes(out)


def ctr_crypt(key: bytes, counter0: bytes, data: bytes) -> bytes:
    _check_block("CTR counter block", counter0)
    return _ctr(expand_key(key), counter0, data)


# -- CCM (SP 800-38C) -------------------------------------------------------

def _ccm_mac(rks: list[bytes], nonce: bytes, aad: bytes, msg: bytes,
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
        mac = _encrypt(rks, _xor(mac, blocks[i:i + 16]))
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
    rks = expand_key(key)
    mac = _ccm_mac(rks, nonce, aad, plaintext, tag_len)
    s0 = _encrypt(rks, ctr0)
    ct = _ctr(rks, (int.from_bytes(ctr0, "big") + 1).to_bytes(16, "big"),
              plaintext)
    return ct + _xor(mac, s0[:tag_len])


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes,
                tag_len: int = 16) -> bytes:
    ctr0 = _ccm_ctr0(nonce, tag_len, len(ciphertext) - tag_len)
    rks = expand_key(key)
    ct, tag = ciphertext[:-tag_len], ciphertext[-tag_len:]
    s0 = _encrypt(rks, ctr0)
    pt = _ctr(rks, (int.from_bytes(ctr0, "big") + 1).to_bytes(16, "big"), ct)
    mac = _ccm_mac(rks, nonce, aad, pt, tag_len)
    if not _hmac_mod.compare_digest(_xor(mac, s0[:tag_len]), tag):
        raise TagMismatch("CCM tag mismatch")
    return pt


# -- GHASH and GCM (SP 800-38D) --------------------------------------------

_R_POLY = 0xE1000000000000000000000000000000
# x^128 + x^7 + x^2 + x + 1, the GHASH field polynomial, in plain
# (reflected) bit order.
_FIELD_POLY = (1 << 128) | 0x87

# Byte b with its eight bits in reverse order.
_REFLECTED_BYTE = bytes(sum((b >> i & 1) << (7 - i) for i in range(8))
                        for b in range(256))


def _reflect(x: int) -> int:
    """The 128-bit ``x`` with bit i moved to bit 127 - i."""
    return int.from_bytes(x.to_bytes(16, "big").translate(_REFLECTED_BYTE),
                          "little")


def gf128_mul(x: int, y: int) -> int:
    """Carry-less multiply in GF(2^128), MSB-first bit convention."""
    # Plain polynomial product on reflected operands, then reduce.
    xr, yr = _reflect(x), _reflect(y)
    prod = 0
    while yr:
        if yr & 1:
            prod ^= xr
        xr <<= 1
        yr >>= 1
    # prod is a reflected polynomial of degree < 255; divide by the
    # field polynomial, clearing its highest set bit each step.
    while prod >> 128:
        prod ^= _FIELD_POLY << (prod.bit_length() - 129)
    return _reflect(prod)


def _ghash_key(h: bytes, data: bytes) -> int:
    """The hash key as an int, once ``h`` and ``data`` are checked."""
    if len(h) != 16:
        raise ValueError(f"GHASH hash key must be 16 bytes, got {len(h)}")
    if len(data) % 16:
        raise ValueError("GHASH input must be whole blocks")
    return int.from_bytes(h, "big")


def ghash_bitserial(h: bytes, data: bytes) -> bytes:
    """GHASH by the bit-serial multiply of SP 800-38D (Algorithm 1).

    It stays as the standard's own form: tests check the reflected
    carry-less :func:`ghash` against it without ``cryptography``."""
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


def _gcm_j0(h: bytes, iv: bytes) -> bytes:
    if not iv:
        raise ValueError("GCM IV must not be empty")
    if len(iv) == 12:
        return iv + b"\x00\x00\x00\x01"
    return ghash(h, iv + bytes(-len(iv) % 16)
                 + (8 * len(iv)).to_bytes(16, "big"))


def _gctr(rks: list[bytes], j0: bytes, data: bytes) -> bytes:
    """Keystream from inc32(J0) on: only the low 32 counter bits count."""
    out = bytearray()
    for i in range(0, len(data), 16):
        low = (int.from_bytes(j0[12:], "big") + 1 + i // 16) & 0xFFFFFFFF
        stream = _encrypt(rks, j0[:12] + low.to_bytes(4, "big"))
        out += _xor(data[i:i + 16], stream)
    return bytes(out)


def gcm_encrypt(key: bytes, iv: bytes, aad: bytes,
                plaintext: bytes) -> bytes:
    rks = expand_key(key)
    h = _encrypt(rks, bytes(16))
    j0 = _gcm_j0(h, iv)
    ct = _gctr(rks, j0, plaintext)
    tag = _xor(_encrypt(rks, j0), ghash(h, _gcm_ghash_input(aad, ct)))
    return ct + tag


def gcm_decrypt(key: bytes, iv: bytes, aad: bytes,
                ciphertext: bytes) -> bytes:
    ct, tag = ciphertext[:-16], ciphertext[-16:]
    rks = expand_key(key)
    h = _encrypt(rks, bytes(16))
    j0 = _gcm_j0(h, iv)
    expect = _xor(_encrypt(rks, j0), ghash(h, _gcm_ghash_input(aad, ct)))
    if not _hmac_mod.compare_digest(expect, tag):
        raise TagMismatch("GCM tag mismatch")
    return _gctr(rks, j0, ct)


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
