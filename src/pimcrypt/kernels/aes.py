"""AES-128/256 encrypt/decrypt lowered onto the fabric.

Data layout (16-column tiles, one block per tile, 16 blocks per pass):

* state bit-planes in rows 0..7; plane ``b`` column ``16t + 4r + c``
  holds bit ``b`` of state byte ``s[r,c]`` of block ``t``.  This byte
  order is row-major within the tile, so the MixColumns byte rotations
  are plain 4/8-column tile rotations and ShiftRows is a masked per-row
  rotation.  Block byte ``j`` is state byte ``s[j mod 4, j div 4]``, so
  it sits at tile column ``4(j mod 4) + j div 4``, a map that is its own
  inverse,
* round-key planes in rows 8..95 (8 rows per round, AddRoundKey walks
  them with a +8 stride rule; AES-256 reloads the region halfway),
* byte staging rows 96..111 (doubling as scratch inside the rounds):
  staging row ``c`` holds the byte at tile column ``c`` of every block,
  LSB-first in an 8-column field, columns 0..7 in the low half of the
  tile and 8..15 in the high half,
* transpose masks 112..114 and ShiftRows masks 115..118,
* chain-value planes 119..126 for the mode-level XOR; with chain mode
  ``"both"`` the host restages them between the XOR before the rounds
  and the one after.

The per-pass pipeline is: byte staging -> bit-slice (OR-combine + 8x8
butterfly transpose) -> rounds -> inverse slice -> byte staging.

On a subarray with K lanes one run is K passes in lockstep:
:meth:`Key.stage` takes up to 16K blocks (block ``16k + t`` in tile
``t`` of lane ``k``) and the blocks XORed into each before and after the
cipher, and returns the run's validated program and a fresh env.
``aes_load`` writes the masks and round keys repeated in every lane:
both are :class:`~pimcrypt.fabric.LaneRows`, the masks one per process
and the keys one per call.  ``aes_unload`` leaves one output block per
staged block under :data:`~pimcrypt.controller.OUTPUT`.

A pass uses the round-key-0 rows (8..15) as SubBytes scratch once the
first AddRoundKey has consumed them, so it leaves the key region dirty:
``aes_load`` restages the whole key region, with one bulk host write,
on every pass.  The passes of a serial chain share one subarray, and
each starts from freshly staged keys, masks, blocks and chain planes.

The host expands the round keys (:func:`expand_key_words`) with an
S-box table read off the forward SubBytes circuit itself, evaluated over
all 256 byte values, so the fabric path imports nothing from the oracle.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import repeat
from operator import and_, itemgetter, lshift, rshift
from typing import NamedTuple

from ..controller import (OUTPUT, Controller, HostAction, Invocation,
                          KernelProgram, StrideRule, host_action)
from ..fabric import COLS, LaneRows
from ..isa import CommandWord, LogicKind
from . import circuits
from .layout import (LayoutMap, _check_blocks, _logic, _shift_into,
                     pack_functions)

__all__ = ["AES_LAYOUT", "BLOCKS_PER_PASS", "Key", "build_aes_program",
           "expand_key_words", "key_rows", "gen_bit_slice_fwd",
           "gen_bit_slice_inv", "gen_add_round_key", "gen_sub_bytes",
           "gen_shift_rows", "gen_mix_columns", "gen_chain_xor"]

AES_LAYOUT = LayoutMap({
    "planes": (0, 8),
    "keys": (8, 88),
    "stage": (96, 16),
    "tmask": (112, 3),     # transpose masks for k = 4, 2, 1
    "srmask": (115, 4),    # per-AES-row tile masks m0..m3
    "chain": (119, 8),
    "ext": (127, 1),
})

BLOCK_WIDTH = 16
# One block per 16-column tile.
BLOCKS_PER_PASS = COLS // BLOCK_WIDTH

_PLANE = [AES_LAYOUT.row("planes", b) for b in range(8)]
_STAGE = list(AES_LAYOUT.span("stage"))
_TMASK = {k: AES_LAYOUT.row("tmask", i) for i, k in enumerate((4, 2, 1))}
_SRMASK = [AES_LAYOUT.row("srmask", i) for i in range(4)]
_CHAIN = list(AES_LAYOUT.span("chain"))

def mask_values() -> dict[int, int]:
    """Constant mask rows, replicated across the 16 tiles."""
    vals = {}
    for k, row in _TMASK.items():
        vals[row] = sum(1 << c for c in range(256) if c % (2 * k) < k)
    for i, row in enumerate(_SRMASK):
        vals[row] = sum(1 << c for c in range(256)
                        if 4 * i <= c % 16 < 4 * i + 4)
    return vals


# ---------------------------------------------------------------------------
# Command generators
# ---------------------------------------------------------------------------

_TRANSPOSE_PAIRS = [(4, 0, 4), (4, 1, 5), (4, 2, 6), (4, 3, 7),
                    (2, 0, 2), (2, 1, 3), (2, 4, 6), (2, 5, 7),
                    (1, 0, 1), (1, 2, 3), (1, 4, 5), (1, 6, 7)]


def _gen_transpose() -> list[CommandWord]:
    """In-place 8x8 transpose of the plane rows via butterfly swaps."""
    tmp = _STAGE[0]
    cmds: list[CommandWord] = []
    for k, i, j in _TRANSPOSE_PAIRS:
        pi, pj = _PLANE[i], _PLANE[j]
        cmds += _shift_into(pi, k, tmp)
        cmds += _logic(tmp, LogicKind.XOR, pj, tmp)
        cmds += _logic(tmp, LogicKind.AND, _TMASK[k], tmp)
        cmds += _logic(pj, LogicKind.XOR, tmp, pj)
        cmds += _shift_into(tmp, k, tmp, right=True)
        cmds += _logic(pi, LogicKind.XOR, tmp, pi)
    return cmds


def gen_bit_slice_fwd() -> list[CommandWord]:
    cmds = []
    for b in range(8):
        cmds += _logic(_STAGE[b], LogicKind.OR, _STAGE[8 + b], _PLANE[b])
    return cmds + _gen_transpose()


def gen_bit_slice_inv() -> list[CommandWord]:
    cmds = _gen_transpose()
    for b in range(8):
        # low byte field: boundary-clipping shifts replace an AND mask
        cmds += [CommandWord.rd_row(_PLANE[b]),
                 CommandWord.shift(8, right=True), CommandWord.shift(8),
                 CommandWord.wr_row(_STAGE[b])]
        cmds += [CommandWord.rd_row(_PLANE[b]),
                 CommandWord.shift(8), CommandWord.shift(8, right=True),
                 CommandWord.wr_row(_STAGE[8 + b])]
    return cmds


def gen_add_round_key() -> tuple[list[CommandWord], list[StrideRule]]:
    cmds, strides = [], []
    key0 = AES_LAYOUT.row("keys", 0)
    for b in range(8):
        strides.append(StrideRule(3 * b + 1, 8))
        cmds += _logic(_PLANE[b], LogicKind.XOR, key0 + b, _PLANE[b])
    return cmds, strides


def gen_sub_bytes(inverse: bool = False) -> list[CommandWord]:
    gates = (circuits.inverse_sbox_gates() if inverse
             else circuits.forward_sbox_gates())
    # circuit signal x0/s0 is the byte MSB = plane 7
    inputs = {f"x{k}": _PLANE[7 - k] for k in range(8)}
    outputs = {f"s{k}": _PLANE[7 - k] for k in range(8)}
    # Scratch: the byte staging rows plus the first key-round rows, whose
    # key was consumed by the AddRoundKey preceding any SubBytes.
    scratch = list(_STAGE) + [AES_LAYOUT.row("keys", b) for b in range(8)]
    return circuits.schedule(gates, inputs, outputs, scratch)


def gen_shift_rows(inverse: bool = False) -> list[CommandWord]:
    acc, t, x, y = _STAGE[0], _STAGE[1], _STAGE[2], _STAGE[3]
    cmds = []
    for plane in _PLANE:
        cmds += _logic(plane, LogicKind.AND, _SRMASK[0], acc)
        for r in (1, 2, 3):
            s = (4 - r) if inverse else r
            cmds += _logic(plane, LogicKind.AND, _SRMASK[r], t)
            cmds += _shift_into(t, s, x)
            cmds += _shift_into(t, 4 - s, y, right=True)
            cmds += _logic(x, LogicKind.OR, y, x)
            cmds += _logic(x, LogicKind.AND, _SRMASK[r], x)
            cmds += _logic(acc, LogicKind.OR, x, acc)
        cmds += [CommandWord.rd_row(acc), CommandWord.wr_row(plane)]
    return cmds


def _gen_tile_rotate(src: int, dst: int, cols: int,
                     t1: int, t2: int) -> list[CommandWord]:
    """dst = src rotated by ``cols`` toward column 0 within each tile."""
    return (_shift_into(src, cols, t1)
            + _shift_into(src, 16 - cols, t2, right=True)
            + _logic(t1, LogicKind.OR, t2, dst))


def gen_mix_columns(inverse: bool = False) -> list[CommandWord]:
    """MixColumns as u = a ^ rot1(a); out = 2u ^ rot1(a) ^ rot2(u).

    The inverse prepends the self-inverse pre-transform
    ``a' = a ^ 4*(a ^ rot2(a))``, since circ(14,11,13,9) =
    circ(2,3,1,1) * circ(5,0,4,0).
    """
    r = _STAGE[:8]
    t1, t2, t3 = _STAGE[8], _STAGE[9], _STAGE[10]
    cmds: list[CommandWord] = []
    if inverse:
        d = _STAGE[:8]
        for b in range(8):                      # d = a ^ rot2(a)
            cmds += _gen_tile_rotate(_PLANE[b], d[b], 8, t1, t2)
            cmds += _logic(d[b], LogicKind.XOR, _PLANE[b], d[b])
        # a' = a ^ 4d, with (4d)_b = d_{b-2} ^ [b in 1,3,4] d_6 ^ ...
        quad = {0: (6,), 1: (6, 7), 2: (0, 7), 3: (1, 6), 4: (2, 6, 7),
                5: (3, 7), 6: (4,), 7: (5,)}
        for b in range(8):
            for src in quad[b]:
                cmds += _logic(_PLANE[b], LogicKind.XOR, d[src], _PLANE[b])
    for b in range(8):
        cmds += _gen_tile_rotate(_PLANE[b], r[b], 4, t1, t2)   # rot1(a)
        cmds += _logic(_PLANE[b], LogicKind.XOR, r[b], _PLANE[b])  # u
    dbl = {0: (7,), 1: (0, 7), 2: (1,), 3: (2, 7), 4: (3, 7),
           5: (4,), 6: (5,), 7: (6,)}
    for b in range(8):
        cmds += _gen_tile_rotate(_PLANE[b], t3, 8, t1, t2)     # rot2(u)_b
        cmds += _logic(t3, LogicKind.XOR, r[b], t3)
        srcs = dbl[b]
        cmds += _logic(t3, LogicKind.XOR, _PLANE[srcs[0]], r[b])
        for src in srcs[1:]:
            cmds += _logic(r[b], LogicKind.XOR, _PLANE[src], r[b])
    for b in range(8):
        cmds += [CommandWord.rd_row(r[b]), CommandWord.wr_row(_PLANE[b])]
    return cmds


def gen_chain_xor() -> list[CommandWord]:
    cmds = []
    for b in range(8):
        cmds += _logic(_PLANE[b], LogicKind.XOR, _CHAIN[b], _PLANE[b])
    return cmds


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _sbox() -> bytes:
    """The key schedule's S-box: the forward SubBytes circuit evaluated
    at every byte value, one column each."""
    return circuits.lookup_table(circuits.forward_sbox_gates())


# Multiplying a 32-bit word by this repeats it in all four words of a
# round key.
_EVERY_WORD = sum(1 << 32 * i for i in range(4))


def expand_key_words(key: bytes) -> list[bytes]:
    """Round keys for the fabric path (numpy-free, one round key at a time).

    Round key r follows from round key r - nk/4 (nk the key's words) and
    the last word t of round key r - 1 (FIPS 197 section 5.2): its word i
    is t' xor words 0..i of round key r - nk/4, t' being
    SubWord(RotWord(t)) xor Rcon, or SubWord(t) alone for AES-256's odd
    round keys; as a 128-bit int, word 0 highest, that is four shifted
    copies of the old key and t' in every word.  The S-box table comes
    from the fabric's own SubBytes circuit (:func:`_sbox`), so the
    fabric path shares no code with the oracle.  Raises ``ValueError``
    unless ``key`` is 16 or 32 bytes, ``TypeError`` unless it is
    bytes-like.
    """
    key, = _check_blocks("AES key", [key], (16, 32))
    sbox = _sbox()
    step = len(key) // 16           # nk / 4
    keys = [int.from_bytes(key[16 * i:16 * i + 16], "big")
            for i in range(step)]
    rcon = 1
    for r in range(step, 11 if step == 1 else 15):
        last = (keys[-1] & 0xFFFFFFFF).to_bytes(4, "big")
        if r % step:
            t = int.from_bytes(last.translate(sbox), "big")
        else:
            t = (int.from_bytes((last[1:] + last[:1]).translate(sbox), "big")
                 ^ rcon << 24)
            rcon = (rcon << 1) ^ (0x11B if rcon & 0x80 else 0)
        old = keys[-step]
        keys.append(old ^ old >> 32 ^ old >> 64 ^ old >> 96 ^ t * _EVERY_WORD)
    return [k.to_bytes(16, "big") for k in keys]


# AES-256 loads its first 8 round keys, then reloads the key region with
# the other 7 before round 8's AddRoundKey.
_FIRST_LOAD = 8


@lru_cache(maxsize=None)
def _functions(direction: str) -> tuple[tuple[CommandWord, ...], dict]:
    """The command array and function windows of every program of one
    direction: they depend on nothing else, so they are packed once."""
    inverse = direction == "decrypt"
    commands, functions = pack_functions({
        "BitSliceFwd": (gen_bit_slice_fwd(), ()),
        "BitSliceInv": (gen_bit_slice_inv(), ()),
        "AddRoundKey": gen_add_round_key(),
        "SubBytes": (gen_sub_bytes(inverse), ()),
        "ShiftRows": (gen_shift_rows(inverse), ()),
        "MixColumns": (gen_mix_columns(inverse), ()),
        "ChainXor": (gen_chain_xor(), ()),
    })
    return tuple(commands), functions


_DIRECTIONS = ("encrypt", "decrypt")
_CHAINS = (None, "pre", "post", "both")


def build_aes_program(variant: int, direction: str,
                      chain: str | None = None) -> KernelProgram:
    """Build the per-pass program.

    ``chain`` is ``None``, ``"pre"`` (XOR the chain planes into the state
    before the rounds, CBC encrypt), ``"post"`` (after the rounds, CBC
    decrypt / CTR) or ``"both"``: before the rounds with the chain planes
    ``aes_load`` stages, and after them with those the ``aes_load_chain``
    action restages, so each tile can run a CBC step or a counter block
    (CCM).  :meth:`Key.stage` picks the mode from the lists it is given.
    ``ValueError`` unless ``variant`` is the int 128 or 256 and
    ``direction`` and ``chain`` are among the above.
    """
    if (type(variant) is not int or variant not in (128, 256)
            or direction not in _DIRECTIONS):
        raise ValueError("variant must be 128/256, direction encrypt/decrypt")
    if chain not in _CHAINS:
        raise ValueError(f"chain must be one of {_CHAINS}, got {chain!r}")
    rounds = 10 if variant == 128 else 14
    inverse = direction == "decrypt"
    commands, functions = _functions(direction)

    def ark(round_no: int) -> Invocation:
        # AES-256's stride numbering restarts at the reload; AES-128
        # keys fit resident.
        base = (round_no if variant == 128 or round_no < _FIRST_LOAD
                else round_no - _FIRST_LOAD)
        return Invocation("AddRoundKey", 1, base)

    # The straight inverse cipher only reorders a round's body; its keys
    # are host-loaded in usage order.
    body = (("ShiftRows", "SubBytes", "AddRoundKey", "MixColumns") if inverse
            else ("SubBytes", "ShiftRows", "MixColumns", "AddRoundKey"))
    schedule = [Invocation("BitSliceFwd")]
    if chain in ("pre", "both"):
        schedule.append(Invocation("ChainXor"))
    schedule.append(ark(0))
    reload_pos = None
    for r in range(1, rounds + 1):
        for name in body:
            if name == "AddRoundKey":
                if variant == 256 and r == _FIRST_LOAD:
                    reload_pos = len(schedule)
                schedule.append(ark(r))
            elif name != "MixColumns" or r < rounds:   # last round: none
                schedule.append(Invocation(name))
    actions = [HostAction(0, "aes_load", {"chain": chain is not None})]
    if chain in ("post", "both"):
        if chain == "both":
            actions.append(HostAction(len(schedule), "aes_load_chain", {}))
        schedule.append(Invocation("ChainXor"))
    schedule.append(Invocation("BitSliceInv"))

    actions.append(HostAction(len(schedule), "aes_unload", {}))
    if variant == 256:
        actions.append(HostAction(reload_pos, "aes_load_keys",
                                  {"env_key": "key_rows2"}))
    return KernelProgram(
        name=f"aes-{variant}-{direction}" + (f"-{chain}" if chain else ""),
        commands=list(commands), functions=dict(functions),
        schedule=schedule, host_actions=actions, block_width=BLOCK_WIDTH)


# ---------------------------------------------------------------------------
# Host actions
# ---------------------------------------------------------------------------

# Multiplying a tile's value by this repeats it in every tile.
_EVERY_TILE = sum(1 << BLOCK_WIDTH * t for t in range(BLOCKS_PER_PASS))


# The byte order of the module docstring as a table: tile column c holds
# block byte _BYTE_AT[c], and block byte j sits at tile column _BYTE_AT[j].
_BYTE_AT = [4 * (j % 4) + j // 4 for j in range(16)]
# Reorders 16 items between block byte order and tile column order,
# either way, since _BYTE_AT is an involution.
_REORDER = itemgetter(*_BYTE_AT)
# Staging rows 0..7 hold their byte in the low half of each tile's
# 16-bit field and rows 8..15 in the high half.  Per staging row: the
# block byte it holds (rows 0..7, then 8..15), the slice of its field
# bytes that holds it, and the slice of the block bytes it fills; per
# block byte, the shift of its half.
_LOW_ROWS, _HIGH_ROWS = itemgetter(*_BYTE_AT[:8]), itemgetter(*_BYTE_AT[8:])
_HALF = [slice(0, None, 2)] * 8 + [slice(1, None, 2)] * 8
_COLUMN = [slice(j, None, 16) for j in _BYTE_AT]
_HALF_SHIFT = [8 * (c >= 8) for c in _BYTE_AT]

# Delta swaps (Hacker's Delight 7-3) as (shift in bits, mask over one
# 16-byte block, little-endian): the 4x4 byte transpose of the block
# into the tile byte order (swap the off-diagonal 2x2 quarters, then
# within each quarter), then the 8x8 bit-matrix transpose of each half.
_PLANE_STEPS = ((48, bytes(0xFF if k in (2, 3, 6, 7) else 0
                           for k in range(16))),
                (24, bytes(0xFF if k in (1, 3, 9, 11) else 0
                           for k in range(16))),
                (7, (0x00AA00AA00AA00AA).to_bytes(8, "little") * 2),
                (14, (0x0000CCCC0000CCCC).to_bytes(8, "little") * 2),
                (28, (0x00000000F0F0F0F0).to_bytes(8, "little") * 2))


class _Shapes(NamedTuple):
    """What the staging helpers need for ``n`` blocks, built once."""
    fields: struct.Struct        # 16 fields of 2n bytes: staging rows
    blocks: struct.Struct        # n 16-byte blocks
    plane_steps: tuple[tuple[int, int], ...]   # masks over n blocks


@lru_cache(maxsize=64)
def _shapes(n: int) -> _Shapes:
    return _Shapes(struct.Struct(f"{2 * n}s" * 16), struct.Struct("16s" * n),
                   tuple((shift, int.from_bytes(mask * n, "little"))
                         for shift, mask in _PLANE_STEPS))


def _byte_major(data: bytes) -> bytes:
    """``data``, n 16-byte blocks, reordered so that byte j of block t
    sits at ``n * j + t``.

    With M = 16n - 1, output index k = nj + t must read input index
    16t + j, which is 16k mod M (16n is 1 mod M) for every k < M, and
    the last byte stays last.  Every 16th byte of ``data[:-1]`` repeated
    16 times is exactly that sequence, so the reorder is two C-level
    copies whatever n is.
    """
    return (data[:-1] * 16)[::16] + data[-1:]


def _stage_rows(blocks: list[bytes]) -> list[int]:
    """16 staging-row values; row c holds tile column c of every block.

    Columns 0..7 occupy the low half of each tile, columns 8..15 the
    high half, so an OR of rows c and c+8 yields the matrix fed to the
    transpose network.
    """
    n = len(blocks)
    if n == 1:                      # a serial chain's pass: each field
        by_byte = blocks[0]         # is one byte of the block
    else:
        spread = bytearray(32 * n)  # one 2n-byte field per block byte
        spread[::2] = _byte_major(b"".join(blocks))
        by_byte = tuple(map(int.from_bytes, _shapes(n).fields.unpack(spread),
                            repeat("little")))
    return [*_LOW_ROWS(by_byte), *map(lshift, _HIGH_ROWS(by_byte), repeat(8))]


def _unstage_rows(rows: list[int], count: int) -> list[bytes]:
    """The first ``count`` blocks of 16 staging rows of any width."""
    if count == 1:                  # block byte j is in row _BYTE_AT[j]
        by_byte = map(rshift, _REORDER(rows), _HALF_SHIFT)
        return [bytes(map(and_, by_byte, repeat(0xFF)))]
    nbytes = 2 * count
    used = (1 << 8 * nbytes) - 1
    data = bytearray(16 * count)
    for column, half, row in zip(_COLUMN, _HALF, rows):
        data[column] = (row & used).to_bytes(nbytes, "little")[half]
    return list(_shapes(count).blocks.unpack(data))


def _plane_rows(blocks: list[bytes]) -> list[int]:
    """Bit-sliced plane values: plane b, column 16t+c = bit b of the byte
    at tile column c of block t.

    After the byte transpose every 8 bytes form an 8x8 bit matrix, one
    byte per row; after the bit transpose, byte b of each matrix holds
    bit b of its eight bytes, so plane b is every eighth byte.  The swap
    masks repeat once per block over the whole input, so every matrix of
    every lane is transposed in place.
    """
    n = len(blocks)
    x = int.from_bytes(b"".join(blocks), "little")
    for shift, mask in _shapes(n).plane_steps:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    data = x.to_bytes(16 * n, "little")
    return [int.from_bytes(data[b::8], "little") for b in range(8)]


def key_rows(round_keys: list[bytes]) -> LaneRows:
    """Round-key plane rows in load order, each key replicated into
    every tile: what ``aes_load_keys`` writes to the key region."""
    n = len(round_keys)
    planes = _plane_rows(round_keys)               # key r in tile r
    fields = struct.unpack(f"<{8 * n}H", b"".join(
        plane.to_bytes(2 * n, "little") for plane in planes))
    # fields[b * n + r] is plane b of key r, so fields[r::n] is key r's.
    return LaneRows([field * _EVERY_TILE
                     for r in range(n) for field in fields[r::n]])


# Programs depend on their build arguments alone, never on key or data.
@lru_cache(maxsize=None)
def _controller(variant: int, direction: str, chain: str | None) -> Controller:
    return Controller(build_aes_program(variant, direction, chain))


class Key:
    """One call's key for one direction: its round-key rows in load
    order, split at AES-256's key reload.  Built per call, so no key
    material outlives it.  ``ValueError`` unless ``key`` is 16 or 32
    bytes and ``direction`` encrypt or decrypt, ``TypeError`` unless
    ``key`` is bytes-like.
    """

    def __init__(self, key: bytes, direction: str):
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be encrypt or decrypt, "
                             f"got {direction!r}")
        words = expand_key_words(key)[::1 if direction == "encrypt" else -1]
        self.variant = 128 if len(words) == 11 else 256   # else 15 keys
        self.direction = direction
        split = _FIRST_LOAD if self.variant == 256 else None
        self.env = {"key_rows": key_rows(words[:split])}
        if split:
            self.env["key_rows2"] = key_rows(words[split:])

    def stage(self, blocks: list[bytes], pre: list[bytes] | None = None,
              post: list[bytes] | None = None) -> tuple[Controller, dict]:
        """One run of ``blocks``, each XORed with its ``pre`` block before
        the cipher and its ``post`` block after it.  The lists given pick
        the program's chain mode: ``pre`` alone ``"pre"``, ``post`` alone
        ``"post"``, both ``"both"``; an empty list counts as not given.
        ``ValueError`` unless every block, ``pre`` and ``post`` entry is
        16 bytes, ``TypeError`` unless each is bytes-like."""
        blocks = _check_blocks("AES block", blocks)
        pre = _check_blocks("pre block", () if pre is None else pre)
        post = _check_blocks("post block", () if post is None else post)
        # _CHAINS lists None, "pre", "post" and "both" in this order.
        chain = _CHAINS[bool(pre) + 2 * bool(post)]
        return (_controller(self.variant, self.direction, chain),
                dict(self.env, blocks=blocks, chain_blocks=pre or post,
                     post_chain_blocks=post))


# The staging rows, the mask rows (tmask then srmask) and the chain rows
# are contiguous, so one host transfer writes them.
_MASK_ROWS = LaneRows(value for _, value in sorted(mask_values().items()))
_KEY0 = AES_LAYOUT.row("keys", 0)


@host_action("aes_load_keys")
def _load_keys(sub, env, env_key="key_rows"):
    sub.write_rows(_KEY0, env[env_key])


@host_action("aes_load")
def _load(sub, env, chain=False):
    blocks = env["blocks"]
    tiles = BLOCKS_PER_PASS * sub.lanes
    if len(blocks) > tiles:
        raise ValueError(f"{len(blocks)} blocks for {tiles} tiles")
    for chained in (env["chain_blocks"], env["post_chain_blocks"]):
        if chained and len(chained) != len(blocks):
            raise ValueError(f"{len(chained)} chain blocks for "
                             f"{len(blocks)} blocks")
    _load_keys(sub, env)
    rows = _stage_rows(blocks)
    rows += _MASK_ROWS.for_lanes(sub.lanes)
    if chain:
        rows += _plane_rows(env["chain_blocks"])
    sub.write_rows(_STAGE[0], rows)


@host_action("aes_load_chain")
def _load_chain(sub, env):
    # Chain mode "both": the chain planes of the XOR after the rounds.
    sub.write_rows(_CHAIN[0], _plane_rows(env["post_chain_blocks"]))


@host_action("aes_unload")
def _unload(sub, env):
    env[OUTPUT] = _unstage_rows(sub.read_rows(_STAGE[0], 16),
                                len(env["blocks"]))
