"""AES-128/256 encrypt/decrypt lowered onto the fabric.

Data layout (16-column tiles, one block per tile, 16 blocks per pass):

* state bit-planes in rows 0..7; plane ``b`` column ``16t + 4r + c``
  holds bit ``b`` of state byte ``s[r,c]`` of block ``t`` (row-major
  within the tile, so the MixColumns byte rotations are plain 4/8-column
  tile rotations and ShiftRows is a masked per-row rotation; the host
  side of this byte order is ``hostio``'s, see its docstring),
* round-key planes in rows 8..95 (8 rows per round, AddRoundKey walks
  them with a +8 stride rule; AES-256 reloads the region halfway),
* byte staging rows 96..111 (doubling as scratch inside the rounds),
* transpose masks 112..114 and ShiftRows masks 115..118,
* chain-value planes 119..126 for the mode-level XOR.

The per-pass pipeline is: byte staging -> bit-slice (OR-combine + 8x8
butterfly transpose) -> rounds -> inverse slice -> byte staging.

On a subarray with K lanes one run is K passes in lockstep: ``aes_load``
stages up to 16K blocks (block ``16k + t`` in tile ``t`` of lane ``k``)
and replicates the masks and round keys into every lane.

A pass uses the round-key-0 rows (8..15) as SubBytes scratch once the
first AddRoundKey has consumed them, so it leaves the key region dirty:
``aes_load`` restages the whole key region, with one bulk host write,
on every pass, and a serial chain keeps no subarray resident between
its passes.
"""

from __future__ import annotations

from ..controller import (HostAction, Invocation, KernelProgram, StrideRule,
                          host_action)
from ..isa import CommandWord, LogicKind
from . import circuits, hostio
from .layout import LayoutMap, _logic, pack_functions

__all__ = ["AES_LAYOUT", "build_aes_program", "expand_key_words", "key_rows",
           "gen_bit_slice_fwd", "gen_bit_slice_inv", "gen_add_round_key",
           "gen_sub_bytes", "gen_shift_rows", "gen_mix_columns",
           "gen_chain_xor"]

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
        cmds += [CommandWord.rd_row(pi), CommandWord.shift(k),
                 CommandWord.wr_row(tmp)]
        cmds += _logic(tmp, LogicKind.XOR, pj, tmp)
        cmds += _logic(tmp, LogicKind.AND, _TMASK[k], tmp)
        cmds += _logic(pj, LogicKind.XOR, tmp, pj)
        cmds += [CommandWord.rd_row(tmp), CommandWord.shift(k, right=True),
                 CommandWord.wr_row(tmp)]
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
            cmds += [CommandWord.rd_row(t), CommandWord.shift(s),
                     CommandWord.wr_row(x)]
            cmds += [CommandWord.rd_row(t), CommandWord.shift(4 - s, right=True),
                     CommandWord.wr_row(y)]
            cmds += _logic(x, LogicKind.OR, y, x)
            cmds += _logic(x, LogicKind.AND, _SRMASK[r], x)
            cmds += _logic(acc, LogicKind.OR, x, acc)
        cmds += [CommandWord.rd_row(acc), CommandWord.wr_row(plane)]
    return cmds


def _gen_tile_rotate(src: int, dst: int, cols: int,
                     t1: int, t2: int) -> list[CommandWord]:
    """dst = src rotated by ``cols`` toward column 0 within each tile."""
    cmds = [CommandWord.rd_row(src), CommandWord.shift(cols),
            CommandWord.wr_row(t1),
            CommandWord.rd_row(src), CommandWord.shift(16 - cols, right=True),
            CommandWord.wr_row(t2)]
    return cmds + _logic(t1, LogicKind.OR, t2, dst)


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

def expand_key_words(key: bytes) -> list[bytes]:
    """Round keys for the fabric path (numpy-free, word oriented).

    Kept separate from the oracle's byte schedule so the two AES routes
    share no code.
    """
    from ..oracle import SBOX  # table only
    nk = len(key) // 4
    rounds = {4: 10, 8: 14}[nk]
    w = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)]
    rcon = 1

    def subword(v: int) -> int:
        return int.from_bytes(bytes(SBOX[b] for b in v.to_bytes(4, "big")),
                              "big")

    for i in range(nk, 4 * (rounds + 1)):
        t = w[i - 1]
        if i % nk == 0:
            t = subword(((t << 8) | (t >> 24)) & 0xFFFFFFFF) ^ (rcon << 24)
            rcon = (rcon << 1) ^ (0x11B if rcon & 0x80 else 0)
        elif nk == 8 and i % nk == 4:
            t = subword(t)
        w.append(w[i - nk] ^ t)
    return [b"".join(x.to_bytes(4, "big") for x in w[4 * r:4 * r + 4])
            for r in range(rounds + 1)]


def build_aes_program(variant: int, direction: str,
                      chain: str | None = None) -> KernelProgram:
    """Build the per-pass program.

    ``chain`` is ``None``, ``"pre"`` (XOR the chain planes into the state
    before the rounds, CBC encrypt) or ``"post"`` (after the rounds, CBC
    decrypt / CTR).
    """
    if variant not in (128, 256) or direction not in ("encrypt", "decrypt"):
        raise ValueError("variant must be 128/256, direction encrypt/decrypt")
    rounds = 10 if variant == 128 else 14
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

    def ark(round_no: int) -> Invocation:
        # AES-256 reloads the key region after round 7's key is consumed,
        # so its stride numbering restarts; AES-128 keys fit resident.
        base = round_no if variant == 128 or round_no < 8 else round_no - 8
        return Invocation("AddRoundKey", 1, base)

    schedule = [Invocation("BitSliceFwd")]
    if chain == "pre":
        schedule.append(Invocation("ChainXor"))
    reload_pos = None
    if not inverse:
        schedule.append(ark(0))
        for r in range(1, rounds):
            if variant == 256 and r == 8:
                reload_pos = len(schedule) + 3   # before round 8's ARK
            schedule += [Invocation("SubBytes"), Invocation("ShiftRows"),
                         Invocation("MixColumns"), ark(r)]
        schedule += [Invocation("SubBytes"), Invocation("ShiftRows"),
                     ark(rounds)]
    else:
        # straight inverse cipher; keys are host-loaded in usage order
        schedule.append(Invocation("AddRoundKey", 1, 0))
        for r in range(1, rounds):
            if variant == 256 and r == 8:
                reload_pos = len(schedule) + 2
            schedule += [Invocation("ShiftRows"), Invocation("SubBytes"),
                         ark(r), Invocation("MixColumns")]
        schedule += [Invocation("ShiftRows"), Invocation("SubBytes"),
                     ark(rounds)]
    if chain == "post":
        schedule.append(Invocation("ChainXor"))
    schedule.append(Invocation("BitSliceInv"))

    actions = [HostAction(0, "aes_load", {"chain": chain is not None}),
               HostAction(len(schedule), "aes_unload", {})]
    if variant == 256:
        actions.append(HostAction(reload_pos, "aes_load_keys",
                                  {"env_key": "key_rows2"}))
    return KernelProgram(
        name=f"aes-{variant}-{direction}" + (f"-{chain}" if chain else ""),
        commands=commands, functions=functions, schedule=schedule,
        host_actions=actions, block_width=BLOCK_WIDTH)


# ---------------------------------------------------------------------------
# Host actions
# ---------------------------------------------------------------------------

# Multiplying a 16-column value by this repeats it in all 16 tiles.
_EVERY_TILE = sum(1 << 16 * t for t in range(16))


def key_rows(round_keys: list[bytes]) -> list[int]:
    """Round-key plane rows in load order, each key replicated into all
    16 tiles: what ``aes_load_keys`` writes to the key region."""
    planes = hostio.aes_plane_rows(round_keys)     # key r in tile r
    return [(plane >> 16 * r & 0xFFFF) * _EVERY_TILE
            for r in range(len(round_keys)) for plane in planes]


# The mask rows are contiguous: tmask then srmask.
_MASK_FIRST = AES_LAYOUT.row("tmask", 0)
_MASK_ROWS = [value for _, value in sorted(mask_values().items())]


@host_action("aes_load_keys")
def _load_keys(sub, env, env_key="key_rows"):
    # The rows replicated per lane count are cached in the env's
    # ``lane_key_rows``, which every run of one call shares.
    cache = env.setdefault("lane_key_rows", {})
    rows = cache.get((env_key, sub.lanes))
    if rows is None:
        rows = cache[env_key, sub.lanes] = [sub.replicate(value)
                                            for value in env[env_key]]
    sub.write_rows(AES_LAYOUT.row("keys", 0), rows)


@host_action("aes_load")
def _load(sub, env, chain=False):
    if len(env["blocks"]) > 16 * sub.lanes:
        raise ValueError(f"{len(env['blocks'])} blocks for "
                         f"{16 * sub.lanes} tiles")
    sub.write_rows(_MASK_FIRST, [sub.replicate(v) for v in _MASK_ROWS])
    _load_keys(sub, env)
    sub.write_rows(_STAGE[0], hostio.aes_stage_rows(env["blocks"]))
    if chain:
        sub.write_rows(_CHAIN[0], hostio.aes_plane_rows(env["chain_blocks"]))


@host_action("aes_unload")
def _unload(sub, env):
    rows = [sub.read_row(r) for r in _STAGE]
    env["out_blocks"] = hostio.aes_unstage_rows(rows, len(env["blocks"]))
