"""Keccak-f[1600] and the SHA3 sponge lowered onto the fabric.

Lane-per-row layout: lane ``A[x,y]`` lives in row ``5y + x``, packed as
four 64-bit segments so four independent states run side by side
(block width 64 keeps every shift lane-confined), packed and read only
here.  Rows:

* 0..24    state lanes
* 25..31   theta parity lanes / rotation work rows (chi reuses them)
* 32..55   the 24 round constants, walked by a +1 stride rule in iota
* 56..73   staged message lanes for absorption (up to the SHA3-224 rate)
* 74       HMAC pad constant (ipad or opad pattern)

The permutation round is one fixed command stream: pi emits no commands
at all — the rho rotations simply deposit each lane at its permuted
row by walking the permutation cycle backwards — and chi then runs in
place with two saved lanes per group.

Staging: :func:`stage` takes 1..4 messages, one per sponge lane, and
returns the sponge's runs, one (validated program, fresh env) pair per
rate block, to run in order on one subarray.  Each run loads one block
and absorbs it, so no program depends on the message length, only on
the output size and on whether the run is keyed, first or last.  The
first run also clears the state and stages the constant rows, and the
last one's ``sha3_read_state`` leaves one digest per sponge lane under
:data:`~pimcrypt.controller.OUTPUT`.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import repeat

from ..controller import (OUTPUT, Controller, HostAction, Invocation,
                          KernelProgram, StrideRule, host_action)
from ..fabric import COLS, LaneRows
from ..isa import CommandWord, LogicKind
from .layout import (LayoutMap, _check_flags, _logic, _shift_into,
                     pack_functions)

__all__ = ["SHA3_LAYOUT", "SHA3_LANES", "RATE_BYTES", "rate", "stage",
           "build_sha3_program", "gen_theta", "gen_rho_pi", "gen_pi",
           "gen_chi", "gen_iota", "gen_add_state", "pad_sha3"]

SHA3_LAYOUT = LayoutMap({
    "lanes": (0, 25),
    "temps": (25, 7),
    "rc": (32, 24),
    "stage": (56, 18),
    "pad": (74, 1),
})

BLOCK_WIDTH = 64
# Sponges side by side: one per 64-bit segment of a row.
SHA3_LANES = COLS // BLOCK_WIDTH

RATE_BYTES = {224: 144, 256: 136, 384: 104, 512: 72}


def rate(bits: int) -> int:
    """The rate in bytes of SHA3-``bits``; ``ValueError`` for any other
    output size."""
    if type(bits) is not int or bits not in RATE_BYTES:
        raise ValueError(f"SHA3 output size must be one of "
                         f"{sorted(RATE_BYTES)} bits, got {bits!r}")
    return RATE_BYTES[bits]

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

_TEMP = list(SHA3_LAYOUT.span("temps"))
_RC0 = SHA3_LAYOUT.row("rc", 0)
_STAGE0 = SHA3_LAYOUT.row("stage", 0)
_PAD = SHA3_LAYOUT.row("pad")


def _row(x: int, y: int) -> int:
    return 5 * y + x


def _rot_into(src: int, dst: int, s: int, w1: int, w2: int) -> list[CommandWord]:
    """dst = src rotated left (toward higher z) by s within each lane."""
    return (_shift_into(src, s, w1, right=True) + _shift_into(src, 64 - s, w2)
            + _logic(w1, LogicKind.OR, w2, dst))


def gen_theta() -> list[CommandWord]:
    c = _TEMP[:5]
    w1, w2 = _TEMP[5], _TEMP[6]
    cmds: list[CommandWord] = []
    for x in range(5):
        cmds += [CommandWord.rd_row(_row(x, 0)), CommandWord.wr_row(c[x])]
        for y in range(1, 5):
            cmds += _logic(c[x], LogicKind.XOR, _row(x, y), c[x])
    for x in range(5):
        cmds += _rot_into(c[(x + 1) % 5], w1, 1, w1, w2)
        cmds += _logic(w1, LogicKind.XOR, c[(x - 1) % 5], w1)
        for y in range(5):
            cmds += _logic(_row(x, y), LogicKind.XOR, w1, _row(x, y))
    return cmds


def gen_pi() -> tuple[list[CommandWord], dict[tuple[int, int], tuple[int, int]]]:
    """Pure renaming: zero commands plus the position map.

    Lane ``(x, y)`` lands at ``(y, (2x + 3y) mod 5)``; the rotation pass
    uses the map to pick its destination rows, so the permutation itself
    never costs a cycle.
    """
    mapping = {(x, y): (y, (2 * x + 3 * y) % 5)
               for x in range(5) for y in range(5)}
    return [], mapping


def _pi_cycle() -> list[tuple[int, int]]:
    """The single 24-cycle pi traces over the non-origin lanes."""
    _, pi = gen_pi()
    cycle = [(1, 0)]
    while True:
        nxt = pi[cycle[-1]]
        if nxt == cycle[0]:
            return cycle
        cycle.append(nxt)


def gen_rho_pi() -> list[CommandWord]:
    """Rotate every lane and deposit it at its permuted position.

    Walking the permutation cycle backwards lets each write land in a
    row whose old value was already consumed; one temp row closes the
    cycle.  Lane (0, 0) is a fixed point with zero rotation.
    """
    w1, w2, hold = _TEMP[0], _TEMP[1], _TEMP[2]
    cycle = _pi_cycle()
    last = cycle[-1]
    cmds = _rot_into(_row(*last), hold, _ROT[last[0]][last[1]], w1, w2)
    for i in range(len(cycle) - 2, -1, -1):
        x, y = cycle[i]
        cmds += _rot_into(_row(x, y), _row(*cycle[i + 1]),
                          _ROT[x][y], w1, w2)
    cmds += [CommandWord.rd_row(hold), CommandWord.wr_row(_row(*cycle[0]))]
    return cmds


def gen_chi() -> list[CommandWord]:
    """In-place chi: two saved lanes per five-lane group cover the wrap."""
    t0, t1, t = _TEMP[3], _TEMP[4], _TEMP[5]
    cmds: list[CommandWord] = []
    for y in range(5):
        cmds += [CommandWord.rd_row(_row(0, y)), CommandWord.wr_row(t0),
                 CommandWord.rd_row(_row(1, y)), CommandWord.wr_row(t1)]
        saved = {0: t0, 1: t1}
        for x in range(5):
            b1 = saved.get((x + 1) % 5, _row((x + 1) % 5, y))
            b2 = saved.get((x + 2) % 5, _row((x + 2) % 5, y))
            cmds += [CommandWord.act_row(b1),
                     CommandWord.logic_op(b1, LogicKind.NOT),
                     CommandWord.wr_row(t)]
            cmds += _logic(t, LogicKind.AND, b2, t)
            cmds += _logic(t, LogicKind.XOR, saved.get(x, _row(x, y)),
                           _row(x, y))
    return cmds


def gen_iota() -> tuple[list[CommandWord], list[StrideRule]]:
    cmds = _logic(_row(0, 0), LogicKind.XOR, _RC0, _row(0, 0))
    return cmds, [StrideRule(1, 1)]


def gen_add_state(lanes: int) -> list[CommandWord]:
    cmds = []
    for i in range(lanes):
        cmds += _logic(i, LogicKind.XOR, _STAGE0 + i, i)
    return cmds


def gen_key_xor_pad(lanes: int) -> list[CommandWord]:
    cmds = []
    for i in range(lanes):
        cmds += _logic(_STAGE0 + i, LogicKind.XOR, _PAD, _STAGE0 + i)
    return cmds


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

def pad_sha3(msg: bytes, rate: int) -> bytes:
    pad_len = -len(msg) % rate or rate
    padded = bytearray(msg) + bytearray(pad_len)
    padded[len(msg)] ^= 0x06
    padded[-1] ^= 0x80
    return bytes(padded)


@lru_cache(maxsize=None)
def _permute_window() -> tuple[tuple[CommandWord, ...],
                               tuple[StrideRule, ...]]:
    """StatePermute's commands and stride rules, which every SHA3
    program shares: generated once, not once per program."""
    theta, rho, chi = gen_theta(), gen_rho_pi(), gen_chi()
    iota, iota_strides = gen_iota()
    iota_off = len(theta) + len(rho) + len(chi)
    return (tuple(theta + rho + chi + iota),
            tuple(StrideRule(iota_off + s.offset, s.increment)
                  for s in iota_strides))


def build_sha3_program(bits: int, key_prep: bool = False, first: bool = True,
                       final: bool = True) -> KernelProgram:
    """Absorb one staged rate-block: load it, XOR the pad-constant row
    into it if ``key_prep`` (the HMAC key preparation), add it into the
    state and permute.

    A sponge of n blocks is n runs on one subarray, which keeps the state
    rows between them: ``first`` clears the state and stages the
    constant rows before the block loads, and ``final`` reads the state
    out after the permutation.  ``ValueError`` unless ``bits`` is a SHA3
    output size and every flag a bool.
    """
    _check_flags(key_prep=key_prep, first=first, final=final)
    rate_lanes = rate(bits) // 8
    windows = {
        "StatePermute": _permute_window(),
        "AddState": (gen_add_state(rate_lanes), ()),
    }
    schedule = [Invocation("AddState"), Invocation("StatePermute", 24, 0)]
    if key_prep:
        windows["KeyXorPad"] = (gen_key_xor_pad(rate_lanes), ())
        schedule.insert(0, Invocation("KeyXorPad"))
    commands, functions = pack_functions(windows)

    actions = [HostAction(0, "sha3_load_block", {})]
    if first:
        actions.insert(0, HostAction(0, "sha3_init", {}))
    if final:
        actions.append(HostAction(len(schedule), "sha3_read_state",
                                  {"bits": bits}))
    return KernelProgram(
        name=f"sha3-{bits}" + "-keyed" * key_prep + "-first" * first
        + "-final" * final,
        commands=commands, functions=functions, schedule=schedule,
        host_actions=actions, block_width=BLOCK_WIDTH)


@lru_cache(maxsize=None)
def _controller(bits: int, key_prep: bool, first: bool,
                final: bool) -> Controller:
    return Controller(build_sha3_program(bits, key_prep, first, final))


def stage(bits: int, msgs: list[bytes],
          pad_byte: int | None = None) -> list[tuple[Controller, dict]]:
    """The runs that absorb 1..4 messages, one per sponge lane; unused
    lanes repeat the first.

    One (validated program, fresh env) pair per rate block, in order:
    run them on one subarray, and the last leaves one digest per sponge
    lane under :data:`~pimcrypt.controller.OUTPUT`.  Each message is any
    bytes-like object (``TypeError`` otherwise), and the messages must
    pad to equal block counts (``ValueError`` otherwise).  ``pad_byte``,
    ``None`` or an int 0..255 (``ValueError`` otherwise), selects the
    keyed program for the first block, which XORs that byte into every
    byte of it (HMAC's ipad or opad).
    """
    r = rate(bits)
    if pad_byte is not None and (type(pad_byte) is not int
                                 or not 0 <= pad_byte <= 0xFF):
        raise ValueError(f"pad_byte must be None or an int 0..255, "
                         f"got {pad_byte!r}")
    if not 1 <= len(msgs) <= SHA3_LANES:
        raise ValueError(f"1..{SHA3_LANES} messages per run")
    padded = [pad_sha3(bytes(memoryview(m)), r) for m in msgs]
    if len(set(map(len, padded))) != 1:
        raise ValueError("batched messages must pad to equal block counts")
    blocks = _stage_blocks(padded, r)
    last = len(blocks) - 1
    # Each run loads its env's first block; the first run's env holds
    # every block of the sponge, as sha3_init is where a tracer sees it.
    runs = [(_controller(bits, pad_byte is not None and i == 0, i == 0,
                         i == last), {"blocks": blocks if i == 0 else [row]})
            for i, row in enumerate(blocks)]
    if pad_byte is not None:
        runs[0][1]["pad_byte"] = pad_byte
    return runs


# ---------------------------------------------------------------------------
# Host actions
# ---------------------------------------------------------------------------

def _stage_blocks(msgs: list[bytes], rate: int) -> list[list[int]]:
    """The rows of each ``rate``-byte block of 1..4 messages of one
    length: 64-bit little-endian word ``w`` of ``msgs[s]`` in segment
    ``s`` of row ``w``, unused segments repeating the first message."""
    msgs = msgs + msgs[:1] * (SHA3_LANES - len(msgs))
    data = bytearray(SHA3_LANES * len(msgs[0]))
    words = memoryview(data).cast("Q")
    for s, msg in enumerate(msgs):      # one C-level copy per segment
        words[s::SHA3_LANES] = memoryview(msg).cast("Q")
    rows = list(map(int.from_bytes, struct.unpack(
        f"{COLS // 8}s" * (len(data) * 8 // COLS), data), repeat("little")))
    return [rows[i:i + rate // 8] for i in range(0, len(rows), rate // 8)]


# The round-constant rows, each constant in every segment.
_RC_ROWS = LaneRows(_stage_blocks(
    [b"".join(rc.to_bytes(8, "little") for rc in _RC)], 8 * len(_RC))[0])


@lru_cache(maxsize=None)
def _pad_row(pad_byte: int) -> int:
    """The HMAC pad row: ``pad_byte`` in every byte of every segment."""
    return _stage_blocks([bytes([pad_byte]) * 8], 8)[0][0]


@host_action("sha3_init")
def _init(sub, env):
    sub.write_rows(0, [0] * 25)
    sub.write_rows(_RC0, _RC_ROWS)
    sub.write_row(_PAD, _pad_row(env.get("pad_byte", 0)))


@host_action("sha3_load_block")
def _load_block(sub, env):
    sub.write_rows(_STAGE0, env["blocks"][0])


@host_action("sha3_read_state")
def _read_state(sub, env, bits):
    # Segment s of subarray lane k is sponge 4k + s; only the first
    # ceil(bits / 64) rows hold digest words.
    data = b"".join(r.to_bytes(sub.lanes * COLS // 8, "little")
                    for r in sub.read_rows(0, -(-bits // 64)))
    words, sponges = memoryview(data).cast("Q"), SHA3_LANES * sub.lanes
    env[OUTPUT] = [bytes(words[s::sponges])[:bits // 8]
                   for s in range(sponges)]
