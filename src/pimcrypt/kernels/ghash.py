"""GHASH lowered onto the fabric: bit-serial GF(2^128) multiply-accumulate.

One 256-column block per subarray (block width 256), eight 16-byte
message blocks queued per pass.  Column ``i`` carries the GHASH bit
``x_i`` (leftmost bit of the byte string at column 0), so stepping the
multiplier is a plain right shift and the unreduced product grows into
columns 128..254 where a two-stage shift-and-fold brings it back.

The host stages each 16-byte block byte-reversed and split into four
32-column quarters (mirroring how a narrow DMA engine would deliver
it); the fabric merges the quarters and undoes the byte reversal with
masked half-swap shifts.

The accumulator crossing pass boundaries is the *unreduced* product
row: each block-setup step first folds it into Z, so a message longer
than eight blocks just runs more passes and only the final pass
appends the closing fold.
"""

from __future__ import annotations

from ..controller import (FunctionDescriptor, HostAction, Invocation,
                          KernelProgram, StrideRule, host_action)
from ..fabric import EXT_ROW
from ..isa import CommandWord, LogicKind
from .layout import LayoutMap, _logic, pack_functions

__all__ = ["GHASH_LAYOUT", "build_ghash_program", "gen_byte_arrange",
           "gen_byte_aligning", "gen_galois_mult", "mask_values"]

GHASH_LAYOUT = LayoutMap({
    "mult": (0, 1),        # V: shifted copy of H
    "product": (1, 1),     # P: unreduced accumulator, bits 0..254
    "digest": (2, 1),      # Z: reduced accumulator
    "hashkey": (3, 1),     # H
    "queue": (8, 8),       # one merged 16-byte block per row
    "stage": (16, 32),     # four 32-column quarters per block
    "fold": (48, 2),       # low / high halves for reduction
    "swap": (50, 8),       # half-swap masks for byte reversal
    "zero": (58, 1),
    "scratch": (59, 4),
})

BLOCK_WIDTH = 256

_V = GHASH_LAYOUT.row("mult")
_P = GHASH_LAYOUT.row("product")
_Z = GHASH_LAYOUT.row("digest")
_H = GHASH_LAYOUT.row("hashkey")
_QUEUE = GHASH_LAYOUT.span("queue")
_STAGE0 = GHASH_LAYOUT.row("stage", 0)
_MLO, _MHI = GHASH_LAYOUT.span("fold")
_SWAP0 = GHASH_LAYOUT.row("swap", 0)
_ZERO = GHASH_LAYOUT.row("zero")
_T, _U, _ACC, _M = GHASH_LAYOUT.span("scratch")

# x^128 = x^7 + x^2 + x + 1 in bit-index space: column 128+k folds onto
# columns k, k+1, k+2, k+7.
_FOLD_SHIFTS = (128, 127, 126, 121)
_SWAP_CHUNKS = (64, 32, 16, 8)


def mask_values() -> dict[int, int]:
    lo = (1 << 128) - 1
    masks = {_MLO: lo, _MHI: lo << 128, _ZERO: 0}
    for i, chunk in enumerate(_SWAP_CHUNKS):
        a = sum(1 << c for c in range(128) if c % (2 * chunk) < chunk)
        masks[_SWAP0 + 2 * i] = a
        masks[_SWAP0 + 2 * i + 1] = lo ^ a
    return masks


def _shift_into(src: int, count: int, dst: int,
                right: bool = False) -> list[CommandWord]:
    return [CommandWord.rd_row(src), CommandWord.shift(count, right=right),
            CommandWord.wr_row(dst)]


def _gen_reduce() -> list[CommandWord]:
    """Z = fold(P): two fold passes clear every bit above column 127."""
    cmds = _logic(_P, LogicKind.AND, _MLO, _ACC)
    cmds += _logic(_P, LogicKind.AND, _MHI, _T)
    for s in _FOLD_SHIFTS:
        cmds += _shift_into(_T, s, _U)
        cmds += _logic(_ACC, LogicKind.XOR, _U, _ACC)
    cmds += _logic(_ACC, LogicKind.AND, _MHI, _T)
    cmds += _logic(_ACC, LogicKind.AND, _MLO, _ACC)
    for s in _FOLD_SHIFTS:
        cmds += _shift_into(_T, s, _U)
        cmds += _logic(_ACC, LogicKind.XOR, _U, _ACC)
    cmds += [CommandWord.rd_row(_ACC), CommandWord.wr_row(_Z)]
    return cmds


def gen_byte_arrange() -> list[CommandWord]:
    """Merge each block's four staged quarters into its queue row."""
    cmds: list[CommandWord] = []
    for j, qrow in enumerate(_QUEUE):
        q = [_STAGE0 + 4 * j + k for k in range(4)]
        cmds += _logic(q[0], LogicKind.OR, q[1], _T)
        cmds += _logic(_T, LogicKind.OR, q[2], _T)
        cmds += _logic(_T, LogicKind.OR, q[3], qrow)
    return cmds


def gen_byte_aligning() -> tuple[list[CommandWord], list[StrideRule]]:
    """Per-block setup: fold the carried product, un-reverse the block,
    broadcast W = Z xor X_j, and reset V and P for the multiply."""
    cmds = _gen_reduce()
    pick = len(cmds)
    cmds += [CommandWord.rd_row(_QUEUE[0]), CommandWord.wr_row(_T)]
    for i, chunk in enumerate(_SWAP_CHUNKS):
        ma, mb = _SWAP0 + 2 * i, _SWAP0 + 2 * i + 1
        cmds += _logic(_T, LogicKind.AND, ma, _U)
        cmds += _shift_into(_U, chunk, _U, right=True)
        cmds += _logic(_T, LogicKind.AND, mb, _ACC)
        cmds += _shift_into(_ACC, chunk, _ACC)
        cmds += _logic(_U, LogicKind.OR, _ACC, _T)
    cmds += _logic(_Z, LogicKind.XOR, _T, EXT_ROW)
    cmds += [CommandWord.rd_row(_H), CommandWord.wr_row(_V)]
    cmds += [CommandWord.rd_row(_ZERO), CommandWord.wr_row(_P)]
    return cmds, [StrideRule(pick, 1)]


def gen_galois_mult() -> list[CommandWord]:
    """One multiplier bit: P ^= V if W[0], then step V right, W left."""
    cmds = [CommandWord.ext_bit(0, BLOCK_WIDTH), CommandWord.wr_row(_M)]
    cmds += _logic(_V, LogicKind.AND, _M, _U)
    cmds += _logic(_P, LogicKind.XOR, _U, _P)
    cmds += _shift_into(_V, 1, _V, right=True)
    cmds += _shift_into(EXT_ROW, 1, EXT_ROW)
    return cmds


def build_ghash_program(nblocks: int = 8, final: bool = True) -> KernelProgram:
    """Accumulate ``nblocks`` (1..8) staged blocks into the digest row.

    ``final`` appends the closing fold; omit it when more passes follow
    (the unreduced product row then carries the state).
    """
    if not 1 <= nblocks <= len(_QUEUE):
        raise ValueError(f"nblocks must be 1..{len(_QUEUE)}, got {nblocks}")
    aligning, strides = gen_byte_aligning()
    reduce_cmds = _gen_reduce()
    commands, functions = pack_functions({
        "ByteArrange": (gen_byte_arrange(), ()),
        "ByteAligning": (aligning, strides),
        "GaloisMult": (gen_galois_mult(), ()),
    })
    # The closing fold is the aligning function's own reduction prefix:
    # an aliased window costs no command-array storage.
    functions["Reduce"] = FunctionDescriptor(
        "Reduce", functions["ByteAligning"].base, len(reduce_cmds))

    schedule: list[Invocation] = [Invocation("ByteArrange")]
    for j in range(nblocks):
        schedule.append(Invocation("ByteAligning", 1, j))
        schedule.append(Invocation("GaloisMult", 128, 0))
    if final:
        schedule.append(Invocation("Reduce"))
    actions = [HostAction(0, "ghash_load", {"nblocks": nblocks}),
               HostAction(len(schedule), "ghash_unload", {})]
    return KernelProgram(
        name=f"ghash-{nblocks}blk" + ("" if final else "-cont"),
        commands=commands, functions=functions, schedule=schedule,
        host_actions=actions, block_width=BLOCK_WIDTH)


# ---------------------------------------------------------------------------
# Host I/O
# ---------------------------------------------------------------------------

# Each byte value with its bit order reversed.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def block_to_row(block: bytes) -> int:
    """GHASH bit x_i (MSB-first over the byte string) at column i."""
    return int.from_bytes(block.translate(_BIT_REVERSED), "little")


def row_to_block(value: int) -> bytes:
    low = value & ((1 << 128) - 1)
    return low.to_bytes(16, "little").translate(_BIT_REVERSED)


def quarter_rows(block: bytes) -> list[int]:
    """Stage a block byte-reversed, one 32-column quarter per row."""
    row = block_to_row(block[::-1])
    return [row & (((1 << 32) - 1) << (32 * k)) for k in range(4)]


# The mask rows are contiguous: fold, swap, then zero.
_MASK_ROWS = [value for _, value in sorted(mask_values().items())]


@host_action("ghash_load")
def _load(sub, env, nblocks):
    sub.write_rows(_MLO, _MASK_ROWS)
    sub.write_row(_H, block_to_row(env["hash_key"]))
    sub.write_rows(_STAGE0, [value for j in range(nblocks)
                             for value in quarter_rows(env["xblocks"][j])])
    if env.pop("ghash_first", False):
        sub.write_rows(_P, [0, 0])       # P and Z


@host_action("ghash_unload")
def _unload(sub, env):
    env["digest_row"] = sub.read_row(_Z)
