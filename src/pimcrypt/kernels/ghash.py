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

On a subarray with lanes every lane runs its own GHASH in lockstep:
:func:`stage` takes one hash key and one block list per lane and returns
the run's validated program and a fresh env, and ``ghash_unload`` leaves
one digest per lane under :data:`~pimcrypt.controller.OUTPUT`; a
message's passes are converted once (:func:`message_rows`).  The fold
program (:func:`stage_fold`) runs on one lane and XORs staged digests
into the digest row: the lane digests of one message split across
lanes, and for a GCM tag also E(J0).
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain, islice

from ..controller import (OUTPUT, Controller, FunctionDescriptor, HostAction,
                          Invocation, KernelProgram, StrideRule, host_action)
from ..fabric import EXT_ROW, LaneRows, row_to_lanes
from ..isa import CommandWord, LogicKind
from .layout import (LayoutMap, _check_flags, _logic, _shift_into, as_bytes,
                     pack_functions)

__all__ = ["GHASH_LAYOUT", "BLOCKS_PER_PASS", "controller", "fold_controller",
           "message_rows", "stage", "stage_fold", "build_ghash_program",
           "build_ghash_fold_program", "gen_byte_arrange", "gen_byte_aligning",
           "gen_galois_mult", "mask_values"]

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
# One queue row per block a pass multiplies in.
BLOCKS_PER_PASS = len(_QUEUE)
_STAGE = GHASH_LAYOUT.span("stage")
_STAGE0 = _STAGE[0]
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


def build_ghash_program(nblocks: int, final: bool = True) -> KernelProgram:
    """Accumulate ``nblocks`` (1..``BLOCKS_PER_PASS``) staged blocks into Z.

    ``final`` appends the closing fold and reads the digests out; omit
    it when more passes follow (the unreduced product row then carries
    the state).  ``ValueError`` unless ``nblocks`` is an int in range
    and ``final`` a bool.
    """
    if type(nblocks) is not int or not 1 <= nblocks <= BLOCKS_PER_PASS:
        raise ValueError(f"nblocks must be an int 1..{BLOCKS_PER_PASS}, "
                         f"got {nblocks!r}")
    _check_flags(final=final)
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
    actions = [HostAction(0, "ghash_load", {"nblocks": nblocks})]
    if final:
        schedule.append(Invocation("Reduce"))
        actions.append(HostAction(len(schedule), "ghash_unload", {}))
    return KernelProgram(
        name=f"ghash-{nblocks}blk" + ("" if final else "-cont"),
        commands=commands, functions=functions, schedule=schedule,
        host_actions=actions, block_width=BLOCK_WIDTH)


def build_ghash_fold_program(nrows: int) -> KernelProgram:
    """XOR ``nrows`` (2..32) staged rows into the digest row.

    One lane runs it: the host stages the digests of the lanes one
    message was split across, and for a GCM tag also E(J0), one per
    stage row.  ``ValueError`` unless ``nrows`` is an int in range.
    """
    if type(nrows) is not int or not 2 <= nrows <= len(_STAGE):
        raise ValueError(f"nrows must be an int 2..{len(_STAGE)}, "
                         f"got {nrows!r}")
    cmds = _logic(_STAGE[0], LogicKind.XOR, _STAGE[1], _Z)
    for row in _STAGE[2:nrows]:
        cmds += _logic(_Z, LogicKind.XOR, row, _Z)
    return KernelProgram(
        name=f"ghash-fold-{nrows}", commands=cmds,
        functions={"Fold": FunctionDescriptor("Fold", 0, len(cmds))},
        schedule=[Invocation("Fold")],
        host_actions=[HostAction(0, "ghash_fold_load", {}),
                      HostAction(1, "ghash_unload", {})],
        block_width=BLOCK_WIDTH)


# Typed, so that 1 never finds True's program unchecked.
@lru_cache(maxsize=None, typed=True)
def controller(nblocks: int, final: bool, /) -> Controller:
    """The validated program of a pass of ``nblocks`` blocks per lane, one
    object per shape (``first`` is an env flag); :func:`stage` picks its
    runs' programs here.  ``ValueError`` as :func:`build_ghash_program`."""
    return Controller(build_ghash_program(nblocks, final))


@lru_cache(maxsize=None, typed=True)
def fold_controller(nrows: int, /) -> Controller:
    """The validated fold of ``nrows`` rows, which :func:`stage_fold`
    picks.  ``ValueError`` as :func:`build_ghash_fold_program`."""
    return Controller(build_ghash_fold_program(nrows))


def stage(hash_keys: list[bytes], blocks: list[list[bytes]], first: bool,
          final: bool, rows: tuple | None = None) -> tuple[Controller, dict]:
    """One pass of up to ``BLOCKS_PER_PASS`` blocks per lane, lane k with
    hash key ``hash_keys[k]`` and blocks ``blocks[k]``: ``first`` clears
    the running product, ``final`` reduces it and reads out each lane's
    digest, writing ``rows`` (from :func:`message_rows`) if given, else
    converting its keys and blocks.  ``ValueError`` unless there is at
    least one lane, one hash key per lane, every lane has as many blocks,
    every hash key and block is 16 bytes and both flags are bools;
    ``TypeError`` for a key or block that is not bytes-like."""
    _check_flags(first=first, final=final)
    if not blocks or len(set(map(len, blocks))) != 1:
        raise ValueError(f"block lists of lengths {[*map(len, blocks)]}: "
                         f"want one or more lanes of equal length")
    if len(hash_keys) != len(blocks):
        raise ValueError(f"{len(hash_keys)} hash keys for {len(blocks)} "
                         f"block lists")
    hash_keys = as_bytes("GHASH hash key", hash_keys)
    blocks = [as_bytes("GHASH block", lane) for lane in blocks]
    return (controller(len(blocks[0]), final),
            {"hash_keys": hash_keys, "ghash_first": first, "xblocks": blocks,
             "ghash_rows": rows})


def stage_fold(blocks: list[bytes]) -> tuple[Controller, dict]:
    """XOR 2..32 ``blocks`` on one lane: the GHASH bit order permutes a
    block's bits, so the XOR of the rows is the row of the blocks' XOR.
    ``ValueError`` unless every block is 16 bytes, ``TypeError`` unless
    every block is bytes-like."""
    blocks = as_bytes("GHASH block", blocks)
    return fold_controller(len(blocks)), {"fold_blocks": blocks}


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


def quarter_rows(lane_blocks: list[list[bytes]], nblocks: int) -> list[int]:
    """The stage rows of blocks 0..``nblocks`` - 1 of every lane: lane k
    holds block j of ``lane_blocks[k]`` byte-reversed, one 32-column
    quarter per row, four rows per block.

    Lane k's 256 columns of block j's row are ``block_to_row`` of the
    reversed block, which read big-endian is the block's own bit-reversed
    bytes under 16 zero bytes.  So the rows of all blocks come from one
    big-endian byte string, the lanes of each block highest first.
    """
    lanes, pad = len(lane_blocks), bytes(16)
    data = (pad + pad.join(islice(chain.from_iterable(zip(*lane_blocks[::-1])),
                                  nblocks * lanes))
            ).translate(_BIT_REVERSED)
    quarters, step = _QUARTERS.for_lanes(lanes), 32 * lanes
    return [row & quarter for i in range(0, len(data), step)
            for row in (int.from_bytes(data[i:i + step], "big"),)
            for quarter in quarters]


def message_rows(lanes: list[list[bytes]]):
    """``rows(hash_keys, lo, hi)``: :func:`stage`'s ``rows`` for steps
    ``lo`` .. ``hi`` - 1 of a message on lanes (``lanes[k]``: lane k's
    blocks), converting each block and hash-key list once.  Lane k of a
    hash-key row is ``block_to_row`` of key k: 32 little-endian bytes."""
    quarters = quarter_rows(lanes, len(lanes[0]))
    key_row = cache(lambda keys: int.from_bytes(
        bytes(16).join(keys).translate(_BIT_REVERSED), "little"))
    return lambda hash_keys, lo, hi: (key_row(tuple(hash_keys)),
                                      quarters[4 * lo:4 * hi])


# The mask rows are contiguous: fold, swap, then zero.
_MASK_ROWS = LaneRows(value for _, value in sorted(mask_values().items()))
_QUARTERS = LaneRows(((1 << 32) - 1) << (32 * k) for k in range(4))


@host_action("ghash_load")
def _load(sub, env, nblocks):
    # Lane k hashes xblocks[k] with hash_keys[k]; lanes past the lists
    # run on zero rows, as AES tiles past the blocks do.
    keys, lane_blocks = env["hash_keys"], env["xblocks"]
    if not len(keys) == len(lane_blocks) <= sub.lanes:
        raise ValueError(f"{len(keys)} hash keys and {len(lane_blocks)} "
                         f"block lists for {sub.lanes} lanes")
    hash_row, rows = (env.get("ghash_rows")
                      or message_rows(lane_blocks)(keys, 0, nblocks))
    sub.write_rows(_MLO, _MASK_ROWS)
    sub.write_row(_H, hash_row)
    sub.write_rows(_STAGE0, rows)
    if env["ghash_first"]:
        sub.write_rows(_P, [0, 0])       # P and Z


@host_action("ghash_fold_load")
def _fold_load(sub, env):
    sub.write_rows(_STAGE0, [block_to_row(b) for b in env["fold_blocks"]])


@host_action("ghash_unload")
def _unload(sub, env):
    env[OUTPUT] = [row_to_block(value) for value
                   in row_to_lanes(sub.read_row(_Z), sub.lanes)]
