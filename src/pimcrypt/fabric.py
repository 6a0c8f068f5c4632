"""Behavioral model of one compute-capable SRAM subarray.

The subarray is a 128 x 256 bit grid.  Logic happens on the sense-amp (SA)
latch, a 256-bit register with a one-bit shifter:

* ``rd_row``   latch <- grid[row]
* ``wr_row``   grid[row] <- latch
* ``shift``    latch shifted by ``count`` bit positions, zero filling,
  confined to the configured block width (bits never cross a segment
  boundary)
* ``act_row`` + ``logic_op``  dual-row activation: the pair computes
  AND/OR/XOR of two grid rows (or NOT of the activated row) into the latch
* ``ext_bit``  broadcasts one bit of the designated broadcast row (row 127)
  across every segment of the latch

An ``act_row`` must be immediately followed by a ``logic_op``; any other
pairing raises :class:`PendingActivation`.

Rows are stored as 256-bit Python ints with bit ``c`` holding column ``c``.
A *left* shift moves data toward column 0, a *right* shift toward column
255.  Cycle accounting is one cycle per command plus one per shifted bit
position.

A subarray with ``lanes`` K > 1 holds K such subarrays side by side, as
the controller's one command stream drives every compute subarray at
once: each row is a K x 256-bit int and lane ``k`` owns columns
``256k .. 256k+255``.  Every supported block width divides 256
(:func:`supported_width`, checked when a subarray is built and when the
controller loads a program), so a lane boundary is a segment boundary;
segment-confined shifts, ``ext_bit`` and NOT use their masks replicated
into every lane and act on each lane exactly as on a lone subarray.
Cycles count every lane: a command costs K times its single-subarray
cycles, so K lanes cost what K one-lane runs do.

Two engines execute commands.  :meth:`Subarray.execute` is the reference
interpreter: it decodes, checks and runs one command at a time, and
:meth:`Subarray.run` uses it for a plain command sequence.
:func:`compile_window` lowers a whole function window, once per distinct
window content, to straight-line Python over the row list; ``run`` given a
:class:`CompiledRun` executes every iteration of one invocation in a single
call.  Only windows the reference would run without error are compiled,
so both engines leave the same grid, latch and cycle count.  A window's
source is compiled once with its masks as names, and bound to
lane-replicated masks once per lane count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import CodeType
from typing import Callable

from .isa import BLOCK_WIDTHS, CommandWord, LogicKind, Opcode

__all__ = [
    "ROWS",
    "COLS",
    "EXT_ROW",
    "FabricError",
    "RowOutOfRange",
    "ColumnOutOfRange",
    "PendingActivation",
    "BlockWidthMismatch",
    "UnsupportedOption",
    "CycleCostModel",
    "supported_width",
    "TraceRecord",
    "CompiledWindow",
    "CompiledRun",
    "compile_window",
    "Subarray",
]

ROWS = 128
COLS = 256
EXT_ROW = 127

_ROW_MASK = (1 << COLS) - 1


class FabricError(Exception):
    """Base class for subarray execution failures."""


class RowOutOfRange(FabricError):
    pass


class ColumnOutOfRange(FabricError):
    pass


class PendingActivation(FabricError):
    """A dual-row activation was left dangling or a logic_op had none."""


class BlockWidthMismatch(FabricError):
    """ext_bit width code disagrees with the configured block width."""


class UnsupportedOption(FabricError):
    """Option nibble requests behavior the fabric does not implement."""


@dataclass(frozen=True)
class CycleCostModel:
    """Cycles per command (at least 1) and per 1-bit shift step."""
    cycles_per_command: int = 1
    cycles_per_shift_step: int = 1

    def __post_init__(self):
        if (type(self.cycles_per_command) is not int
                or self.cycles_per_command < 1):
            raise ValueError(f"cycles per command must be an int >= 1, "
                             f"got {self.cycles_per_command!r}")
        if (type(self.cycles_per_shift_step) is not int
                or self.cycles_per_shift_step < 0):
            raise ValueError(f"cycles per shift step must be an int >= 0, "
                             f"got {self.cycles_per_shift_step!r}")


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    word: int
    text: str
    cycles: int
    latch: int


# Cache of segment-confinement masks, keyed by (width, count, right).
_SHIFT_MASKS: dict[tuple[int, int, bool], int] = {}


def _shift_mask(width: int, count: int, right: bool) -> int:
    key = (width, count, right)
    mask = _SHIFT_MASKS.get(key)
    if mask is None:
        keep = 0
        for c in range(COLS):
            pos = c % width
            if (pos >= count) if right else (pos < width - count):
                keep |= 1 << c
        _SHIFT_MASKS[key] = mask = keep
    return mask


def supported_width(width) -> bool:
    """Whether a subarray can be configured for block width ``width``:
    an int ext_bit width that divides the 256 columns."""
    return (type(width) is int and width in BLOCK_WIDTHS
            and COLS % width == 0)


def _lane_fill(lanes: int) -> int:
    """The int with bit ``256k`` set for every lane ``k``: multiplying a
    one-lane row value by it repeats the value in every lane."""
    return int.from_bytes((b"\x01" + bytes(COLS // 8 - 1)) * lanes, "little")


@lru_cache(maxsize=None)
def _lane_wide(value: int, lanes: int) -> int:
    """A one-lane mask repeated in every lane; shared by all windows."""
    return value * _lane_fill(lanes)


class Subarray:
    """One subarray, or ``lanes`` of them in lockstep: grid, SA latch,
    pending-activation state, cycle count."""

    __slots__ = ("grid", "sa_latch", "pending_row", "block_width",
                 "cycle_count", "cost_model", "lanes", "row_mask", "_fill")

    def __init__(self, block_width: int = 256,
                 cost_model: CycleCostModel = CycleCostModel(),
                 lanes: int = 1):
        if not supported_width(block_width):
            raise BlockWidthMismatch(f"unsupported block width {block_width}")
        if type(lanes) is not int or lanes < 1:
            raise ValueError(f"lanes must be a positive int, got {lanes!r}")
        self.lanes = lanes
        self._fill = _lane_fill(lanes)
        self.row_mask = _ROW_MASK * self._fill
        self.grid = [0] * ROWS
        self.sa_latch = 0
        self.pending_row: int | None = None
        self.block_width = block_width
        self.cycle_count = 0
        self.cost_model = cost_model

    # -- host port (zero fabric cycles, models the DMA path) -------------

    def write_row(self, row: int, value: int) -> None:
        if not 0 <= row < ROWS:
            raise RowOutOfRange(f"row {row}")
        if self.pending_row is not None:
            raise PendingActivation("host access during dual-row activation")
        self.grid[row] = value & self.row_mask

    def replicate(self, value: int) -> int:
        """A one-lane (256-column) row value repeated in every lane."""
        return (value & _ROW_MASK) * self._fill

    def read_row(self, row: int) -> int:
        if not 0 <= row < ROWS:
            raise RowOutOfRange(f"row {row}")
        return self.grid[row]

    def reset(self) -> None:
        self.grid = [0] * ROWS
        self.sa_latch = 0
        self.pending_row = None
        self.cycle_count = 0

    # -- command execution ------------------------------------------------

    def execute(self, cmd: CommandWord) -> int:
        """Execute one command in every lane; returns the cycles it
        consumed, summed over lanes."""
        op = cmd.opcode
        index = cmd.index
        option = cmd.option
        cost = self.cost_model.cycles_per_command

        if self.pending_row is not None and op is not Opcode.LOGIC_OP:
            raise PendingActivation(
                f"act_row {self.pending_row} not followed by logic_op")

        if op is Opcode.LOGIC_OP:
            if self.pending_row is None:
                raise PendingActivation("logic_op without preceding act_row")
            if option & 0b1001:
                raise UnsupportedOption(f"logic_op option {option:#06b}")
            src1 = self.grid[self.pending_row]
            kind = (option >> 1) & 0b11
            if kind == LogicKind.NOT:
                self.sa_latch = ~src1 & self.row_mask
            else:
                if index >= ROWS:
                    raise RowOutOfRange(f"logic_op row {index}")
                src2 = self.grid[index]
                if kind == LogicKind.AND:
                    self.sa_latch = src1 & src2
                elif kind == LogicKind.OR:
                    self.sa_latch = src1 | src2
                else:
                    self.sa_latch = src1 ^ src2
            self.pending_row = None

        elif op is Opcode.ACT_ROW:
            if option != 0b0001:
                raise UnsupportedOption(f"act_row option {option:#06b} not armed")
            if index >= ROWS:
                raise RowOutOfRange(f"act_row {index}")
            self.pending_row = index

        elif op is Opcode.RD_ROW:
            if option != 0b1000:
                raise UnsupportedOption("rd_row supports only the sa route")
            if index >= ROWS:
                raise RowOutOfRange(f"rd_row {index}")
            self.sa_latch = self.grid[index]

        elif op is Opcode.WR_ROW:
            if option & 0b0111:
                raise UnsupportedOption(f"wr_row option {option:#06b}")
            if not option & 0b1000:
                raise UnsupportedOption("wr_row data-bus route is host-only")
            if index >= ROWS:
                raise RowOutOfRange(f"wr_row {index}")
            self.grid[index] = self.sa_latch

        elif op is Opcode.SHIFT:
            if not option & 0b1000:
                raise UnsupportedOption("shift without valid flag")
            if option & 0b0001:
                raise UnsupportedOption(f"shift option {option:#06b}")
            width = self.block_width
            count = index
            if count:
                if count >= width:
                    # Every bit would cross its segment boundary.
                    self.sa_latch = 0
                else:  # right (toward column 255) or left
                    right = bool(option & 0b0100)
                    mask = _shift_mask(width, count, right) * self._fill
                    self.sa_latch = (self.sa_latch << count if right
                                     else self.sa_latch >> count) & mask
                cost += count * self.cost_model.cycles_per_shift_step

        else:  # EXT_BIT
            if option & 0b0001:
                raise UnsupportedOption(f"ext_bit option {option:#06b}")
            code = (option >> 1) & 0b111
            if code >= len(BLOCK_WIDTHS):
                raise BlockWidthMismatch(f"ext_bit width code {code:#05b}")
            width = BLOCK_WIDTHS[code]
            if width != self.block_width:
                raise BlockWidthMismatch(
                    f"ext_bit width {width} but fabric configured for "
                    f"{self.block_width}")
            if index >= COLS:
                raise ColumnOutOfRange(f"ext_bit column {index}")
            src = self.grid[EXT_ROW]
            latch = 0
            seg_fill = (1 << width) - 1
            offset = index % width
            for base in range(0, COLS * self.lanes, width):
                if (src >> (base + offset)) & 1:
                    latch |= seg_fill << base
            self.sa_latch = latch

        cost *= self.lanes
        self.cycle_count += cost
        return cost

    def run(self, cmds) -> int:
        """Execute a command sequence or a :class:`CompiledRun`; returns
        the cycles consumed."""
        if type(cmds) is CompiledRun:
            if cmds.lanes != self.lanes:
                raise ValueError(f"run bound for {cmds.lanes} lanes on a "
                                 f"{self.lanes}-lane subarray")
            window = cmds.window
            self.sa_latch = cmds.fn(self.grid, self.sa_latch,
                                    cmds.first, cmds.iterations)
            cost = self.cost_model
            cycles = cmds.iterations * self.lanes * (
                window.commands * cost.cycles_per_command
                + window.shift_steps * cost.cycles_per_shift_step)
            self.cycle_count += cycles
            return cycles
        total = 0
        for cmd in cmds:
            total += self.execute(cmd)
        return total

    def run_traced(self, cmds) -> list[TraceRecord]:
        from .isa import disassemble
        records = []
        for seq, cmd in enumerate(cmds):
            cycles = self.execute(cmd)
            records.append(TraceRecord(seq, cmd.encode(), disassemble([cmd]),
                                       cycles, self.sa_latch))
        return records


# ---------------------------------------------------------------------------
# Compiled execution
# ---------------------------------------------------------------------------

class CompiledWindow:
    """A function window lowered to Python.

    ``bind(lanes)`` returns ``fn(grid, latch, first, iterations)``, which
    runs global iterations ``first .. first + iterations - 1``
    (``iterations`` >= 1) on the row list of a ``lanes``-lane subarray and
    returns the final latch.  One iteration is ``commands`` commands
    shifting ``shift_steps`` bit positions in total.  ``code`` is compiled
    once; each lane count binds the one-lane ``masks`` (name, value)
    replicated into every lane.
    """

    __slots__ = ("code", "masks", "commands", "shift_steps", "_bound")

    def __init__(self, code: CodeType, masks: tuple[tuple[str, int], ...],
                 commands: int, shift_steps: int):
        self.code = code
        self.masks = masks
        self.commands = commands
        self.shift_steps = shift_steps
        self._bound: dict[int, Callable[[list, int, int, int], int]] = {}

    def bind(self, lanes: int) -> Callable[[list, int, int, int], int]:
        fn = self._bound.get(lanes)
        if fn is None:
            namespace = {name: _lane_wide(value, lanes)
                         for name, value in self.masks}
            exec(self.code, namespace)
            self._bound[lanes] = fn = namespace["window"]
        return fn


class CompiledRun:
    """One invocation of a compiled window, passed to :meth:`Subarray.run`.

    The subarray must have no pending activation, the block width the
    window was compiled for and ``lanes`` lanes.  ``len`` is the number
    of commands executed, counted in every lane.
    """

    __slots__ = ("window", "fn", "first", "iterations", "lanes")

    def __init__(self, window: CompiledWindow, first: int, iterations: int,
                 lanes: int = 1):
        self.window = window
        self.fn = window.bind(lanes)
        self.first = first
        self.iterations = iterations
        self.lanes = lanes

    def __len__(self) -> int:
        return self.window.commands * self.iterations * self.lanes


_LOGIC_SYMBOLS = {LogicKind.AND: "&", LogicKind.OR: "|", LogicKind.XOR: "^"}

# Compiled windows by (encoded words, stride pairs, block width); None
# marks a window that runs on the reference interpreter.
_COMPILED: dict[tuple, CompiledWindow | None] = {}


def compile_window(words: tuple[int, ...],
                   strides: tuple[tuple[int, int], ...],
                   block_width: int) -> CompiledWindow | None:
    """Compile a window of encoded command words, or return None.

    ``strides`` holds int ``(offset, increment)`` pairs: the command at
    ``offset`` addresses row ``index + increment * G`` in global
    iteration ``G``.  The caller must have checked that ``block_width``
    is supported and that every such row is on the grid for the
    iterations it will run, as :class:`~pimcrypt.controller.Controller`
    does at load.  None means the reference could raise on this window
    (an option it rejects, a row off the grid, an ext_bit width or
    column it rejects, an unpaired activation, a strided shift or
    ext_bit), so it must be interpreted.
    """
    key = (words, strides, block_width)
    if key not in _COMPILED:
        _COMPILED[key] = _lower(words, strides, block_width)
    return _COMPILED[key]


def _lower(words, strides, block_width) -> CompiledWindow | None:
    increments: dict[int, int] = {}
    for offset, increment in strides:
        if offset in increments:
            return None      # validation checks each rule, not their sum
        increments[offset] = increment
    body: list[str] = []
    masks: dict[int, str] = {}      # one-lane mask value -> its name

    def mask(value: int) -> str:
        return masks.setdefault(value, f"M{len(masks)}")

    # ``latch`` is an expression for the current latch value.  It is
    # written out only by wr_row and at the end of the window, and every
    # wr_row sets it to the row just written, so it never refers to a row
    # that changed after it was formed.  ``reads_latch`` says whether it
    # reads ``L``, the latch at the start of the iteration; if no
    # statement does, the latch is not carried from one iteration to the
    # next and is written once, after the loop.
    latch, reads_latch, carried = "L", True, False
    pending = None
    steps = 0
    for offset, word in enumerate(words):
        op, index, option = word >> 12, (word >> 4) & 0xFF, word & 0xF
        if offset in increments:
            if op in (Opcode.SHIFT, Opcode.EXT_BIT):
                return None
            row = f"g[{index} + {increments[offset]} * G]"
        else:
            row = f"g[{index}]" if index < ROWS else None
        if (pending is not None) != (op == Opcode.LOGIC_OP):
            return None
        if op == Opcode.LOGIC_OP:
            kind = (option >> 1) & 0b11
            if option & 0b1001:
                return None
            if kind == LogicKind.NOT:
                latch = f"~{pending} & {mask(_ROW_MASK)}"
            elif row is None:
                return None
            else:
                latch = f"{pending} {_LOGIC_SYMBOLS[kind]} {row}"
            reads_latch = False
            pending = None
        elif op == Opcode.ACT_ROW:
            if option != 0b0001 or row is None:
                return None
            pending = row
        elif op == Opcode.RD_ROW:
            if option != 0b1000 or row is None:
                return None
            latch, reads_latch = row, False
        elif op == Opcode.WR_ROW:
            if option != 0b1000 or row is None:
                return None
            body.append(f"{row} = {latch}")
            carried |= reads_latch
            latch, reads_latch = row, False
        elif op == Opcode.SHIFT:
            if option & 0b1001 != 0b1000:
                return None
            steps += index
            right = bool(option & 0b0100)
            if index >= block_width:
                latch, reads_latch = "0", False
            elif index:
                op_text = "<<" if right else ">>"
                latch = (f"({latch}) {op_text} {index} & "
                         f"{mask(_shift_mask(block_width, index, right))}")
        elif op == Opcode.EXT_BIT:
            code = (option >> 1) & 0b111
            if (option & 0b0001 or code >= len(BLOCK_WIDTHS)
                    or BLOCK_WIDTHS[code] != block_width or index >= COLS):
                return None
            bases = sum(1 << b for b in range(0, COLS, block_width))
            src = f"g[{EXT_ROW}]"
            if index % block_width:
                src += f" >> {index % block_width}"
            latch = f"({src} & {mask(bases)}) * {(1 << block_width) - 1:#x}"
            reads_latch = False
        else:
            return None
    if pending is not None:
        return None
    carried |= reads_latch
    if carried and latch != "L":
        body.append(f"L = {latch}")
    source = "\n".join(
        ["def window(g, L, first, iterations):",
         "    for G in range(first, first + iterations):"]
        + [f"        {line}" for line in body or ["pass"]]
        + [f"    return {'L' if carried else latch}"])
    code = compile(source, "<compiled window>", "exec")
    return CompiledWindow(code, tuple((name, value)
                                      for value, name in masks.items()),
                          len(words), steps)
