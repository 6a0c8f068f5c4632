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
cycles, so K lanes cost what K one-lane runs do.  This module is the
only one that knows the lane layout: :func:`lanes_to_row` joins one
256-column value per lane into a row and :func:`row_to_lanes` splits it
again, and a :class:`LaneRows` of one-lane rows is written repeated in
every lane of whatever subarray it is written to.

Two engines execute commands.  :meth:`Subarray.execute` is the reference
interpreter: it decodes, checks and runs one command at a time, and
:meth:`Subarray.run` uses it for a plain command sequence; it runs traced
runs and the differential tests.  :func:`compile_window` lowers a whole
function window, once per distinct window content, to straight-line
Python over the row list, or raises :class:`WindowRejected` for a window
the reference could reject or that it does not lower, which the
controller turns into a load-time error.  A :class:`CompiledRun` holds
the invocations between two host actions, bound once per lane count and
cost model, and ``run`` executes it in one call.  Both engines leave the
same grid, latch and cycle count.  A window's source is compiled once
with its masks as names and bound to lane-replicated masks once per lane
count.  Its *shared* rows, every row a stride rule can address over the
global iterations the program runs (the controller computes them at
load), are indexed in the row list on every access; every other row
lives in a local for the whole call, loaded before the loop and stored
after it, so no strided access can miss a write to a local.  A window
that every invocation runs for one iteration (every AES window, for
instance) is lowered without the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .isa import (BLOCK_WIDTHS, CommandWord, LogicKind, Opcode, decode,
                  disassemble)

__all__ = [
    "ROWS",
    "COLS",
    "SUBARRAYS",
    "EXT_ROW",
    "FabricError",
    "RowOutOfRange",
    "PendingActivation",
    "BlockWidthMismatch",
    "UnsupportedOption",
    "WindowRejected",
    "CycleCostModel",
    "LaneRows",
    "lanes_to_row",
    "row_to_lanes",
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
# The modeled 256 KiB SRAM in ROWS x COLS (4 KiB) subarrays, all driven
# by one controller's command stream.
SUBARRAYS = 256 * 1024 * 8 // (ROWS * COLS)

_ROW_MASK = (1 << COLS) - 1
_LANE_BYTES = COLS // 8


class FabricError(Exception):
    """Base class for subarray execution failures."""


class RowOutOfRange(FabricError):
    pass


class PendingActivation(FabricError):
    """A dual-row activation was left dangling or a logic_op had none."""


class BlockWidthMismatch(FabricError):
    """An ext_bit width code, or a program run on the subarray, disagrees
    with the subarray's block width."""


class UnsupportedOption(FabricError):
    """Option nibble requests behavior the fabric does not implement."""


class WindowRejected(Exception):
    """:func:`compile_window` declines a window; ``offset`` is the
    command at fault."""

    def __init__(self, offset: int, reason: str):
        super().__init__(reason)
        self.offset = offset


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


class TraceRecord(NamedTuple):
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


def lanes_to_row(values: list[int]) -> int:
    """One row of ``len(values)`` lanes, lane ``k`` holding ``values[k]``
    (each below 2**256)."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little")
                                   for v in values), "little")


def row_to_lanes(row: int, lanes: int) -> list[int]:
    """The 256-column value of each of the ``lanes`` lanes of ``row``."""
    data = row.to_bytes(_LANE_BYTES * lanes, "little")
    return [int.from_bytes(data[k * _LANE_BYTES:(k + 1) * _LANE_BYTES],
                           "little") for k in range(lanes)]


class LaneRows(tuple):
    """One-lane (256-column) row values, each masked to one lane, that
    :meth:`Subarray.write_rows` stores repeated in every lane.

    Host actions hold their constant rows (masks, a call's round keys)
    this way; one instance serves every lane count, building its rows
    for a lane count on first use (:meth:`for_lanes`) and keeping them.
    """

    def __new__(cls, values):
        rows = super().__new__(cls, [value & _ROW_MASK for value in values])
        rows._wide = {}
        return rows

    def for_lanes(self, lanes: int) -> list[int]:
        """The rows repeated in each of ``lanes`` lanes."""
        rows = self._wide.get(lanes)
        if rows is None:
            fill = lanes_to_row([1] * lanes)
            rows = self._wide[lanes] = [value * fill for value in self]
        return rows


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
        # Multiplying a one-lane value by this repeats it in every lane.
        self._fill = lanes_to_row([1] * lanes)
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

    def write_rows(self, first: int, values: list[int]) -> None:
        """Write ``values`` to rows ``first``, ``first + 1``, ... in one
        host transfer, each masked to the row width; :class:`LaneRows`
        are stored repeated in every lane, and values that one range
        check finds already inside the row width as they are."""
        end = first + len(values)
        if first < 0 or end > ROWS:
            raise RowOutOfRange(f"rows {first}..{end - 1}")
        if self.pending_row is not None:
            raise PendingActivation("host access during dual-row activation")
        mask = self.row_mask
        if type(values) is LaneRows:
            self.grid[first:end] = values.for_lanes(self.lanes)
        elif values and min(values) >= 0 and max(values) <= mask:
            self.grid[first:end] = values
        else:
            self.grid[first:end] = [value & mask for value in values]

    def read_row(self, row: int) -> int:
        if not 0 <= row < ROWS:
            raise RowOutOfRange(f"row {row}")
        return self.grid[row]

    def read_rows(self, first: int, count: int) -> list[int]:
        """Rows ``first .. first + count - 1`` in one host transfer."""
        end = first + count
        if first < 0 or count < 0 or end > ROWS:
            raise RowOutOfRange(f"rows {first}..{end - 1}")
        if self.pending_row is not None:
            raise PendingActivation("host access during dual-row activation")
        return self.grid[first:end]

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
        """Execute a command sequence on the reference interpreter, or a
        :class:`CompiledRun`; returns the cycles consumed."""
        if type(cmds) is CompiledRun:
            if cmds.lanes != self.lanes or cmds.cost_model != self.cost_model:
                raise ValueError(
                    f"run bound for {cmds.lanes} lanes and {cmds.cost_model} "
                    f"on a {self.lanes}-lane subarray with {self.cost_model}")
            grid, latch = self.grid, self.sa_latch
            for fn, first, iterations in cmds.calls:
                latch = fn(grid, latch, first, iterations)
            self.sa_latch = latch
            self.cycle_count += cmds.cycles
            return cmds.cycles
        total = 0
        for cmd in cmds:
            total += self.execute(cmd)
        return total

    def run_traced(self, cmds) -> list[TraceRecord]:
        records = []
        for cmd in cmds:
            cycles = self.execute(cmd)
            word = cmd.encode()
            records.append(TraceRecord(word, _text(word), cycles,
                                       self.sa_latch))
        return records


@lru_cache(maxsize=None)
def _text(word: int) -> str:
    return disassemble([decode(word)])


# ---------------------------------------------------------------------------
# Compiled execution
# ---------------------------------------------------------------------------

class CompiledWindow:
    """A function window lowered to Python.

    ``bind(lanes)`` returns ``fn(grid, latch, first, iterations)``, which
    runs global iterations ``first .. first + iterations - 1``
    (``iterations`` >= 1; only ``first`` for a window compiled without a
    loop) on the row list of a ``lanes``-lane subarray and returns the
    final latch.  One iteration is ``commands`` commands
    shifting ``shift_steps`` bit positions in total.  ``code`` is compiled
    once; each lane count binds the one-lane ``masks`` (name, value)
    replicated into every lane.  ``source``, the text ``code`` was
    compiled from, indexes the row list only for the window's shared
    rows, those its stride rules can address; it keeps every other row
    in a local ``r<index>``.
    """

    __slots__ = ("source", "code", "masks", "commands", "shift_steps",
                 "_bound")

    def __init__(self, source: str, masks: tuple[tuple[str, int], ...],
                 commands: int, shift_steps: int):
        self.source = source
        self.code = compile(source, "<compiled window>", "exec")
        self.masks = masks
        self.commands = commands
        self.shift_steps = shift_steps
        self._bound: dict[int, Callable[[list, int, int, int], int]] = {}

    def bind(self, lanes: int) -> Callable[[list, int, int, int], int]:
        fn = self._bound.get(lanes)
        if fn is None:
            fill = lanes_to_row([1] * lanes)
            namespace = {name: value * fill for name, value in self.masks}
            exec(self.code, namespace)
            self._bound[lanes] = fn = namespace["window"]
        return fn

    def cycles(self, cost: CycleCostModel) -> int:
        """The cycles of one iteration on one lane."""
        return (self.commands * cost.cycles_per_command
                + self.shift_steps * cost.cycles_per_shift_step)


class CompiledRun:
    """Invocations of compiled windows run back to back, bound for one
    lane count and cost model: the stretch of a controller run between
    two host-action slots, passed to :meth:`Subarray.run`.

    ``calls`` holds one (bound window, first global iteration,
    iterations) triple per invocation.  The subarray must have no
    pending activation, the block width the windows were compiled for,
    ``lanes`` lanes and ``cost_model``.  ``len`` is the number of
    commands executed and ``cycles`` their cycles, both counted in
    every lane.
    """

    __slots__ = ("calls", "lanes", "cost_model", "commands", "cycles")

    def __init__(self, invocations: list[tuple[CompiledWindow, int, int]],
                 lanes: int, cost_model: CycleCostModel):
        self.calls = tuple((window.bind(lanes), first, iterations)
                           for window, first, iterations in invocations)
        self.lanes = lanes
        self.cost_model = cost_model
        self.commands = lanes * sum(window.commands * iterations
                                    for window, _, iterations in invocations)
        self.cycles = lanes * sum(window.cycles(cost_model) * iterations
                                  for window, _, iterations in invocations)

    def __len__(self) -> int:
        return self.commands


_LOGIC_SYMBOLS = {LogicKind.AND: "&", LogicKind.OR: "|", LogicKind.XOR: "^"}

# The (mask, value) each opcode's option nibble must match to compile;
# an ext_bit's width code must also name the block width.
_OPTIONS = {Opcode.RD_ROW: (0xF, 0b1000), Opcode.WR_ROW: (0xF, 0b1000),
            Opcode.SHIFT: (0b1001, 0b1000), Opcode.ACT_ROW: (0xF, 0b0001),
            Opcode.LOGIC_OP: (0b1001, 0), Opcode.EXT_BIT: (0b0001, 0)}

# Compiled windows by (encoded words, stride pairs, block width, shared
# rows).
_COMPILED: dict[tuple, CompiledWindow] = {}


def compile_window(words: tuple[int, ...],
                   strides: tuple[tuple[int, int], ...],
                   block_width: int,
                   shared: frozenset[int],
                   single: bool = False) -> CompiledWindow:
    """Compile a window of encoded command words.

    ``strides`` holds int ``(offset, increment)`` pairs: the command at
    ``offset`` addresses row ``index + increment * G`` in global
    iteration ``G``.  ``shared`` holds every row those commands address
    over the iterations the window will run.  The caller must have
    checked that ``block_width`` is supported and that every such row is
    on the grid, and must run the window only for those iterations, as
    :class:`~pimcrypt.controller.Controller` does.  ``single`` lowers
    the window without a loop: it then runs one iteration, global
    iteration ``first``, whatever ``iterations`` says, so the caller
    must pass 1, as the controller does for a window no invocation runs
    more than once.  Raises :class:`WindowRejected` for a window the
    reference could raise on (an option it rejects, a row off the grid,
    an ext_bit width it rejects, an unpaired activation), and for a
    strided shift or ext_bit or two stride rules on one command, which
    are not lowered.
    """
    key = (words, strides, block_width, shared, single)
    window = _COMPILED.get(key)
    if window is None:
        _COMPILED[key] = window = _lower(*key)
    return window


def _lower(words, strides, block_width, shared, single) -> CompiledWindow:
    increments: dict[int, int] = {}
    for offset, increment in strides:
        if offset in increments:
            # validation checks each rule, not their sum
            raise WindowRejected(offset, "two stride rules on one command")
        increments[offset] = increment
    # A shared row, one a stride rule can address in some iteration, is
    # read and written as ``g[...]`` by every command, strided or
    # constant.  Every other row is only ever named by a constant index,
    # so it lives in a local ``r<index>`` for the whole loop: the rows
    # read before the window writes them are loaded before it and the
    # rows written are stored once after it.  A strided access can thus
    # only meet a row that is in ``g`` at that moment.
    loads: set[int] = set()
    writes: set[int] = set()
    body: list[str] = []
    masks: dict[int, str] = {}      # one-lane mask value -> its name

    def mask(value: int) -> str:
        return masks.setdefault(value, f"M{len(masks)}")

    def row(offset: int, index: int, written: bool = False) -> str:
        if offset in increments:
            return f"g[{index} + {increments[offset]} * G]"
        if index >= ROWS:
            raise WindowRejected(offset, f"row {index} off the grid")
        if index in shared:
            return f"g[{index}]"
        if written:
            writes.add(index)
        elif index not in writes:
            loads.add(index)
        return f"r{index}"

    # ``latch`` is an expression for the current latch value.  It is
    # written out only by wr_row and at the end of the window, and every
    # wr_row sets it to the row just written, so it never refers to a row
    # that changed after it was formed.  ``reads_latch`` says whether it
    # reads ``L``, the latch at the start of the iteration; if no
    # statement does, the latch is not carried from one iteration to the
    # next and is written once, after the loop.
    latch, reads_latch, carried = "L", True, False
    pending = None          # (offset, row) of an act_row awaiting logic_op
    steps = 0
    for offset, word in enumerate(words):
        op, index, option = word >> 12, (word >> 4) & 0xFF, word & 0xF
        need, value = _OPTIONS.get(op, (0, 1))
        if option & need != value:
            raise WindowRejected(offset, f"word {word:#06x} has an opcode "
                                 f"or option the fabric rejects")
        if op in (Opcode.SHIFT, Opcode.EXT_BIT) and offset in increments:
            raise WindowRejected(offset, "strided shift or ext_bit")
        if (pending is not None) != (op == Opcode.LOGIC_OP):
            raise WindowRejected(offset if pending is None else pending[0],
                                 "unpaired act_row or logic_op")
        if op == Opcode.LOGIC_OP:
            kind = (option >> 1) & 0b11
            if kind == LogicKind.NOT:
                latch = f"~{pending[1]} & {mask(_ROW_MASK)}"
            else:
                latch = (f"{pending[1]} {_LOGIC_SYMBOLS[kind]} "
                         f"{row(offset, index)}")
            reads_latch = False
            pending = None
        elif op == Opcode.ACT_ROW:
            pending = offset, row(offset, index)
        elif op == Opcode.RD_ROW:
            latch, reads_latch = row(offset, index), False
        elif op == Opcode.WR_ROW:
            target = row(offset, index, written=True)
            body.append(f"{target} = {latch}")
            carried |= reads_latch
            latch, reads_latch = target, False
        elif op == Opcode.SHIFT:
            steps += index
            right = bool(option & 0b0100)
            if index >= block_width:
                latch, reads_latch = "0", False
            elif index:
                op_text = "<<" if right else ">>"
                latch = (f"({latch}) {op_text} {index} & "
                         f"{mask(_shift_mask(block_width, index, right))}")
        else:  # EXT_BIT
            code = option >> 1
            if code >= len(BLOCK_WIDTHS) or BLOCK_WIDTHS[code] != block_width:
                raise WindowRejected(offset, f"ext_bit width code {code} "
                                     f"on block width {block_width}")
            bases = sum(1 << b for b in range(0, COLS, block_width))
            src = row(offset, EXT_ROW)
            if index % block_width:
                src += f" >> {index % block_width}"
            # Fill each segment from its base bit: (B << w) - B equals
            # B * (2**w - 1), because the segments do not overlap, and
            # costs a shift instead of a wide multiply.
            latch = f"((B := {src} & {mask(bases)}) << {block_width}) - B"
            reads_latch = False
    if pending is not None:
        raise WindowRejected(pending[0], "unpaired act_row or logic_op")
    carried |= reads_latch
    if carried and latch != "L":
        body.append(f"L = {latch}")
    # A one-iteration window names its first global iteration G and runs
    # its body once, without a loop.
    loop = ([f"    {line}" for line in body] if single else
            ["    for G in range(first, first + iterations):"]
            + [f"        {line}" for line in body or ["pass"]])
    source = "\n".join(
        [f"def window(g, L, {'G' if single else 'first'}, iterations):"]
        + [f"    r{i} = g[{i}]" for i in sorted(loads)]
        + loop
        + [f"    g[{i}] = r{i}" for i in sorted(writes)]
        + [f"    return {'L' if carried else latch}"])
    return CompiledWindow(source, tuple((name, value)
                                        for value, name in masks.items()),
                          len(words), steps)
