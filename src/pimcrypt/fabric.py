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
pairing, or a host read or write in between, raises
:class:`PendingActivation`.

Rows are stored as 256-bit Python ints with bit ``c`` holding column ``c``.
A *left* shift moves data toward column 0, a *right* shift toward column
255.  Cycle accounting is one cycle per command plus one per shifted bit
position.

Every grid row and every latch value is a non-negative int no larger
than the row mask: the host port masks what it writes, and no command
can leave that range.  Both engines rely on it and compute NOT as an
XOR with the row mask.  For such a row that equals ``~row & mask``, and
it keeps CPython off its slower path for negative ints.

A subarray with ``lanes`` K > 1 holds K such subarrays side by side, as
the controller's one command stream drives every compute subarray at
once: each row is a K x 256-bit int and lane ``k`` owns columns
``256k .. 256k+255``.  Every supported block width divides 256
(:func:`supported_width`, checked when a subarray is built and when the
controller loads a program), so a lane boundary is a segment boundary;
segment-confined shifts, ``ext_bit`` and NOT use their masks replicated
into every lane and act on each lane exactly as on a lone subarray.
Cycles count every lane: a command costs K times its single-subarray
cycles, so K lanes cost what K one-lane runs do.  The lane layout is a
contract the kernels rely on, not a secret of this module: lane ``k``
is columns ``256k .. 256k+255`` of a little-endian int, so its bytes
are bytes ``32k .. 32k+31`` of the row's 32K little-endian bytes.
:func:`lanes_to_row` joins one 256-column value per lane into a row
and :func:`row_to_lanes` splits it again, and a :class:`LaneRows` of
one-lane rows is written repeated in every lane of whatever subarray it
is written to.  The kernels build and split wide rows from byte strings
on that layout: ``ghash.quarter_rows`` and the GHASH hash-key row join
one block or key per lane, ``keccak``'s ``sha3_read_state`` splits
segment s of lane k as sponge 4k + s, and AES staging treats a K-lane
row as 16K tiles.

Two engines execute commands, and both read one per-opcode table of
what a command accepts and names (``_COMMANDS``): the option nibble it
accepts, and whether its index names a grid row, as rd_row's, wr_row's,
act_row's and an AND, OR or XOR logic_op's do (a NOT's, a shift count
and an ext_bit column do not).  A word's fields and names are
:mod:`~pimcrypt.isa`'s: this module neither decodes nor disassembles.
:meth:`Subarray.execute` is the reference interpreter, one command at a
time, for plain command sequences, traced runs (a :class:`TraceRecord`
per command) and the differential tests.  :func:`compile_window`, which
alone judges a window's stride rules, runs and block width, lowers a
function window, once per distinct window content, to straight-line
Python over the row list for the runs (first global iteration,
iterations) it is given, or raises :class:`WindowRejected` for a window
the reference could reject or that it does not lower, which the
controller turns into a load-time error.  A :class:`CompiledRun` holds
the invocations between two host actions, bound once per lane count and
cost model, and ``run`` checks the subarray and executes it in one call.
Both engines leave the same grid, latch and cycle count.  A window's
source is compiled once with its masks as names and bound to
lane-replicated masks once per lane count.  Its *shared* rows, every
row a strided command names in its runs, are indexed in the row list on
every access; every other row lives in a local for the whole call,
loaded before the loop and stored after it, so no strided access can
miss a write to a local.  A window whose runs are all one
iteration (every AES window, for instance) is lowered without the loop.

One looped window is lowered as a whole rather than command by command:
the bit-serial multiply-accumulate step GHASH's GaloisMult repeats, on
block width 256 and without stride rules (``ext_bit 0``, ``wr M``;
``V AND M`` into U; ``P XOR U`` into P; V shifted right by one and the
broadcast row E left by one, each written back; V, P, M and U four
distinct rows other than E).  Its N iterations are one carry-less
multiply per lane (:class:`CompiledWindow` gives the closed form), so
an untraced GHASH pass no longer runs 128 Python iterations per block.
Each lane multiplies by table: 256 products of its V by every byte, one
lookup per byte of E.  V is GHASH's H^K, key material, so the tables
live in the subarray that runs the window (:attr:`Subarray.tables`,
the tables of one V row, emptied by ``reset``), and die with it.
The reference still runs the commands one at a time, and the commands,
cycles and statistics are those of the N iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .isa import BLOCK_WIDTHS, CommandWord, LogicKind, Opcode, split_word

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
    """A command the reference ran, its cycles and the latch it left."""
    word: int
    cycles: int
    latch: int


# Per opcode, for the reference and the compiler alike: the (mask, value)
# the option nibble must match, and whether the index names a grid row (a
# logic_op's does unless it is a NOT; a shift's is a count, an ext_bit's a
# column, whose width code must also name the block width).
_COMMANDS = {
    Opcode.RD_ROW: (0xF, 0b1000, True), Opcode.WR_ROW: (0xF, 0b1000, True),
    Opcode.ACT_ROW: (0xF, 0b0001, True), Opcode.LOGIC_OP: (0b1001, 0, True),
    Opcode.SHIFT: (0b1001, 0b1000, False), Opcode.EXT_BIT: (0b0001, 0, False)}
_NO_COMMAND = (0, 1, False)     # an unassigned opcode: no option matches


def _names_row(op: int, option: int) -> bool:
    """Whether a command's index names a grid row, by :data:`_COMMANDS`."""
    return _COMMANDS.get(op, _NO_COMMAND)[2] and not (
        op == Opcode.LOGIC_OP and option >> 1 & 0b11 == LogicKind.NOT)


@lru_cache(maxsize=None)
def _shift_mask(width: int, count: int, right: bool) -> int:
    """The columns a shift by ``count`` keeps inside their segments."""
    keep = 0
    for c in range(COLS):
        pos = c % width
        if (pos >= count) if right else (pos < width - count):
            keep |= 1 << c
    return keep


def supported_width(width) -> bool:
    """Whether a subarray can be configured for block width ``width``:
    an int ext_bit width that divides the 256 columns."""
    return (type(width) is int and width in BLOCK_WIDTHS
            and COLS % width == 0)


@lru_cache(maxsize=None)
def _lane_fill(lanes: int) -> int:
    """Multiplying a one-lane value by this repeats it in every lane."""
    return lanes_to_row([1] * lanes)


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
    Row ``i`` is ``values[i] * unit``, a field repeated within one lane.
    """

    def __new__(cls, values, unit: int = 1):
        fields = [value & _ROW_MASK for value in values]
        rows = super().__new__(cls, [field * unit for field in fields])
        rows._fields, rows._unit, rows._wide = fields, unit, {}
        return rows

    def for_lanes(self, lanes: int) -> list[int]:
        """The rows repeated in each of ``lanes`` lanes."""
        rows = self._wide.get(lanes)
        if rows is None:
            unit = self._unit * _lane_fill(lanes)
            rows = self._wide[lanes] = [field * unit for field in self._fields]
        return rows


class Subarray:
    """One subarray, or ``lanes`` of them in lockstep: grid, SA latch,
    pending-activation state, cycle count.

    ``tables`` holds the fused multiply's byte tables of each lane, keyed
    by the V row they were built from; :meth:`run` hands it to every
    compiled window.  It keeps the last V row's tables only, and
    :meth:`reset` empties it.
    """

    __slots__ = ("grid", "sa_latch", "pending_row", "block_width",
                 "cycle_count", "cost_model", "lanes", "row_mask", "_fill",
                 "tables")

    def __init__(self, block_width: int = 256,
                 cost_model: CycleCostModel = CycleCostModel(),
                 lanes: int = 1):
        if not supported_width(block_width):
            raise BlockWidthMismatch(f"unsupported block width {block_width}")
        if type(lanes) is not int or lanes < 1:
            raise ValueError(f"lanes must be a positive int, got {lanes!r}")
        if not isinstance(cost_model, CycleCostModel):
            raise TypeError(f"cost_model {cost_model!r} is no CycleCostModel")
        self.lanes = lanes
        self._fill = _lane_fill(lanes)
        self.row_mask = _ROW_MASK * self._fill
        self.grid = [0] * ROWS
        self.sa_latch = 0
        self.pending_row: int | None = None
        self.block_width = block_width
        self.cycle_count = 0
        self.cost_model = cost_model
        self.tables: dict[int, list[list[int]]] = {}

    # -- host port (zero fabric cycles, models the DMA path) -------------

    def write_row(self, row: int, value: int) -> None:
        self.write_rows(row, [value])

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
        return self.read_rows(row, 1)[0]

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
        self.tables.clear()

    # -- command execution ------------------------------------------------

    def execute(self, cmd: CommandWord) -> int:
        """Execute one command in every lane; returns the cycles it
        consumed, summed over lanes.  Checks the pending activation, then
        the option and row rules of ``_COMMANDS``, then an ext_bit's width."""
        op = cmd.opcode
        index = cmd.index
        option = cmd.option
        logic = op is Opcode.LOGIC_OP
        if (self.pending_row is not None) != logic:
            raise PendingActivation(
                "logic_op without preceding act_row" if logic
                else f"act_row {self.pending_row} not followed by logic_op")
        need, value, _ = _COMMANDS[op]
        if option & need != value:
            raise UnsupportedOption(f"{op.name.lower()} option {option:#06b}")
        if index >= ROWS and _names_row(op, option):
            raise RowOutOfRange(f"{op.name.lower()} row {index}")
        cost = self.cost_model.cycles_per_command

        if logic:
            src1 = self.grid[self.pending_row]
            kind = option >> 1
            if kind == LogicKind.NOT:
                self.sa_latch = src1 ^ self.row_mask
            elif kind == LogicKind.AND:
                self.sa_latch = src1 & self.grid[index]
            elif kind == LogicKind.OR:
                self.sa_latch = src1 | self.grid[index]
            else:
                self.sa_latch = src1 ^ self.grid[index]
            self.pending_row = None

        elif op is Opcode.ACT_ROW:
            self.pending_row = index

        elif op is Opcode.RD_ROW:
            self.sa_latch = self.grid[index]

        elif op is Opcode.WR_ROW:
            self.grid[index] = self.sa_latch

        elif op is Opcode.SHIFT:
            width = self.block_width
            if index:       # the shift count
                if index >= width:
                    # Every bit would cross its segment boundary.
                    self.sa_latch = 0
                else:  # right (toward column 255) or left
                    right = bool(option & 0b0100)
                    mask = _shift_mask(width, index, right) * self._fill
                    self.sa_latch = (self.sa_latch << index if right
                                     else self.sa_latch >> index) & mask
                cost += index * self.cost_model.cycles_per_shift_step

        else:  # EXT_BIT
            code, width = option >> 1, self.block_width
            if code >= len(BLOCK_WIDTHS) or BLOCK_WIDTHS[code] != width:
                raise BlockWidthMismatch(f"ext_bit width code {code} on "
                                         f"block width {width}")
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
        :class:`CompiledRun`; returns the cycles consumed.  A compiled run
        raises ``ValueError`` on other lanes or another cost model,
        :class:`BlockWidthMismatch` on another block width, and
        :class:`PendingActivation` during an activation, before it runs
        anything."""
        if type(cmds) is CompiledRun:
            if cmds.lanes != self.lanes or cmds.cost_model != self.cost_model:
                raise ValueError(
                    f"run bound for {cmds.lanes} lanes and {cmds.cost_model} "
                    f"on a {self.lanes}-lane subarray with {self.cost_model}")
            if cmds.block_width != self.block_width:
                raise BlockWidthMismatch(
                    f"run compiled for block width {cmds.block_width} on a "
                    f"subarray of block width {self.block_width}")
            if self.pending_row is not None:
                raise PendingActivation(f"run starts during the activation "
                                        f"of row {self.pending_row}")
            grid, latch, tables = self.grid, self.sa_latch, self.tables
            for fn, first, iterations in cmds.calls:
                latch = fn(grid, latch, first, iterations, tables)
            self.sa_latch = latch
            self.cycle_count += cmds.cycles
            return cmds.cycles
        total = 0
        for cmd in cmds:
            total += self.execute(cmd)
        return total

    def run_traced(self, cmds) -> list[TraceRecord]:
        # Each record's latch is read after its command executes.
        return [TraceRecord(cmd.encode(), self.execute(cmd), self.sa_latch)
                for cmd in cmds]


# ---------------------------------------------------------------------------
# Compiled execution
# ---------------------------------------------------------------------------

# A bound window: fn(grid, latch, first, iterations, tables) -> latch.
_Bound = Callable[[list, int, int, int, dict], int]


class CompiledWindow:
    """A function window lowered to Python.

    ``bind(lanes)`` returns ``fn(grid, latch, first, iterations,
    tables)``, which runs global iterations ``first .. first +
    iterations - 1`` (``iterations`` >= 1; only ``first`` for a window
    compiled without a loop) on the row list of a ``lanes``-lane
    subarray and returns the final latch.  ``tables`` is that subarray's
    :attr:`Subarray.tables`; only a fused window reads or fills it.  One
    iteration is ``commands`` commands shifting ``shift_steps`` bit
    positions in total, on ``block_width``.  ``code`` is compiled once;
    each lane count binds the one-lane ``masks`` (name, value)
    replicated into every lane.  ``source``, the text ``code`` was
    compiled from, indexes the row list only for the window's shared
    rows, those its stride rules can address; it keeps every other row
    in a local ``r<index>``.

    A ``fused`` window is the multiply-accumulate loop the module
    docstring describes; its source calls ``mac``, bound to the lane
    count, once for all N = ``iterations`` iterations.  Per lane, within
    the lane's 256 columns and with ``<<`` toward column 255:

    * P ^= clmul(V, E mod 2**min(N, 256)) mod 2**256
    * V <- V << N and E <- E >> N
    * M <- bit N - 1 of E, filled across the lane
    * U <- (V << N - 1) & M

    where V and E on the right are the rows before the call, so for
    N > 256, V, E, M and U end as zero.  The latch it returns is the new
    E, as the last command of the loop leaves it.

    The product is a Horner pass over the low min(N, 256) bits of E, one
    byte at a time from the top: shift the sum left by 8 and XOR in
    clmul(V, byte), read from the lane's table of all 256 bytes, built
    from V's 16 nibble products and kept in ``tables`` under the V row,
    so GHASH, whose V is H^K for every block of a pass, builds it once
    per pass.  The window keeps no V.

    ``runs`` holds every (first global iteration, iterations) pair it
    was compiled for, by any caller: the invocations a
    :class:`CompiledRun` accepts.
    """

    __slots__ = ("source", "code", "masks", "commands", "shift_steps",
                 "block_width", "fused", "runs", "_bound")

    def __init__(self, source: str, masks: tuple[tuple[str, int], ...],
                 commands: int, shift_steps: int, block_width: int,
                 fused: bool = False):
        self.source = source
        self.code = compile(source, "<compiled window>", "exec")
        self.masks = masks
        self.commands = commands
        self.shift_steps = shift_steps
        self.block_width = block_width
        self.fused = fused
        self.runs: set[tuple[int, int]] = set()
        self._bound: dict[int, _Bound] = {}

    def bind(self, lanes: int) -> _Bound:
        fn = self._bound.get(lanes)
        if fn is None:
            fill = _lane_fill(lanes)
            namespace = {name: value * fill for name, value in self.masks}
            if self.fused:
                namespace["mac"] = _multiply_accumulate(lanes)
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
    iterations) triple per invocation, one of the window's ``runs``, all
    compiled for ``block_width`` (``ValueError`` if not).  The subarray
    must have no pending activation, ``block_width``, ``lanes`` lanes and
    ``cost_model``, or :meth:`Subarray.run` raises.  ``len`` is the
    number of commands executed and ``cycles`` their cycles, both
    counted in every lane.
    """

    __slots__ = ("calls", "lanes", "cost_model", "block_width", "commands",
                 "cycles")

    def __init__(self, invocations: list[tuple[CompiledWindow, int, int]],
                 lanes: int, cost_model: CycleCostModel):
        for window, first, iterations in invocations:
            if (first, iterations) not in window.runs:
                raise ValueError(f"window not compiled for {iterations} "
                                 f"iterations from global iteration {first}")
        widths = {window.block_width for window, _, _ in invocations}
        if len(widths) != 1:
            raise ValueError(f"a run needs windows of one block width, "
                             f"got {sorted(widths)}")
        self.block_width, = widths
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

# Compiled windows by (encoded words, stride pairs, block width, shared
# rows, loop form): what the lowering reads.
_COMPILED: dict[tuple, CompiledWindow] = {}


def compile_window(words: tuple[int, ...],
                   strides: tuple[tuple[int, int], ...],
                   block_width: int,
                   runs: Iterable[tuple[int, int]]) -> CompiledWindow:
    """Compile a window of encoded command words for the invocations
    ``runs``.

    ``strides`` holds int ``(offset, increment)`` pairs: the command at
    ``offset`` has index ``index + increment * G`` in global iteration
    ``G``.  ``runs`` holds the int ``(first global iteration,
    iterations >= 1)`` pairs the window will be invoked with, the only
    ones a :class:`CompiledRun` accepts; none checks the window for
    iteration 0.  The per-opcode table ``_COMMANDS``, which the
    reference reads too, says which options a command accepts and
    whether its index names a row: the rows strided commands name in
    those runs are the window's shared rows.  A strided NOT names no
    row, so its stride has no effect.  If every run is one iteration
    the window is lowered without a loop.

    Raises :class:`BlockWidthMismatch` for an unsupported block width,
    ``ValueError`` for a stride or run that is no such int pair, and
    :class:`WindowRejected` for a window the reference could raise on
    in one of those runs (an option it rejects, a row off the grid, a
    strided index outside the 8-bit field, an ext_bit width it rejects,
    an unpaired activation), and for a stride offset outside the window,
    a strided shift or ext_bit or two stride rules on one command, which
    are not lowered.
    """
    if not supported_width(block_width):
        raise BlockWidthMismatch(f"unsupported block width {block_width!r}")
    runs = tuple(runs)
    if not all(type(a) is type(b) is int for a, b in strides + runs) or any(
            iterations < 1 for _, iterations in runs):
        raise ValueError("strides and runs must be int pairs, iterations >= 1")
    shared = set()
    offsets = [offset for offset, _ in strides]
    for offset, increment in strides:
        if not 0 <= offset < len(words):
            raise WindowRejected(offset, f"stride offset {offset} outside "
                                 f"the window of {len(words)} commands")
        if offsets.count(offset) > 1:
            # the rows are checked for each rule, not for their sum
            raise WindowRejected(offset, "two stride rules on one command")
        op, index, option = split_word(words[offset])
        if op in (Opcode.SHIFT, Opcode.EXT_BIT):
            raise WindowRejected(offset, "strided shift or ext_bit")
        # A row's targets must be on the grid and are shared; any other
        # index (a NOT's) need only stay in the 8-bit field.
        what, end = (("row", ROWS) if _names_row(op, option)
                     else ("index", 0x100))
        for first, iterations in runs or ((0, 1),):
            # A nonzero increment leaves the range within end + 1
            # iterations, and a zero one addresses one target.
            for g in range(first, first + min(iterations, end + 1)):
                target = index + increment * g
                if not 0 <= target < end:
                    raise WindowRejected(offset, f"stride targets {what} "
                                         f"{target} at iteration {g}")
                if what == "row":
                    shared.add(target)
    key = (words, strides, block_width, frozenset(shared),
           all(iterations == 1 for _, iterations in runs))
    window = _COMPILED.get(key)
    if window is None:
        _COMPILED[key] = window = _lower(*key)
    window.runs.update(runs)
    return window


def _mac_words(v: int, p: int, m: int, u: int) -> tuple[int, ...]:
    """The encoded words of one bit-serial multiply-accumulate step on
    rows V, P, M and U (GHASH's GaloisMult): M = fill(E[0]); U = V & M;
    P ^= U; V steps right and the broadcast row E left by one column."""
    return tuple(cmd.encode() for cmd in (
        CommandWord.ext_bit(0, COLS), CommandWord.wr_row(m),
        CommandWord.act_row(v), CommandWord.logic_op(m, LogicKind.AND),
        CommandWord.wr_row(u),
        CommandWord.act_row(p), CommandWord.logic_op(u, LogicKind.XOR),
        CommandWord.wr_row(p),
        CommandWord.rd_row(v), CommandWord.shift(1, right=True),
        CommandWord.wr_row(v),
        CommandWord.rd_row(EXT_ROW), CommandWord.shift(1),
        CommandWord.wr_row(EXT_ROW)))


def _mac_rows(words) -> tuple[int, int, int, int] | None:
    """Rows (V, P, M, U) if ``words`` is one multiply-accumulate step on
    four distinct grid rows other than the broadcast row, else None."""
    if len(words) != 14:
        return None
    rows = tuple(split_word(words[i])[1] for i in (2, 5, 1, 4))
    if (len(set(rows)) == 4 and EXT_ROW not in rows
            and max(rows) < ROWS and words == _mac_words(*rows)):
        return rows
    return None


def _byte_table(v: int) -> list[int]:
    """clmul(v, b) for each byte value b, from v's 16 nibble products."""
    nibbles = [0, v]
    for b in range(2, 16):
        nibbles.append(nibbles[b - 1] ^ v if b & 1 else nibbles[b >> 1] << 1)
    return [high ^ low for high in [x << 4 for x in nibbles]
            for low in nibbles]


def _multiply_accumulate(lanes: int):
    """``mac(v, e, p, n, tables)`` for a ``lanes``-lane subarray: rows V,
    E, M, U and P after ``n`` multiply-accumulate steps on rows V, E (the
    broadcast row) and P, each lane on its own, with the lanes' byte
    tables of V kept in ``tables`` in place of any others.  See
    :class:`CompiledWindow` for the closed form."""
    fill = _lane_fill(lanes)
    size = _LANE_BYTES * lanes
    # Where each lane's bytes end in a row's big-endian bytes, lane 0 last.
    ends = range(size, 0, -_LANE_BYTES)
    # Per n: the low min(n, 256) bits of every lane, their byte count,
    # and for n <= 256 the masks of V << n, E >> n and V << n - 1.
    steps: dict[int, tuple[int, int, tuple[int, int, int] | None]] = {}

    def mac(v, e, p, n, tables):
        lane_tables = tables.get(v)
        if lane_tables is None:
            # GHASH never returns to a V row it has left.
            tables.clear()
            # Lanes that hold one value share its table.
            values = row_to_lanes(v, lanes)
            built = {x: _byte_table(x) for x in set(values)}
            lane_tables = tables[v] = [built[x] for x in values]
        step = steps.get(n)
        if step is None:
            k = n if n < COLS else COLS
            shifted = None if n > COLS else (
                _shift_mask(COLS, n, True) * fill,
                _shift_mask(COLS, n, False) * fill,
                _shift_mask(COLS, n - 1, True) * fill)
            step = steps[n] = (((1 << k) - 1) * fill, (k + 7) // 8, shifted)
        low_bits, width, shifted = step
        # Carry-less V * (E mod 2**k) per lane, Horner over E's bytes.
        data = (e & low_bits).to_bytes(size, "big")
        product = at = 0
        for end, table in zip(ends, lane_tables):
            acc = 0
            for byte in data[end - width:end]:
                acc = acc << 8 ^ table[byte]
            product |= (acc & _ROW_MASK) << at
            at += COLS
        p ^= product
        if shifted is None:
            return 0, 0, 0, 0, p
        high, low, previous = shifted
        last = e >> (n - 1) & fill
        m = (last << COLS) - last
        return ((v << n) & high, (e >> n) & low, m,
                (v << (n - 1)) & previous & m, p)

    return mac


def _lower_mac(v: int, p: int, m: int, u: int) -> CompiledWindow:
    e = EXT_ROW
    source = "\n".join(
        ["def window(g, L, first, iterations, tables):"]
        + [f"    r{i} = g[{i}]" for i in sorted((v, e, p))]
        + [f"    r{v}, r{e}, r{m}, r{u}, r{p} = "
           f"mac(r{v}, r{e}, r{p}, iterations, tables)"]
        + [f"    g[{i}] = r{i}" for i in sorted((v, e, p, m, u))]
        + [f"    return r{e}"])
    return CompiledWindow(source, (), 14, 2, COLS, fused=True)


def _lower(words, strides, block_width, shared, single) -> CompiledWindow:
    if not (single or strides) and block_width == COLS:
        rows = _mac_rows(words)
        if rows is not None:
            return _lower_mac(*rows)
    increments = dict(strides)
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
        op, index, option = split_word(word)
        need, value, _ = _COMMANDS.get(op, _NO_COMMAND)
        if option & need != value:
            raise WindowRejected(offset, f"word {word:#06x} has an opcode "
                                 f"or option the fabric rejects")
        if (pending is not None) != (op == Opcode.LOGIC_OP):
            raise WindowRejected(offset if pending is None else pending[0],
                                 "unpaired act_row or logic_op")
        if (index >= ROWS and offset not in increments
                and _names_row(op, option)):
            raise WindowRejected(offset, f"row {index} off the grid")
        if op == Opcode.LOGIC_OP:
            kind = (option >> 1) & 0b11
            if kind == LogicKind.NOT:
                latch = f"{pending[1]} ^ {mask(_ROW_MASK)}"
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
        [f"def window(g, L, {'G' if single else 'first'}, iterations, "
         f"tables):"]
        + [f"    r{i} = g[{i}]" for i in sorted(loads)]
        + loop
        + [f"    g[{i}] = r{i}" for i in sorted(writes)]
        + [f"    return {'L' if carried else latch}"])
    return CompiledWindow(source, tuple((name, value)
                                        for value, name in masks.items()),
                          len(words), steps, block_width)
