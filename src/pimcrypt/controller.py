"""Loop controller: command array, function descriptors, schedules.

A *kernel program* bundles:

* the command array contents (at most 8 KB of packed 16-bit words),
* function descriptors: named windows ``[base, base+count)`` into the
  command array, each with stride rules ``(offset, increment)`` that bump
  the index field of the command at ``offset`` by ``increment`` per
  iteration,
* a schedule of invocations ``(function, iterations, iteration_base)``;
  the index rewrite for local iteration ``i`` uses the global iteration
  number ``iteration_base + i``,
* host actions pinned before schedule positions.  Host actions model the
  DMA/bus port: they move data between host buffers and grid rows and cost
  zero fabric cycles.  They are stored symbolically (kind + params) and
  resolved against a registry at run time.

Two functions may alias overlapping command-array ranges; aliasing is how
a kernel re-runs a tail of another function without storing it twice.

:class:`Controller` validates a program when it is loaded: it must fit
the command array, use a block width a subarray supports, hold int
windows, strides and iteration counts, keep every stride-rewritten
index on the fabric, and every function window must compile
(:func:`~pimcrypt.fabric.compile_window`).  Anything else raises
:class:`ControllerError`, naming the function and command offset for a
window the compiler declines, before a command runs.  Load also computes
each window's shared rows, every row its stride rules reach over the
global iterations the schedule runs: the compiled window indexes the
grid for those rows and keeps every other row in a local.  A window no
invocation runs for more than one iteration is compiled without a loop.

A run's statistics and cycles depend only on the program, the lane
count and the cost model, never on data.  So :meth:`Controller.run`
builds, once per lane count and cost model, a plan: the schedule cut at
the host-action slots into stretches of invocations, each bound as one
:class:`~pimcrypt.fabric.CompiledRun`, and the run's
:class:`ExecutionStats`.  A run then does the host actions and one
fabric call per stretch, and counts nothing: :func:`count_runs` adds
what any number of runs count from their plans, without running them.
:meth:`Controller.trace` runs the program on the reference interpreter
instead, one command sequence per iteration, appends the interpreter's
records to the caller's list and returns the statistics they count.
Either raises :class:`~pimcrypt.fabric.PendingActivation` for a run that
starts during a pending activation, and
:class:`~pimcrypt.fabric.BlockWidthMismatch` for one on a subarray of
another block width, before anything runs.

A run on a subarray with K lanes is K passes in lockstep, one per lane,
and its :class:`ExecutionStats` count all of them: invocations,
iterations, commands and cycles equal the sums of K one-lane runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .fabric import (ROWS, BlockWidthMismatch, CompiledRun, CompiledWindow,
                     CycleCostModel, PendingActivation, Subarray,
                     WindowRejected, compile_window, supported_width)
from .isa import CommandWord

__all__ = [
    "COMMAND_ARRAY_BYTES",
    "ControllerError",
    "StrideRule",
    "FunctionDescriptor",
    "Invocation",
    "HostAction",
    "KernelProgram",
    "FunctionStats",
    "ExecutionStats",
    "Controller",
    "count_runs",
    "OUTPUT",
]

COMMAND_ARRAY_BYTES = 8192


class ControllerError(Exception):
    pass


@dataclass(frozen=True)
class StrideRule:
    offset: int      # command offset within the function window
    increment: int   # added to that command's index per global iteration


@dataclass(frozen=True)
class FunctionDescriptor:
    name: str
    base: int
    count: int
    strides: tuple[StrideRule, ...] = ()


@dataclass(frozen=True)
class Invocation:
    function: str
    iterations: int = 1
    iteration_base: int = 0


@dataclass(frozen=True)
class HostAction:
    position: int        # runs before this schedule slot (len(schedule) = end)
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class KernelProgram:
    name: str
    commands: list[CommandWord]
    functions: dict[str, FunctionDescriptor]
    schedule: list[Invocation]
    host_actions: list[HostAction] = field(default_factory=list)
    block_width: int = 256


@dataclass
class FunctionStats:
    invocations: int = 0
    iterations: int = 0
    commands: int = 0
    cycles: int = 0


@dataclass
class ExecutionStats:
    per_function: dict[str, FunctionStats] = field(default_factory=dict)
    commands: int = 0
    cycles: int = 0

    def add(self, function: str, invocations: int, iterations: int,
            commands: int, cycles: int) -> None:
        fs = self.per_function.setdefault(function, FunctionStats())
        fs.invocations += invocations
        fs.iterations += iterations
        fs.commands += commands
        fs.cycles += cycles
        self.commands += commands
        self.cycles += cycles

    def merge(self, other: "ExecutionStats") -> None:
        for name, fs in other.per_function.items():
            self.add(name, fs.invocations, fs.iterations, fs.commands,
                     fs.cycles)


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


# Registry mapping host-action kinds to callables
# ``fn(subarray, env, **params)``.  Kernels register theirs at import time.
HOST_ACTIONS: dict[str, callable] = {}

# The env key under which a program's unload action leaves the run's
# output: a list of blocks or digests.
OUTPUT = "out"


def host_action(kind: str):
    def register(fn):
        HOST_ACTIONS[kind] = fn
        return fn
    return register


class Controller:
    """Validates a program against the command array and runs it."""

    def __init__(self, program: KernelProgram):
        self.program = program
        self._windows: dict[str, CompiledWindow] = {}
        self._validate()
        actions_at: dict[int, list[tuple[str, dict]]] = {}
        for a in program.host_actions:
            actions_at.setdefault(a.position, []).append((a.kind, a.params))
        cuts = sorted(actions_at.keys() | {0})
        # The schedule cut at host-action slots: (host actions, the
        # invocations after them) in run order.
        self._segments = [
            (actions_at.get(start, ()), program.schedule[start:end])
            for start, end in zip(cuts, cuts[1:] + [len(program.schedule)])]
        # Per (lanes, cost model): a CompiledRun or None per segment, and
        # the run's statistics.
        self._plans: dict[tuple[int, CycleCostModel], tuple] = {}

    # -- load-time validation ---------------------------------------------

    def _validate(self) -> None:
        prog = self.program
        nbytes = 2 * len(prog.commands)
        if nbytes > COMMAND_ARRAY_BYTES:
            raise ControllerError(
                f"program needs {nbytes} B but command array holds "
                f"{COMMAND_ARRAY_BYTES} B")
        if not supported_width(prog.block_width):
            raise ControllerError(
                f"unsupported block width {prog.block_width!r}")
        spans: dict[str, range] = {}
        for f in prog.functions.values():
            if not _ints(f.base, f.count, *(v for s in f.strides
                                            for v in (s.offset, s.increment))):
                raise ControllerError(f"function {f.name} has a non-int "
                                      f"window or stride")
            if f.base < 0 or f.base + f.count > len(prog.commands):
                raise ControllerError(f"function {f.name} window out of range")
            for s in f.strides:
                if not 0 <= s.offset < f.count:
                    raise ControllerError(
                        f"stride offset {s.offset} outside function {f.name}")
            spans[f.name] = range(f.base, f.base + f.count)
        iter_spans: dict[str, set[int]] = {name: set() for name in spans}
        looped: set[str] = set()     # functions some invocation repeats
        for inv in prog.schedule:
            if inv.function not in prog.functions:
                raise ControllerError(f"schedule names unknown function "
                                      f"{inv.function!r}")
            if not _ints(inv.iterations, inv.iteration_base):
                raise ControllerError(f"invocation of {inv.function} has "
                                      f"non-int iterations or base")
            if inv.iterations < 1:
                raise ControllerError("invocation iterations must be >= 1")
            if inv.iterations > 1:
                looped.add(inv.function)
            iter_spans[inv.function].update(
                range(inv.iteration_base, inv.iteration_base + inv.iterations))
        for a in prog.host_actions:
            if not 0 <= a.position <= len(prog.schedule):
                raise ControllerError(f"host action position {a.position}")
            if a.kind not in HOST_ACTIONS:
                raise ControllerError(f"unknown host action kind {a.kind!r}")
        # The indices a window's strides reach are its shared rows.
        reach = {f.name: [(s, g, prog.commands[f.base + s.offset].index
                           + g * s.increment)
                          for s in f.strides
                          for g in iter_spans[f.name] or {0}]
                 for f in prog.functions.values()}
        # Every window must compile, so no run needs the reference.
        for f in prog.functions.values():
            words = prog.commands[f.base:f.base + f.count]
            try:
                self._windows[f.name] = compile_window(
                    tuple(c.encode() for c in words),
                    tuple((s.offset, s.increment) for s in f.strides),
                    prog.block_width,
                    frozenset(idx for _, _, idx in reach[f.name]),
                    f.name not in looped)
            except WindowRejected as exc:
                raise ControllerError(f"function {f.name} command "
                                      f"{exc.offset}: {exc}") from None
        # The compiler declines a strided shift or ext_bit, so every
        # stride-rewritten index is a row and must stay on the fabric.
        for name, indices in reach.items():
            for s, g, idx in indices:
                if not 0 <= idx < ROWS:
                    raise ControllerError(
                        f"stride drives {name}+{s.offset} to index "
                        f"{idx} at iteration {g}")

    # -- execution ---------------------------------------------------------

    def _commands_for(self, fname: str, global_iter: int) -> list[CommandWord]:
        f = self.program.functions[fname]
        cmds = self.program.commands[f.base:f.base + f.count]
        for s in f.strides:
            old = cmds[s.offset]
            cmds[s.offset] = CommandWord(
                old.opcode, old.index + global_iter * s.increment, old.option)
        return cmds

    def _window(self, fname: str) -> CompiledWindow:
        return self._windows[fname]

    def _plan(self, lanes: int, cost: CycleCostModel) -> tuple:
        stats = ExecutionStats()
        runs = []
        for _, invocations in self._segments:
            calls = [(self._window(inv.function), inv.iteration_base,
                      inv.iterations) for inv in invocations]
            for inv, (window, _, iterations) in zip(invocations, calls):
                n = iterations * lanes
                stats.add(inv.function, lanes, n, window.commands * n,
                          window.cycles(cost) * n)
            runs.append(CompiledRun(calls, lanes, cost) if calls else None)
        return runs, stats

    def _plan_for(self, sub: Subarray) -> tuple:
        key = (sub.lanes, sub.cost_model)
        plan = self._plans.get(key)
        if plan is None:
            self._plans[key] = plan = self._plan(*key)
        return plan

    def _check(self, sub: Subarray) -> None:
        if sub.block_width != self.program.block_width:
            raise BlockWidthMismatch(
                f"program {self.program.name} has block width "
                f"{self.program.block_width}; the subarray has "
                f"{sub.block_width}")
        if sub.pending_row is not None:
            raise PendingActivation(f"run starts during the activation of "
                                    f"row {sub.pending_row}")

    def run(self, sub: Subarray, env: dict | None = None) -> None:
        """Run the program on ``sub`` with the host actions reading and
        writing ``env``.  Counts nothing; see :func:`count_runs`."""
        self._check(sub)
        env = env if env is not None else {}
        for (actions, _), compiled in zip(self._segments,
                                          self._plan_for(sub)[0]):
            for kind, params in actions:
                HOST_ACTIONS[kind](sub, env, **params)
            if compiled is not None:
                sub.run(compiled)

    def trace(self, sub: Subarray, records: list,
              env: dict | None = None) -> ExecutionStats:
        """Run the program on ``sub`` on the reference interpreter, as
        :meth:`run` does on the compiled plan; append the interpreter's
        records to ``records`` and return the statistics they count."""
        self._check(sub)
        env = env if env is not None else {}
        stats = ExecutionStats()
        for actions, invocations in self._segments:
            for kind, params in actions:
                HOST_ACTIONS[kind](sub, env, **params)
            for inv in invocations:
                start = len(records)
                for g in range(inv.iteration_base,
                               inv.iteration_base + inv.iterations):
                    records += sub.run_traced(
                        self._commands_for(inv.function, g))
                ran = records[start:]
                stats.add(inv.function, sub.lanes,
                          inv.iterations * sub.lanes, len(ran) * sub.lanes,
                          sum(r.cycles for r in ran))
        return stats


def count_runs(stats: ExecutionStats,
               runs: Iterable[tuple[Controller, Subarray]]) -> None:
    """Count untraced ``runs``, (program, subarray) pairs, into ``stats``
    without running them: each distinct pair adds its plan's statistics
    once, times the number of its runs."""
    counts: dict[tuple[Controller, Subarray], int] = {}
    for pair in runs:
        counts[pair] = counts.get(pair, 0) + 1
    for (ctrl, sub), n in counts.items():
        for name, fs in ctrl._plan_for(sub)[1].per_function.items():
            stats.add(name, n * fs.invocations, n * fs.iterations,
                      n * fs.commands, n * fs.cycles)
