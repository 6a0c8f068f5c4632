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
windows, strides and iteration counts, and keep every stride-rewritten
index on the fabric.  Anything else raises :class:`ControllerError`
before a command runs.

:meth:`Controller.run` makes one fabric call per schedule invocation: the
function's window is compiled once (:func:`~pimcrypt.fabric.compile_window`,
cached by window content, bound once per lane count) and run for all of
the invocation's iterations, and its commands and cycles are counted from
the window.  A window the compiler rejects, an invocation that starts
during a pending activation, and every run given a ``trace`` list go
through the reference interpreter instead, one command sequence per
iteration.

A run on a subarray with K lanes is K passes in lockstep, one per lane,
and its :class:`ExecutionStats` count all of them: invocations,
iterations, commands and cycles equal the sums of K one-lane runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fabric import (ROWS, CompiledRun, CompiledWindow, Subarray,
                     compile_window, supported_width)
from .isa import CommandWord, Opcode

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
    iterations: int = 1            # nominal per-pass iteration count
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

    def merge(self, other: "ExecutionStats") -> None:
        for name, fs in other.per_function.items():
            tgt = self.per_function.setdefault(name, FunctionStats())
            tgt.invocations += fs.invocations
            tgt.iterations += fs.iterations
            tgt.commands += fs.commands
            tgt.cycles += fs.cycles
        self.commands += other.commands
        self.cycles += other.cycles


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


# Registry mapping host-action kinds to callables
# ``fn(subarray, env, **params)``.  Kernels register theirs at import time.
HOST_ACTIONS: dict[str, callable] = {}


def host_action(kind: str):
    def register(fn):
        HOST_ACTIONS[kind] = fn
        return fn
    return register


class Controller:
    """Validates a program against the command array and runs it."""

    def __init__(self, program: KernelProgram):
        self.program = program
        self._validate()
        # Per-(function, global-iteration) resolved command tuples.
        self._resolved: dict[tuple[str, int], list[CommandWord]] = {}
        self._windows: dict[str, CompiledWindow | None] = {}

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
        for inv in prog.schedule:
            if inv.function not in prog.functions:
                raise ControllerError(f"schedule names unknown function "
                                      f"{inv.function!r}")
            if not _ints(inv.iterations, inv.iteration_base):
                raise ControllerError(f"invocation of {inv.function} has "
                                      f"non-int iterations or base")
            if inv.iterations < 1:
                raise ControllerError("invocation iterations must be >= 1")
            iter_spans[inv.function].update(
                range(inv.iteration_base, inv.iteration_base + inv.iterations))
        for a in prog.host_actions:
            if not 0 <= a.position <= len(prog.schedule):
                raise ControllerError(f"host action position {a.position}")
            if a.kind not in HOST_ACTIONS:
                raise ControllerError(f"unknown host action kind {a.kind!r}")
        # Every stride-rewritten index must stay on the fabric.
        for f in prog.functions.values():
            for s in f.strides:
                cmd = prog.commands[f.base + s.offset]
                for g in iter_spans[f.name] or {0}:
                    idx = cmd.index + g * s.increment
                    limit = ROWS if cmd.opcode is not Opcode.SHIFT else 256
                    if not 0 <= idx < limit:
                        raise ControllerError(
                            f"stride drives {f.name}+{s.offset} to index "
                            f"{idx} at iteration {g}")

    # -- execution ---------------------------------------------------------

    def _commands_for(self, fname: str, global_iter: int) -> list[CommandWord]:
        f = self.program.functions[fname]
        if not f.strides:
            key = (fname, 0)
        else:
            key = (fname, global_iter)
        cached = self._resolved.get(key)
        if cached is None:
            cmds = self.program.commands[f.base:f.base + f.count]
            for s in f.strides:
                old = cmds[s.offset]
                cmds[s.offset] = CommandWord(
                    old.opcode, old.index + global_iter * s.increment,
                    old.option)
            self._resolved[key] = cached = cmds
        return cached

    def _window(self, fname: str) -> CompiledWindow | None:
        if fname not in self._windows:
            prog = self.program
            f = prog.functions[fname]
            window = prog.commands[f.base:f.base + f.count]
            self._windows[fname] = compile_window(
                tuple(c.encode() for c in window),
                tuple((s.offset, s.increment) for s in f.strides),
                prog.block_width)
        return self._windows[fname]

    def run(self, sub: Subarray, env: dict | None = None,
            trace: list | None = None) -> ExecutionStats:
        env = env if env is not None else {}
        prog = self.program
        if sub.block_width != prog.block_width:
            sub.block_width = prog.block_width
        stats = ExecutionStats()
        actions_at: dict[int, list[HostAction]] = {}
        for a in prog.host_actions:
            actions_at.setdefault(a.position, []).append(a)
        lanes = sub.lanes
        for slot, inv in enumerate(prog.schedule):
            for a in actions_at.get(slot, ()):
                HOST_ACTIONS[a.kind](sub, env, **a.params)
            fs = stats.per_function.setdefault(inv.function, FunctionStats())
            fs.invocations += lanes
            window = self._window(inv.function) if trace is None else None
            if window is not None and sub.pending_row is None:
                cycles = sub.run(CompiledRun(window, inv.iteration_base,
                                             inv.iterations, lanes))
                commands = window.commands * inv.iterations * lanes
            else:
                commands = cycles = 0
                for i in range(inv.iterations):
                    cmds = self._commands_for(inv.function,
                                              inv.iteration_base + i)
                    if trace is None:
                        cycles += sub.run(cmds)
                    else:
                        records = sub.run_traced(cmds)
                        trace.extend(records)
                        cycles += sum(r.cycles for r in records)
                    commands += len(cmds) * lanes
            fs.iterations += inv.iterations * lanes
            fs.commands += commands
            fs.cycles += cycles
            stats.commands += commands
            stats.cycles += cycles
        for a in actions_at.get(len(prog.schedule), ()):
            HOST_ACTIONS[a.kind](sub, env, **a.params)
        return stats
