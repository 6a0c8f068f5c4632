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

:class:`Controller` checks a program's own rules when it is loaded: it
must fit the command array, hold int function windows inside it,
schedule known functions and place known host actions inside the
schedule.  Every function window must then compile
(:func:`~pimcrypt.fabric.compile_window`) for the runs the schedule
invokes it with: the compiler alone judges stride rules, runs and the
block width.  Anything else raises :class:`ControllerError` before a
command runs, naming the function, and the command offset for a window
the compiler declines.  A program with no function window is not
compiled, so its block width is judged when it runs.

A run's statistics and cycles depend only on the program, the lane
count and the cost model, never on data.  So :meth:`Controller.run`
builds, once per lane count and cost model, a plan: the schedule cut at
the host-action slots into stretches of invocations, each bound as one
:class:`~pimcrypt.fabric.CompiledRun`, and the run's
:class:`ExecutionStats`.  A run then does the host actions and one
fabric call per stretch, and counts nothing: :meth:`Controller.count`
and :func:`count_runs` add what runs count from the plan, running none.
:meth:`Controller.trace` runs the program on the reference interpreter
instead, one command sequence per iteration, appends the interpreter's
records to the caller's list and returns the statistics they count.
Either raises :class:`~pimcrypt.fabric.PendingActivation` for a run that
starts during a pending activation, and
:class:`~pimcrypt.fabric.BlockWidthMismatch` for one on a subarray of
another block width, before anything runs.  An exception a host action
raises keeps its type and message and gains a note naming the program,
the host action's kind and its schedule position.

A run on a subarray with K lanes is K passes in lockstep, one per lane,
and its :class:`ExecutionStats` count all of them: invocations,
iterations, commands and cycles equal the sums of K one-lane runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .fabric import (BlockWidthMismatch, CompiledRun, CompiledWindow,
                     CycleCostModel, PendingActivation, Subarray,
                     WindowRejected, compile_window)
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

    def merge(self, other: "ExecutionStats", times: int = 1) -> None:
        """Add ``times`` times ``other``'s counts, sharing no object."""
        for name, o in other.per_function.items():
            fs = (self.per_function.get(name)
                  or self.per_function.setdefault(name, FunctionStats()))
            fs.invocations += times * o.invocations
            fs.iterations += times * o.iterations
            fs.commands += times * o.commands
            fs.cycles += times * o.cycles
        self.commands += times * other.commands
        self.cycles += times * other.cycles


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
        actions_at: dict[int, list[HostAction]] = {}
        for a in program.host_actions:
            actions_at.setdefault(a.position, []).append(a)
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
        runs = {name: [] for name in prog.functions}
        for f in prog.functions.values():
            if not (type(f.base) is type(f.count) is int
                    and 0 <= f.base <= f.base + f.count <= len(prog.commands)):
                raise ControllerError(f"function {f.name} window not int "
                                      f"or out of range")
        for inv in prog.schedule:
            if inv.function not in prog.functions:
                raise ControllerError(f"schedule names unknown function "
                                      f"{inv.function!r}")
            runs[inv.function].append((inv.iteration_base, inv.iterations))
        for a in prog.host_actions:
            if (type(a.position) is not int
                    or not 0 <= a.position <= len(prog.schedule)):
                raise ControllerError(f"host action position {a.position!r}")
            if a.kind not in HOST_ACTIONS:
                raise ControllerError(f"unknown host action kind {a.kind!r}")
        # Every window must compile, so no run needs the reference.
        for name, f in prog.functions.items():
            words = prog.commands[f.base:f.base + f.count]
            try:
                self._windows[name] = compile_window(
                    tuple(c.encode() for c in words),
                    tuple((s.offset, s.increment) for s in f.strides),
                    prog.block_width, runs[name])
            except WindowRejected as exc:
                raise ControllerError(f"function {f.name} command "
                                      f"{exc.offset}: {exc}") from None
            except (ValueError, BlockWidthMismatch) as exc:
                raise ControllerError(f"function {f.name}: {exc}") from None

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

    def _plan_for(self, lanes: int, cost: CycleCostModel) -> tuple:
        plan = self._plans.get((lanes, cost))
        if plan is None:
            self._plans[lanes, cost] = plan = self._plan(lanes, cost)
        return plan

    def count(self, stats: ExecutionStats, lanes: int,
              cost: CycleCostModel) -> None:
        """Add what one run on ``lanes`` lanes under ``cost`` counts."""
        if not isinstance(cost, CycleCostModel):
            raise TypeError(f"cost {cost!r} is no CycleCostModel")
        if type(lanes) is not int or lanes < 1:
            raise ValueError(f"lanes must be a positive int, got {lanes!r}")
        stats.merge(self._plan_for(lanes, cost)[1])

    def _check(self, sub: Subarray) -> None:
        width = self.program.block_width
        if sub.block_width != width or type(width) is not int:
            raise BlockWidthMismatch(
                f"program {self.program.name} has block width {width}; "
                f"the subarray has {sub.block_width}")
        if sub.pending_row is not None:
            raise PendingActivation(f"run starts during the activation of "
                                    f"row {sub.pending_row}")

    def _host(self, actions, sub: Subarray, env: dict) -> None:
        for a in actions:
            try:
                HOST_ACTIONS[a.kind](sub, env, **a.params)
            except Exception as exc:
                exc.add_note(f"program {self.program.name}: host action "
                             f"{a.kind} at schedule position {a.position}")
                raise

    def run(self, sub: Subarray, env: dict | None = None) -> None:
        """Run the program on ``sub`` with the host actions reading and
        writing ``env``.  Counts nothing; see :func:`count_runs`."""
        self._check(sub)
        env = env if env is not None else {}
        for (actions, _), compiled in zip(
                self._segments, self._plan_for(sub.lanes, sub.cost_model)[0]):
            self._host(actions, sub, env)
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
            self._host(actions, sub, env)
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
    for (ctrl, sub), n in Counter(runs).items():
        stats.merge(ctrl._plan_for(sub.lanes, sub.cost_model)[1], n)
