import pytest

from pimcrypt.controller import (COMMAND_ARRAY_BYTES, Controller,
                                 ControllerError, ExecutionStats,
                                 FunctionDescriptor, HostAction, Invocation,
                                 KernelProgram, StrideRule, count_runs,
                                 host_action)
from pimcrypt.fabric import (BlockWidthMismatch, PendingActivation, Subarray,
                             WindowRejected, compile_window)
from pimcrypt.isa import CommandWord, LogicKind, Opcode


def prog_of(commands, functions, schedule, actions=(), width=256):
    return KernelProgram(name="t", commands=commands, functions=functions,
                         schedule=schedule, host_actions=list(actions),
                         block_width=width)


def test_copy_program():
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1)]
    prog = prog_of(cmds, {"Copy": FunctionDescriptor("Copy", 0, 2)},
                   [Invocation("Copy")])
    sub, ctrl, stats = Subarray(), Controller(prog), ExecutionStats()
    sub.write_row(0, 42)
    ctrl.run(sub)
    count_runs(stats, [(ctrl, sub)])
    assert sub.read_row(1) == 42
    assert stats.commands == 2 and stats.cycles == 2


def test_a_run_counts_only_into_the_stats_it_is_given():
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1)]
    ctrl = Controller(prog_of(cmds, {"Copy": FunctionDescriptor("Copy", 0, 2)},
                              [Invocation("Copy", 3, 0)]))
    assert ctrl.run(Subarray()) is None
    # a traced run returns what its records count
    trace = []
    stats = ctrl.trace(Subarray(), trace)
    assert len(trace) == 6 and stats.commands == 6 and stats.cycles == 6
    assert stats.per_function["Copy"].invocations == 1
    once = ExecutionStats()
    count_runs(once, [(ctrl, Subarray())])
    assert once == stats
    # count_runs: one count per distinct (program, subarray) pair
    one, four = Subarray(), Subarray(lanes=4)
    counted = ExecutionStats()
    count_runs(counted, [(ctrl, one), (ctrl, four), (ctrl, one)])
    assert counted.commands == 2 * 6 + 4 * 6
    assert counted.per_function["Copy"].invocations == 2 + 4


def test_stride_rules_walk_rows():
    # copy row i -> row 10+i for i in 0..3 from a single command window
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(10)]
    fd = FunctionDescriptor("Walk", 0, 2,
                            strides=(StrideRule(0, 1), StrideRule(1, 1)))
    prog = prog_of(cmds, {"Walk": fd}, [Invocation("Walk", 4, 0)])
    sub = Subarray()
    for i in range(4):
        sub.write_row(i, 100 + i)
    Controller(prog).run(sub)
    assert [sub.read_row(10 + i) for i in range(4)] == [100, 101, 102, 103]


def test_iteration_base_offsets_strides():
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(20)]
    fd = FunctionDescriptor("W", 0, 2, strides=(StrideRule(0, 2),))
    prog = prog_of(cmds, {"W": fd}, [Invocation("W", 1, 3)])
    sub = Subarray()
    sub.write_row(6, 9)
    Controller(prog).run(sub)
    assert sub.read_row(20) == 9


def test_capacity_limit():
    cmds = [CommandWord.rd_row(0)] * (COMMAND_ARRAY_BYTES // 2 + 1)
    with pytest.raises(ControllerError):
        Controller(prog_of(cmds, {"F": FunctionDescriptor("F", 0, len(cmds))},
                           [Invocation("F")]))


def test_published_total_fits_in_command_array():
    # the published program set: 2233 commands = 4466 bytes < 8 KiB
    cmds = [CommandWord.rd_row(0)] * 2233
    prog = prog_of(cmds, {"All": FunctionDescriptor("All", 0, 2233)},
                   [Invocation("All")])
    Controller(prog)   # validates
    assert 2 * len(cmds) == 4466 <= COMMAND_ARRAY_BYTES


def test_undefined_function_rejected():
    cmds = [CommandWord.rd_row(0)]
    with pytest.raises(ControllerError):
        Controller(prog_of(cmds, {"F": FunctionDescriptor("F", 0, 1)},
                           [Invocation("Nope")]))


def test_stride_out_of_range_rejected():
    cmds = [CommandWord.rd_row(120), CommandWord.wr_row(1)]
    fd = FunctionDescriptor("W", 0, 2, strides=(StrideRule(0, 8),))
    with pytest.raises(ControllerError):
        Controller(prog_of(cmds, {"W": fd}, [Invocation("W", 4, 0)]))


def test_host_actions_interleave():
    calls = []

    @host_action("t_probe")
    def _probe(sub, env, tag):
        calls.append((tag, sub.read_row(1)))

    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1)]
    prog = prog_of(cmds, {"Copy": FunctionDescriptor("Copy", 0, 2)},
                   [Invocation("Copy")],
                   actions=[HostAction(0, "t_probe", {"tag": "before"}),
                            HostAction(1, "t_probe", {"tag": "after"})])
    sub = Subarray()
    sub.write_row(0, 5)
    Controller(prog).run(sub)
    assert calls == [("before", 0), ("after", 5)]


def test_stats_per_function():
    cmds = ([CommandWord.rd_row(0), CommandWord.shift(2),
             CommandWord.wr_row(1)])
    fd = FunctionDescriptor("S", 0, 3)
    prog = prog_of(cmds, {"S": fd}, [Invocation("S", 5, 0)])
    ctrl, sub, stats = Controller(prog), Subarray(), ExecutionStats()
    ctrl.run(sub)
    count_runs(stats, [(ctrl, sub)])
    assert stats == ctrl.trace(Subarray(), [])
    fs = stats.per_function["S"]
    assert fs.invocations == 1 and fs.iterations == 5
    assert fs.commands == 15 and fs.cycles == 5 * (3 + 2)
    assert stats.commands == 15 and stats.cycles == 25


@pytest.mark.parametrize("width", [512, 8, 16.0, True])
def test_unsupported_block_width_rejected_at_load(width):
    # 512 is an ext_bit width code, but a 256-column subarray cannot
    # hold one segment of it, so a lane boundary would split a segment
    cmds = [CommandWord.ext_bit(0, 16), CommandWord.wr_row(2)]
    with pytest.raises(ControllerError):
        Controller(prog_of(cmds, {"F": FunctionDescriptor("F", 0, 2)},
                           [Invocation("F")], width=width))


@pytest.mark.parametrize("fd,inv", [
    (FunctionDescriptor("F", 0, 2, strides=(StrideRule(0, 1.0),)),
     Invocation("F")),
    (FunctionDescriptor("F", 0, 2, strides=(StrideRule(0.0, 1),)),
     Invocation("F")),
    (FunctionDescriptor("F", 0.0, 2), Invocation("F")),
    (FunctionDescriptor("F", 0, 2), Invocation("F", 1.0)),
    (FunctionDescriptor("F", 0, 2), Invocation("F", 1, 0.0)),
])
def test_non_int_fields_rejected_at_load(fd, inv):
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(10)]
    with pytest.raises(ControllerError):
        Controller(prog_of(cmds, {"F": fd}, [inv]))


@pytest.mark.parametrize("fd,inv,action,message", [
    (FunctionDescriptor("F", 1, 2), Invocation("F"), None, "out of range"),
    (FunctionDescriptor("F", 0, 2, strides=(StrideRule(2, 1),)),
     Invocation("F"), None, "stride offset 2 outside"),
    (FunctionDescriptor("F", 0, 2), Invocation("F", 0), None, ">= 1"),
    (FunctionDescriptor("F", 0, 2), Invocation("F"), HostAction(2, "aes_load"),
     "position 2"),
    (FunctionDescriptor("F", 0, 2), Invocation("F"), HostAction(0, "t_none"),
     "unknown host action kind"),
], ids=["window past the commands", "stride offset outside its window",
        "zero iterations", "host action past the schedule",
        "unknown host action"])
def test_malformed_program_rejected_at_load(fd, inv, action, message):
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(10)]
    with pytest.raises(ControllerError, match=message):
        Controller(prog_of(cmds, {"F": fd}, [inv], [action] if action else ()))


# name: (window, stride rules, block width, offset of the command at fault)
DECLINED = {
    "logic_op without act_row": (
        [CommandWord.rd_row(1), CommandWord.logic_op(2, LogicKind.OR)],
        (), 256, 1),
    "act_row before a non-logic command": (
        [CommandWord.act_row(1), CommandWord.rd_row(2)], (), 256, 0),
    "dangling act_row": (
        [CommandWord.act_row(1), CommandWord.logic_op(2, LogicKind.XOR),
         CommandWord.wr_row(3), CommandWord.act_row(4)], (), 256, 3),
    "rd_row over the data bus": (
        [CommandWord.rd_row(1, sa=False)], (), 256, 0),
    "wr_row over the data bus": (
        [CommandWord.rd_row(1), CommandWord.wr_row(2, sa=False)], (), 256, 1),
    "unarmed act_row": (
        [CommandWord(Opcode.ACT_ROW, 1, 0),
         CommandWord.logic_op(2, LogicKind.AND)], (), 256, 0),
    "logic_op reserved bit": (
        [CommandWord.act_row(1), CommandWord(Opcode.LOGIC_OP, 2, 0b1000)],
        (), 256, 1),
    "shift without valid flag": (
        [CommandWord(Opcode.SHIFT, 1, 0b0100)], (), 256, 0),
    "ext_bit reserved bit": (
        [CommandWord(Opcode.EXT_BIT, 0, 0b1001)], (), 256, 0),
    "row off the grid": (
        [CommandWord.rd_row(1), CommandWord.wr_row(200)], (), 256, 1),
    "ext_bit width mismatch": (
        [CommandWord.rd_row(1), CommandWord.ext_bit(0, 64)], (), 16, 1),
    "ext_bit width code 6": (
        [CommandWord(Opcode.EXT_BIT, 0, 6 << 1)], (), 256, 0),
    "strided shift": (
        [CommandWord.rd_row(1), CommandWord.shift(1), CommandWord.wr_row(2)],
        (StrideRule(1, 1),), 16, 1),
    "strided ext_bit": (
        [CommandWord.ext_bit(0, 16), CommandWord.wr_row(2)],
        (StrideRule(0, 1),), 16, 0),
    "two stride rules on one command": (
        [CommandWord.rd_row(1), CommandWord.wr_row(2)],
        (StrideRule(1, 1), StrideRule(1, 2)), 256, 1),
}


@pytest.mark.parametrize("name", DECLINED)
def test_load_rejects_what_the_compiler_declines(name):
    cmds, strides, width, offset = DECLINED[name]
    with pytest.raises(WindowRejected) as declined:
        compile_window(tuple(c.encode() for c in cmds),
                       tuple((s.offset, s.increment) for s in strides), width,
                       frozenset(c.index for c in cmds))
    assert declined.value.offset == offset
    fd = FunctionDescriptor("Bad", 0, len(cmds), strides=strides)
    with pytest.raises(ControllerError,
                       match=f"^function Bad command {offset}: "):
        Controller(prog_of(cmds, {"Bad": fd}, [Invocation("Bad")],
                           width=width))


def test_load_rejects_a_declined_function_outside_the_schedule():
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1),
            CommandWord.act_row(2)]
    functions = {"Copy": FunctionDescriptor("Copy", 0, 2),
                 "Bad": FunctionDescriptor("Bad", 2, 1)}
    with pytest.raises(ControllerError, match="^function Bad command 0: "):
        Controller(prog_of(cmds, functions, [Invocation("Copy")]))


def test_not_ignores_its_second_row():
    # The reference never reads a NOT's second operand, so any index
    # compiles, as the reference runs it.
    cmds = [CommandWord.act_row(1), CommandWord.logic_op(200, LogicKind.NOT),
            CommandWord.wr_row(2)]
    sub = Subarray()
    sub.write_row(1, 5)
    Controller(prog_of(cmds, {"F": FunctionDescriptor("F", 0, 3)},
                       [Invocation("F")])).run(sub)
    assert sub.read_row(2) == ~5 & (1 << 256) - 1


def test_run_during_a_pending_activation_raises_before_anything_runs():
    calls = []

    @host_action("t_first")
    def _first(sub, env):
        calls.append(sub.read_row(1))

    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1)]
    prog = prog_of(cmds, {"Copy": FunctionDescriptor("Copy", 0, 2)},
                   [Invocation("Copy")], actions=[HostAction(0, "t_first")])
    ctrl = Controller(prog)
    for trace in (None, []):
        sub = Subarray()
        sub.write_row(0, 5)
        sub.execute(CommandWord.act_row(3))
        with pytest.raises(PendingActivation):
            ctrl.run(sub) if trace is None else ctrl.trace(sub, trace)
        assert calls == [] and sub.read_row(1) == 0 and sub.cycle_count == 1


def test_run_on_another_block_width_raises_and_leaves_the_subarray():
    # The subarray is the caller's: a run never changes its block width.
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1)]
    ctrl = Controller(prog_of(cmds, {"Copy": FunctionDescriptor("Copy", 0, 2)},
                              [Invocation("Copy")], width=64))
    for trace in (None, []):
        sub = Subarray(block_width=16)
        sub.write_row(0, 5)
        with pytest.raises(BlockWidthMismatch, match="64.*16"):
            ctrl.run(sub) if trace is None else ctrl.trace(sub, trace)
        assert sub.block_width == 16 and sub.read_row(1) == 0
