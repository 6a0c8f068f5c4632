"""Compiled engine vs the reference interpreter.

``Controller.run`` runs compiled windows unless it is given a ``trace``
list, which selects the reference interpreter; both must leave the same
grid, latch, pending activation, cycle count, statistics and host
outputs, and raise the same exception type.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pimcrypt import perfmodel
from pimcrypt.controller import (Controller, FunctionDescriptor, Invocation,
                                 KernelProgram, StrideRule)
from pimcrypt.fabric import CycleCostModel, RowOutOfRange, Subarray
from pimcrypt.isa import BLOCK_WIDTHS, CommandWord, LogicKind, Opcode
from pimcrypt.kernels import ghash

COST_MODELS = [CycleCostModel(), CycleCostModel(3, 2)]


def outcome(prog, env, cost, reference, grid_seed=0, pending=None):
    sub = Subarray(block_width=prog.block_width, cost_model=cost)
    rng = random.Random(grid_seed)
    for row in range(128):
        sub.write_row(row, rng.getrandbits(256))
    if pending is not None:
        sub.execute(CommandWord.act_row(pending))
    env = dict(env)
    stats, error = None, None
    try:
        stats = Controller(prog).run(sub, env,
                                     trace=[] if reference else None)
    except Exception as exc:   # the type is what both engines must share
        error = type(exc)
    return (error, stats, sub.grid, sub.sa_latch, sub.pending_row,
            sub.cycle_count, env)


def assert_engines_agree(prog, env, cost, **setup):
    compiled = outcome(prog, env, cost, reference=False, **setup)
    assert compiled == outcome(prog, env, cost, reference=True, **setup)
    return compiled


@pytest.mark.parametrize("cost", COST_MODELS)
def test_measured_programs_agree(monkeypatch, cost):
    names = []

    def run_both(prog, env, cost):
        ctrl = Controller(prog)
        assert all(ctrl._window(f) is not None for f in prog.functions)
        names.append(prog.name)
        return assert_engines_agree(prog, env, cost)[1]

    monkeypatch.setattr(perfmodel, "_run", run_both)
    perfmodel.measure_kernels(perfmodel.FabricConfig(cycle_cost=cost))
    # AES x4, SHA3 x4, HMAC x4 (inner and outer), GHASH continuation
    assert len(names) == 4 + 4 + 8 + 1


@pytest.mark.parametrize("cost", COST_MODELS)
def test_final_ghash_program_agrees(cost):
    env = {"hash_key": bytes(range(16)), "ghash_first": True,
           "xblocks": [bytes([i] * 16) for i in range(8)]}
    error, stats, *_ = assert_engines_agree(
        ghash.build_ghash_program(8, final=True), env, cost)
    assert error is None and stats.per_function["Reduce"].invocations == 1


def program(cmds, strides=(), schedule=None, width=256):
    fd = FunctionDescriptor("F", 0, len(cmds), strides=tuple(strides))
    return KernelProgram("t", list(cmds), {"F": fd},
                         schedule or [Invocation("F", 2, 0)],
                         block_width=width)


def logic(a, kind, b, dst):
    return [CommandWord.act_row(a), CommandWord.logic_op(b, kind),
            CommandWord.wr_row(dst)]


UNCLEAN = {
    "bad option": [CommandWord(Opcode.RD_ROW, 1, 0b1001),
                   CommandWord.wr_row(2)],
    "row off the grid": [CommandWord.rd_row(1), CommandWord.wr_row(128)],
    "dangling act_row": logic(1, LogicKind.XOR, 2, 3)
    + [CommandWord.act_row(4)],
    "logic_op without act_row": [CommandWord.logic_op(1, LogicKind.AND)],
    "ext_bit width mismatch": [CommandWord.ext_bit(3, 64),
                               CommandWord.wr_row(5)],
}


@pytest.mark.parametrize("name", UNCLEAN)
def test_unclean_windows_run_on_the_reference(name):
    prog = program(UNCLEAN[name])
    assert Controller(prog)._window("F") is None
    assert assert_engines_agree(prog, {}, CycleCostModel())[0] is not None


def test_strided_shift_runs_on_the_reference():
    cmds = [CommandWord.rd_row(1), CommandWord.shift(3),
            CommandWord.wr_row(2)]
    prog = program(cmds, [StrideRule(1, 4)],
                   [Invocation("F", 3, 0)], width=16)
    assert Controller(prog)._window("F") is None
    assert assert_engines_agree(prog, {}, CycleCostModel())[0] is None


def test_two_stride_rules_on_one_command_run_on_the_reference():
    # Validation checks each rule alone; together they reach row 140.
    cmds = [CommandWord.rd_row(100), CommandWord.wr_row(1)]
    prog = program(cmds, [StrideRule(0, 20), StrideRule(0, 20)])
    assert Controller(prog)._window("F") is None
    error = assert_engines_agree(prog, {}, CycleCostModel())[0]
    assert error is RowOutOfRange


def test_non_integer_stride_runs_on_the_reference():
    # A JSON-loaded program can carry 1.0; it must not share the cached
    # window of the rule with increment 1 or reach generated source.
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(10)]
    for increment in (1, 1.0):
        prog = program(cmds, [StrideRule(0, increment)])
        compiled = Controller(prog)._window("F") is not None
        assert compiled == (type(increment) is int)
        assert_engines_agree(prog, {}, CycleCostModel())


def test_pending_activation_at_start_matches():
    prog = program(logic(1, LogicKind.OR, 2, 3))
    assert Controller(prog)._window("F") is not None
    error = assert_engines_agree(prog, {}, CycleCostModel(), pending=7)[0]
    assert error is not None


rows = st.integers(0, 127)
indices = st.integers(0, 255)


@st.composite
def windows(draw):
    """A block width and a window of valid commands, in which at most one
    command may get an arbitrary option nibble or one arbitrary command
    word may be spliced in."""
    width = draw(st.sampled_from(BLOCK_WIDTHS[:5]))
    segment = st.one_of(
        st.builds(lambda r: [CommandWord.rd_row(r)], rows),
        st.builds(lambda r: [CommandWord.wr_row(r)], rows),
        st.builds(lambda n, right: [CommandWord.shift(n, right)],
                  indices, st.booleans()),
        st.builds(lambda c: [CommandWord.ext_bit(c, width)], indices),
        st.builds(logic, rows, st.sampled_from(list(LogicKind)), rows, rows))
    cmds = sum(draw(st.lists(segment, min_size=1, max_size=10)), [])
    change = draw(st.sampled_from(["none", "option", "splice"]))
    if change == "option":
        i = draw(st.integers(0, len(cmds) - 1))
        cmds[i] = CommandWord(cmds[i].opcode, cmds[i].index,
                              draw(st.integers(0, 15)))
    elif change == "splice":
        raw = CommandWord(draw(st.sampled_from(list(Opcode))),
                          draw(indices), draw(st.integers(0, 15)))
        cmds.insert(draw(st.integers(0, len(cmds))), raw)
    return width, cmds


@settings(max_examples=300, deadline=None)
@given(windows(),
       st.lists(st.tuples(st.integers(0, 60), st.integers(-2, 2)),
                max_size=2),
       st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                min_size=1, max_size=3),
       st.integers(0, 2 ** 32), st.sampled_from([None, None, None, 7]))
def test_generated_windows_agree(window, strides, invocations, seed, pending):
    width, cmds = window
    rules = [StrideRule(off % len(cmds), inc) for off, inc in strides]
    prog = program(cmds, rules,
                   [Invocation("F", n, base) for n, base in invocations],
                   width)
    try:
        Controller(prog)
    except Exception:   # rejected at load time: nothing runs on either engine
        return
    for cost in COST_MODELS:
        assert_engines_agree(prog, {}, cost, grid_seed=seed, pending=pending)
