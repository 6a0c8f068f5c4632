"""Compiled engine vs the reference interpreter, and lanes vs lone runs.

``Controller.run`` runs compiled windows, one fabric call per stretch
between host actions, and ``Controller.count`` counts the statistics
its plan fixes; ``Controller.trace`` runs the reference
interpreter and returns the statistics its records count.  Both must
leave the same grid, latch, pending activation, cycle count, statistics
and host outputs, and raise the same exception type.  A run on K lanes
must leave each lane as a one-lane run on that lane's grid would, and
count the cycles and statistics of all K.  Load rejects exactly the
windows the compiler declines, so no loaded program runs on the
reference untraced, and the compiler declines exactly the windows the
reference faults on in one of their runs and the forms it does not
lower; a strided NOT, whose index names no row, loads.  A compiled
window indexes the grid for the rows its strides reach and keeps every
other row in a local, even where a strided access aliases a row the
window also names by constant index.  The one window the compiler
lowers whole, GHASH's multiply-accumulate loop, must agree with the
reference for any iteration count and with a plain carry-less multiply
over repeated calls on one subarray, whose byte tables no other
subarray shares, and windows one change away from it must take the
generic lowering.
"""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from pimcrypt import fabric, perfmodel
from pimcrypt.controller import (Controller, ControllerError,
                                 ExecutionStats, FunctionDescriptor,
                                 Invocation, KernelProgram, StrideRule)
from pimcrypt.fabric import (COLS, CompiledRun, CycleCostModel,
                             RowOutOfRange, Subarray, compile_window)
from pimcrypt.isa import (BLOCK_WIDTHS, CommandWord, IsaError, LogicKind,
                          Opcode)
from pimcrypt.kernels import aes, ghash, keccak, modes

COST_MODELS = [CycleCostModel(), CycleCostModel(3, 2)]
LANE = (1 << COLS) - 1


def random_subarray(width, cost, lanes=1, grid_seed=0, ones=()):
    """A subarray with random rows and latch, except that the rows in
    ``ones`` are all ones; lane k draws them from seed ``grid_seed + k``."""
    sub = Subarray(block_width=width, cost_model=cost, lanes=lanes)
    rngs = [random.Random(grid_seed + k) for k in range(lanes)]
    for row in range(128):
        sub.write_row(row, sum(rng.getrandbits(COLS) << COLS * k
                               for k, rng in enumerate(rngs)))
    for row in ones:
        sub.write_row(row, sub.row_mask)
    sub.sa_latch = sum(rng.getrandbits(COLS) << COLS * k
                       for k, rng in enumerate(rngs))
    return sub


def outcome(prog, env, cost, reference, grid_seed=0, pending=None, lanes=1):
    """Run ``prog`` on a :func:`random_subarray`."""
    sub = random_subarray(prog.block_width, cost, lanes, grid_seed)
    if pending is not None:
        sub.execute(CommandWord.act_row(pending))
    env = dict(env)
    stats, error = None, None
    try:
        ctrl = Controller(prog)
        if reference:
            stats = ctrl.trace(sub, [], env)
        else:
            ctrl.run(sub, env)
            stats = ExecutionStats()
            ctrl.count(stats, sub.lanes, sub.cost_model)
    except Exception as exc:   # the type is what both engines must share
        error = type(exc)
    return (error, stats, sub.grid, sub.sa_latch, sub.pending_row,
            sub.cycle_count, env)


def assert_engines_agree(prog, env, cost, **setup):
    compiled = outcome(prog, env, cost, reference=False, **setup)
    assert compiled == outcome(prog, env, cost, reference=True, **setup)
    return compiled


def assert_lanes_agree(prog, cost, lanes, grid_seed=0, pending=None):
    """Both engines on ``lanes`` lanes equal one-lane runs, lane by lane.

    Host actions are dropped: this checks the command stream alone.
    """
    prog = replace(prog, host_actions=[])
    error, stats, grid, latch, pend, cycles, _ = assert_engines_agree(
        prog, {}, cost, grid_seed=grid_seed, pending=pending, lanes=lanes)
    singles = [outcome(prog, {}, cost, reference=False,
                       grid_seed=grid_seed + k, pending=pending)
               for k in range(lanes)]
    assert {s[0] for s in singles} == {error}
    if error is not None:
        return
    total = ExecutionStats()
    for k, (_, one, one_grid, one_latch, one_pend, _, _) in enumerate(
            singles):
        assert [row >> COLS * k & LANE for row in grid] == one_grid
        assert latch >> COLS * k & LANE == one_latch
        assert pend == one_pend
        total.merge(one)
    assert stats == total
    assert cycles == sum(s[5] for s in singles) == stats.cycles + (
        0 if pending is None else lanes * cost.cycles_per_command)


def measured_runs():
    """Every (validated program, fresh env) run of every registered pass."""
    return [run for kp in perfmodel.kernel_passes().values()
            for group in kp.build() for run in group]


@pytest.fixture(scope="module")
def references():
    """Every registry run with the :func:`outcome` of its reference run,
    once per (cost model, lanes); the tests below compare against it."""
    return {(cost, lanes): [(ctrl, env, outcome(ctrl.program, env, cost,
                                                reference=True, lanes=lanes))
                            for ctrl, env in measured_runs()]
            for cost in COST_MODELS for lanes in (1, 3)}


@pytest.mark.parametrize("cost", COST_MODELS)
def test_measured_programs_agree(cost, references):
    names = []
    for ctrl, env, reference in references[cost, 1]:
        prog = ctrl.program
        assert all(ctrl._window(f) is not None for f in prog.functions)
        names.append(prog.name)
        assert reference[0] is None
        assert outcome(prog, env, cost, reference=False) == reference
    # AES x4, SHA3 x4 (4 blocks), HMAC x4 (inner 3 blocks, outer 2) and
    # the GHASH continuation; a SHA3 run absorbs one block
    assert len(names) == 4 + 4 * 4 + 4 * (3 + 2) + 1


def test_measured_windows_lower_not_without_unary_invert():
    # NOT is an XOR with the row mask: ``~row`` makes a negative int,
    # which CPython handles on a slower path.
    for ctrl, _ in measured_runs():
        for name in ctrl.program.functions:
            assert "~" not in ctrl._window(name).source, name


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_rows_and_latch_stay_inside_the_row_mask(lanes, references):
    # The XOR with the row mask equals ``~row & mask`` only for rows in
    # [0, mask], so both engines must keep every row and the latch there.
    cost = COST_MODELS[0]
    runs = [outcome(ctrl.program, env, cost, reference=False, lanes=lanes)
            for ctrl, env in measured_runs()]
    if lanes in (1, 3):     # the fixture holds these reference runs
        runs += [reference for _, _, reference in references[cost, lanes]]
    else:
        runs += [outcome(ctrl.program, env, cost, reference=True, lanes=lanes)
                 for ctrl, env in measured_runs()]
    mask = Subarray(lanes=lanes).row_mask
    for error, _, grid, latch, *_ in runs:
        assert error is None
        assert 0 <= min(grid) and max(grid) <= mask and 0 <= latch <= mask


def test_measured_programs_run_in_lanes():
    programs = [ctrl.program for ctrl, _ in measured_runs()]
    assert len(programs) == 4 + 4 * 4 + 4 * (3 + 2) + 1
    for seed, prog in enumerate(programs):
        assert_lanes_agree(prog, CycleCostModel(3, 2), 3, grid_seed=3 * seed)


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("cost", COST_MODELS)
def test_static_stats_equal_the_reference_stats(cost, lanes, references):
    # Statistics do not depend on data, so the reference run's stats on
    # a random grid are those a traced run on any grid counts.
    for ctrl, env, reference in references[cost, lanes]:
        static = ExecutionStats()
        ctrl.count(static, lanes, cost)
        assert static == reference[1], ctrl.program.name


@pytest.mark.parametrize("variant,calls", [(128, 1), (256, 2)])
def test_an_aes_pass_is_one_fabric_call_per_stretch(monkeypatch, variant,
                                                   calls):
    # AES-256 reloads its key region halfway, which cuts the pass in two.
    runs = []
    run = Subarray.run
    monkeypatch.setattr(Subarray, "run",
                        lambda sub, cmds: runs.append(len(cmds)) or
                        run(sub, cmds))
    stats = ExecutionStats()
    modes.ecb_crypt(bytes(variant // 8), bytes(16), stats=stats)
    assert len(runs) == calls and sum(runs) == stats.commands


def test_compiled_code_is_shared_across_lane_counts(monkeypatch):
    prog = replace(aes.build_aes_program(128, "decrypt", "post"),
                   host_actions=[])
    ctrl = Controller(prog)
    ctrl.run(Subarray(block_width=prog.block_width))
    compiled = []
    monkeypatch.setattr(fabric, "compile",
                        lambda *args: compiled.append(args) or compile(*args),
                        raising=False)
    for lanes in (2, 3, 5, 64):
        ctrl.run(Subarray(block_width=prog.block_width, lanes=lanes))
    assert compiled == []
    for name in prog.functions:
        window = ctrl._window(name)
        assert len({window.bind(k).__code__ for k in (1, 2, 3, 5, 64)}) == 1


@pytest.mark.parametrize("cost", COST_MODELS)
def test_final_ghash_program_agrees(cost):
    (_, env), = ghash.stage([bytes(range(16))],
                            [[bytes([i] * 16) for i in range(8)]])
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
    # name: (window, offset of the command load names)
    "bad option": ([CommandWord(Opcode.RD_ROW, 1, 0b1001),
                    CommandWord.wr_row(2)], 0),
    "row off the grid": ([CommandWord.rd_row(1), CommandWord.wr_row(128)], 1),
    "dangling act_row": (logic(1, LogicKind.XOR, 2, 3)
                         + [CommandWord.act_row(4)], 3),
    "logic_op without act_row": ([CommandWord.logic_op(1, LogicKind.AND)], 0),
    "ext_bit width mismatch": ([CommandWord.ext_bit(3, 64),
                                CommandWord.wr_row(5)], 0),
    "logic_op option bit 3": ([CommandWord.act_row(1),
                               CommandWord(Opcode.LOGIC_OP, 2, 0b1000)], 1),
    "logic_op option bit 0": ([CommandWord.act_row(1),
                               CommandWord(Opcode.LOGIC_OP, 2, 0b0001)], 1),
    "unarmed act_row": ([CommandWord(Opcode.ACT_ROW, 1, 0),
                         CommandWord.logic_op(2, LogicKind.XOR)], 0),
    "act_row off the grid": (logic(200, LogicKind.XOR, 2, 3), 0),
    "logic_op off the grid": (logic(1, LogicKind.XOR, 200, 3), 1),
    **{f"wr_row option bit {b}": ([CommandWord.rd_row(1), CommandWord(
        Opcode.WR_ROW, 2, 0b1000 | 1 << b)], 1) for b in range(3)},
    "shift without valid flag": ([CommandWord.rd_row(1),
                                  CommandWord(Opcode.SHIFT, 3, 0b0000)], 1),
    "shift option bit 0": ([CommandWord.rd_row(1),
                            CommandWord(Opcode.SHIFT, 3, 0b1001)], 1),
    "ext_bit option bit 0": ([CommandWord(
        Opcode.EXT_BIT, 3, BLOCK_WIDTHS.index(COLS) << 1 | 1)], 0),
    "ext_bit width code 6": ([CommandWord(Opcode.EXT_BIT, 3, 6 << 1)], 0),
}


@pytest.mark.parametrize("name", UNCLEAN)
def test_unclean_windows_run_on_the_reference(name):
    # Only the reference runs them, and it raises; load rejects them.
    cmds, offset = UNCLEAN[name]
    with pytest.raises(ControllerError, match=f"function F command {offset}:"):
        Controller(program(cmds))
    with pytest.raises(fabric.FabricError):
        Subarray().run(cmds * 2)


def test_strided_shift_runs_on_the_reference():
    # The compiler does not lower a strided shift, so load rejects it;
    # the reference runs its resolved commands.
    cmds = [CommandWord.rd_row(1), CommandWord.shift(3),
            CommandWord.wr_row(2)]
    with pytest.raises(ControllerError, match="function F command 1:"):
        Controller(program(cmds, [StrideRule(1, 4)],
                           [Invocation("F", 3, 0)], width=16))
    sub = Subarray(block_width=16)
    for g in range(3):
        sub.run([cmds[0], CommandWord.shift(3 + 4 * g), cmds[2]])
    assert sub.cycle_count == 3 * 3 + (3 + 7 + 11)


def test_two_stride_rules_on_one_command_run_on_the_reference():
    # Validation checks each rule alone; together they reach row 140,
    # which the reference rejects.  Load rejects the pair.
    cmds = [CommandWord.rd_row(100), CommandWord.wr_row(1)]
    with pytest.raises(ControllerError, match="function F command 0:"):
        Controller(program(cmds, [StrideRule(0, 20), StrideRule(0, 20)]))
    with pytest.raises(RowOutOfRange):
        Subarray().run([CommandWord.rd_row(140), cmds[1]])


def test_non_integer_stride_is_rejected_at_load():
    # 1.0 must not share the cached window of the rule with increment 1
    # or reach generated source: no engine runs it.
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(10)]
    assert Controller(program(cmds, [StrideRule(0, 1)]))._window("F")
    with pytest.raises(ControllerError):
        Controller(program(cmds, [StrideRule(0, 1.0)]))


LATCH_WINDOWS = {
    # the latch one iteration leaves is read by the next
    "shift only": [CommandWord.shift(3)],
    "shift, store, reload": [CommandWord.shift(1, right=True),
                             CommandWord.wr_row(2), CommandWord.rd_row(3)],
    # every iteration sets the latch before reading it
    "load, shift, store, shift": [CommandWord.rd_row(1), CommandWord.shift(2),
                                  CommandWord.wr_row(1), CommandWord.shift(1)],
}


@pytest.mark.parametrize("name", LATCH_WINDOWS)
@pytest.mark.parametrize("lanes", [1, 2])
def test_latch_across_iterations(name, lanes):
    prog = program(LATCH_WINDOWS[name], schedule=[Invocation("F", 3, 0)],
                   width=16)
    assert Controller(prog)._window("F") is not None
    assert_lanes_agree(prog, CycleCostModel(), lanes, grid_seed=5)


def test_strided_rows_alias_constant_rows():
    # Iteration G reads rows G and G + 1 through strided commands, and
    # every iteration writes rows 2 and 4 through constant ones, so
    # iterations 1 to 3 read rows an earlier iteration wrote: rows a
    # stride reaches must not be kept in locals.
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(2),
            CommandWord.rd_row(1), CommandWord.shift(1), CommandWord.wr_row(4)]
    prog = program(cmds, [StrideRule(0, 1), StrideRule(2, 1)],
                   [Invocation("F", 5, 0)], width=16)
    assert_lanes_agree(prog, CycleCostModel(), 2, grid_seed=9)


# A load of a local before the body, or its store after it: the only
# lines that name one row both as a local and in ``g``.
_LOAD_OR_STORE = re.compile(r" *(r(\d+) = g\[\2\]|g\[(\d+)\] = r\3)$")


def body_rows(window):
    """The ``g[...]`` subscripts and the ``r<index>`` locals the body of a
    compiled window names, looped or not."""
    body = "\n".join(line for line in window.source.splitlines()[1:]
                     if not _LOAD_OR_STORE.match(line)
                     and "for G in" not in line)
    return (set(re.findall(r"g\[(\d+)(?: \+ (-?\d+) \* G)?\]", body)),
            {int(i) for i in re.findall(r"\br(\d+)\b", body)})


def test_strided_write_and_read_alias_constant_rows():
    # Iterations 2..5: the strided wr_row writes rows 8, 6, 4, 2 and the
    # strided logic_op reads rows 7, 6, 5, 4, while constant commands
    # read and write rows 4 and 6 every iteration.  Rows 20 and 21 are
    # out of every stride's reach.
    cmds = ([CommandWord.rd_row(4), CommandWord.shift(1),
             CommandWord.wr_row(12)]
            + logic(6, LogicKind.XOR, 9, 6)
            + [CommandWord.rd_row(6), CommandWord.shift(2, right=True),
               CommandWord.wr_row(4)]
            + logic(20, LogicKind.OR, 4, 21))
    prog = program(cmds, [StrideRule(2, -2), StrideRule(4, -1)],
                   [Invocation("F", 4, 2)], width=16)
    subscripts, local_rows = body_rows(Controller(prog)._window("F"))
    assert subscripts == {("4", ""), ("6", ""), ("12", "-2"), ("9", "-1")}
    assert local_rows == {20, 21}
    for lanes in (1, 2, 3):
        for cost in COST_MODELS:
            assert_lanes_agree(prog, cost, lanes, grid_seed=11 * lanes)


def test_measured_windows_index_the_grid_only_for_shared_rows():
    fused = set()
    for ctrl, _ in measured_runs():
        prog = ctrl.program
        for f in prog.functions.values():
            spans = {g for inv in prog.schedule if inv.function == f.name
                     for g in range(inv.iteration_base,
                                    inv.iteration_base + inv.iterations)}
            strided = {(str(prog.commands[f.base + s.offset].index),
                        str(s.increment)) for s in f.strides}
            shared = {int(index) + int(inc) * g
                      for index, inc in strided for g in spans}
            window = ctrl._window(f.name)
            looped = any(inv.iterations > 1 for inv in prog.schedule
                         if inv.function == f.name)
            if window.fused:
                # One multiply per lane runs every iteration: no loop.
                fused.add((prog.name, f.name))
                assert "for G in" not in window.source
            else:
                assert ("for G in" in window.source) == looped
            subscripts, local_rows = body_rows(window)
            assert {(i, inc) for i, inc in subscripts if inc} == strided
            assert {int(i) for i, inc in subscripts if not inc} <= shared
            assert not local_rows & shared, (prog.name, f.name)
            if f.name == "StatePermute":
                # Only iota's round-constant read goes through the grid.
                assert subscripts == {(str(keccak.SHA3_LAYOUT.row("rc", 0)),
                                       "1")}
                assert len(local_rows) > 25
    # Exactly the GHASH programs' multiply loops are fused.
    ghash_programs = {ctrl.program.name for ctrl, _ in measured_runs()
                      if ctrl.program.name.startswith("ghash")}
    assert ghash_programs
    assert fused == {(name, "GaloisMult") for name in ghash_programs}


def test_pending_activation_at_start_matches():
    prog = program(logic(1, LogicKind.OR, 2, 3))
    assert Controller(prog)._window("F") is not None
    error = assert_engines_agree(prog, {}, CycleCostModel(), pending=7)[0]
    assert error is not None


def mac_window(v=0, p=1, m=2, u=3, width=COLS, bit=0, count=1,
               multiply=LogicKind.AND, add=LogicKind.XOR):
    """GHASH's multiply-accumulate step on rows V, P, M and U, or with
    keyword arguments a near miss of it."""
    ext = fabric.EXT_ROW
    return ([CommandWord.ext_bit(bit, width), CommandWord.wr_row(m)]
            + logic(v, multiply, m, u) + logic(p, add, u, p)
            + [CommandWord.rd_row(v), CommandWord.shift(count, right=True),
               CommandWord.wr_row(v), CommandWord.rd_row(ext),
               CommandWord.shift(count), CommandWord.wr_row(ext)])


def assert_loop_agrees(cmds, width, iterations, first, cost, **setup):
    """Run ``cmds`` as a looped window compiled without strides, from
    global iteration ``first``, and on the reference; both must leave
    the same rows, latch and cycles.  Returns the compiled window."""
    # A looped run beside it keeps N = 1 on the looped lowering.
    window = compile_window(tuple(c.encode() for c in cmds), (), width,
                            [(first, iterations), (first, 2)])
    ends = []
    for compiled in (True, False):
        sub = random_subarray(width, cost, **setup)
        run = (CompiledRun([(window, first, iterations)], sub.lanes, cost)
               if compiled else cmds * iterations)
        ends.append((sub.run(run), sub.grid, sub.sa_latch, sub.cycle_count))
    assert ends[0] == ends[1]
    return window


# Iteration counts around the 128 GHASH runs and the 256 columns past
# which V and the broadcast row are all shifted out.
MAC_ITERATIONS = [1, 2, 127, 128, 129, 255, 256, 257]


def test_the_ghash_multiply_loop_is_fused():
    layout = ghash.GHASH_LAYOUT
    assert ghash.gen_galois_mult() == mac_window(
        layout.row("mult"), layout.row("product"), layout.row("scratch", 3),
        layout.row("scratch", 1))
    assert Controller(ghash.build_ghash_program(1))._window(
        "GaloisMult").fused
    # A window every invocation runs once compiles without a loop, and
    # is not fused.
    assert not Controller(program(mac_window(), schedule=[
        Invocation("F", 1, 0), Invocation("F", 1, 1)]))._window("F").fused


@pytest.mark.parametrize("lanes", [1, 2, 3, 8])
@settings(max_examples=2, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.lists(st.integers(0, 126), min_size=4, max_size=4, unique=True),
       st.integers(1, 2 ** 16), st.integers(0, 2 ** 32))
def test_fused_multiply_accumulate_agrees(lanes, rows, first, seed):
    # On random rows, and on all-ones V and broadcast row, the most
    # carries a product can make.  A failing example is reported as
    # drawn: each example runs every iteration count, so shrinking one
    # reruns thousands of reference iterations per step.
    cmds = mac_window(*rows)
    for iterations in MAC_ITERATIONS:
        for ones in ((), (rows[0], fabric.EXT_ROW)):
            for cost in COST_MODELS:
                assert assert_loop_agrees(cmds, COLS, iterations, first, cost,
                                          lanes=lanes, grid_seed=seed,
                                          ones=ones).fused


NEAR_MISSES = {
    "shift count 2": {"count": 2},
    "ext_bit 1": {"bit": 1},
    "AND to OR": {"multiply": LogicKind.OR},
    "XOR to OR": {"add": LogicKind.OR},
    "M aliased to U": {"u": 2},
    "V aliased to P": {"p": 0},
    "block width 128": {"width": 128},
}


@pytest.mark.parametrize("name", NEAR_MISSES)
@settings(max_examples=3, deadline=None)
@given(st.sampled_from(MAC_ITERATIONS), st.sampled_from([1, 2, 3, 8]),
       st.booleans(), st.integers(0, 2 ** 32))
def test_near_miss_multiply_loops_agree(name, iterations, lanes, ones, seed):
    # The generic lowering runs them.
    change = NEAR_MISSES[name]
    for cost in COST_MODELS:
        assert not assert_loop_agrees(
            mac_window(**change), change.get("width", COLS), iterations, 5,
            cost, lanes=lanes, grid_seed=seed,
            ones=(0, fabric.EXT_ROW) if ones else ()).fused


def clmul(a, b):
    """Carry-less product of two non-negative ints, shift and XOR."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    return product


def mac_lane(v, e, p, n):
    """One lane's V, E, M, U and P after ``n`` fused steps, by the
    closed form of :class:`~pimcrypt.fabric.CompiledWindow`."""
    k = min(n, COLS)
    m = LANE if n <= COLS and e >> (n - 1) & 1 else 0
    return ((v << n) & LANE, e >> n, m, (v << (n - 1)) & LANE & m,
            p ^ clmul(v, e & ((1 << k) - 1)) & LANE)


def fused_window(iterations):
    """The multiply-accumulate step on rows 0-3, compiled as a loop for
    ``iterations`` from global iteration 0."""
    # A looped run beside it keeps N = 1 on the looped lowering.
    return compile_window(tuple(c.encode() for c in mac_window()), (), COLS,
                          [(0, iterations), (0, 2)])


lane_values = st.one_of(st.integers(0, LANE), st.just(LANE), st.just(0))


@st.composite
def mac_calls(draw):
    """A lane count and a list of (V, E, P, N) calls, each row one value
    per lane.  V comes from a pool of rows, one of them another's lanes
    in reverse order, so calls repeat V, change it, reorder it and return
    to a row they left, whose tables the subarray no longer keeps."""
    lanes = draw(st.sampled_from([1, 2, 3, 8]))
    row = st.lists(lane_values, min_size=lanes, max_size=lanes)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    pool.append(pool[0][::-1])
    calls = draw(st.lists(st.tuples(
        st.sampled_from(pool), row, row,
        st.one_of(st.sampled_from(MAC_ITERATIONS), st.integers(1, 300))),
        min_size=1, max_size=12))
    return lanes, calls


@settings(max_examples=150, deadline=None)
@given(mac_calls(), st.sampled_from(COST_MODELS))
def test_bound_multiply_is_a_carry_less_multiply(case, cost):
    # Repeated calls on one subarray, so one table store: a table kept
    # for a V row it was not built from, or for another lane, fails.
    lanes, calls = case
    v_row, p_row, m_row, u_row = 0, 1, 2, 3
    sub = Subarray(cost_model=cost, lanes=lanes)
    for v, e, p, n in calls:
        window = fused_window(n)
        sub.write_row(v_row, fabric.lanes_to_row(v))
        sub.write_row(fabric.EXT_ROW, fabric.lanes_to_row(e))
        sub.write_row(p_row, fabric.lanes_to_row(p))
        run = CompiledRun([(window, 0, n)], lanes, cost)
        assert sub.run(run) == n * lanes * window.cycles(cost)
        want = [mac_lane(*lane, n) for lane in zip(v, e, p)]
        got = [fabric.row_to_lanes(sub.grid[r], lanes)
               for r in (v_row, fabric.EXT_ROW, m_row, u_row, p_row)]
        assert got == [list(col) for col in zip(*want)]
        assert sub.sa_latch == sub.grid[fabric.EXT_ROW]
        assert list(sub.tables) == [fabric.lanes_to_row(v)]


def fused_run(sub, v_rows):
    """Multiply by each V row in turn on ``sub``; returns its store."""
    run = CompiledRun([(fused_window(128), 0, 128)], sub.lanes,
                      sub.cost_model)
    for v in v_rows:
        sub.write_row(0, v)
        sub.write_row(fabric.EXT_ROW, v ^ LANE * sub._fill)
        sub.run(run)
    return sub.tables


def test_byte_tables_live_with_the_subarray():
    one, two = Subarray(lanes=2), Subarray(lanes=2)
    a, b = (fabric.lanes_to_row([x, x + 1]) for x in (3, 7))
    assert fused_run(one, [a]) is not fused_run(two, [b])
    assert list(one.tables) == [a] and list(two.tables) == [b]
    one.reset()
    assert not one.tables and list(two.tables) == [b]
    # Only the store holds V rows: the bound multiply's own dict is
    # keyed by iteration count.
    mac = fused_window(128).bind(2).__globals__["mac"]
    for cell in mac.__closure__:
        if isinstance(cell.cell_contents, dict):
            assert all(key < 2 ** 16 for key in cell.cell_contents)


def test_byte_tables_are_capped():
    # A subarray keeps the tables of the last V row only.
    sub = Subarray(lanes=3)
    v_rows = [fabric.lanes_to_row([x, 2 * x, 3 * x + 1]) for x in range(1, 5)]
    tables = fused_run(sub, v_rows)
    assert list(tables) == v_rows[-1:]
    assert all(len(lane) == 256 for lanes in tables.values()
               for lane in lanes)
    kept = tables[v_rows[-1]]
    fused_run(sub, [v_rows[-1]])
    assert list(tables) == v_rows[-1:] and tables[v_rows[-1]] is kept
    fused_run(sub, v_rows[:1])
    assert list(tables) == v_rows[:1]


rows = st.integers(0, 127)
indices = st.integers(0, 255)


def segments(width):
    """One valid command, or one act_row + logic_op + wr_row triple; a
    NOT's index, which names no row, may be any 8-bit value."""
    return st.one_of(
        st.builds(lambda r: [CommandWord.rd_row(r)], rows),
        st.builds(lambda r: [CommandWord.wr_row(r)], rows),
        st.builds(lambda n, right: [CommandWord.shift(n, right)],
                  st.one_of(st.integers(0, width - 1), indices),
                  st.booleans()),
        st.builds(lambda c: [CommandWord.ext_bit(c, width)],
                  st.one_of(st.integers(0, 2), indices)),
        st.builds(logic, rows, st.sampled_from(list(LogicKind)), rows, rows),
        st.builds(lambda a, i, dst: logic(a, LogicKind.NOT, i, dst), rows,
                  indices, rows))


@st.composite
def windows(draw):
    """A block width and a window of valid commands, in which at most one
    command may get an arbitrary option nibble or one arbitrary command
    word may be spliced in."""
    width = draw(st.sampled_from(BLOCK_WIDTHS[:5]))
    cmds = sum(draw(st.lists(segments(width), min_size=1, max_size=10)), [])
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


ROW_OPCODES = (Opcode.RD_ROW, Opcode.WR_ROW, Opcode.ACT_ROW, Opcode.LOGIC_OP)


def names_row(cmd):
    """Whether ``cmd``'s index is a grid row: a NOT reads no second row."""
    return cmd.opcode in ROW_OPCODES and not (
        cmd.opcode is Opcode.LOGIC_OP and cmd.option >> 1 == LogicKind.NOT)


def accepted_options(opcode, width):
    """The option nibbles the fabric accepts; shift ignores bit 1."""
    return {Opcode.RD_ROW: [0b1000], Opcode.WR_ROW: [0b1000],
            Opcode.SHIFT: [0b1000, 0b1010, 0b1100, 0b1110],
            Opcode.ACT_ROW: [0b0001], Opcode.LOGIC_OP: [0, 2, 4, 6],
            Opcode.EXT_BIT: [BLOCK_WIDTHS.index(width) << 1]}[opcode]


@st.composite
def loadable_programs(draw, max_iterations=3):
    """A one-function program that loads: like :func:`windows`, but the
    option mutation draws a nibble the fabric accepts (a NOT's off the
    grid stays a NOT), the splice puts a valid rd_row, wr_row, shift or
    ext_bit word between two segments, and at most two stride rules sit
    on distinct row-addressing commands or NOTs and keep their rows on
    the grid, and a NOT's index in its 8-bit field, for every iteration
    the schedule runs; some row-addressing commands without a rule
    address rows a rule reaches.  Each invocation runs 1 to
    ``max_iterations`` iterations."""
    width = draw(st.sampled_from(BLOCK_WIDTHS[:5]))
    parts = draw(st.lists(segments(width), min_size=1, max_size=10))
    change = draw(st.sampled_from(["none", "option", "splice"]))
    if change == "splice":
        op = draw(st.sampled_from([Opcode.RD_ROW, Opcode.WR_ROW,
                                   Opcode.SHIFT, Opcode.EXT_BIT]))
        word = CommandWord(op, draw(rows if op in ROW_OPCODES else indices),
                           draw(st.sampled_from(accepted_options(op, width))))
        parts.insert(draw(st.integers(0, len(parts))), [word])
    cmds = sum(parts, [])
    if change == "option":
        i = draw(st.integers(0, len(cmds) - 1))
        op, index = cmds[i].opcode, cmds[i].index
        cmds[i] = CommandWord(op, index, draw(st.sampled_from([
            o for o in accepted_options(op, width)
            if index < 128 or not names_row(CommandWord(op, index, o))])))
    invocations = draw(st.lists(st.tuples(st.integers(1, max_iterations),
                                          st.integers(0, 3)),
                                min_size=1, max_size=3))
    last = max(n + base - 1 for n, base in invocations)
    strided = [i for i, c in enumerate(cmds) if c.opcode in ROW_OPCODES]
    rules = []
    for off in draw(st.lists(st.sampled_from(strided), max_size=2,
                             unique=True)) if strided else []:
        index, end = cmds[off].index, 128 if names_row(cmds[off]) else 256
        rules.append(StrideRule(off, draw(st.integers(-2, 2).filter(
            lambda inc: 0 <= index + inc * last < end))))
    # Move some constant row accesses onto rows a stride reaches, so that
    # strided and constant accesses alias often, not by chance.
    reach = sorted({cmds[r.offset].index + r.increment * g for r in rules
                    if names_row(cmds[r.offset])
                    for n, base in invocations for g in range(base, base + n)})
    constant = [i for i in strided if i not in {r.offset for r in rules}]
    if reach and constant:
        for i in draw(st.lists(st.sampled_from(constant), unique=True)):
            cmds[i] = CommandWord(cmds[i].opcode, draw(st.sampled_from(reach)),
                                  cmds[i].option)
    return program(cmds, rules,
                   [Invocation("F", n, base) for n, base in invocations],
                   width)


@settings(max_examples=300, deadline=None)
@given(loadable_programs(), st.integers(0, 2 ** 32),
       st.sampled_from([None, None, None, 7]), st.integers(1, 3))
def test_generated_windows_agree(prog, seed, pending, lanes):
    Controller(prog)    # loads, so both engines run every example
    for cost in COST_MODELS:
        assert_lanes_agree(prog, cost, lanes, grid_seed=seed, pending=pending)


@settings(max_examples=200, deadline=None)
@given(loadable_programs(max_iterations=1), st.integers(0, 2 ** 32),
       st.sampled_from([None, None, None, 7]), st.integers(1, 3))
def test_generated_one_iteration_windows_agree(prog, seed, pending, lanes):
    # No invocation repeats the window, so it compiles without a loop and
    # runs its global iteration (each invocation's base) once.
    assert "for G in" not in Controller(prog)._window("F").source
    for cost in COST_MODELS:
        assert_lanes_agree(prog, cost, lanes, grid_seed=seed, pending=pending)


@settings(max_examples=300, deadline=None)
@given(windows(), st.lists(st.tuples(st.integers(0, 60), st.integers(-3, 3)),
                           max_size=2),
       st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=3),
       st.integers(0, 2 ** 32))
def test_load_rejects_exactly_what_the_compiler_declines(window, strides,
                                                         runs, seed):
    # Stride offsets up to one past the window, negative increments and
    # run sets from nonzero bases, or none: an unscheduled window.  Load
    # rejects a window if and only if the reference faults on one of its
    # runs or the window is a form the compiler does not lower.
    width, cmds = window
    rules = [StrideRule(off % (len(cmds) + 1), inc) for off, inc in strides]
    prog = replace(program(cmds, rules, width=width),
                   schedule=[Invocation("F", n, base) for base, n in runs])
    try:
        compile_window(tuple(c.encode() for c in cmds),
                       tuple((r.offset, r.increment) for r in rules), width,
                       runs)
    except fabric.WindowRejected as exc:
        declined = True
        with pytest.raises(ControllerError,
                           match=f"^function F command {exc.offset}: "):
            Controller(prog)
    else:
        declined = False
        Controller(prog)
        for cost in COST_MODELS:
            assert assert_engines_agree(prog, {}, cost,
                                        grid_seed=seed)[0] is None
    assert declined == (unlowered(cmds, rules)
                        or reference_faults(cmds, rules, width, runs))


def unlowered(cmds, rules):
    """Whether a rule sits outside the window, on a shift or ext_bit, or
    on a command another rule strides."""
    offsets = [r.offset for r in rules]
    return len(set(offsets)) < len(offsets) or any(
        off >= len(cmds) or cmds[off].opcode in (Opcode.SHIFT, Opcode.EXT_BIT)
        for off in offsets)


def reference_faults(cmds, rules, width, runs):
    """Whether the reference, resolving ``rules`` as the controller does,
    raises on one of ``runs`` (iteration 0 if there are none) or leaves
    an activation pending after them."""
    sub = Subarray(block_width=width)
    try:
        for base, n in runs or [(0, 1)]:
            for g in range(base, base + n):
                resolved = list(cmds)
                for r in rules:
                    old = resolved[r.offset]
                    resolved[r.offset] = CommandWord(
                        old.opcode, old.index + r.increment * g, old.option)
                sub.run(resolved)
    except (fabric.FabricError, IsaError):
        return True
    return sub.pending_row is not None


@pytest.mark.parametrize("index", [120, 200])
def test_a_strided_not_loads_and_agrees(index):
    # A NOT reads only its activated row, so its index names no row and
    # a stride that drives it past row 127 moves nothing: the window
    # loads and leaves the rows, latch and cycles of the reference.
    prog = program(logic(1, LogicKind.NOT, index, 2), [StrideRule(1, 5)],
                   [Invocation("F", 3, 0)])
    assert "* G]" not in Controller(prog)._window("F").source
    for cost in COST_MODELS:
        assert assert_engines_agree(prog, {}, cost, grid_seed=index)[0] is None
        assert_lanes_agree(prog, cost, 2, grid_seed=index)


def test_a_strided_not_past_the_index_field_is_rejected():
    # In iteration 2 the stride makes index 260, which no command word
    # holds: the reference cannot resolve it, and load rejects it.
    cmds = logic(1, LogicKind.NOT, 250, 2)
    with pytest.raises(ControllerError,
                       match="command 1: stride targets index 260 at "
                             "iteration 2$"):
        Controller(program(cmds, [StrideRule(1, 5)], [Invocation("F", 3, 0)]))
    assert reference_faults(cmds, [StrideRule(1, 5)], 256, [(0, 3)])
