import pytest
from hypothesis import given, settings, strategies as st

from pimcrypt.fabric import (COLS, BlockWidthMismatch, CompiledRun,
                             CycleCostModel, EXT_ROW, LaneRows,
                             PendingActivation, RowOutOfRange, Subarray,
                             UnsupportedOption, WindowRejected,
                             compile_window, row_to_lanes)
from pimcrypt.isa import BLOCK_WIDTHS, CommandWord, IsaError, LogicKind

row_values = st.integers(0, (1 << 256) - 1)


def logic_seq(a, b, kind, dst):
    return [CommandWord.act_row(a), CommandWord.logic_op(b, kind),
            CommandWord.wr_row(dst)]


@given(row_values, row_values, st.sampled_from(list(LogicKind)))
def test_logic_matches_host_reference(a, b, kind):
    sub = Subarray()
    sub.write_row(0, a)
    sub.write_row(1, b)
    sub.run(logic_seq(0, 1, kind, 2))
    mask = (1 << 256) - 1
    expect = {LogicKind.AND: a & b, LogicKind.OR: a | b,
              LogicKind.XOR: a ^ b, LogicKind.NOT: ~a & mask}[kind]
    assert sub.read_row(2) == expect


@given(row_values, st.sampled_from(BLOCK_WIDTHS[:-1]), st.integers(0, 255),
       st.booleans())
def test_shift_confined_to_segments(value, width, count, right):
    sub = Subarray(block_width=width)
    sub.write_row(0, value)
    sub.run([CommandWord.rd_row(0), CommandWord.shift(count, right=right),
             CommandWord.wr_row(1)])
    out = sub.read_row(1)
    mask = (1 << width) - 1
    for seg in range(COLS // width):
        seg_in = value >> (seg * width) & mask
        if right:
            expect = (seg_in << count) & mask if count < width else 0
        else:
            expect = seg_in >> count
        assert out >> (seg * width) & mask == expect


def test_shift_zero_is_noop():
    sub = Subarray()
    sub.write_row(0, 12345)
    sub.run([CommandWord.rd_row(0), CommandWord.shift(0),
             CommandWord.wr_row(1)])
    assert sub.read_row(1) == 12345


def test_pending_activation_protocol():
    sub = Subarray()
    sub.execute(CommandWord.act_row(3))
    with pytest.raises(PendingActivation):
        sub.execute(CommandWord.rd_row(0))
    sub.reset()
    # logic_op without a preceding act_row is also a protocol violation
    with pytest.raises(PendingActivation):
        sub.execute(CommandWord.logic_op(1, LogicKind.AND))


@pytest.mark.parametrize("access", [
    lambda s: s.read_row(3), lambda s: s.read_rows(3, 1),
    lambda s: s.write_row(3, 1), lambda s: s.write_rows(3, [1])],
    ids=["read_row", "read_rows", "write_row", "write_rows"])
def test_host_port_refuses_access_during_dual_row_activation(access):
    # read_row used to return the row while the other three raised.
    sub = Subarray()
    sub.execute(CommandWord.act_row(3))
    with pytest.raises(PendingActivation):
        access(sub)


def test_ext_bit_broadcasts_segmentwise():
    sub = Subarray(block_width=16)
    pattern = sum(1 << (16 * s) for s in range(16) if s % 2)
    sub.write_row(EXT_ROW, pattern)
    sub.run([CommandWord.ext_bit(0, 16), CommandWord.wr_row(5)])
    seg_mask = (1 << 16) - 1
    for s in range(16):
        seg = sub.read_row(5) >> (16 * s) & seg_mask
        assert seg == (seg_mask if s % 2 else 0)


def test_row_bounds():
    sub = Subarray()
    with pytest.raises(RowOutOfRange):
        sub.execute(CommandWord.rd_row(128))
    with pytest.raises(RowOutOfRange):
        sub.write_row(200, 1)


def test_bus_routed_write_rejected():
    sub = Subarray()
    from pimcrypt.isa import CommandWord as CW, Opcode
    with pytest.raises(UnsupportedOption):
        sub.execute(CW(Opcode.WR_ROW, 0, 0))


def test_cycle_accounting():
    sub = Subarray(cost_model=CycleCostModel(1, 1))
    sub.write_row(0, 7)
    sub.run([CommandWord.rd_row(0), CommandWord.shift(5),
             CommandWord.wr_row(1)])
    assert sub.cycle_count == 1 + (1 + 5) + 1
    sub2 = Subarray(cost_model=CycleCostModel(2, 3))
    sub2.write_row(0, 7)
    sub2.run([CommandWord.rd_row(0), CommandWord.shift(5),
              CommandWord.wr_row(1)])
    assert sub2.cycle_count == 2 + (2 + 15) + 2


@settings(max_examples=20)
@given(st.lists(st.integers(0, 127), min_size=1, max_size=30), row_values)
def test_determinism(rows, seed):
    def run():
        sub = Subarray()
        sub.write_row(0, seed)
        for r in rows:
            sub.run(logic_seq(0, r, LogicKind.XOR, r))
        return sub.grid[:], sub.sa_latch, sub.cycle_count
    assert run() == run()


def test_reset():
    sub = Subarray()
    sub.write_row(3, 99)
    sub.execute(CommandWord.rd_row(3))
    sub.reset()
    assert sub.read_row(3) == 0 and sub.sa_latch == 0
    assert sub.cycle_count == 0 and sub.pending_row is None


def test_host_port_costs_no_cycles():
    sub = Subarray()
    sub.write_row(0, 1)
    assert sub.read_row(0) == 1
    assert sub.cycle_count == 0


@pytest.mark.parametrize("command,step", [(0, 0), (-5, 1), (1, -1),
                                          (1.0, 1), (1, 0.5)])
def test_cost_model_rejects_what_no_hardware_costs(command, step):
    with pytest.raises(ValueError):
        CycleCostModel(command, step)


def test_cost_model_allows_free_shifts():
    sub = Subarray(cost_model=CycleCostModel(1, 0))
    assert sub.run([CommandWord.shift(5)]) == 1


@pytest.mark.parametrize("width", [512, 8, 16.0, 48])
def test_unsupported_block_width_rejected(width):
    with pytest.raises(BlockWidthMismatch):
        Subarray(block_width=width)
    with pytest.raises(BlockWidthMismatch):
        compile_window((CommandWord.rd_row(0).encode(),), (), width, [(0, 1)])


@pytest.mark.parametrize("lanes", [0, -1, True, 1.0])
def test_a_lane_count_below_one_or_not_an_int_is_rejected(lanes):
    with pytest.raises(ValueError, match="lanes must be a positive int"):
        Subarray(lanes=lanes)


def test_write_rows_is_write_row_per_row():
    # Values are masked to the lanes' columns, as write_row masks them.
    values = [-1, 1 << 600, (1 << 512) + 7, 3]
    bulk, single = Subarray(lanes=2), Subarray(lanes=2)
    bulk.write_rows(124, values)
    for i, value in enumerate(values):
        single.write_row(124 + i, value)
    assert bulk.grid == single.grid
    assert bulk.read_row(124) == (1 << 512) - 1 and bulk.read_row(126) == 7
    assert len(bulk.grid) == 128 and bulk.cycle_count == 0


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("bad", [-1, -(1 << 300), "wide"])
def test_write_rows_masks_one_value_out_of_range(lanes, bad):
    # In-range rows skip the per-value mask; one value outside the row
    # width, below 0 or above, still masks the whole write.
    width = 256 * lanes
    bad = (1 << width) + 9 if bad == "wide" else bad
    top = (1 << width) - 1
    for at in (0, 2):
        values = [top, 5, 0]
        values[at] = bad
        sub = Subarray(lanes=lanes)
        sub.write_rows(10, values)
        assert sub.read_rows(10, 3) == [v & top for v in values]
    sub = Subarray(lanes=lanes)
    sub.write_rows(10, [top, 5, 0])
    assert sub.read_rows(10, 3) == [top, 5, 0]


@pytest.mark.parametrize("first,count", [(-1, 1), (126, 3), (128, 1)])
def test_write_rows_checks_the_whole_range(first, count):
    sub = Subarray()
    with pytest.raises(RowOutOfRange):
        sub.write_rows(first, [1] * count)
    assert sub.grid == [0] * 128


def test_write_rows_during_a_pending_activation():
    sub = Subarray()
    sub.execute(CommandWord.act_row(3))
    with pytest.raises(PendingActivation):
        sub.write_rows(0, [1, 2])
    assert sub.grid == [0] * 128


def test_read_rows_is_read_row_per_row():
    sub = Subarray(lanes=2)
    sub.write_rows(124, [-1, 5, 1 << 300, 3])
    assert sub.read_rows(124, 4) == [sub.read_row(124 + i) for i in range(4)]
    assert sub.read_rows(0, 0) == [] and sub.read_rows(0, 128) == sub.grid


@pytest.mark.parametrize("first,count",
                         [(-1, 1), (126, 3), (128, 1), (0, -1)])
def test_read_rows_checks_the_whole_range(first, count):
    with pytest.raises(RowOutOfRange):
        Subarray().read_rows(first, count)


def test_read_rows_during_a_pending_activation():
    sub = Subarray()
    sub.execute(CommandWord.act_row(3))
    with pytest.raises(PendingActivation):
        sub.read_rows(0, 2)


def test_lane_rows_are_written_as_a_masked_replicated_write():
    # One instance fills every lane of a subarray of any lane count.
    values = [-1, 1 << 600 | 0xABC, 7 << 253, 0]
    rows = LaneRows(values)
    masked = [v & (1 << 256) - 1 for v in values]
    assert rows == tuple(masked)
    for lanes in (1, 3, 64, 3):
        sub = Subarray(lanes=lanes)
        sub.write_rows(40, rows)
        assert [row_to_lanes(row, lanes) for row in sub.read_rows(40, 4)
                ] == [[v] * lanes for v in masked]


def test_compiled_run_must_match_lanes_and_cost():
    window = compile_window((CommandWord.rd_row(0).encode(),), (), 256,
                            [(0, 2)])
    run = CompiledRun([(window, 0, 2)], 2, CycleCostModel(3, 1))
    assert len(run) == 4 and run.cycles == 12
    for sub in (Subarray(lanes=1, cost_model=CycleCostModel(3, 1)),
                Subarray(lanes=2)):
        with pytest.raises(ValueError):
            sub.run(run)
    sub = Subarray(lanes=2, cost_model=CycleCostModel(3, 1))
    assert sub.run(run) == 12 and sub.cycle_count == 12


def test_a_compiled_run_refuses_another_block_width():
    # Compiled for 16-column segments, the shift would be confined to
    # them on a 256-wide subarray too.
    cmds = [CommandWord.rd_row(0), CommandWord.shift(4), CommandWord.wr_row(1)]
    window = compile_window(tuple(c.encode() for c in cmds), (), 16, [(0, 1)])
    run = CompiledRun([(window, 0, 1)], 1, CycleCostModel())
    sub = Subarray()
    sub.write_row(0, (1 << 256) - 1)
    with pytest.raises(BlockWidthMismatch, match="width 16 .* width 256"):
        sub.run(run)
    assert sub.read_row(1) == 0 and sub.sa_latch == 0
    assert sub.cycle_count == 0


def test_a_compiled_run_refuses_a_pending_activation():
    # The reference raises on rd_row during the activation, and leaves
    # it pending.
    cmds = [CommandWord.rd_row(0), CommandWord.wr_row(1)]
    window = compile_window(tuple(c.encode() for c in cmds), (), 256,
                            [(0, 1)])
    run = CompiledRun([(window, 0, 1)], 1, CycleCostModel())
    for engine in (run, cmds):
        sub = Subarray()
        sub.write_row(0, 5)
        sub.execute(CommandWord.act_row(3))
        with pytest.raises(PendingActivation):
            sub.run(engine)
        assert sub.pending_row == 3 and sub.cycle_count == 1
        assert sub.grid[1] == 0 and sub.sa_latch == 0


def test_a_compiled_run_takes_windows_of_one_block_width():
    words = (CommandWord.rd_row(0).encode(),)
    windows = [compile_window(words, (), width, [(0, 1)])
               for width in (16, 32)]
    with pytest.raises(ValueError, match="one block width"):
        CompiledRun([(window, 0, 1) for window in windows], 1,
                    CycleCostModel())


@pytest.mark.parametrize("runs,row,iteration", [
    ([(0, 2)], -1, 1), ([(1, 1)], -1, 1), ([(0, 1), (3, 1)], -3, 3)])
def test_a_stride_off_the_grid_is_rejected(runs, row, iteration):
    # Compiled, rd_row 0 with increment -1 would read row 128 + row; the
    # reference rejects the command the rule makes.
    words = (CommandWord.rd_row(0).encode(), CommandWord.wr_row(5).encode())
    with pytest.raises(WindowRejected,
                       match=f"row {row} at iteration {iteration}$"
                       ) as rejected:
        compile_window(words, ((0, -1),), 256, runs)
    assert rejected.value.offset == 0
    with pytest.raises(IsaError):
        CommandWord.rd_row(row)


def test_a_stride_offset_outside_the_window_is_rejected():
    with pytest.raises(WindowRejected,
                       match="stride offset 3 outside") as rejected:
        compile_window((CommandWord.rd_row(0).encode(),), ((3, 1),), 256,
                       [(0, 1)])
    assert rejected.value.offset == 3


@pytest.mark.parametrize("strides,runs", [
    ((), [(0, 0)]), ((), [(0, -1)]), (((0, 1.0),), [(0, 1)]),
    ((), [(0.0, 1)]), ((), [(0, True)])])
def test_malformed_strides_and_runs_are_rejected(strides, runs):
    with pytest.raises(ValueError, match="int pairs"):
        compile_window((CommandWord.rd_row(0).encode(),), strides, 256, runs)


def test_a_run_the_window_was_not_compiled_for_is_refused():
    # Row 2 lives in a local, written before the strided read, which in
    # iteration 1 reads row 2: the window was compiled for iteration 0
    # only, where it reads row 1, so row 2 is not a shared row and the
    # read would see row 2 as it was before the window ran.
    cmds = [CommandWord.rd_row(3), CommandWord.wr_row(2),
            CommandWord.rd_row(1), CommandWord.wr_row(4)]
    window = compile_window(tuple(c.encode() for c in cmds), ((2, 1),), 256,
                            [(0, 1)])
    for first, iterations in ((1, 1), (0, 2), (0, 0)):
        with pytest.raises(ValueError, match="not compiled for"):
            CompiledRun([(window, first, iterations)], 1, CycleCostModel())
    sub = Subarray()
    sub.write_rows(2, [9, 7])
    sub.run([cmds[0], cmds[1], CommandWord.rd_row(2), cmds[3]])
    assert sub.read_row(4) == 7
    # Compiled for both iterations, row 2 is shared and the run agrees.
    window = compile_window(tuple(c.encode() for c in cmds), ((2, 1),), 256,
                            [(0, 1), (1, 1)])
    sub = Subarray()
    sub.write_rows(2, [9, 7])
    sub.run(CompiledRun([(window, 1, 1)], 1, CycleCostModel()))
    assert sub.read_row(4) == 7
