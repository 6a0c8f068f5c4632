"""Fabric GHASH vs the independent oracle, plus pinned command counts."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pimcrypt import oracle
from pimcrypt.controller import OUTPUT, ExecutionStats
from pimcrypt.fabric import Subarray, lanes_to_row
from pimcrypt.kernels import ghash, modes


@pytest.mark.parametrize("nblocks", [1, 2, 7, 8, 9, 16, 20])
def test_digest_vs_oracle(nblocks, rng):
    h = rng.randbytes(16)
    data = rng.randbytes(16 * nblocks)
    assert modes.ghash_digest(h, data) == oracle.ghash(h, data)


def test_multi_pass_carry(rng):
    # Crossing the 8-block pass boundary must carry the unreduced product.
    h = rng.randbytes(16)
    data = rng.randbytes(16 * 8)
    extra = rng.randbytes(16 * 3)
    assert modes.ghash_digest(h, data + extra) == oracle.ghash(h, data + extra)


def _row_by_bit(block):
    """Reference for block_to_row: one column per loop step."""
    value = 0
    for i in range(128):
        if block[i // 8] >> (7 - i % 8) & 1:
            value |= 1 << i
    return value


def test_block_row_round_trip(rng):
    for _ in range(10):
        blk = rng.randbytes(16)
        assert ghash.block_to_row(blk) == _row_by_bit(blk)
        assert ghash.row_to_block(ghash.block_to_row(blk)) == blk
    # bits above column 127 are not part of the block
    assert ghash.row_to_block(_row_by_bit(blk) | 1 << 200) == blk


def test_quarter_rows_match_one_row_per_block(rng):
    # The reference builds each block's row on its own: every lane's
    # block reversed, as one lane row, masked to each quarter.
    for lanes in range(1, 9):
        fill = lanes_to_row([1] * lanes)
        quarters = [(((1 << 32) - 1) << 32 * q) * fill for q in range(4)]
        for nblocks in range(1, 9):
            lane_blocks = [[rng.randbytes(16) for _ in range(nblocks)]
                           for _ in range(lanes)]
            want = []
            for j in range(nblocks):
                row = lanes_to_row([ghash.block_to_row(blocks[j][::-1])
                                    for blocks in lane_blocks])
                want += [row & quarter for quarter in quarters]
            assert ghash.quarter_rows(lane_blocks) == want


# Pinned counts for the control-kernel budget. [DERIVED]
def test_step_command_counts():
    assert len(ghash.gen_byte_arrange()) == 72
    aligning, strides = ghash.gen_byte_aligning()
    assert len(aligning) == 131
    assert len(ghash.gen_galois_mult()) == 14
    assert len(ghash._gen_reduce()) == 62


def test_reduce_is_aliased_prefix():
    # The final reduction reuses the head of the aligning step in the
    # command store: no extra storage.
    prog = ghash.build_ghash_program(nblocks=8, final=True)
    fa = prog.functions["ByteAligning"]
    fr = prog.functions["Reduce"]
    assert fr.base == fa.base
    assert fr.count == 62
    assert prog.commands[fr.base:fr.base + fr.count] == \
        ghash._gen_reduce()


def test_bit_serial_pass_structure():
    prog = ghash.build_ghash_program(nblocks=8)
    mult = next(i for i in prog.schedule if i.function == "GaloisMult")
    assert mult.iterations == 128  # one step per GF(2^128) coefficient bit


# -- one message split across lanes ------------------------------------------
#
# A GHASH of n blocks runs on K = modes._ghash_lanes(n) lanes: lane j
# hashes padded blocks j, j + K, ... with H^K and finishes with
# H^(K - j), and the fold program XORs the lane digests.

# n on both sides of every threshold 48 * K, and far past the last.
LANE_THRESHOLDS = {1: 1, 95: 1, 96: 2, 97: 2, 191: 2, 192: 4, 193: 4,
                   383: 4, 384: 8, 385: 8, 4096: 8}


def test_lane_count_grows_with_the_block_count():
    assert {n: modes._ghash_lanes(n) for n in LANE_THRESHOLDS} == \
        LANE_THRESHOLDS


def test_one_lane_digests_match_the_oracle(rng):
    # K = 1 from 0 to 8 * K_max + 1 blocks: every queue fill of the
    # serial passes.
    for n in range(8 * 8 + 2):
        h, data = rng.randbytes(16), rng.randbytes(16 * n)
        assert modes.ghash_digest(h, data) == oracle.ghash(h, data), n


@pytest.mark.parametrize("nblocks", sorted(n for n in LANE_THRESHOLDS
                                           if n > 1))
def test_lane_split_digests_match_the_oracle(nblocks, rng):
    h, data = rng.randbytes(16), rng.randbytes(16 * nblocks)
    assert modes.ghash_digest(h, data) == oracle.ghash(h, data)


def test_how_the_lanes_split_a_message(monkeypatch, rng):
    # 97 blocks on K = 2 lanes: one leading zero block pads them to 98,
    # lane j takes padded blocks j, j + 2, ..., 48 steps run as six
    # 8-block passes with H^2 in both lanes, and the last step runs alone
    # with H^2 in lane 0 and H in lane 1.
    h, data = rng.randbytes(16), rng.randbytes(16 * 97)
    padded = [bytes(16)] + [data[i:i + 16] for i in range(0, len(data), 16)]
    h2 = oracle.ghash(h, h)        # the GHASH of one block X is X * H
    passes = []
    run = modes._run
    monkeypatch.setattr(modes, "_run", lambda sub, runs, stats: passes.extend(
        (ctrl.program.name, sub.lanes, env) for ctrl, env in runs)
        or run(sub, runs, stats))
    assert modes.ghash_digest(h, data) == oracle.ghash(h, data)
    power, *lane_passes, fold = passes

    def rows(keys, lane_blocks):
        # A pass's rows are those of one pass of its keys and blocks.
        (_, env), = ghash.stage(keys, lane_blocks)
        return env["ghash_rows"]

    assert power[:2] == ("ghash-1blk", 1)
    assert power[2]["ghash_rows"] == rows([h], [[h]])
    assert [(name, lanes) for name, lanes, _ in lane_passes] == \
        [("ghash-8blk-cont", 2)] * 6 + [("ghash-1blk", 2)]
    for i, (_, _, env) in enumerate(lane_passes):
        steps = range(8 * i, min(8 * i + 8, 49))
        assert env["ghash_rows"] == rows(
            [h2, h] if i == 6 else [h2, h2],
            [[padded[2 * s + j] for s in steps] for j in range(2)])
        assert env["ghash_first"] == (i == 0)
    assert fold[:2] == ("ghash-fold-2", 1)


@pytest.mark.parametrize("nblocks,lanes", [(20, 1), (97, 2), (385, 8)])
def test_lane_split_costs(nblocks, lanes, rng):
    # K = 1 runs the serial passes; each further lane adds one power
    # multiply (a 1-block final pass), at most one zero block and one
    # closing reduction, and the fold XORs K rows.
    stats = ExecutionStats()
    modes.ghash_digest(rng.randbytes(16), bytes(16 * nblocks), stats)
    steps = -(-nblocks // lanes)
    passes = -(-steps // 8) if lanes == 1 else -(-(steps - 1) // 8) + 1
    fs = stats.per_function
    assert fs["ByteAligning"].invocations == lanes * steps + lanes - 1
    assert fs["ByteArrange"].invocations == lanes * passes + lanes - 1
    assert fs["Reduce"].invocations == 2 * lanes - 1
    assert ("Fold" in fs) == (lanes > 1)
    if lanes > 1:
        assert fs["Fold"].commands == 3 * (lanes - 1)


@pytest.mark.parametrize("hash_key", [bytes(16), b"\x80" + bytes(15)],
                         ids=["zero", "one"])
def test_a_lane_split_counts_the_same_for_any_hash_key(hash_key, rng):
    # H = 0 and H = 1 make every power of H equal, so each lane's last key
    # equals its others; the passes must not depend on it.  At 112 blocks
    # (K = 2, 56 steps) a merged last step would save a pass.
    counted = []
    for h in (hash_key, rng.randbytes(16)):
        stats = ExecutionStats()
        data = rng.randbytes(16 * 112)
        assert modes.ghash_digest(h, data, stats) == oracle.ghash(h, data)
        counted.append(stats)
    assert counted[0] == counted[1]


def test_a_three_lane_pass_equals_three_one_lane_runs(rng):
    # Each lane has its own hash key and blocks; a non-final 8-block pass
    # and a final 3-block pass carry the product between them.
    keys = [rng.randbytes(16) for _ in range(3)]
    blocks = [[rng.randbytes(16) for _ in range(11)] for _ in range(3)]

    def passes(lane_keys, lane_blocks, stats):
        sub = Subarray(block_width=ghash.BLOCK_WIDTH, lanes=len(lane_keys))
        runs = ghash.stage(lane_keys, lane_blocks)
        assert [ctrl.program.name for ctrl, _ in runs] == \
            ["ghash-8blk-cont", "ghash-3blk"]
        for ctrl, env in runs:
            ctrl.run(sub, env)
            ctrl.count(stats, sub.lanes, sub.cost_model)
        return env[OUTPUT]

    wide, single = ExecutionStats(), ExecutionStats()
    digests = passes(keys, blocks, wide)
    assert digests == [d for k in range(3)
                       for d in passes([keys[k]], [blocks[k]], single)]
    assert digests == [oracle.ghash(keys[k], b"".join(blocks[k]))
                       for k in range(3)]
    assert wide == single


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 8]), st.integers(1, 40), st.booleans(),
       st.integers(0, 2**32))
def test_stage_runs_each_lanes_horner_and_converts_once(k, n, has_last,
                                                       seed):
    # Lane j's digest is Horner over its blocks with its hash key, the
    # last step under its last key if given; however many passes that
    # takes, the message is converted by one quarter_rows call and at
    # most K + 2 as_bytes calls.
    rng = random.Random(seed)
    keys = [rng.randbytes(16) for _ in range(k)]
    last = [rng.randbytes(16) for _ in range(k)] if has_last else None
    lanes = [[rng.randbytes(16) for _ in range(n)] for _ in range(k)]
    with mock.patch.object(ghash, "quarter_rows",
                           wraps=ghash.quarter_rows) as quarters, \
            mock.patch.object(ghash, "as_bytes",
                              wraps=ghash.as_bytes) as conversions:
        runs = ghash.stage(keys, lanes, last_keys=last)
    assert quarters.call_count == 1 and conversions.call_count <= k + 2
    sub = Subarray(block_width=ghash.BLOCK_WIDTH, lanes=k)
    for ctrl, env in runs:
        ctrl.run(sub, env)
    want = []
    for j in range(k):
        carried = oracle.ghash(keys[j], b"".join(lanes[j][:-1]))
        want.append(oracle.ghash((last or keys)[j],
                                 _xor(carried, lanes[j][-1])))
    assert env[OUTPUT] == want


def test_a_staged_run_runs_again_from_a_cleared_product():
    # ghash_load used to pop the env's first-pass flag, so a second run of
    # the same staged env kept P and Z from the first.
    h, block = bytes(range(16)), bytes([7] * 16)
    (ctrl, env), = ghash.stage([h], [[block]])
    sub = Subarray(block_width=ghash.BLOCK_WIDTH)
    for _ in range(2):
        ctrl.run(sub, env)
        assert env[OUTPUT] == [oracle.ghash(h, block)]


def test_ghash_load_rejects_more_lists_than_lanes():
    (ctrl, env), = ghash.stage([bytes(16)] * 2, [[bytes(16)]] * 2)
    with pytest.raises(ValueError, match="for a 1-lane subarray"):
        ctrl.run(Subarray(block_width=ghash.BLOCK_WIDTH), env)


@pytest.mark.parametrize("lengths", [[1, 2], [2, 1], [], [0, 0]],
                         ids=["1-2", "2-1", "no-lanes", "empty-lanes"])
def test_stage_rejects_unequal_or_no_block_lists(lengths):
    # [1, 2] used to drop lane 1's second block and return lane 0's
    # one-block digest for it; the others raised IndexError.
    h = bytes(range(16))
    blocks = [[bytes([n]) * 16 for n in range(count)] for count in lengths]
    with pytest.raises(ValueError, match="block lists"):
        ghash.stage([h] * len(lengths), blocks)


@pytest.mark.parametrize("size", [0, 15, 17])
@pytest.mark.parametrize("where", ["key", "last-key", "block", "fold"])
def test_staging_rejects_keys_and_blocks_that_are_not_16_bytes(where, size):
    # These used to run and return a digest without a word.
    keys, blocks = [bytes(16)] * 2, [[bytes(16)] * 2, [bytes(16)] * 2]
    with pytest.raises(ValueError, match="must be 16 bytes"):
        if where == "fold":
            ghash.stage_fold([bytes(16), bytes(size)])
        elif where == "key":
            ghash.stage([bytes(16), bytes(size)], blocks)
        elif where == "last-key":
            ghash.stage(keys, blocks, last_keys=[bytes(16), bytes(size)])
        else:
            blocks[1] = [bytes(16), bytes(size)]
            ghash.stage(keys, blocks)


@pytest.mark.parametrize("where", ["key", "block", "fold"])
def test_staging_converts_bytes_like_keys_and_blocks(where, rng):
    # A memoryview used to be staged and raise AttributeError once run.
    h, block, other = (rng.randbytes(16) for _ in range(3))
    sub = Subarray(block_width=ghash.BLOCK_WIDTH)
    if where == "fold":
        ctrl, env = ghash.stage_fold([memoryview(block), bytearray(other)])
        want = bytes(a ^ b for a, b in zip(block, other))
    else:
        view = memoryview(h if where == "key" else block)
        (ctrl, env), = ghash.stage([view if where == "key" else h],
                                   [[view if where == "block" else block]])
        want = oracle.ghash(h, block)
    ctrl.run(sub, env)
    assert env[OUTPUT] == [want]


@pytest.mark.parametrize("where", ["key", "block", "fold"])
def test_staging_rejects_keys_and_blocks_that_are_not_bytes_like(where):
    # A str used to be staged and raise TypeError only once run.
    with pytest.raises(TypeError, match="GHASH"):
        if where == "fold":
            ghash.stage_fold([bytes(16), "0" * 16])
        elif where == "key":
            ghash.stage(["0" * 16], [[bytes(16)]])
        else:
            ghash.stage([bytes(16)], [["0" * 16]])


@pytest.mark.parametrize("nrows", [2, 3, 9])
def test_fold_xors_its_rows(nrows, rng):
    rows = [rng.randbytes(16) for _ in range(nrows)]
    ctrl, env = ghash.stage_fold(rows)
    sub, stats = Subarray(block_width=ghash.BLOCK_WIDTH), ExecutionStats()
    ctrl.run(sub, env)
    ctrl.count(stats, sub.lanes, sub.cost_model)
    want = bytes(16)
    for row in rows:
        want = bytes(a ^ b for a, b in zip(want, row))
    assert env[OUTPUT] == [want]
    assert stats.commands == 3 * (nrows - 1)


@pytest.mark.parametrize("nrows", [0, 1, 33])
def test_fold_program_rejects_row_counts(nrows):
    with pytest.raises(ValueError, match="nrows"):
        ghash.build_ghash_fold_program(nrows)


@pytest.mark.parametrize("build", [
    lambda: ghash.build_ghash_program(True),
    lambda: ghash.build_ghash_program(2.0),
    lambda: ghash.build_ghash_fold_program(True),
    lambda: ghash.build_ghash_fold_program(2.0),
], ids=["blocks-True", "blocks-2.0", "rows-True", "rows-2.0"])
def test_programs_reject_counts_that_are_not_ints(build):
    # True used to build "ghash-Trueblk"; 2.0 raised TypeError.
    with pytest.raises(ValueError, match="must be an int"):
        build()


@pytest.mark.parametrize("keys", [0, 2])
def test_stage_rejects_a_hash_key_count_other_than_the_lanes(keys):
    # No key for the one lane used to stage and fail only once run.
    with pytest.raises(ValueError, match="hash keys for 1 block lists"):
        ghash.stage([bytes(16)] * keys, [[bytes(16)]])
    with pytest.raises(ValueError, match="last keys for 1 block lists"):
        ghash.stage([bytes(16)], [[bytes(16)]], last_keys=[bytes(16)] * keys)
