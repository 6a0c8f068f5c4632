"""Fabric AES vs the independent oracle, plus pinned command counts."""

import pytest

from pimcrypt import oracle
from pimcrypt.controller import (HOST_ACTIONS, OUTPUT, ExecutionStats,
                                 count_runs)
from pimcrypt.fabric import Subarray, lanes_to_row, row_to_lanes
from pimcrypt.isa import CommandWord
from pimcrypt.kernels import aes, circuits, modes
from pimcrypt.kernels.layout import LayoutError, LayoutMap

FIPS_KEY128 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_KEY256 = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT128 = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
FIPS_CT256 = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")


def test_fips197_vectors_on_fabric():
    assert modes.ecb_crypt(FIPS_KEY128, FIPS_PT) == FIPS_CT128
    assert modes.ecb_crypt(FIPS_KEY256, FIPS_PT) == FIPS_CT256
    assert modes.ecb_crypt(FIPS_KEY128, FIPS_CT128, "decrypt") == FIPS_PT
    assert modes.ecb_crypt(FIPS_KEY256, FIPS_CT256, "decrypt") == FIPS_PT


def _column(j):
    """Tile column of block byte j: state byte s[j % 4, j // 4], row-major."""
    return 4 * (j % 4) + j // 4


def _planes_by_bit(blocks):
    """Reference for aes._plane_rows: one bit per loop step."""
    planes = [0] * 8
    for t, block in enumerate(blocks):
        for j, byte in enumerate(block):
            for b in range(8):
                if byte >> b & 1:
                    planes[b] |= 1 << (16 * t + _column(j))
    return planes


def _stage_by_byte(blocks):
    """Reference for aes._stage_rows: one byte per loop step."""
    rows = [0] * 16
    for t, block in enumerate(blocks):
        for j, byte in enumerate(block):
            c = _column(j)
            rows[c] |= byte << (16 * t + (0 if c < 8 else 8))
    return rows


def test_staging_matches_bit_loops(rng):
    # past 16 blocks, block 16k + t is tile t of lane k; 1024 blocks
    # fill the 64 lanes of a lockstep run
    for n in [*range(18), 33, 100, 1024]:
        blocks = [rng.randbytes(16) for _ in range(n)]
        staged = aes._stage_rows(blocks)
        assert aes._plane_rows(blocks) == _planes_by_bit(blocks)
        assert staged == _stage_by_byte(blocks)
        assert aes._unstage_rows(staged, n) == blocks
    # one block at a time, as a serial chain stages them: every byte
    # value at every tile column
    for k in range(256):
        block = bytes((k + 17 * j) % 256 for j in range(16))
        staged = aes._stage_rows([block])
        assert aes._plane_rows([block]) == _planes_by_bit([block])
        assert staged == _stage_by_byte([block])
        assert aes._unstage_rows(staged, 1) == [block]


def test_unstaging_reads_only_its_blocks_and_halves(rng):
    # Tiles past the count and the other byte of each row's fields, as
    # a pass leaves them in the unused tiles, do not reach the output.
    blocks = [rng.randbytes(16) for _ in range(20)]
    noise = [rng.getrandbits(512) for _ in range(16)]
    halves = [int.from_bytes(b"\xff\x00" * 32, "little") << 8 * (c < 8)
              for c in range(16)]
    rows = [row | extra & half for row, extra, half
            in zip(aes._stage_rows(blocks), noise, halves)]
    for count in (0, 1, 2, 17, 20):
        assert aes._unstage_rows(rows, count) == blocks[:count]


@pytest.mark.parametrize("klen", [16, 32])
@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
def test_random_blocks_vs_oracle(klen, direction, rng):
    ref = (oracle.aes_encrypt_block if direction == "encrypt"
           else oracle.aes_decrypt_block)
    for _ in range(3):
        key = rng.randbytes(klen)
        blocks = [rng.randbytes(16) for _ in range(16)]
        out = modes.ecb_crypt(key, b"".join(blocks), direction)
        assert out == b"".join(ref(key, b) for b in blocks)


def test_sixteen_distinct_blocks_per_pass(rng):
    # One pass must keep the 16 column-lanes independent.
    key = rng.randbytes(16)
    blocks = [bytes([i]) * 16 for i in range(16)]
    out = modes.ecb_crypt(key, b"".join(blocks))
    for i, blk in enumerate(blocks):
        assert out[16 * i:16 * i + 16] == oracle.aes_encrypt_block(key, blk)


def test_key_schedule_matches_oracle():
    words = aes.expand_key_words(FIPS_KEY128)
    assert b"".join(words[:11]) == b"".join(oracle.expand_key(FIPS_KEY128))
    words256 = aes.expand_key_words(FIPS_KEY256)
    assert b"".join(words256[:15]) == b"".join(oracle.expand_key(FIPS_KEY256))


@pytest.mark.parametrize("klen", [0, 15, 20, 24, 33])
def test_key_schedule_rejects_other_key_lengths(klen):
    with pytest.raises(ValueError, match="16 or 32 bytes"):
        aes.expand_key_words(bytes(klen))


@pytest.mark.parametrize("key", [[0] * 16, "0" * 16], ids=["int-list", "str"])
def test_key_schedule_rejects_a_key_that_is_not_bytes_like(key):
    # A list of byte values used to expand as the bytes it lists.
    with pytest.raises(TypeError):
        aes.expand_key_words(key)


@pytest.mark.parametrize("chain", ["bogus", "", "PRE", 0])
def test_aes_program_rejects_an_unknown_chain(chain):
    with pytest.raises(ValueError, match="chain must be"):
        aes.build_aes_program(128, "encrypt", chain)


# -- S-box circuits over all 256 inputs -----------------------------------------
#
# Column c carries byte value c; circuit signal x_k / s_k is byte bit 7 - k
# (x0 is the MSB), which is AES plane 7 - k.

def _byte_planes(table):
    """Bit-parallel columns: plane b holds bit b of ``table[c]`` at c."""
    return [sum((table[c] >> b & 1) << c for c in range(256))
            for b in range(8)]


SBOX_TABLES = {False: oracle.SBOX, True: oracle.INV_SBOX}


@pytest.mark.parametrize("inverse", [False, True])
def test_sbox_circuit_is_exhaustively_right(inverse):
    gates = (circuits.inverse_sbox_gates() if inverse
             else circuits.forward_sbox_gates())
    planes = _byte_planes(range(256))
    wires = circuits.evaluate(gates, {f"x{k}": planes[7 - k]
                                      for k in range(8)})
    expect = _byte_planes(SBOX_TABLES[inverse])
    assert [wires[f"s{7 - b}"] for b in range(8)] == expect


@pytest.mark.parametrize("inverse", [False, True])
def test_scheduled_sub_bytes_is_exhaustively_right(inverse):
    sub = Subarray(block_width=aes.BLOCK_WIDTH)
    for b, value in enumerate(_byte_planes(range(256))):
        sub.write_row(aes.AES_LAYOUT.row("planes", b), value)
    for cmd in aes.gen_sub_bytes(inverse):
        sub.execute(cmd)
    assert [sub.read_row(aes.AES_LAYOUT.row("planes", b))
            for b in range(8)] == _byte_planes(SBOX_TABLES[inverse])


def test_a_circuit_with_no_free_row_exceeds_the_temp_budget():
    # Both inputs live on past gate 0 and no scratch row is left for t.
    gates = [circuits.Gate("and", "t", "x0", "x1"),
             circuits.Gate("xor", "y", "x0", "x1"),
             circuits.Gate("xor", "z", "t", "y")]
    with pytest.raises(circuits.TempBudgetExceeded,
                       match="no free row for t at gate 0"):
        circuits.schedule(gates, {"x0": 0, "x1": 1}, {"z": 2}, [])


def test_an_output_left_off_its_row_is_copied_there_last():
    # s = a ^ b lands on b's row, the dying operand outside the output
    # rows, so the schedule ends with the copy to s's row 1.
    gates = [circuits.Gate("xor", "s", "a", "b")]
    cmds = circuits.schedule(gates, {"a": 1, "b": 2}, {"s": 1}, [])
    assert cmds[-2:] == [CommandWord.rd_row(2), CommandWord.wr_row(1)]
    a, b = 0b1100 << 200 | 0xA5, 0b1010 << 200 | 0x3C
    sub = Subarray()
    sub.write_rows(1, [a, b])
    sub.run(cmds)
    assert sub.read_row(1) == circuits.evaluate(gates, {"a": a, "b": b})["s"]


@pytest.mark.parametrize("regions,message", [
    ({"a": (-1, 2)}, "region a exceeds the grid"),
    ({"a": (120, 9)}, "region a exceeds the grid"),
    ({"a": (0, 4), "b": (3, 2)}, "region b overlaps another region"),
])
def test_a_layout_keeps_its_regions_on_the_grid_and_apart(regions, message):
    with pytest.raises(LayoutError, match=message):
        LayoutMap(regions)


@pytest.mark.parametrize("i", [-1, 4])
def test_a_layout_row_stays_inside_its_region(i):
    with pytest.raises(LayoutError, match=f"row {i} outside region a"):
        LayoutMap({"a": (10, 4)}).row("a", i)


# Pinned counts for the control-kernel budget. [DERIVED]
GOLDEN_COUNTS = {
    "encrypt": {"BitSliceFwd": 240, "BitSliceInv": 280, "AddRoundKey": 24,
                "SubBytes": 357, "ShiftRows": 472, "MixColumns": 241,
                "ChainXor": 24},
    "decrypt": {"BitSliceFwd": 240, "BitSliceInv": 280, "AddRoundKey": 24,
                "SubBytes": 448, "ShiftRows": 472, "MixColumns": 379,
                "ChainXor": 24},
}


def test_function_command_counts():
    for direction, golden in GOLDEN_COUNTS.items():
        prog = aes.build_aes_program(128, direction)
        assert {n: fd.count for n, fd in prog.functions.items()} == golden


# Cycles for one 16-block pass, no chaining. [DERIVED]
GOLDEN_CYCLES = {(128, "encrypt"): 14875, (128, "decrypt"): 18179,
                 (256, "encrypt"): 20659, (256, "decrypt"): 25391}


@pytest.mark.parametrize("variant,direction", sorted(GOLDEN_CYCLES))
def test_pass_cycles(variant, direction, rng):
    ctrl, env = aes.Key(rng.randbytes(variant // 8), direction).stage(
        [rng.randbytes(16) for _ in range(16)])
    assert ctrl.program.name == f"aes-{variant}-{direction}"
    sub, stats = Subarray(block_width=aes.BLOCK_WIDTH), ExecutionStats()
    ctrl.run(sub, env)
    count_runs(stats, [(ctrl, sub)])
    assert stats.cycles == sub.cycle_count == GOLDEN_CYCLES[(variant,
                                                            direction)]


def _commands(prog) -> int:
    return sum(i.iterations * prog.functions[i.function].count
               for i in prog.schedule)


def test_chain_xor_adds_24_commands():
    # Each chain XOR adds 24 commands; "both" XORs twice and restages the
    # chain rows in between, at no cycle cost.
    for variant in (128, 256):
        base, pre, both = (aes.build_aes_program(variant, "encrypt", chain)
                           for chain in (None, "pre", "both"))
        assert pre.functions["ChainXor"].count == 24
        assert both.functions == pre.functions == base.functions
        assert _commands(pre) - _commands(base) == 24
        assert _commands(both) - _commands(pre) == 24
        kinds = [a.kind for a in sorted(both.host_actions,
                                        key=lambda a: a.position)]
        assert kinds == (["aes_load"] + ["aes_load_keys"] * (variant == 256)
                         + ["aes_load_chain", "aes_unload"])


@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
@pytest.mark.parametrize("klen", [16, 32])
@pytest.mark.parametrize("lanes", [1, 2])
def test_both_chains_xor_before_and_after_the_rounds(lanes, klen, direction,
                                                     rng):
    # Each tile's block is XORed with its own chain block before the
    # rounds and with a restaged one after them.
    cipher = (oracle.aes_encrypt_block if direction == "encrypt"
              else oracle.aes_decrypt_block)
    key = rng.randbytes(klen)
    blocks, pre, post = ([rng.randbytes(16) for _ in range(16 * lanes - 3)]
                         for _ in range(3))
    ctrl, env = aes.Key(key, direction).stage(blocks, pre, post)
    sub = Subarray(block_width=aes.BLOCK_WIDTH, lanes=lanes)
    stats = ExecutionStats()
    ctrl.run(sub, env)
    count_runs(stats, [(ctrl, sub)])
    out = env[OUTPUT]
    assert out == [_xor(cipher(key, _xor(b, a)), c)
                   for b, a, c in zip(blocks, pre, post)]
    assert stats.per_function["ChainXor"].invocations == 2 * lanes


@pytest.mark.parametrize("suffix,given", [
    ("", ()), ("-pre", ("pre",)), ("-post", ("post",)),
    ("-both", ("pre", "post")),
])
def test_stage_takes_its_chain_mode_from_the_lists_given(suffix, given, rng):
    # Each block is XORed with its pre block before the cipher and its
    # post block after it, zero where a list is not given.
    key = rng.randbytes(16)
    k = aes.Key(key, "encrypt")
    blocks = [rng.randbytes(16) for _ in range(5)]
    chains = {name: [rng.randbytes(16) for _ in blocks] for name in given}
    ctrl, env = k.stage(blocks, **chains)
    assert ctrl.program.name == "aes-128-encrypt" + suffix
    if not given:     # an empty list counts as not given
        assert k.stage(blocks, [], [])[0] is ctrl
    ctrl.run(Subarray(block_width=aes.BLOCK_WIDTH), env)
    zero = [bytes(16)] * len(blocks)
    pre, post = chains.get("pre", zero), chains.get("post", zero)
    assert env[OUTPUT] == [_xor(oracle.aes_encrypt_block(key, _xor(b, a)), c)
                           for b, a, c in zip(blocks, pre, post)]


@pytest.mark.parametrize("given", [("pre",), ("post",), ("pre", "post")],
                         ids=["pre", "post", "both"])
def test_stage_rejects_chain_lists_of_another_length(given):
    # One chain block for three blocks: the missing tiles would XOR zero.
    # Staging rejects it, before any run.
    chains = {name: [b"\x01" * 16] for name in given}
    with pytest.raises(ValueError, match="^(pre|post) blocks: 1 for 3 blocks"):
        aes.Key(bytes(16), "encrypt").stage([bytes(16)] * 3, **chains)


@pytest.mark.parametrize("size", [0, 15, 17, 32])
@pytest.mark.parametrize("where", ["blocks", "pre", "post"])
def test_stage_rejects_blocks_that_are_not_16_bytes(where, size):
    # A 15-byte block used to raise IndexError once run, a 17-byte one
    # to encrypt its first 16 bytes, and a short chain block to pass.
    lists = {"blocks": [bytes(16)] * 3, "pre": [bytes(16)] * 3,
             "post": [bytes(16)] * 3}
    lists[where][1] = bytes(size)
    with pytest.raises(ValueError, match="must be 16 bytes"):
        aes.Key(bytes(16), "encrypt").stage(**lists)


@pytest.mark.parametrize("key,blocks", [
    ([0] * 16, [bytes(16)]),
    ("0" * 16, [bytes(16)]),
    (bytes(16), [[0] * 16]),
    (bytes(16), ["0" * 16]),
], ids=["int-list-key", "str-key", "int-list-block", "str-block"])
def test_staging_rejects_keys_and_blocks_that_are_not_bytes_like(key, blocks):
    # A list of byte values used to run as the bytes it lists, and a str
    # to be staged and raise only once run.
    with pytest.raises(TypeError):
        aes.Key(key, "encrypt").stage(blocks)


def test_staging_converts_bytes_like_keys_and_blocks(rng):
    key, block = rng.randbytes(16), rng.randbytes(16)
    ctrl, env = aes.Key(bytearray(key), "encrypt").stage(
        [memoryview(block)], post=[bytearray(16)])
    ctrl.run(Subarray(block_width=aes.BLOCK_WIDTH), env)
    assert env[OUTPUT] == [oracle.aes_encrypt_block(key, block)]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _chain_pass(k, sub, block, prev):
    """One CBC-encrypt pass of ``block`` on ``sub``."""
    ctrl, env = k.stage([block], [prev])
    ctrl.run(sub, env)
    return env[OUTPUT][0]


def test_a_pass_uses_the_first_round_key_rows_as_scratch(rng):
    k = aes.Key(rng.randbytes(16), "encrypt")
    sub = Subarray(block_width=aes.BLOCK_WIDTH)
    _chain_pass(k, sub, rng.randbytes(16), rng.randbytes(16))
    staged = list(k.env["key_rows"])
    key0 = aes.AES_LAYOUT.row("keys", 0)
    assert all(sub.read_row(key0 + i) != staged[i] for i in range(8))
    assert [sub.read_row(key0 + i) for i in range(8, 88)] == staged[8:]
    masks = aes.mask_values()
    assert {row: sub.read_row(row) for row in masks} == masks


@pytest.mark.parametrize("klen", [16, 32])
def test_a_chain_on_one_subarray_matches_cryptography(klen, rng):
    from cryptography.hazmat.primitives.ciphers import (Cipher, algorithms,
                                                        modes as cm)
    key, iv = rng.randbytes(klen), rng.randbytes(16)
    blocks = [rng.randbytes(16) for _ in range(2)]
    k = aes.Key(key, "encrypt")
    sub = Subarray(block_width=aes.BLOCK_WIDTH)
    out, prev = [], iv
    for block in blocks:      # aes_load restages the dirty key region
        prev = _chain_pass(k, sub, block, prev)
        out.append(prev)
    cbc = Cipher(algorithms.AES(key), cm.CBC(iv)).encryptor()
    assert b"".join(out) == cbc.update(b"".join(blocks)) + cbc.finalize()


@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
@pytest.mark.parametrize("variant,loads", [(128, {"key_rows": 88}),
                                           (256, {"key_rows": 64,
                                                  "key_rows2": 56})])
def test_key_loads_write_each_one_lane_row_in_every_lane(variant, loads,
                                                         direction, rng):
    # The key rows are built per lane count from their 16-column fields;
    # each must still be its one-lane row repeated in every lane, in
    # aes_load and in both halves of AES-256's key load.
    k = aes.Key(rng.randbytes(variant // 8), direction)
    key0 = aes.AES_LAYOUT.row("keys", 0)
    assert {name: len(k.env[name]) for name in loads} == loads
    for lanes in (1, 2, 16, 17, 33, 64):
        sub = Subarray(block_width=aes.BLOCK_WIDTH, lanes=lanes)
        _, env = k.stage([rng.randbytes(16)])
        HOST_ACTIONS["aes_load"](sub, env)
        written = [("key_rows", sub.read_rows(key0, loads["key_rows"]))]
        for name, count in loads.items():
            HOST_ACTIONS["aes_load_keys"](sub, env, env_key=name)
            written.append((name, sub.read_rows(key0, count)))
        for name, rows in written:
            assert rows == [lanes_to_row([row] * lanes)
                            for row in k.env[name]]


def test_write_rows_fills_every_lane_with_the_key_rows(rng):
    # Whatever type the key loads pass, a 3-lane subarray holds each
    # one-lane row in each lane.
    rows = aes.Key(rng.randbytes(16), "encrypt").env["key_rows"]
    sub = Subarray(block_width=aes.BLOCK_WIDTH, lanes=3)
    sub.write_rows(0, rows)
    assert [row_to_lanes(value, 3) for value in sub.read_rows(0, len(rows))] \
        == [[row] * 3 for row in rows]
