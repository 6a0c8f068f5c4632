"""Fabric GHASH vs the independent oracle, plus pinned command counts."""

import pytest

from pimcrypt import oracle
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
