"""Host-side data packing between byte buffers and grid rows.

These run on the host port (zero fabric cycles) and model the DMA engine
plus whatever register shuffling the MCU does for free while staging
data.  Each row layout is implemented in one module:

* AES blocks, here: tile ``t`` owns columns ``16t .. 16t+15``.  Block
  ``t`` of a list goes to tile ``t``, so on a subarray with lanes, block
  ``16k + t`` lands in tile ``t`` of lane ``k`` (columns ``256k + 16t
  ..``).  Within a tile the fabric byte order is row-major over the AES
  state: block byte ``j`` (state byte ``s[j mod 4, j div 4]``) sits at
  tile column ``4(j mod 4) + j div 4``, a map that is its own inverse.
  Staging row ``c`` holds the byte of tile column ``c``, LSB-first in an
  8-column field; sliced planes put bit ``b`` of that byte at column
  ``16t + c`` of plane row ``b``.
* AES round-key rows and AES-256's key split, in ``aes``.
* SHA3's 64-bit row segments, in ``keccak``; :func:`lanes_from_value`
  here splits a row into them for readers outside the kernels.
* GHASH, in ``ghash``: block bit ``x_i`` (MSB-first across the block) at
  column ``i``.
* Lanes, in ``fabric``: on a subarray with lanes, lane ``k`` owns
  columns ``256k .. 256k+255`` of every row.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import repeat
from operator import and_, itemgetter, lshift, rshift
from typing import NamedTuple

__all__ = ["aes_stage_rows", "aes_unstage_rows", "aes_plane_rows",
           "lanes_from_value"]


# -- AES ---------------------------------------------------------------------

# The fabric byte order: tile column c holds block byte _BYTE_AT[c], and
# block byte j sits at tile column _BYTE_AT[j] (the map is an involution).
_BYTE_AT = [4 * (j % 4) + j // 4 for j in range(16)]
# Reorders 16 items between block byte order and tile column order,
# either way, since _BYTE_AT is an involution.
_REORDER = itemgetter(*_BYTE_AT)
# Staging rows 0..7 hold their byte in the low half of each tile's
# 16-bit field and rows 8..15 in the high half.  Per staging row: the
# block byte it holds (rows 0..7, then 8..15), the slice of its field
# bytes that holds it, and the slice of the block bytes it fills; per
# block byte, the shift of its half.
_LOW_ROWS, _HIGH_ROWS = itemgetter(*_BYTE_AT[:8]), itemgetter(*_BYTE_AT[8:])
_HALF = [slice(0, None, 2)] * 8 + [slice(1, None, 2)] * 8
_COLUMN = [slice(j, None, 16) for j in _BYTE_AT]
_HALF_SHIFT = [8 * (c >= 8) for c in _BYTE_AT]

# Delta swaps (Hacker's Delight 7-3) as (shift in bits, mask over one
# 16-byte block, little-endian): the 4x4 byte transpose of the block
# into the fabric byte order (swap the off-diagonal 2x2 quarters, then
# within each quarter), then the 8x8 bit-matrix transpose of each half.
_PLANE_STEPS = ((48, bytes(0xFF if k in (2, 3, 6, 7) else 0
                           for k in range(16))),
                (24, bytes(0xFF if k in (1, 3, 9, 11) else 0
                           for k in range(16))),
                (7, (0x00AA00AA00AA00AA).to_bytes(8, "little") * 2),
                (14, (0x0000CCCC0000CCCC).to_bytes(8, "little") * 2),
                (28, (0x00000000F0F0F0F0).to_bytes(8, "little") * 2))


class _Shapes(NamedTuple):
    """What the AES staging helpers need for ``n`` blocks, built once."""
    fields: struct.Struct        # 16 fields of 2n bytes: staging rows
    blocks: struct.Struct        # n 16-byte blocks
    plane_steps: tuple[tuple[int, int], ...]   # masks over n blocks


@lru_cache(maxsize=64)
def _shapes(n: int) -> _Shapes:
    return _Shapes(struct.Struct(f"{2 * n}s" * 16), struct.Struct("16s" * n),
                   tuple((shift, int.from_bytes(mask * n, "little"))
                         for shift, mask in _PLANE_STEPS))


def _byte_major(data: bytes) -> bytes:
    """``data``, n 16-byte blocks, reordered so that byte j of block t
    sits at ``n * j + t``.

    With M = 16n - 1, output index k = nj + t must read input index
    16t + j, which is 16k mod M (16n is 1 mod M) for every k < M, and
    the last byte stays last.  Every 16th byte of ``data[:-1]`` repeated
    16 times is exactly that sequence, so the reorder is two C-level
    copies whatever n is.
    """
    return (data[:-1] * 16)[::16] + data[-1:]


def aes_stage_rows(blocks: list[bytes]) -> list[int]:
    """16 staging-row values; row c holds tile column c of every block.

    Columns 0..7 occupy the low half of each tile, columns 8..15 the
    high half, so an OR of rows c and c+8 yields the matrix fed to the
    transpose network.
    """
    n = len(blocks)
    if n == 1:                      # a serial chain's pass: each field
        by_byte = blocks[0]         # is one byte of the block
    else:
        spread = bytearray(32 * n)  # one 2n-byte field per block byte
        spread[::2] = _byte_major(b"".join(blocks))
        by_byte = tuple(map(int.from_bytes, _shapes(n).fields.unpack(spread),
                            repeat("little")))
    return [*_LOW_ROWS(by_byte), *map(lshift, _HIGH_ROWS(by_byte), repeat(8))]


def aes_unstage_rows(rows: list[int], count: int) -> list[bytes]:
    """The first ``count`` blocks of 16 staging rows of any width."""
    if count == 1:                  # block byte j is in row _BYTE_AT[j]
        by_byte = map(rshift, _REORDER(rows), _HALF_SHIFT)
        return [bytes(map(and_, by_byte, repeat(0xFF)))]
    nbytes = 2 * count
    used = (1 << 8 * nbytes) - 1
    data = bytearray(16 * count)
    for column, half, row in zip(_COLUMN, _HALF, rows):
        data[column] = (row & used).to_bytes(nbytes, "little")[half]
    return list(_shapes(count).blocks.unpack(data))


def aes_plane_rows(blocks: list[bytes]) -> list[int]:
    """Bit-sliced plane values: plane b, column 16t+c = bit b of the byte
    at tile column c of block t.

    After the byte transpose every 8 bytes form an 8x8 bit matrix, one
    byte per row; after the bit transpose, byte b of each matrix holds
    bit b of its eight bytes, so plane b is every eighth byte.  The swap
    masks repeat once per block over the whole input, so every matrix of
    every lane is transposed in place.
    """
    n = len(blocks)
    x = int.from_bytes(b"".join(blocks), "little")
    for shift, mask in _shapes(n).plane_steps:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    data = x.to_bytes(16 * n, "little")
    return [int.from_bytes(data[b::8], "little") for b in range(8)]


# -- SHA3 --------------------------------------------------------------------

def lanes_from_value(value: int) -> list[int]:
    """The four 64-bit segments of a SHA3 row, as ``keccak`` packs them."""
    return [(value >> (64 * s)) & ((1 << 64) - 1) for s in range(4)]
