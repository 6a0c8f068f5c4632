"""Host-side data packing between byte buffers and grid rows.

These run on the host port (zero fabric cycles) and model the DMA engine
plus whatever register shuffling the MCU does for free while staging
data.  Column conventions:

* AES: tile ``t`` owns columns ``16t .. 16t+15``.  Block ``t`` of a
  list goes to tile ``t``, so on a subarray with lanes, block ``16k + t``
  lands in tile ``t`` of lane ``k`` (columns ``256k + 16t ..``).  Within
  a tile the fabric byte order is row-major over the AES state: block
  byte ``j`` (state byte ``s[j mod 4, j div 4]``) sits at tile column
  ``4(j mod 4) + j div 4``, a map that is its own inverse.  Staging row
  ``c`` holds the byte of tile column ``c``, LSB-first in an 8-column
  field; sliced planes put bit ``b`` of that byte at column ``16t + c``
  of plane row ``b``.
* SHA3: lane segment ``s`` owns columns ``64s .. 64s+63``, lane bit ``z``
  at column ``64s + z``.
* GHASH: block bit ``x_i`` (MSB-first across the block) at column ``i``.
* Lanes: on a subarray with lanes, lane ``k`` owns columns
  ``256k .. 256k+255`` of every row; :func:`lanes_to_row` joins one
  256-column value per lane into a row and :func:`row_to_lanes` splits
  it again.
"""

from __future__ import annotations

__all__ = ["aes_stage_rows", "aes_unstage_rows", "aes_plane_rows",
           "lane_value", "lanes_from_value", "lanes_to_row", "row_to_lanes"]

_LANE_BYTES = 32    # 256 columns per subarray lane


# -- subarray lanes ------------------------------------------------------------

def lanes_to_row(values: list[int]) -> int:
    """One row of ``len(values)`` lanes, lane ``k`` holding ``values[k]``
    (each below 2**256)."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little")
                                   for v in values), "little")


def row_to_lanes(row: int, lanes: int) -> list[int]:
    """The 256-column value of each of the ``lanes`` lanes of ``row``."""
    data = row.to_bytes(_LANE_BYTES * lanes, "little")
    return [int.from_bytes(data[k * _LANE_BYTES:(k + 1) * _LANE_BYTES],
                           "little") for k in range(lanes)]


# -- AES ---------------------------------------------------------------------

# The fabric byte order: tile column c holds block byte _BYTE_AT[c], and
# block byte j sits at tile column _BYTE_AT[j] (the map is an involution).
_BYTE_AT = [4 * (j % 4) + j // 4 for j in range(16)]


def aes_stage_rows(blocks: list[bytes]) -> list[int]:
    """16 staging-row values; row c holds tile column c of every block.

    Columns 0..7 occupy the low half of each tile, columns 8..15 the
    high half, so an OR of rows c and c+8 yields the matrix fed to the
    transpose network.
    """
    data = b"".join(blocks)
    rows = []
    for c in range(16):
        field = bytearray(2 * len(blocks))
        field[c >= 8::2] = data[_BYTE_AT[c]::16]
        rows.append(int.from_bytes(field, "little"))
    return rows


def aes_unstage_rows(rows: list[int], count: int) -> list[bytes]:
    """The first ``count`` blocks of 16 staging rows of any width."""
    data = bytearray(16 * count)
    used = (1 << 16 * count) - 1
    for c, row in enumerate(rows):
        field = (row & used).to_bytes(2 * count, "little")
        data[_BYTE_AT[c]::16] = field[c >= 8::2]
    return [bytes(data[16 * t:16 * t + 16]) for t in range(count)]


# Delta swaps of the 8x8 bit-matrix transpose (Hacker's Delight 7-3),
# as one 64-bit mask each, little-endian.
_TRANSPOSE_STEPS = ((7, (0x00AA00AA00AA00AA).to_bytes(8, "little")),
                    (14, (0x0000CCCC0000CCCC).to_bytes(8, "little")),
                    (28, (0x00000000F0F0F0F0).to_bytes(8, "little")))


def aes_plane_rows(blocks: list[bytes]) -> list[int]:
    """Bit-sliced plane values: plane b, column 16t+c = bit b of the byte
    at tile column c of block t.

    Every 8 reordered bytes form an 8x8 bit matrix, one byte per row;
    after the transpose, byte b of each matrix holds bit b of its eight
    bytes, so plane b is every eighth byte.  The swap masks repeat once
    per matrix over the whole input, so every matrix of every lane is
    transposed in place; masks of a fixed width would leave the blocks
    past it untransposed.
    """
    joined = b"".join(blocks)
    data = bytearray(len(joined))
    for c in range(16):
        data[c::16] = joined[_BYTE_AT[c]::16]
    x = int.from_bytes(data, "little")
    for shift, mask64 in _TRANSPOSE_STEPS:
        mask = int.from_bytes(mask64 * (len(data) // 8), "little")
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    data = x.to_bytes(len(data), "little")
    return [int.from_bytes(data[b::8], "little") for b in range(8)]


# -- SHA3 --------------------------------------------------------------------

def lane_value(segments: list[int]) -> int:
    """Pack up to four 64-bit lane values into one row."""
    value = 0
    for s, lane in enumerate(segments):
        value |= (lane & ((1 << 64) - 1)) << (64 * s)
    return value


def lanes_from_value(value: int) -> list[int]:
    return [(value >> (64 * s)) & ((1 << 64) - 1) for s in range(4)]
