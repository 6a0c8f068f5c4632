"""Host-side data packing between byte buffers and grid rows.

These run on the host port (zero fabric cycles) and model the DMA engine
plus whatever register shuffling the MCU does for free while staging
data.  Column conventions:

* AES: tile ``t`` owns columns ``16t .. 16t+15``; staged byte ``j`` of a
  block sits LSB-first in an 8-column field; sliced planes put bit ``b``
  of byte ``j`` at column ``16t + j`` of plane row ``b``.
* SHA3: lane segment ``s`` owns columns ``64s .. 64s+63``, lane bit ``z``
  at column ``64s + z``.
* GHASH: block bit ``x_i`` (MSB-first across the block) at column ``i``.
"""

from __future__ import annotations

__all__ = [
    "aes_stage_rows", "aes_unstage_rows", "aes_plane_rows", "replicate_tiles",
    "lane_value", "lanes_from_value",
]


# -- AES ---------------------------------------------------------------------

def aes_stage_rows(blocks: list[bytes]) -> list[int]:
    """16 staging-row values; row j holds byte j of every block.

    Bytes 0..7 occupy the low half of each tile, bytes 8..15 the high
    half, so an OR of rows j and j+8 yields the matrix fed to the
    transpose network.
    """
    data = b"".join(blocks)
    rows = []
    for j in range(16):
        field = bytearray(2 * len(blocks))
        field[j >= 8::2] = data[j::16]
        rows.append(int.from_bytes(field, "little"))
    return rows


def aes_unstage_rows(rows: list[int], count: int) -> list[bytes]:
    data = bytearray(16 * count)
    for j, row in enumerate(rows):
        data[j::16] = row.to_bytes(32, "little")[j >= 8::2][:count]
    return [bytes(data[16 * t:16 * t + 16]) for t in range(count)]


def _replicate(mask64: int) -> int:
    return sum(mask64 << (64 * k) for k in range(32))


# Delta swaps of the 8x8 bit-matrix transpose (Hacker's Delight 7-3),
# applied to 32 independent 64-bit matrices at once.
_TRANSPOSE_STEPS = ((7, _replicate(0x00AA00AA00AA00AA)),
                    (14, _replicate(0x0000CCCC0000CCCC)),
                    (28, _replicate(0x00000000F0F0F0F0)))


def aes_plane_rows(blocks: list[bytes]) -> list[int]:
    """Bit-sliced plane values: plane b, column 16t+j = bit b of byte j.

    Every 8 staged bytes form an 8x8 bit matrix, one byte per row;
    after the transpose, byte b of each matrix holds bit b of its eight
    bytes, so plane b is every eighth byte.
    """
    if len(blocks) > 16:
        raise ValueError("at most 16 blocks, one per tile")
    x = int.from_bytes(b"".join(blocks), "little")
    for shift, mask in _TRANSPOSE_STEPS:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    data = x.to_bytes(16 * len(blocks), "little")
    return [int.from_bytes(data[b::8], "little") for b in range(8)]


def replicate_tiles(block: bytes) -> list[int]:
    """Plane values of one 16-byte value replicated into all 16 tiles."""
    return aes_plane_rows([block] * 16)


# -- SHA3 --------------------------------------------------------------------

def lane_value(segments: list[int]) -> int:
    """Pack up to four 64-bit lane values into one row."""
    value = 0
    for s, lane in enumerate(segments):
        value |= (lane & ((1 << 64) - 1)) << (64 * s)
    return value


def lanes_from_value(value: int) -> list[int]:
    return [(value >> (64 * s)) & ((1 << 64) - 1) for s in range(4)]
