"""A SHA3 row split into its sponge segments, for readers outside ``src/``.

Each kernel module stages and reads its own rows: the AES byte order is
``aes``'s, SHA3's 64-bit segments ``keccak``'s, GHASH's bit order
``ghash``'s and the lane layout ``fabric``'s.  No module of the package
imports this one; it stays only because ``perfbench/tracing.py`` imports
:func:`lanes_from_value` to count distinct sponge messages.
"""

from __future__ import annotations

from .keccak import BLOCK_WIDTH, SHA3_LANES

__all__ = ["lanes_from_value"]


def lanes_from_value(value: int) -> list[int]:
    """The ``SHA3_LANES`` segments of a SHA3 row, as ``keccak`` packs them."""
    return [(value >> (BLOCK_WIDTH * s)) & ((1 << BLOCK_WIDTH) - 1)
            for s in range(SHA3_LANES)]
