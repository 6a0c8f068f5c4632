"""Named row layouts for the kernels, and the idioms they share.

A :class:`LayoutMap` names disjoint row regions so generators and host
actions never hard-code row numbers twice.  ``_logic`` emits the
``act_row`` + ``logic_op`` + ``wr_row`` triple that computes
``dst = a <kind> b``, ``_shift_into`` the ``rd_row`` + ``shift`` +
``wr_row`` triple that computes ``dst = src`` shifted,
:func:`pack_functions` lays a kernel's function windows out in one
command array, and ``_check_blocks`` rejects staged 16-byte blocks of
another length.
"""

from __future__ import annotations

from ..controller import FunctionDescriptor
from ..fabric import ROWS
from ..isa import CommandWord, LogicKind

__all__ = ["LayoutMap", "LayoutError", "pack_functions"]


class LayoutError(Exception):
    pass


class LayoutMap:
    """Named, disjoint row regions."""

    def __init__(self, regions: dict[str, tuple[int, int]]):
        used: set[int] = set()
        for name, (start, count) in regions.items():
            rows = set(range(start, start + count))
            if start < 0 or start + count > ROWS:
                raise LayoutError(f"region {name} exceeds the grid")
            if rows & used:
                raise LayoutError(f"region {name} overlaps another region")
            used |= rows
        self.regions = dict(regions)

    def row(self, name: str, i: int = 0) -> int:
        start, count = self.regions[name]
        if not 0 <= i < count:
            raise LayoutError(f"row {i} outside region {name}")
        return start + i

    def span(self, name: str) -> range:
        start, count = self.regions[name]
        return range(start, start + count)


def _logic(a: int, kind: LogicKind, b: int, dst: int) -> list[CommandWord]:
    return [CommandWord.act_row(a), CommandWord.logic_op(b, kind),
            CommandWord.wr_row(dst)]


def _shift_into(src: int, count: int, dst: int,
                right: bool = False) -> list[CommandWord]:
    return [CommandWord.rd_row(src), CommandWord.shift(count, right=right),
            CommandWord.wr_row(dst)]


def _check_blocks(what: str, blocks) -> None:
    """``ValueError`` unless every one of ``blocks`` is 16 bytes long."""
    lengths = set(map(len, blocks)) - {16}
    if lengths:
        raise ValueError(f"{what} must be 16 bytes, got lengths "
                         f"{sorted(lengths)}")


def pack_functions(windows: dict[str, tuple[list[CommandWord], tuple]]
                   ) -> tuple[list[CommandWord], dict[str, FunctionDescriptor]]:
    """The command array and descriptors of ``name -> (commands,
    strides)`` windows, laid out end to end in the given order."""
    commands: list[CommandWord] = []
    functions: dict[str, FunctionDescriptor] = {}
    for name, (cmds, strides) in windows.items():
        functions[name] = FunctionDescriptor(name, len(commands), len(cmds),
                                             strides=tuple(strides))
        commands += cmds
    return commands, functions
