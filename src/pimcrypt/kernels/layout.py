"""Named row layouts for the kernels, and the idioms they share.

A :class:`LayoutMap` names disjoint row regions so generators and host
actions never hard-code row numbers twice.  ``_logic`` emits the
``act_row`` + ``logic_op`` + ``wr_row`` triple that computes
``dst = a <kind> b``, ``_shift_into`` the ``rd_row`` + ``shift`` +
``wr_row`` triple that computes ``dst = src`` shifted,
:func:`pack_functions` lays a kernel's function windows out in one
command array, :func:`as_bytes` is the one conversion of host inputs
(keys, staged blocks, SHA3 messages, every ``modes`` argument) to
``bytes`` and rejects any of another length or type, and
``_check_flags`` rejects build flags that are not bools.
"""

from __future__ import annotations

from ..controller import FunctionDescriptor
from ..fabric import ROWS
from ..isa import CommandWord, LogicKind

__all__ = ["LayoutMap", "LayoutError", "as_bytes", "pack_functions"]


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


def as_bytes(what: str, values,
             sizes: tuple[int, ...] | None = (16,)) -> list[bytes]:
    """``values`` as a list of ``bytes``, each read as its bytes:
    ``TypeError`` unless each is a bytes-like object, ``ValueError``
    unless each is as long as one of ``sizes`` (16 bytes by default, any
    length if ``None``); both messages start with ``what``."""
    try:
        out = [b if type(b) is bytes else bytes(memoryview(b))
               for b in values]
    except TypeError as exc:
        raise TypeError(f"{what}: {exc}") from None
    lengths = set() if sizes is None else set(map(len, out)).difference(sizes)
    if lengths:
        raise ValueError(f"{what} must be {' or '.join(map(str, sizes))} "
                         f"bytes, got lengths {sorted(lengths)}")
    return out


def _check_flags(**flags) -> None:
    """``ValueError`` unless every keyword argument is a bool."""
    for name, flag in flags.items():
        if type(flag) is not bool:
            raise ValueError(f"{name} must be a bool, got {flag!r}")


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
