"""16-bit control ISA: command words, encode/decode, assembler/disassembler.

A command word packs three fields, which :func:`split_word` alone takes
apart::

    [15:12] opcode   [11:4] index   [3:0] option

Six opcodes are assigned, each named by the lower-case name of its
:class:`Opcode`; the other ten 4-bit patterns are rejected by
:func:`decode`.  Each opcode's named option patterns are written once,
in ``_OPTIONS``, which the :class:`CommandWord` constructors,
:func:`assemble` and :func:`disassemble` read: ``sa`` (through the
sense-amp latch) or ``bus`` for rd_row and wr_row, ``left`` (toward
column 0) or ``right`` for shift, ``arm`` for act_row, which assembly
may leave out as the opcode's only pattern, the :class:`LogicKind` for
logic_op and the block width for ext_bit.

``decode`` is a pure field split plus opcode check, so every option
nibble round-trips; which options and rows a command may use is the
fabric's per-opcode table, read at load and at execute.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "Opcode",
    "LogicKind",
    "BLOCK_WIDTHS",
    "CommandWord",
    "IsaError",
    "InvalidOpcode",
    "AsmError",
    "split_word",
    "decode",
    "to_bytes",
    "from_bytes",
    "assemble",
    "disassemble",
]


class IsaError(Exception):
    """Base class for ISA-level failures."""


class InvalidOpcode(IsaError):
    """Raised when a 16-bit word carries an unassigned opcode pattern."""


class AsmError(IsaError):
    """Raised on malformed assembly text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Opcode(IntEnum):
    RD_ROW = 0b0001
    WR_ROW = 0b0010
    SHIFT = 0b0011
    LOGIC_OP = 0b1001
    ACT_ROW = 0b1011
    EXT_BIT = 0b1111


class LogicKind(IntEnum):
    AND = 0
    OR = 1
    XOR = 2
    NOT = 3


#: Supported ext_bit broadcast widths, indexed by the 3-bit width code.
BLOCK_WIDTHS = (16, 32, 64, 128, 256, 512)

# Each assigned opcode's named option patterns.
_OPTIONS: dict[Opcode, dict[str, int]] = {
    Opcode.RD_ROW: {"sa": 0b1000, "bus": 0b0000},
    Opcode.WR_ROW: {"sa": 0b1000, "bus": 0b0000},
    Opcode.SHIFT: {"left": 0b1000, "right": 0b1100},
    Opcode.ACT_ROW: {"arm": 0b0001},
    Opcode.LOGIC_OP: {kind.name.lower(): kind << 1 for kind in LogicKind},
    Opcode.EXT_BIT: {f"w{width}": code << 1
                     for code, width in enumerate(BLOCK_WIDTHS)},
}


@dataclass(frozen=True, slots=True)
class CommandWord:
    opcode: Opcode
    index: int
    option: int

    def __post_init__(self):
        if not isinstance(self.opcode, Opcode):
            raise IsaError(f"opcode {self.opcode!r} is not an Opcode")
        for name, value in (("index", self.index), ("option", self.option)):
            if type(value) is bool or not isinstance(value, int):
                raise IsaError(f"{name} {value!r} is not an int")
        if not 0 <= self.index <= 0xFF:
            raise IsaError(f"index {self.index} out of range 0..255")
        if not 0 <= self.option <= 0xF:
            raise IsaError(f"option {self.option:#x} out of range 0..15")

    def encode(self) -> int:
        return (self.opcode << 12) | (self.index << 4) | self.option

    # -- constructors for the named option patterns ----------------------

    @classmethod
    def _named(cls, opcode: Opcode, index: int, flag: str) -> "CommandWord":
        option = _OPTIONS[opcode].get(flag)
        if option is None:
            raise IsaError(f"{opcode.name.lower()} has no option {flag!r}")
        return cls(opcode, index, option)

    @classmethod
    def rd_row(cls, row: int, sa: bool = True) -> "CommandWord":
        return cls._named(Opcode.RD_ROW, row, "sa" if sa else "bus")

    @classmethod
    def wr_row(cls, row: int, sa: bool = True) -> "CommandWord":
        return cls._named(Opcode.WR_ROW, row, "sa" if sa else "bus")

    @classmethod
    def shift(cls, count: int, right: bool = False) -> "CommandWord":
        return cls._named(Opcode.SHIFT, count, "right" if right else "left")

    @classmethod
    def act_row(cls, row: int) -> "CommandWord":
        return cls._named(Opcode.ACT_ROW, row, "arm")

    @classmethod
    def logic_op(cls, row: int, kind: LogicKind) -> "CommandWord":
        return cls._named(Opcode.LOGIC_OP, row,
                          LogicKind(kind & 0b11).name.lower())

    @classmethod
    def ext_bit(cls, col: int, width: int) -> "CommandWord":
        return cls._named(Opcode.EXT_BIT, col, f"w{width}")


def split_word(word: int) -> tuple[int, int, int]:
    """A word's (opcode, index, option) fields, unchecked."""
    return word >> 12, word >> 4 & 0xFF, word & 0xF


def decode(word: int) -> CommandWord:
    if not 0 <= word <= 0xFFFF:
        raise IsaError(f"word {word:#x} is not a 16-bit value")
    opcode, index, option = split_word(word)
    if opcode not in _OPTIONS:
        raise InvalidOpcode(f"unassigned opcode {opcode:#06b} in word {word:#06x}")
    return CommandWord(Opcode(opcode), index, option)


def to_bytes(cmds: list[CommandWord]) -> bytes:
    """Serialize a command sequence as big-endian uint16 words."""
    return struct.pack(f">{len(cmds)}H", *(c.encode() for c in cmds))


def from_bytes(data: bytes) -> list[CommandWord]:
    if len(data) % 2:
        raise IsaError("command stream has odd byte length")
    return [decode(w) for w in struct.unpack(f">{len(data) // 2}H", data)]


# ---------------------------------------------------------------------------
# Textual assembly
#
# One command per line:  mnemonic operand[, flag]
# Comments start with '#'.  A header line ``.row NAME INDEX`` declares a
# symbolic row label; later operands may be written ``@NAME``.
# Non-canonical option nibbles are written/accepted as ``opt=0xN``.
# ---------------------------------------------------------------------------

_BY_MNEMONIC = {op.name.lower(): op for op in Opcode}


def assemble(text: str) -> list[CommandWord]:
    labels: dict[str, int] = {}
    cmds: list[CommandWord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".row"):
            parts = line.split()
            if len(parts) != 3:
                raise AsmError(lineno, f"malformed label declaration {line!r}")
            try:
                labels[parts[1]] = int(parts[2], 0)
            except ValueError:
                raise AsmError(lineno, f"bad label value {parts[2]!r}") from None
            continue
        mnem, _, rest = line.partition(" ")
        opcode = _BY_MNEMONIC.get(mnem)
        if opcode is None:
            raise AsmError(lineno, f"unknown mnemonic {mnem!r}")
        fields = [f.strip() for f in rest.split(",")] if rest.strip() else []
        if not fields:
            raise AsmError(lineno, "missing operand")
        operand = fields[0]
        if operand.startswith("@"):
            if operand[1:] not in labels:
                raise AsmError(lineno, f"undeclared label {operand!r}")
            index = labels[operand[1:]]
        else:
            try:
                index = int(operand, 0)
            except ValueError:
                raise AsmError(lineno, f"bad operand {operand!r}") from None
        flags = _OPTIONS[opcode]
        if len(fields) == 1:
            if len(flags) != 1:
                raise AsmError(lineno, f"{mnem} needs an option flag")
            option, = flags.values()
        elif len(fields) == 2:
            tok = fields[1]
            if tok.startswith("opt="):
                try:
                    option = int(tok[4:], 0)
                except ValueError:
                    raise AsmError(lineno, f"bad option {tok!r}") from None
            elif tok in flags:
                option = flags[tok]
            else:
                raise AsmError(lineno, f"unknown flag {tok!r} for {mnem}")
        else:
            raise AsmError(lineno, f"too many fields in {line!r}")
        try:
            cmds.append(CommandWord(opcode, index, option))
        except IsaError as exc:
            raise AsmError(lineno, str(exc)) from None
    return cmds


def disassemble(cmds: list[CommandWord]) -> str:
    lines = []
    for cmd in cmds:
        flags = _OPTIONS[cmd.opcode]
        flag = next((name for name, bits in flags.items()
                     if bits == cmd.option), None)
        line = f"{cmd.opcode.name.lower()} {cmd.index}"
        if flag is None:
            line += f", opt={cmd.option:#x}"
        elif len(flags) > 1:
            line += f", {flag}"
        lines.append(line)
    return "\n".join(lines)
