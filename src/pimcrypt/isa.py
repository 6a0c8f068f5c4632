"""16-bit control ISA: command words, encode/decode, assembler/disassembler.

A command word packs three fields::

    [15:12] opcode   [11:4] index   [3:0] option

Six opcodes are assigned; the remaining ten 4-bit patterns are invalid and
rejected by :func:`decode`.  The option nibble carries per-opcode flags:

* ``rd_row`` / ``wr_row``  bit 3 routes through the sense-amp latch (1) or
  the external data bus (0); bits 2..0 must be zero.
* ``shift``                bit 3 = shift valid, bit 2 = direction
  (0 = left, toward column 0; 1 = right, toward column 255); bit 0 is zero.
* ``act_row``              bit 0 arms the dual-row activation.
* ``logic_op``             bits 2..1 select AND/OR/XOR/NOT; bits 3, 0 zero.
* ``ext_bit``              bits 3..1 encode the block width.

``decode`` is a pure field split plus opcode check, so every option nibble
round-trips; option semantics are enforced by the fabric at execute time.
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

_VALID_OPCODES = {op.value for op in Opcode}


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

    # -- constructors for the canonical option patterns ------------------

    @classmethod
    def rd_row(cls, row: int, sa: bool = True) -> "CommandWord":
        return cls(Opcode.RD_ROW, row, 0b1000 if sa else 0b0000)

    @classmethod
    def wr_row(cls, row: int, sa: bool = True) -> "CommandWord":
        return cls(Opcode.WR_ROW, row, 0b1000 if sa else 0b0000)

    @classmethod
    def shift(cls, count: int, right: bool = False) -> "CommandWord":
        return cls(Opcode.SHIFT, count, 0b1100 if right else 0b1000)

    @classmethod
    def act_row(cls, row: int) -> "CommandWord":
        return cls(Opcode.ACT_ROW, row, 0b0001)

    @classmethod
    def logic_op(cls, row: int, kind: LogicKind) -> "CommandWord":
        return cls(Opcode.LOGIC_OP, row, (kind & 0b11) << 1)

    @classmethod
    def ext_bit(cls, col: int, width: int) -> "CommandWord":
        return cls(Opcode.EXT_BIT, col, BLOCK_WIDTHS.index(width) << 1)


def decode(word: int) -> CommandWord:
    if not 0 <= word <= 0xFFFF:
        raise IsaError(f"word {word:#x} is not a 16-bit value")
    opcode = word >> 12
    if opcode not in _VALID_OPCODES:
        raise InvalidOpcode(f"unassigned opcode {opcode:#06b} in word {word:#06x}")
    return CommandWord(Opcode(opcode), (word >> 4) & 0xFF, word & 0xF)


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

_MNEMONICS = {
    "rd_row": Opcode.RD_ROW,
    "wr_row": Opcode.WR_ROW,
    "shift": Opcode.SHIFT,
    "act_row": Opcode.ACT_ROW,
    "logic_op": Opcode.LOGIC_OP,
    "ext_bit": Opcode.EXT_BIT,
}
_OPCODE_NAMES = {v: k for k, v in _MNEMONICS.items()}

_LOGIC_NAMES = {"and": 0b0000, "or": 0b0010, "xor": 0b0100, "not": 0b0110}
_WIDTH_NAMES = {f"w{w}": i << 1 for i, w in enumerate(BLOCK_WIDTHS)}


def _flag_table(opcode: Opcode) -> dict[str, int]:
    if opcode in (Opcode.RD_ROW, Opcode.WR_ROW):
        return {"sa": 0b1000, "bus": 0b0000}
    if opcode is Opcode.SHIFT:
        return {"left": 0b1000, "right": 0b1100}
    if opcode is Opcode.ACT_ROW:
        return {"arm": 0b0001}
    if opcode is Opcode.LOGIC_OP:
        return _LOGIC_NAMES
    return _WIDTH_NAMES


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
        opcode = _MNEMONICS.get(mnem)
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
        flags = _flag_table(opcode)
        if len(fields) == 1:
            option = 0b0001 if opcode is Opcode.ACT_ROW else None
            if option is None:
                raise AsmError(lineno, f"{mnem} needs an option flag")
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


def _flag_for(cmd: CommandWord) -> str | None:
    for name, bits in _flag_table(cmd.opcode).items():
        if bits == cmd.option:
            return name
    return None


def disassemble(cmds: list[CommandWord]) -> str:
    lines = []
    for cmd in cmds:
        flag = _flag_for(cmd)
        if cmd.opcode is Opcode.ACT_ROW and flag == "arm":
            lines.append(f"act_row {cmd.index}")
        elif flag is not None:
            lines.append(f"{_OPCODE_NAMES[cmd.opcode]} {cmd.index}, {flag}")
        else:
            lines.append(f"{_OPCODE_NAMES[cmd.opcode]} {cmd.index}, opt={cmd.option:#x}")
    return "\n".join(lines)
