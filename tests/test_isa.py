import pytest
from hypothesis import given, strategies as st

from pimcrypt.isa import (AsmError, BLOCK_WIDTHS, CommandWord, InvalidOpcode,
                          IsaError,
                          LogicKind, Opcode, assemble, decode, disassemble,
                          from_bytes, to_bytes)

OPCODES = list(Opcode)


def test_field_packing_examples():
    # opcode || index || option, MSB to LSB
    assert CommandWord(Opcode.RD_ROW, 5, 0b1000).encode() == 0x1058
    assert CommandWord(Opcode.WR_ROW, 0, 0).encode() == 0x2000
    assert CommandWord.act_row(127).encode() == 0xB7F1
    assert CommandWord.shift(3, right=True).encode() == 0x303C


def test_constructor_options():
    assert CommandWord.rd_row(9).option == 0b1000
    assert CommandWord.shift(1).option == 0b1000
    assert CommandWord.shift(1, right=True).option == 0b1100
    assert CommandWord.logic_op(4, LogicKind.XOR).option == 0b100
    assert CommandWord.logic_op(4, LogicKind.NOT).option == 0b110
    for width, code in zip(BLOCK_WIDTHS, range(6)):
        assert CommandWord.ext_bit(0, width).option == code << 1


@given(st.sampled_from(OPCODES), st.integers(0, 255), st.integers(0, 15))
def test_encode_decode_bijection(op, index, option):
    cmd = CommandWord(op, index, option)
    word = cmd.encode()
    assert 0 <= word < 1 << 16
    assert decode(word) == cmd
    assert from_bytes(to_bytes([cmd])) == [cmd]


def test_all_valid_words_round_trip():
    seen = set()
    for op in OPCODES:
        for index in range(256):
            for option in range(16):
                word = CommandWord(op, index, option).encode()
                assert word not in seen
                seen.add(word)
    assert len(seen) == 6 * 256 * 16


def test_unassigned_opcodes_rejected():
    for word in (0x0000, 0x4000, 0x5123, 0xEFFF):
        with pytest.raises(InvalidOpcode):
            decode(word)


@given(st.lists(st.tuples(st.sampled_from(OPCODES), st.integers(0, 255),
                          st.integers(0, 15)), max_size=40))
def test_asm_round_trip(specs):
    cmds = [CommandWord(*s) for s in specs]
    assert assemble(disassemble(cmds)) == cmds


def test_mnemonics():
    assert assemble("rd_row 5, sa") == [CommandWord(Opcode.RD_ROW, 5, 0b1000)]
    assert disassemble([CommandWord(Opcode.WR_ROW, 7, 0b1000)]).strip() \
        == "wr_row 7, sa"
    text = "\n".join(disassemble([CommandWord(op, 0, opt)]).strip()
                     for op, opt in [(Opcode.ACT_ROW, 1),
                                     (Opcode.LOGIC_OP, 0b100),
                                     (Opcode.EXT_BIT, 0b0100)])
    assert assemble(text) == [CommandWord(Opcode.ACT_ROW, 0, 1),
                              CommandWord(Opcode.LOGIC_OP, 0, 0b100),
                              CommandWord(Opcode.EXT_BIT, 0, 0b0100)]


def test_row_labels():
    text = ".row ACC 17\nrd_row @ACC, sa\nwr_row @ACC, sa\n"
    cmds = assemble(text)
    assert [c.index for c in cmds] == [17, 17]


def test_asm_errors_name_line():
    with pytest.raises(AsmError) as exc:
        assemble("rd_row 1, sa\nbogus_op 3\n")
    assert "2" in str(exc.value)


@pytest.mark.parametrize("text,message", [
    (".row ACC", "malformed label declaration"),
    (".row ACC x1", "bad label value"),
    ("bogus_op 3", "unknown mnemonic"),
    ("rd_row", "missing operand"),
    ("rd_row @ACC, sa", "undeclared label"),
    ("rd_row one, sa", "bad operand"),
    ("rd_row 1", "rd_row needs an option flag"),
    ("rd_row 1, opt=z", "bad option"),
    ("rd_row 1, left", "unknown flag .left. for rd_row"),
    ("rd_row 1, sa, sa", "too many fields"),
    ("rd_row 256, sa", "index 256 out of range"),
])
def test_each_asm_error_names_its_line(text, message):
    with pytest.raises(AsmError, match=f"^line 3: {message}") as exc:
        assemble(f"# header\nrd_row 1, sa\n{text}\n")
    assert exc.value.lineno == 3


@pytest.mark.parametrize("opcode,index,option", [
    (Opcode.RD_ROW, 1.0, 8), (Opcode.RD_ROW, 1, 8.0),
    (Opcode.RD_ROW, True, 8), (Opcode.RD_ROW, 1, True),
    (Opcode.RD_ROW, "1", 8), (1, 1, 8), ("rd_row", 1, 8),
])
def test_command_word_rejects_non_int_fields(opcode, index, option):
    # A float index used to load and then fail at run time with TypeError.
    with pytest.raises(IsaError):
        CommandWord(opcode, index, option)
