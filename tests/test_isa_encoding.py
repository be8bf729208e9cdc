"""Tests for SimISA instruction encoding/decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa.encoding import decode, decode_stream, encode, encode_all
from repro.isa.instructions import (
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    Op,
    OperandKind,
    SPECS,
    instruction_length,
)
from repro.isa.registers import NUM_REGS


def _operand_strategy(kind: OperandKind):
    if kind is OperandKind.REG:
        return st.integers(min_value=0, max_value=NUM_REGS - 1)
    if kind is OperandKind.IMM8:
        return st.integers(min_value=0, max_value=255)
    if kind in (OperandKind.IMM32, OperandKind.REL32):
        return st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
    return st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(sorted(SPECS, key=int)))
    operands = tuple(draw(_operand_strategy(kind))
                     for kind in SPECS[op].operands)
    return Instruction(op, operands)


class TestRoundTrip:
    @given(instructions())
    def test_encode_decode_roundtrip(self, instr):
        raw = encode(instr)
        decoded, length = decode(raw)
        assert length == len(raw) == instr.length
        assert decoded.op == instr.op
        # Immediates may normalize sign, but re-encoding must agree.
        assert encode(decoded) == raw

    @given(st.lists(instructions(), min_size=1, max_size=20))
    def test_stream_roundtrip(self, instrs):
        raw = encode_all(instrs)
        decoded = list(decode_stream(raw))
        assert len(decoded) == len(instrs)
        offset = 0
        for (off, instr), original in zip(decoded, instrs):
            assert off == offset
            assert instr.op == original.op
            offset += instr.length

    def test_lengths_are_static(self):
        for op in SPECS:
            operands = tuple(0 for _ in SPECS[op].operands)
            assert len(encode(Instruction(op, operands))) == \
                instruction_length(op)

    def test_max_length_constant(self):
        assert MAX_INSTRUCTION_LENGTH == max(
            instruction_length(op) for op in SPECS)


class TestErrors:
    def test_bad_opcode_byte(self):
        with pytest.raises(EncodingError):
            decode(b"\xff\x00\x00")

    def test_bad_register_byte(self):
        raw = bytearray(encode(Instruction(Op.MOV_RR, (0, 1))))
        raw[1] = 200  # invalid register number
        with pytest.raises(EncodingError):
            decode(bytes(raw))

    def test_truncated_instruction(self):
        raw = encode(Instruction(Op.MOV_RI, (0, 123456789)))
        with pytest.raises(EncodingError):
            decode(raw[:-1])

    def test_decode_past_end(self):
        with pytest.raises(EncodingError):
            decode(b"", 0)

    def test_operand_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Op.ADD_RI, (0, 1 << 40)))
        with pytest.raises(EncodingError):
            encode(Instruction(Op.MOV_RR, (0, 99)))

    def test_wrong_operand_count(self):
        with pytest.raises(EncodingError):
            Instruction(Op.MOV_RR, (0,))


class TestVariableLength:
    """Variable-length encoding is load-bearing for the reproduction."""

    def test_lengths_vary(self):
        lengths = {instruction_length(op) for op in SPECS}
        assert len(lengths) >= 4, "encoding should be variable length"

    def test_mid_instruction_decode_differs(self):
        # A MOV_RI whose immediate contains a valid opcode byte decodes
        # differently when started mid-instruction.
        instr = Instruction(Op.MOV_RI, (0, int(Op.RET)))
        raw = encode(instr)
        inner, _ = decode(raw, 2)
        assert inner.op == Op.RET

    def test_branch_target_resolution(self):
        instr = Instruction(Op.JMP, (10,))
        assert instr.branch_target(100) == 100 + instr.length + 10
        with pytest.raises(EncodingError):
            Instruction(Op.RET, ()).branch_target(0)


def _reference_decode(code, offset=0):
    """Field-by-field decode straight from the opcode specs: the oracle
    the table-driven :func:`decode` must agree with."""
    if offset >= len(code):
        raise EncodingError("decode past end of code")
    if code[offset] not in {int(op) for op in Op}:
        raise EncodingError(f"invalid opcode byte {code[offset]:#04x}")
    op = Op(code[offset])
    pos = offset + 1
    operands = []
    for kind in SPECS[op].operands:
        width = {OperandKind.REG: 1, OperandKind.IMM8: 1,
                 OperandKind.IMM64: 8}.get(kind, 4)
        if pos + width > len(code):
            raise EncodingError("truncated instruction")
        value = int.from_bytes(code[pos:pos + width], "little",
                               signed=width > 1)
        if kind is OperandKind.REG and value >= NUM_REGS:
            raise EncodingError(f"bad register byte {value:#04x}")
        operands.append(value)
        pos += width
    return Instruction(op, tuple(operands)), pos - offset


def _outcome(code, offset=0):
    try:
        instr, length = decode(code, offset)
    except EncodingError as exc:
        return ("error", str(exc))
    return (instr, length, repr(instr), hash(instr), type(instr.op))


def _reference_outcome(code, offset=0):
    try:
        instr, length = _reference_decode(code, offset)
    except EncodingError as exc:
        return ("error", str(exc))
    return (instr, length, repr(instr), hash(instr), type(instr.op))


class TestTableDrivenDecode:
    @pytest.mark.parametrize("arch", ["x64", "x32"])
    def test_fixed12_images_decode_as_reference(self, arch):
        from repro.experiments import compiled
        from repro.workloads.spec import BENCHMARKS
        for name in BENCHMARKS:
            module = compiled(name, arch, True).module
            code = module.code
            decoded = 0
            for start, end in module.code_ranges:
                offset = start - module.base
                while offset < end - module.base:
                    outcome = _outcome(code, offset)
                    assert outcome == _reference_outcome(code, offset), \
                        f"{name}/{arch} at {offset:#x}"
                    offset += outcome[1]
                    decoded += 1
            assert decoded

    def test_every_opcode_byte_fails_as_reference(self):
        # every truncation, with register bytes valid, bad, and maximal
        for opcode in range(256):
            for fill in (0, NUM_REGS, 0xFF):
                whole = bytes([opcode]) + bytes([fill]) * \
                    (MAX_INSTRUCTION_LENGTH - 1)
                for cut in range(1, MAX_INSTRUCTION_LENGTH + 1):
                    for code, offset in ((whole[:cut], 0),
                                         (b"\x01" + whole[:cut], 1)):
                        assert _outcome(code, offset) == \
                            _reference_outcome(code, offset), \
                            (opcode, fill, cut)

    def test_mid_image_and_window_offsets(self):
        code = encode_all([Instruction(Op.NOP),
                           Instruction(Op.LEA, (1, 2, -5)),
                           Instruction(Op.MOV_RI, (3, -(1 << 63)))])
        for offset in range(len(code) + 1):
            assert _outcome(code, offset) == _reference_outcome(code, offset)
            assert _outcome(memoryview(code), offset) == \
                _reference_outcome(code, offset)
