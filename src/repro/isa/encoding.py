"""Byte-exact encoder/decoder for SimISA instructions.

The encoding is deliberately simple but *variable length* (1 to 10
bytes): one opcode byte followed by operand bytes, little-endian.  The
decoder validates opcode bytes and register numbers, so — exactly as on
x86 — an arbitrary byte offset into the code image may or may not decode,
and a byte sequence can decode differently depending on where decoding
starts.  The ROP gadget scanner and the paper's "gadgets starting in the
middle of an instruction" discussion rely on this property.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

from repro.errors import EncodingError
from repro.isa.instructions import (
    LENGTHS,
    SPECS,
    WIDTHS,
    Instruction,
    Op,
    OperandKind,
)
from repro.isa.registers import NUM_REGS

_OPCODE_VALUES = {int(op) for op in Op}

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def pack_field(kind: OperandKind, value: int) -> bytes:
    """Encode one operand field.

    Raises :class:`EncodingError` if ``value`` does not fit the field.
    """
    if kind is OperandKind.REG:
        if not 0 <= value < NUM_REGS:
            raise EncodingError(f"bad register number {value}")
        return bytes((value,))
    if kind is OperandKind.IMM8:
        if not 0 <= value < 256:
            raise EncodingError(f"imm8 out of range: {value}")
        return bytes((value,))
    if kind is OperandKind.IMM32 or kind is OperandKind.REL32:
        if not -(1 << 31) <= value < (1 << 32):
            raise EncodingError(f"imm32 out of range: {value}")
        return _U32.pack(value & _MASK32)
    if kind is OperandKind.IMM64:
        if not -(1 << 63) <= value < (1 << 64):
            raise EncodingError(f"imm64 out of range: {value}")
        return _U64.pack(value & _MASK64)
    raise EncodingError(f"unknown operand kind {kind}")  # pragma: no cover


def encode(instr: Instruction) -> bytes:
    """Encode one instruction to bytes.

    Raises :class:`EncodingError` if an operand does not fit its field.
    """
    out = bytearray((instr.op,))
    for kind, value in zip(SPECS[instr.op].operands, instr.operands):
        if kind is OperandKind.REG and 0 <= value < NUM_REGS:
            out.append(value)       # the common field, inline
        else:
            out += pack_field(kind, value)
    return bytes(out)


def encode_all(instrs: List[Instruction]) -> bytes:
    """Encode a sequence of instructions to a contiguous byte string."""
    return b"".join(encode(i) for i in instrs)


#: struct format character of each operand kind (immediates signed)
_FIELD_FORMATS = {
    OperandKind.REG: "B",
    OperandKind.IMM8: "B",
    OperandKind.IMM32: "i",
    OperandKind.REL32: "i",
    OperandKind.IMM64: "q",
}


def _decoder(op: Op):
    """``(op, operand unpacker or None, length, register positions)``."""
    kinds = SPECS[op].operands
    unpack = struct.Struct(
        "<" + "".join(_FIELD_FORMATS[kind] for kind in kinds)
    ).unpack_from if kinds else None
    regs = tuple(index for index, kind in enumerate(kinds)
                 if kind is OperandKind.REG)
    return op, unpack, LENGTHS[op], regs


#: decoder entry per opcode byte; ``None`` for invalid opcodes
_DECODERS = tuple(_decoder(Op(byte)) if byte in _OPCODE_VALUES else None
                  for byte in range(256))

_new_instruction = object.__new__


def decode(code: bytes, offset: int = 0) -> Tuple[Instruction, int]:
    """Decode one instruction at ``offset`` in ``code``.

    Returns ``(instruction, length)``.  Raises :class:`EncodingError` if
    the bytes at ``offset`` are not a valid instruction (bad opcode, bad
    register byte, or truncated operands).
    """
    if offset >= len(code):
        raise EncodingError("decode past end of code")
    entry = _DECODERS[code[offset]]
    if entry is None:
        raise EncodingError(f"invalid opcode byte {code[offset]:#04x}")
    op, unpack, length, regs = entry
    if offset + length > len(code):
        _raise_truncated(code, offset + 1, op)
    operands = unpack(code, offset + 1) if unpack is not None else ()
    for index in regs:
        if operands[index] >= NUM_REGS:
            raise EncodingError(
                f"bad register byte {operands[index]:#04x}")
    # The table already checked what ``Instruction.__post_init__``
    # would: bypass it.
    instr = _new_instruction(Instruction)
    fields = instr.__dict__
    fields["op"] = op
    fields["operands"] = operands
    return instr, length


def _raise_truncated(code: bytes, pos: int, op: Op) -> None:
    """Raise the error for an instruction cut off by the end of ``code``:
    a bad register byte before the cut wins, as fields decode in order."""
    for kind in SPECS[op].operands:
        width = WIDTHS[kind]
        if pos + width > len(code):
            break
        if kind is OperandKind.REG and code[pos] >= NUM_REGS:
            raise EncodingError(f"bad register byte {code[pos]:#04x}")
        pos += width
    raise EncodingError("truncated instruction")


def decode_stream(code: bytes, offset: int = 0,
                  limit: int | None = None) -> Iterator[Tuple[int, Instruction]]:
    """Decode instructions sequentially starting at ``offset``.

    Yields ``(offset, instruction)`` pairs.  Stops at ``limit`` (an offset
    bound) or the end of ``code``; raises :class:`EncodingError` on the
    first undecodable byte, as a linear-sweep disassembler would.
    """
    end = len(code) if limit is None else min(limit, len(code))
    while offset < end:
        instr, length = decode(code, offset)
        yield offset, instr
        offset += length
