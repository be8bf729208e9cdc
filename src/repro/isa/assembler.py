"""Two-pass assembler for symbolic SimISA assembly.

Code generation and MCFI instrumentation both operate on *symbolic
assembly*: a flat list of items mixing instructions (whose operands may
reference labels), labels, alignment directives, raw data, and *marks*.
The assembler lays the items out at a base address, resolves label
references, and returns the final byte image together with everything
downstream consumers need:

* label addresses (function entries, jump tables, ...),
* mark addresses — the auxiliary-information hooks used to build an MCFI
  module's type/CFG metadata after layout,
* Bary-slot patch sites — the ``tload`` immediates that MCFI's loader
  patches with the branch's Bary table index (Sec. 5.1 of the paper),
* absolute relocations, and a typed relocation for every field whose
  bytes depend on placement, so :meth:`Assembled.placed` can re-base an
  image by patching only those fields (the dynamic linker reuses one
  assembly of a library across dlopens).

Two alignment directives mirror the paper's instrumentation needs:

* :class:`Align` pads to an ``n``-byte boundary (used before indirect
  branch *targets*: address-taken function entries, switch-case blocks,
  setjmp resume points).
* :class:`AlignEnd` pads so that the *end* of the next instruction falls
  on an ``n``-byte boundary — used before ``call`` instructions so the
  return site that follows the call is 4-byte aligned and therefore has
  a Tary table entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import AssemblerError
from repro.isa.encoding import encode, pack_field
from repro.isa.instructions import (
    LENGTHS,
    SPECS,
    WIDTHS,
    Instruction,
    Op,
    OperandKind,
)


@dataclass(frozen=True)
class LabelRef:
    """Symbolic reference to a label, usable as an instruction operand.

    In a REL32 operand slot it resolves to a PC-relative displacement; in
    an IMM64 slot it resolves to the label's absolute address (and emits
    an absolute relocation); in an IMM32 slot it resolves to the label's
    absolute address if it fits.
    """

    name: str


@dataclass(frozen=True)
class BarySlot:
    """Placeholder for a Bary table index, patched by the loader.

    ``site`` is the module-local indirect-branch site number.  The
    assembler records the byte offset of the 4-byte immediate so the
    loader can write the process-global Bary index there (the paper's
    "loader patches the code to embed constant Bary table indexes").
    """

    site: int


Operand = Union[int, LabelRef, BarySlot]


@dataclass(frozen=True)
class AsmInstr:
    """An instruction whose operands may be symbolic."""

    op: Op
    operands: Tuple[Operand, ...] = ()

    @property
    def length(self) -> int:
        return LENGTHS[self.op]


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class Align:
    """Pad with NOPs to an ``n``-byte boundary."""

    n: int = 4


@dataclass(frozen=True)
class AlignEnd:
    """Pad with NOPs so the next instruction *ends* on an ``n`` boundary."""

    n: int = 4


@dataclass(frozen=True)
class Data:
    """Raw bytes placed in the image (read-only data, strings)."""

    payload: bytes


@dataclass(frozen=True)
class DataWord:
    """An 8-byte little-endian word; may reference a label (jump tables)."""

    value: Union[int, LabelRef]


@dataclass(frozen=True)
class Mark:
    """Bind ``(kind, info)`` to the address of the next item emitted.

    Marks carry no bytes.  They are how the compiler and instrumenter
    communicate machine-level facts (function entries, return sites,
    indirect-branch sites) to the MCFI auxiliary-information builder.
    """

    kind: str
    info: object = None


Item = Union[AsmInstr, Label, Align, AlignEnd, Data, DataWord, Mark]


class Relocation(NamedTuple):
    """A field of an assembled image whose bytes depend on placement.

    ``offset`` is the field's byte offset from the image base.  Kinds:

    * ``'rel32'`` — 4-byte PC-relative reference to a name the items do
      not define (``end`` = offset just past the instruction);
    * ``'abs64'`` / ``'abs32'`` — 8/4-byte absolute label immediate;
    * ``'word'`` — 8-byte label :class:`DataWord`.

    Local REL32 references are position-independent and never recorded.
    """

    offset: int
    kind: str
    name: str
    end: int = 0


#: Granule of :meth:`Assembled.placed` base deltas: the loader's page
#: size (:data:`repro.vm.memory.PAGE_SIZE`), which every alignment
#: directive the toolchain emits divides.
PLACEMENT_ALIGN = 0x1000


@dataclass
class Assembled:
    """Result of assembling one item list at a base address."""

    base: int
    code: bytes
    labels: Dict[str, int]
    marks: List[Tuple[str, object, int]] = field(default_factory=list)
    bary_slots: Dict[int, int] = field(default_factory=dict)
    abs_relocs: List[int] = field(default_factory=list)
    instr_addresses: List[int] = field(default_factory=list)
    #: every placement-dependent field, in emission order
    relocs: List[Relocation] = field(default_factory=list)
    #: least common multiple of the items' alignment directives
    align: int = 1

    @property
    def size(self) -> int:
        return len(self.code)

    def marks_of(self, kind: str) -> List[Tuple[object, int]]:
        """Return ``(info, address)`` for every mark of ``kind``."""
        return [(info, addr) for k, info, addr in self.marks if k == kind]

    def placed(self, base: int,
               extern: Dict[str, int] | None = None) -> "Assembled":
        """The image re-placed at ``base`` against ``extern``.

        Equal, field for field, to a fresh ``assemble(items, base,
        extern)`` of the same items: the layout does not move because
        the base delta must be a multiple of :data:`PLACEMENT_ALIGN`
        and of every alignment directive, so only the recorded
        :attr:`relocs` are re-patched.  Raises the errors a fresh
        assembly would (undefined label, field out of range).
        """
        delta = base - self.base
        granule = math.lcm(PLACEMENT_ALIGN, self.align)
        if delta % granule:
            raise AssemblerError(
                f"placement delta {delta:#x} is not a multiple of "
                f"{granule:#x}")
        labels = {name: address + delta
                  for name, address in self.labels.items()}
        resolve: Dict[str, int] = dict(extern) if extern else {}
        resolve.update(labels)
        code = bytearray(self.code)
        for offset, kind, name, end in self.relocs:
            target = _lookup(resolve, name)
            if kind == "rel32":
                code[offset:offset + 4] = pack_field(
                    OperandKind.REL32, target - (base + end))
            elif kind == "abs64":
                code[offset:offset + 8] = pack_field(OperandKind.IMM64,
                                                     target)
            elif kind == "abs32":
                code[offset:offset + 4] = pack_field(OperandKind.IMM32,
                                                     target)
            else:
                code[offset:offset + 8] = _word(target)
        return Assembled(
            base=base, code=bytes(code), labels=labels,
            marks=[(kind, info, address + delta)
                   for kind, info, address in self.marks],
            bary_slots=dict(self.bary_slots),
            abs_relocs=list(self.abs_relocs),
            instr_addresses=[address + delta
                             for address in self.instr_addresses],
            relocs=list(self.relocs), align=self.align)


_NOP = encode(Instruction(Op.NOP))


def _word(value: int) -> bytes:
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def item_lengths(items: Sequence[Item]) -> List[Optional[int]]:
    """Each instruction's encoded length, and for each :class:`AlignEnd`
    the length of the instruction it pads for (``None`` when data or
    another alignment directive comes first); 0 for other items.

    One backward sweep, so every length is taken once.
    """
    lengths: List[Optional[int]] = [0] * len(items)
    next_len: Optional[int] = None
    for index in range(len(items) - 1, -1, -1):
        item = items[index]
        if isinstance(item, AsmInstr):
            next_len = lengths[index] = LENGTHS[item.op]
        elif isinstance(item, AlignEnd):
            lengths[index] = next_len
            next_len = None
        elif isinstance(item, (Data, DataWord, Align)):
            next_len = None
    return lengths


def assemble(items: Sequence[Item], base: int = 0,
             extern: Dict[str, int] | None = None) -> Assembled:
    """Assemble ``items`` into bytes at ``base``.

    Layout is a single deterministic pass (all instruction lengths are
    static); label resolution is a second pass.  ``extern`` supplies
    addresses of labels defined outside these items (globals in the
    data region, imported functions) — the linker's job.
    """
    # Pass 1: layout -- compute the address and size of every item.
    # Locally defined labels shadow extern labels (a library may define
    # a symbol the main program routes through a PLT alias).
    lengths = item_lengths(items)
    addresses: List[int] = []
    sizes: List[int] = []
    labels: Dict[str, int] = {}
    align = 1
    address = base
    for index, item in enumerate(items):
        if isinstance(item, AsmInstr):
            size = lengths[index]
        elif isinstance(item, Label):
            if item.name in labels:
                raise AssemblerError(f"duplicate label {item.name!r}")
            labels[item.name] = address
            size = 0
        elif isinstance(item, Mark):
            size = 0
        elif isinstance(item, Align):
            size = (-address) % item.n
            align = math.lcm(align, item.n)
        elif isinstance(item, AlignEnd):
            if lengths[index] is None:
                raise AssemblerError(
                    "AlignEnd directive not followed by an instruction")
            size = (-(address + lengths[index])) % item.n
            align = math.lcm(align, item.n)
        elif isinstance(item, Data):
            size = len(item.payload)
        elif isinstance(item, DataWord):
            size = 8
        else:
            raise AssemblerError(f"unknown assembly item {item!r}")
        addresses.append(address)
        sizes.append(size)
        if size:    # labels and the item after them share one int
            address += size

    # Pass 2: emit bytes and resolve references.
    resolve: Dict[str, int] = dict(extern) if extern else {}
    resolve.update(labels)
    out = bytearray()
    result = Assembled(base=base, code=b"", labels=labels, align=align)
    for index, item in enumerate(items):
        addr = addresses[index]
        if isinstance(item, AsmInstr):
            result.instr_addresses.append(addr)
            out += _resolve_and_encode(item, addr, addr + sizes[index],
                                       resolve, result)
        elif isinstance(item, (Align, AlignEnd)):
            out += _NOP * sizes[index]
        elif isinstance(item, Mark):
            result.marks.append((item.kind, item.info, addr))
        elif isinstance(item, Data):
            out += item.payload
        elif isinstance(item, DataWord):
            value = item.value
            if isinstance(value, LabelRef):
                offset = addr - base
                result.abs_relocs.append(offset)
                result.relocs.append(Relocation(offset, "word", value.name))
                value = _lookup(resolve, value.name)
            out += _word(value)
    result.code = bytes(out)
    return result


def _lookup(labels: Dict[str, int], name: str) -> int:
    try:
        return labels[name]
    except KeyError:
        raise AssemblerError(f"undefined label {name!r}") from None


def _resolve_and_encode(item: AsmInstr, addr: int, end: int,
                        resolve: Dict[str, int],
                        result: Assembled) -> bytes:
    """Encode ``item`` at ``addr`` (``end`` = just past it), recording
    its Bary slot and placement-dependent fields in ``result``."""
    base = result.base
    resolved: List[int] = []
    field_offset = addr + 1 - base  # skip the opcode byte
    for kind, operand in zip(SPECS[item.op].operands, item.operands):
        if isinstance(operand, LabelRef):
            name = operand.name
            target = _lookup(resolve, name)
            if kind is OperandKind.REL32:
                resolved.append(target - end)
                if name not in result.labels:
                    result.relocs.append(Relocation(
                        field_offset, "rel32", name, end - base))
            elif kind is OperandKind.IMM64:
                resolved.append(target)
                result.abs_relocs.append(field_offset)
                result.relocs.append(Relocation(field_offset, "abs64",
                                                name))
            elif kind is OperandKind.IMM32:
                resolved.append(target)
                result.relocs.append(Relocation(field_offset, "abs32",
                                                name))
            else:
                raise AssemblerError(
                    f"label {name!r} used in a {kind.value} slot")
        elif isinstance(operand, BarySlot):
            if kind is not OperandKind.IMM32:
                raise AssemblerError("BarySlot must fill an imm32 slot")
            result.bary_slots[operand.site] = field_offset
            resolved.append(0)
        else:
            resolved.append(int(operand))
        field_offset += WIDTHS[kind]
    return encode(Instruction(item.op, tuple(resolved)))
