"""Function-grain compilation units: codegen, instrument and assemble
one function position-independently, so its bytes can be cached and
spliced into any link.

Why this is byte-exact: every instrumented unit begins with ``Align(4)``
followed by the function's entry label (function entries are always
indirect-branch targets, so :func:`instrument_stream` aligns them), and
``Align(4)``/``AlignEnd(4)`` are the only alignment directives the
pipeline emits.  Assembling the unit's items at base 0 therefore
reproduces exactly the bytes the monolithic assembler would emit at any
4-aligned address — the linker only has to insert the leading NOP pad
(``(-cursor) % 4``, the same pad the monolithic ``Align(4)`` would have
produced) and patch the recorded relocations:

* intra-unit REL32 displacements are position-independent and resolved
  here, once, at unit-assembly time;
* cross-unit and data references (direct calls, globals, strings, GOT
  slots, jump-table words, IMM64 label immediates) become relocation
  entries patched at link;
* string references are *content-addressed* — a relocation stores an
  index into the unit's ordered string-content list, never a module
  string id, so a cached unit survives string-table renumbering;
* ``BarySlot`` immediates always assemble to 0 (the loader patches
  them), so renumbering branch sites never changes bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.instrument import (
    SiteInfo,
    _collect_aligned_labels,
    instrument_stream,
)
from repro.errors import AssemblerError
from repro.isa.assembler import (
    Align,
    AlignEnd,
    AsmInstr,
    BarySlot,
    Data,
    DataWord,
    Item,
    Label,
    LabelRef,
    Mark,
    item_lengths,
)
from repro.isa.encoding import encode
from repro.isa.instructions import (
    SPECS,
    WIDTHS,
    Instruction,
    Op,
    OperandKind,
)
from repro.mir import ir
from repro.mir.codegen import FunctionCodegen
from repro.tinyc.types import FuncSig

NOP = encode(Instruction(Op.NOP))

#: Relocation kinds: how the linker patches the hole at ``field_off``.
#: 'rel32'  4-byte PC-relative (extra = offset just past the instruction)
#: 'abs64'  8-byte absolute immediate (recorded as an abs relocation)
#: 'abs32'  4-byte absolute immediate (no abs relocation, as monolithic)
#: 'word'   8-byte data word (recorded as an abs relocation)
Reloc = Tuple[int, str, Tuple[str, object], int]


@dataclass
class UnitArtifact:
    """One function's compiled, instrumented, relocatable bytes +
    everything the incremental linker needs to splice it into an image.

    Offsets are relative to the unit body start, which the linker
    places at the next ``lead_align``-aligned address.  ``sites`` use
    unit-local numbering from 0; the linker renumbers globally.
    """

    fn: str
    fingerprint: str
    code: bytes = b""
    lead_align: int = 1
    labels: Dict[str, int] = field(default_factory=dict)
    relocs: List[Reloc] = field(default_factory=list)
    marks: List[Tuple[str, object, int]] = field(default_factory=list)
    #: (unit-local site, byte offset of its Bary immediate)
    bary_slots: List[Tuple[int, int]] = field(default_factory=list)
    sites: List[SiteInfo] = field(default_factory=list)
    setjmp_resumes: List[str] = field(default_factory=list)
    instr_offsets: List[int] = field(default_factory=list)
    #: ordered string contents this unit references ('S' reloc targets)
    strings: List[bytes] = field(default_factory=list)
    # -- metadata merged into the linked module's auxiliary info --
    sig: Optional[FuncSig] = None
    exported: bool = True
    takes: Tuple[str, ...] = ()
    referenced: Tuple[str, ...] = ()
    direct_calls: List[Tuple[str, str, bool]] = field(default_factory=list)
    uses_setjmp: bool = False

    @property
    def size(self) -> int:
        return len(self.code)


def assemble_unit(items: Sequence[Item], module_name: str,
                  sid_contents: Dict[int, bytes],
                  artifact: UnitArtifact) -> UnitArtifact:
    """Assemble one unit's instrumented items at base 0 into
    ``artifact`` (code, labels, relocs, marks, slots, offsets)."""
    str_re = re.compile(r"\A" + re.escape(module_name) + r"\.str(\d+)\Z")
    str_index: Dict[bytes, int] = {}

    def ref_of(name: str) -> Tuple[str, object]:
        match = str_re.match(name)
        if match is None:
            return ("L", name)
        content = sid_contents[int(match.group(1))]
        index = str_index.get(content)
        if index is None:
            index = str_index[content] = len(artifact.strings)
            artifact.strings.append(content)
        return ("S", index)

    if items and isinstance(items[0], Align):
        artifact.lead_align = items[0].n

    # Pass 1: every item's size, each instruction's length taken once
    # (identical arithmetic to the monolithic assembler at any
    # lead_align-congruent address).
    lengths = item_lengths(items)
    offsets: List[int] = []
    sizes: List[int] = []
    labels = artifact.labels
    offset = 0
    for index, item in enumerate(items):
        if isinstance(item, AsmInstr):
            size = lengths[index]
        elif isinstance(item, Label):
            if item.name in labels:
                raise AssemblerError(f"duplicate label {item.name!r}")
            labels[item.name] = offset
            size = 0
        elif isinstance(item, Mark):
            size = 0
        elif isinstance(item, Align):
            size = (-offset) % item.n
        elif isinstance(item, AlignEnd):
            if lengths[index] is None:
                raise AssemblerError(
                    "AlignEnd directive not followed by an instruction")
            size = (-(offset + lengths[index])) % item.n
        elif isinstance(item, Data):
            size = len(item.payload)
        elif isinstance(item, DataWord):
            size = 8
        else:
            raise AssemblerError(f"unknown assembly item {item!r}")
        offsets.append(offset)
        sizes.append(size)
        if size:    # labels and the item after them share one int
            offset += size

    # Pass 2: emit bytes; local REL32 refs resolve now, everything else
    # becomes a relocation hole.
    out = bytearray()
    relocs = artifact.relocs
    for index, item in enumerate(items):
        off = offsets[index]
        if isinstance(item, AsmInstr):
            artifact.instr_offsets.append(off)
            out += _encode_unit_instr(item, off, off + sizes[index],
                                      labels, relocs,
                                      artifact.bary_slots, ref_of)
        elif isinstance(item, (Align, AlignEnd)):
            out += NOP * sizes[index]
        elif isinstance(item, Mark):
            artifact.marks.append((item.kind, item.info, off))
        elif isinstance(item, Data):
            out += item.payload
        elif isinstance(item, DataWord):
            value = item.value
            if isinstance(value, LabelRef):
                relocs.append((off, "word", ref_of(value.name), 0))
                value = 0
            out += (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    artifact.code = bytes(out)
    return artifact


def _encode_unit_instr(item: AsmInstr, off: int, end: int,
                       labels: Dict[str, int], relocs: List[Reloc],
                       bary_slots: List[Tuple[int, int]],
                       ref_of) -> bytes:
    """Encode one instruction at ``off`` (``end`` = just past it)."""
    spec = SPECS[item.op]
    resolved: List[int] = []
    field_offset = 1  # skip the opcode byte
    for kind, operand in zip(spec.operands, item.operands):
        width = WIDTHS[kind]
        if isinstance(operand, LabelRef):
            if kind is OperandKind.REL32:
                target = labels.get(operand.name)
                if target is not None:
                    resolved.append(target - end)
                else:
                    relocs.append((off + field_offset, "rel32",
                                   ref_of(operand.name), end))
                    resolved.append(0)
            elif kind is OperandKind.IMM64:
                relocs.append((off + field_offset, "abs64",
                               ref_of(operand.name), 0))
                resolved.append(0)
            elif kind is OperandKind.IMM32:
                relocs.append((off + field_offset, "abs32",
                               ref_of(operand.name), 0))
                resolved.append(0)
            else:
                raise AssemblerError(
                    f"label {operand.name!r} used in a {kind.value} slot")
        elif isinstance(operand, BarySlot):
            if kind is not OperandKind.IMM32:
                raise AssemblerError("BarySlot must fill an imm32 slot")
            bary_slots.append((operand.site, off + field_offset))
            resolved.append(0)
        else:
            resolved.append(int(operand))
        field_offset += width
    return encode(Instruction(item.op, tuple(resolved)))


def compile_unit(func: ir.MirFunction, module_name: str, arch: str,
                 sid_contents: Dict[int, bytes],
                 takes: Sequence[str], uses_setjmp: bool,
                 fingerprint: str) -> UnitArtifact:
    """Run one function through codegen + instrumentation + unit
    assembly, producing its cacheable :class:`UnitArtifact`."""
    codegen = FunctionCodegen(func, module_name, arch)
    raw_items = codegen.generate()
    aligned = _collect_aligned_labels(raw_items, {func.name})
    asm = instrument_stream(raw_items, aligned,
                            namespace=f"{module_name}.{func.name}",
                            sandbox_writes=(arch == "x64"))
    artifact = UnitArtifact(
        fn=func.name, fingerprint=fingerprint,
        sig=FuncSig.of(func.ftype), exported=not func.is_static,
        takes=tuple(sorted(takes)),
        referenced=tuple(sorted(codegen.referenced)),
        direct_calls=list(codegen.direct_calls),
        uses_setjmp=uses_setjmp)
    assemble_unit(asm.items, module_name, sid_contents, artifact)
    artifact.sites = asm.sites
    artifact.setjmp_resumes = asm.setjmp_resumes
    return artifact


def assemble_plt_unit(items: Sequence[Item],
                      sites: List[SiteInfo]) -> UnitArtifact:
    """Assemble the program's PLT section as a pseudo-unit (no string
    refs; GOT labels resolve through the link's extern symbols)."""
    artifact = UnitArtifact(fn="__plt", fingerprint="", exported=False,
                            sig=None, takes=(), referenced=(),
                            direct_calls=[], uses_setjmp=False)
    assemble_unit(items, "__plt", {}, artifact)
    artifact.sites = sites
    return artifact
