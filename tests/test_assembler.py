"""Tests for the two-pass symbolic assembler."""

import pytest

from repro.errors import AssemblerError, EncodingError
from repro.isa.assembler import (
    Align,
    AlignEnd,
    AsmInstr,
    BarySlot,
    Data,
    DataWord,
    Label,
    LabelRef,
    Mark,
    assemble,
)
from repro.isa.encoding import decode
from repro.isa.instructions import Op
from repro.isa.registers import Reg


class TestLabels:
    def test_forward_and_backward_references(self):
        items = [
            Label("start"),
            AsmInstr(Op.JMP, (LabelRef("end"),)),
            Label("mid"),
            AsmInstr(Op.NOP, ()),
            AsmInstr(Op.JMP, (LabelRef("start"),)),
            Label("end"),
            AsmInstr(Op.HLT, ()),
        ]
        out = assemble(items, base=0x1000)
        assert out.labels["start"] == 0x1000
        jmp, length = decode(out.code, 0)
        assert 0x1000 + length + jmp.operands[0] == out.labels["end"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([Label("a"), Label("a")])

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([AsmInstr(Op.JMP, (LabelRef("nowhere"),))])

    def test_extern_labels_resolve(self):
        items = [AsmInstr(Op.MOV_RI, (Reg.RAX, LabelRef("g")))]
        out = assemble(items, base=0, extern={"g": 0x123456})
        instr, _ = decode(out.code, 0)
        assert instr.operands[1] == 0x123456
        assert out.abs_relocs == [2]  # imm64 field offset

    def test_local_shadows_extern(self):
        items = [Label("f"), AsmInstr(Op.MOV_RI, (Reg.RAX, LabelRef("f")))]
        out = assemble(items, base=0x2000, extern={"f": 0x9999})
        instr, _ = decode(out.code, 0)
        assert instr.operands[1] == 0x2000


class TestAlignment:
    def test_align_pads_with_nops(self):
        items = [AsmInstr(Op.HLT, ()), Align(4), Label("target"),
                 AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0)
        assert out.labels["target"] % 4 == 0
        assert out.labels["target"] == 4  # HLT is 1 byte + 3 NOPs
        assert out.code[1:4] == bytes([int(Op.NOP)] * 3)

    def test_align_end_aligns_instruction_end(self):
        # The call's END (= the return site) must be 4-byte aligned.
        items = [AsmInstr(Op.HLT, ()), AlignEnd(4),
                 AsmInstr(Op.CALL, (LabelRef("f"),)),
                 Mark("retsite", None),
                 Label("f"), AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0)
        retsite = out.marks_of("retsite")[0][1]
        assert retsite % 4 == 0

    def test_align_end_without_instruction_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([AlignEnd(4)])

    def test_already_aligned_needs_no_padding(self):
        items = [Align(4), Label("t"), AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0x1000)
        assert out.labels["t"] == 0x1000
        assert len(out.code) == 1


class TestUnitAssembly:
    """``assemble_unit`` lays out at base 0 exactly as ``assemble``."""

    ITEMS = [Align(4), Label("f"), AsmInstr(Op.HLT, ()), Align(4),
             AlignEnd(4), Mark("site", 0),
             AsmInstr(Op.CALL, (LabelRef("f"),)), Mark("retsite", None),
             Label("g"), AsmInstr(Op.NOP, ()), AlignEnd(4), Label("h"),
             AsmInstr(Op.JMP, (LabelRef("g"),))]

    def _unit(self, items):
        from repro.build.units import UnitArtifact, assemble_unit
        return assemble_unit(items, "m", {}, UnitArtifact(fn="f",
                                                          fingerprint=""))

    def test_matches_monolithic_layout(self):
        unit = self._unit(self.ITEMS)
        whole = assemble(self.ITEMS, base=0)
        assert unit.code == whole.code
        assert unit.labels == whole.labels
        assert [off for _, _, off in unit.marks] == \
            [addr for _, _, addr in whole.marks]
        assert unit.instr_offsets == whole.instr_addresses

    @pytest.mark.parametrize("items", [
        [AlignEnd(4), Label("x")],
        [AlignEnd(4), Label("x"), Data(b"x"), AsmInstr(Op.NOP, ())],
        [AlignEnd(4), AlignEnd(4), AsmInstr(Op.NOP, ())],
    ])
    def test_align_end_without_instruction_rejected(self, items):
        with pytest.raises(AssemblerError):
            self._unit(items)


class TestBarySlots:
    def test_slot_offsets_recorded(self):
        items = [AsmInstr(Op.NOP, ()),
                 AsmInstr(Op.TLOAD_RI, (Reg.RDI, BarySlot(7)))]
        out = assemble(items, base=0x1000)
        # NOP(1) + opcode(1) + reg(1) -> immediate at offset 3
        assert out.bary_slots == {7: 3}
        # placeholder encodes as zero
        assert out.code[3:7] == b"\x00\x00\x00\x00"

    def test_slot_in_wrong_operand_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([AsmInstr(Op.MOV_RI, (Reg.RAX, BarySlot(0)))])


class TestDataAndMarks:
    def test_data_words_with_label_relocs(self):
        items = [Label("table"), DataWord(LabelRef("case0")),
                 DataWord(0xdeadbeef), Label("case0"),
                 AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x4000)
        word0 = int.from_bytes(out.code[0:8], "little")
        word1 = int.from_bytes(out.code[8:16], "little")
        assert word0 == out.labels["case0"]
        assert word1 == 0xdeadbeef
        assert 0 in out.abs_relocs

    def test_marks_bind_to_next_item_address(self):
        items = [AsmInstr(Op.NOP, ()), Mark("here", "x"),
                 AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x100)
        assert out.marks_of("here") == [("x", 0x101)]

    def test_mark_after_align_sees_padded_address(self):
        items = [AsmInstr(Op.HLT, ()), Align(8), Mark("entry", None),
                 Label("f"), AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0)
        assert out.marks_of("entry")[0][1] == 8
        assert out.labels["f"] == 8

    def test_raw_data_payload(self):
        items = [Data(b"hello\x00"), Label("after"), AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0)
        assert out.code[:6] == b"hello\x00"
        assert out.labels["after"] == 6

    def test_instruction_addresses_recorded(self):
        items = [AsmInstr(Op.NOP, ()), AsmInstr(Op.MOV_RR, (0, 1)),
                 AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x10)
        assert out.instr_addresses == [0x10, 0x11, 0x14]


def _externs(items):
    """Names the items reference but do not define."""
    defined = {item.name for item in items if isinstance(item, Label)}
    refs = set()
    for item in items:
        if isinstance(item, AsmInstr):
            refs |= {op.name for op in item.operands
                     if isinstance(op, LabelRef)}
        elif isinstance(item, DataWord) and isinstance(item.value, LabelRef):
            refs.add(item.value.name)
    return sorted(refs - defined)


def _extern_map(names, seed):
    """Seeded 8-aligned addresses in the low data region."""
    import random
    rng = random.Random(seed)
    return {name: 8 * rng.randrange(0x20000, 0x1000000) for name in names}


#: page-aligned placement bases (the first is where the image is built)
PLACEMENT_BASES = (0x400000, 0x10000, 0x3a7000, 0x1f45000)


def _plugin_source(size):
    """A dlopen plugin shape: a ``size``-function call chain reached
    through one indirect call."""
    lines = ["long plg_h0(long x) { return x * 3 + 1; }"]
    lines += [f"long plg_h{i}(long x) {{ return plg_h{i - 1}(x) + {i}; }}"
              for i in range(1, size - 1)]
    lines.append(f"long plug_fn(long x) {{ long (*f)(long) = "
                 f"plg_h{size - 2}; return f(x) + {size}; }}")
    return "\n".join(lines) + "\n"


def _placement_cases():
    from repro.workloads.spec import BENCHMARKS
    cases = [(name, arch) for name in BENCHMARKS for arch in ("x64", "x32")]
    return cases + [(f"plugin{size}", "x64") for size in (5, 17, 41)]


@pytest.fixture(scope="module")
def instrumented_items():
    """Memo of instrumented item lists, one compile per case."""
    from functools import lru_cache

    from repro.build import compile_object
    from repro.core.instrument import instrument_items
    from repro.workloads.spec import workload

    @lru_cache(maxsize=None)
    def items_of(name, arch):
        if name.startswith("plugin"):
            source = _plugin_source(int(name[len("plugin"):]))
        else:
            source = workload(name).source
        return instrument_items(compile_object(source, name=name,
                                               arch=arch)).items
    return items_of


class TestPlacement:
    """``Assembled.placed`` re-bases an image by patching only its
    placement-dependent fields, equal to a fresh assembly."""

    @pytest.mark.parametrize("name,arch", _placement_cases())
    def test_placed_equals_fresh_assembly(self, instrumented_items, name,
                                          arch):
        items = instrumented_items(name, arch)
        names = _externs(items)
        first = assemble(items, PLACEMENT_BASES[0], _extern_map(names, 0))
        assert first.relocs
        for seed, base in enumerate(PLACEMENT_BASES[1:], start=1):
            extern = _extern_map(names, seed)
            fresh = assemble(items, base, extern)
            assert first.placed(base, extern) == fresh
            assert fresh.code != first.code
        # placing a placed image is placing the original
        again = first.placed(PLACEMENT_BASES[1], _extern_map(names, 1))
        extern = _extern_map(names, 3)
        assert again.placed(PLACEMENT_BASES[3], extern) == \
            assemble(items, PLACEMENT_BASES[3], extern)

    RELOCATING = [
        Align(4), Label("f"),
        AsmInstr(Op.CALL, (LabelRef("g"),)),        # rel32, extern
        AsmInstr(Op.JMP, (LabelRef("f"),)),         # rel32, local
        AsmInstr(Op.MOV_RI, (Reg.RAX, LabelRef("f"))),   # abs64, local
        AsmInstr(Op.MOV_RI, (Reg.RAX, LabelRef("d"))),   # abs64, extern
        AsmInstr(Op.LEA, (Reg.RAX, Reg.RBX, LabelRef("d"))),  # abs32
        Label("table"), DataWord(LabelRef("f")), DataWord(7),
    ]

    def test_every_relocation_kind_recorded(self):
        out = assemble(self.RELOCATING, 0x1000, {"g": 0x9000, "d": 0x5000})
        assert [(r.kind, r.name) for r in out.relocs] == [
            ("rel32", "g"), ("abs64", "f"), ("abs64", "d"),
            ("abs32", "d"), ("word", "f")]
        assert out.relocs[0].offset == 1
        assert out.relocs[0].end == 5
        placed = out.placed(0x3000, {"g": 0x100, "d": 0x200})
        assert placed == assemble(self.RELOCATING, 0x3000,
                                  {"g": 0x100, "d": 0x200})

    @pytest.mark.parametrize("delta", [4, 0x800, -0x10, 0x1004])
    def test_unaligned_delta_rejected(self, delta):
        out = assemble(self.RELOCATING, 0x10000, {"g": 0x9000, "d": 0x5000})
        with pytest.raises(AssemblerError, match="placement delta"):
            out.placed(0x10000 + delta, {"g": 0x9000, "d": 0x5000})

    def test_delta_must_respect_wider_alignment(self):
        items = [AsmInstr(Op.NOP, ()), Align(0x2000), Label("x"),
                 AsmInstr(Op.JMP, (LabelRef("x"),))]
        out = assemble(items, 0)
        assert out.align == 0x2000
        with pytest.raises(AssemblerError, match="0x2000"):
            out.placed(0x1000)
        assert out.placed(0x4000) == assemble(items, 0x4000)

    def test_placement_errors_match_fresh_assembly(self):
        out = assemble(self.RELOCATING, 0x1000, {"g": 0x9000, "d": 0x5000})
        with pytest.raises(AssemblerError, match="undefined label 'd'"):
            out.placed(0x2000, {"g": 0x9000})
        far = {"g": 0x9000, "d": 1 << 33}  # does not fit the imm32 field
        with pytest.raises(EncodingError) as fresh:
            assemble(self.RELOCATING, 0x2000, far)
        with pytest.raises(EncodingError) as placed:
            out.placed(0x2000, far)
        assert str(placed.value) == str(fresh.value)


class TestAssemblerPasses:
    def test_align_end_lengths_taken_in_one_sweep(self):
        from repro.isa.assembler import item_lengths
        items = [AlignEnd(4), Label("a"), Mark("m"),
                 AsmInstr(Op.CALL, (LabelRef("a"),)),
                 AlignEnd(4), Data(b"x"), AsmInstr(Op.NOP, ())]
        assert item_lengths(items) == [5, 0, 0, 5, None, 0, 1]
