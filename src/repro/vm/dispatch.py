"""Table-driven fast-path dispatch plane for the SimVM.

The seed interpreter executed every instruction by walking one long
``if/elif`` chain in :meth:`~repro.vm.cpu.CPU.step`; by PR 5 that chain
had become the dominant wall-clock cost of every Fig. 5/6 benchmark and
fault campaign.  This module replaces it with four layers, none of
which changes a single architectural observable (``cycles``,
``instructions``, ``tx_checks``, traces and ``RunResult`` payloads are
bit-identical to the reference interpreter, which survives as
:meth:`CPU.step_reference` for conformance checking):

1. **Per-opcode compilers** (:data:`COMPILERS`, built once at import).
   Each opcode has a compiler that specializes one decoded instruction
   into a closure ``fn(cpu) -> next_rip`` with its operands, cost and
   fall-through address captured as locals — the operand tuple is never
   re-indexed and no opcode comparison happens at execution time.
   ``CPU.step()`` executes exactly one closure, so scheduler
   interleaving keeps instruction-granularity atomicity.

2. **A decoded basic-block cache** (:class:`DispatchCache`), layered on
   the per-instruction icache.  ``CPU.run()`` (the single-threaded fast
   path) executes whole straight-line runs as one Python loop over the
   block's closures without re-entering ``step()`` or re-probing any
   per-instruction cache.  Faults anywhere in a block restore the exact
   per-instruction architectural state (``rip`` at the faulting
   instruction; counters include it) before propagating.

3. **Superinstruction fusion** of the verifier-recognized check
   transaction (``TLOAD_RI``/``TLOAD_RR``/``CMP``/``JNE``/``JMP_R``,
   the Fig. 4 Try block) into one fused macro-op.  The fused op caches
   the branch-ID load behind a generation stamp
   (:attr:`repro.vm.memory.TableMemory.generation`): every privileged
   table store — in particular every
   :class:`~repro.core.transactions.UpdateTransaction`, via
   ``write_tary``/``write_bary`` and ``IdTables.note_update()`` —
   bumps the stamp and thereby invalidates the fused fast path, which
   then re-reads the Bary entry.  ``tx_checks`` still counts one check
   per attempt, exactly like the unfused ``TLOAD_RI``.

4. **Hot-block compilation** (:func:`compile_block`).  A block that has
   run :data:`HOT_BLOCK_EXECUTIONS` times becomes one generated Python
   function with its loads and stores probing the memory's permission
   maps inline; the function is stored on the block, so it is dropped
   with it.

Code-region invalidation mirrors the icache: the dynamic linker's
unload/rollback paths call :meth:`DispatchCache.invalidate_range`
whenever they drop decoded icache entries, so re-mapping or
JIT-installing code at a previously executed address can never execute
stale closures or blocks.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidInstruction, MemoryFault, VMError
from repro.isa.instructions import BLOCK_TERMINATORS, Op
from repro.vm.memory import PAGE_SHIFT, PAGE_SIZE

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
_SIGN64 = 1 << 63
_TWO64 = 1 << 64

_RSP = 4  # Reg.RSP; a plain int so closures avoid the enum lookup

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


def _signed(value: int) -> int:
    return value - _TWO64 if value & _SIGN64 else value


def _float_of(bits: int) -> float:
    return _PACK_D.unpack(_PACK_Q.pack(bits & _MASK64))[0]


def _bits_of(value: float) -> int:
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


def _divide(dividend: int, divisor: int, mod: bool) -> int:
    sd = _signed(dividend)
    sr = _signed(divisor)
    if sr == 0:
        raise VMError("integer division by zero")
    quotient = abs(sd) // abs(sr)
    if (sd < 0) != (sr < 0):
        quotient = -quotient
    if mod:
        return (sd - quotient * sr) & _MASK64
    return quotient & _MASK64


# ---------------------------------------------------------------------------
# Per-opcode compilers
# ---------------------------------------------------------------------------
#
# Every compiler returns a closure ``fn(cpu) -> next_rip`` implementing
# exactly one instruction with the reference interpreter's semantics:
# cost and instruction count are charged *before* the body (so a
# faulting instruction is included in the counters, as in the
# reference), and ``rip`` is never written — ``step()`` stores the
# returned value, and the block executor repairs ``rip`` on faults.

_Closure = Callable[[object], int]
_Entry = Tuple[int, Tuple[int, ...], int, int]
_Compiler = Callable[[Tuple[int, ...], int, int, int], _Closure]

COMPILERS: List[Optional[_Compiler]] = [None] * 0x100


def _op(opcode: Op):
    def register(builder: _Compiler) -> _Compiler:
        COMPILERS[int(opcode)] = builder
        return builder
    return register


@_op(Op.NOP)
def _c_nop(ops, rip, nxt, cost):
    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        return nxt
    return fn


@_op(Op.HLT)
def _c_hlt(ops, rip, nxt, cost):
    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu._cfi_halt(rip)
    return fn


@_op(Op.SYSCALL)
def _c_syscall(ops, rip, nxt, cost):
    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.rip = nxt  # handler may change rip (e.g. longjmp)
        handler = cpu.syscall_handler
        if handler is None:
            raise VMError(f"syscall at {rip:#x} with no handler")
        handler(cpu)
        return cpu.rip
    return fn


@_op(Op.MOV_RR)
def _c_mov_rr(ops, rip, nxt, cost):
    d, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = regs[s]
        return nxt
    return fn


@_op(Op.MOV_RI)
def _c_mov_ri(ops, rip, nxt, cost):
    d = ops[0]
    value = ops[1] & _MASK64

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.regs[d] = value
        return nxt
    return fn


@_op(Op.MOVZX32)
def _c_movzx32(ops, rip, nxt, cost):
    d = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.regs[d] &= _MASK32
        return nxt
    return fn


@_op(Op.LEA)
def _c_lea(ops, rip, nxt, cost):
    d, b, disp = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = (regs[b] + disp) & _MASK64
        return nxt
    return fn


def _binop_rr(opcode, expr):
    """Register-register ALU compilers share one template."""
    def builder(ops, rip, nxt, cost):
        d, s = ops

        def fn(cpu):
            cpu.cycles += cost
            cpu.instructions += 1
            regs = cpu.regs
            regs[d] = expr(regs[d], regs[s])
            return nxt
        return fn
    COMPILERS[int(opcode)] = builder


_binop_rr(Op.ADD_RR, lambda a, b: (a + b) & _MASK64)
_binop_rr(Op.SUB_RR, lambda a, b: (a - b) & _MASK64)
_binop_rr(Op.IMUL_RR, lambda a, b: (_signed(a) * _signed(b)) & _MASK64)
_binop_rr(Op.AND_RR, lambda a, b: a & b)
_binop_rr(Op.OR_RR, lambda a, b: a | b)
_binop_rr(Op.XOR_RR, lambda a, b: a ^ b)
_binop_rr(Op.SHL_RR, lambda a, b: (a << (b & 63)) & _MASK64)
_binop_rr(Op.SHR_RR, lambda a, b: a >> (b & 63))
_binop_rr(Op.SAR_RR, lambda a, b: (_signed(a) >> (b & 63)) & _MASK64)
_binop_rr(Op.IDIV_RR, lambda a, b: _divide(a, b, mod=False))
_binop_rr(Op.IMOD_RR, lambda a, b: _divide(a, b, mod=True))


def _binop_ri(opcode, expr):
    """Register-immediate ALU compilers: the immediate is pre-bound."""
    def builder(ops, rip, nxt, cost):
        d, imm = ops

        def fn(cpu):
            cpu.cycles += cost
            cpu.instructions += 1
            regs = cpu.regs
            regs[d] = expr(regs[d], imm)
            return nxt
        return fn
    COMPILERS[int(opcode)] = builder


_binop_ri(Op.ADD_RI, lambda a, imm: (a + imm) & _MASK64)
_binop_ri(Op.SUB_RI, lambda a, imm: (a - imm) & _MASK64)
_binop_ri(Op.AND_RI, lambda a, imm: a & (imm & _MASK64))
_binop_ri(Op.OR_RI, lambda a, imm: (a | imm) & _MASK64)
_binop_ri(Op.XOR_RI, lambda a, imm: (a ^ imm) & _MASK64)
_binop_ri(Op.SHL_RI, lambda a, imm: (a << (imm & 63)) & _MASK64)
_binop_ri(Op.SHR_RI, lambda a, imm: a >> (imm & 63))
_binop_ri(Op.SAR_RI, lambda a, imm: (_signed(a) >> (imm & 63)) & _MASK64)


@_op(Op.NEG)
def _c_neg(ops, rip, nxt, cost):
    d = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = (-regs[d]) & _MASK64
        return nxt
    return fn


@_op(Op.NOT)
def _c_not(ops, rip, nxt, cost):
    d = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.regs[d] ^= _MASK64
        return nxt
    return fn


@_op(Op.CMP_RR)
def _c_cmp_rr(ops, rip, nxt, cost):
    a, b = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        left = regs[a]
        right = regs[b]
        cpu.zf = left == right
        cpu.lt = (left - _TWO64 if left & _SIGN64 else left) < \
            (right - _TWO64 if right & _SIGN64 else right)
        cpu.ltu = left < right
        return nxt
    return fn


@_op(Op.CMP_RI)
def _c_cmp_ri(ops, rip, nxt, cost):
    a = ops[0]
    right = ops[1] & _MASK64
    signed_right = _signed(right)

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        left = cpu.regs[a]
        cpu.zf = left == right
        cpu.lt = (left - _TWO64 if left & _SIGN64 else left) < signed_right
        cpu.ltu = left < right
        return nxt
    return fn


@_op(Op.TEST_RR)
def _c_test_rr(ops, rip, nxt, cost):
    a, b = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        cpu.zf = (regs[a] & regs[b]) == 0
        return nxt
    return fn


@_op(Op.TEST_RI)
def _c_test_ri(ops, rip, nxt, cost):
    a = ops[0]
    imm = ops[1] & _MASK64

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.zf = (cpu.regs[a] & imm) == 0
        return nxt
    return fn


@_op(Op.CMPW_RR)
def _c_cmpw_rr(ops, rip, nxt, cost):
    a, b = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        cpu.zf = (regs[a] & 0xFFFF) == (regs[b] & 0xFFFF)
        return nxt
    return fn


@_op(Op.TESTB1)
def _c_testb1(ops, rip, nxt, cost):
    a = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.zf = (cpu.regs[a] & 1) == 0
        return nxt
    return fn


@_op(Op.LOAD8)
def _c_load8(ops, rip, nxt, cost):
    d, b, disp = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = cpu.memory.read_u8((regs[b] + disp) & _MASK64)
        return nxt
    return fn


@_op(Op.LOAD16)
def _c_load16(ops, rip, nxt, cost):
    d, b, disp = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = cpu.memory.read_u16((regs[b] + disp) & _MASK64)
        return nxt
    return fn


@_op(Op.LOAD32)
def _c_load32(ops, rip, nxt, cost):
    d, b, disp = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = cpu.memory.read_u32((regs[b] + disp) & _MASK64)
        return nxt
    return fn


@_op(Op.LOAD64)
def _c_load64(ops, rip, nxt, cost):
    d, b, disp = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = cpu.memory.read_u64((regs[b] + disp) & _MASK64)
        return nxt
    return fn


@_op(Op.STORE8)
def _c_store8(ops, rip, nxt, cost):
    b, disp, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        cpu.memory.write_u8((regs[b] + disp) & _MASK64, regs[s])
        return nxt
    return fn


@_op(Op.STORE16)
def _c_store16(ops, rip, nxt, cost):
    b, disp, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        cpu.memory.write_u16((regs[b] + disp) & _MASK64, regs[s])
        return nxt
    return fn


@_op(Op.STORE32)
def _c_store32(ops, rip, nxt, cost):
    b, disp, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        cpu.memory.write_u32((regs[b] + disp) & _MASK64, regs[s])
        return nxt
    return fn


@_op(Op.STORE64)
def _c_store64(ops, rip, nxt, cost):
    b, disp, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        cpu.memory.write_u64((regs[b] + disp) & _MASK64, regs[s])
        return nxt
    return fn


@_op(Op.PUSH)
def _c_push(ops, rip, nxt, cost):
    s = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        rsp = (regs[_RSP] - 8) & _MASK64
        cpu.memory.write_u64(rsp, regs[s])
        regs[_RSP] = rsp
        return nxt
    return fn


@_op(Op.POP)
def _c_pop(ops, rip, nxt, cost):
    d = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        rsp = regs[_RSP]
        regs[d] = cpu.memory.read_u64(rsp)
        regs[_RSP] = (rsp + 8) & _MASK64
        return nxt
    return fn


@_op(Op.CALL)
def _c_call(ops, rip, nxt, cost):
    target = nxt + ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        rsp = (regs[_RSP] - 8) & _MASK64
        cpu.memory.write_u64(rsp, nxt)
        regs[_RSP] = rsp
        return target
    return fn


@_op(Op.CALL_R)
def _c_call_r(ops, rip, nxt, cost):
    r = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        rsp = (regs[_RSP] - 8) & _MASK64
        cpu.memory.write_u64(rsp, nxt)
        regs[_RSP] = rsp
        return regs[r]
    return fn


@_op(Op.RET)
def _c_ret(ops, rip, nxt, cost):
    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        rsp = regs[_RSP]
        target = cpu.memory.read_u64(rsp)
        regs[_RSP] = (rsp + 8) & _MASK64
        return target
    return fn


@_op(Op.JMP)
def _c_jmp(ops, rip, nxt, cost):
    target = nxt + ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        return target
    return fn


@_op(Op.JMP_R)
def _c_jmp_r(ops, rip, nxt, cost):
    r = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        return cpu.regs[r]
    return fn


def _cond_jump(opcode, decide):
    """``decide(zf, lt, ltu) -> bool``: whether the jump is taken."""
    def builder(ops, rip, nxt, cost):
        taken = nxt + ops[0]

        def fn(cpu):
            cpu.cycles += cost
            cpu.instructions += 1
            return taken if decide(cpu.zf, cpu.lt, cpu.ltu) else nxt
        return fn
    COMPILERS[int(opcode)] = builder


_cond_jump(Op.JE, lambda zf, lt, ltu: zf)
_cond_jump(Op.JNE, lambda zf, lt, ltu: not zf)
_cond_jump(Op.JL, lambda zf, lt, ltu: lt)
_cond_jump(Op.JLE, lambda zf, lt, ltu: lt or zf)
_cond_jump(Op.JG, lambda zf, lt, ltu: not (lt or zf))
_cond_jump(Op.JGE, lambda zf, lt, ltu: not lt)
_cond_jump(Op.JB, lambda zf, lt, ltu: ltu)
_cond_jump(Op.JAE, lambda zf, lt, ltu: not ltu)


@_op(Op.TLOAD_RI)
def _c_tload_ri(ops, rip, nxt, cost):
    d, index = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        cpu.tx_checks += 1
        cpu.regs[d] = cpu.tables.read_bary(index)
        return nxt
    return fn


@_op(Op.TLOAD_RR)
def _c_tload_rr(ops, rip, nxt, cost):
    d, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = cpu.tables.read_tary(regs[s])
        return nxt
    return fn


def _float_binop(opcode, expr):
    def builder(ops, rip, nxt, cost):
        d, s = ops

        def fn(cpu):
            cpu.cycles += cost
            cpu.instructions += 1
            regs = cpu.regs
            regs[d] = _bits_of(expr(_float_of(regs[d]), _float_of(regs[s])))
            return nxt
        return fn
    COMPILERS[int(opcode)] = builder


_float_binop(Op.FADD_RR, lambda a, b: a + b)
_float_binop(Op.FSUB_RR, lambda a, b: a - b)
_float_binop(Op.FMUL_RR, lambda a, b: a * b)


@_op(Op.FDIV_RR)
def _c_fdiv_rr(ops, rip, nxt, cost):
    d, s = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        divisor = _float_of(regs[s])
        if divisor == 0.0:
            raise VMError(f"float division by zero at {rip:#x}")
        regs[d] = _bits_of(_float_of(regs[d]) / divisor)
        return nxt
    return fn


@_op(Op.FCMP_RR)
def _c_fcmp_rr(ops, rip, nxt, cost):
    a, b = ops

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        left = _float_of(regs[a])
        right = _float_of(regs[b])
        if left != left or right != right:
            # Unordered (NaN operand): x86 ucomisd sets ZF=CF=1,
            # SF=OF=0, so je/jb/jbe are taken and jl/jg are not.
            cpu.zf = True
            cpu.lt = False
            cpu.ltu = True
        else:
            cpu.zf = left == right
            cpu.lt = cpu.ltu = left < right
        return nxt
    return fn


@_op(Op.CVTSI2F)
def _c_cvtsi2f(ops, rip, nxt, cost):
    d = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = _bits_of(float(_signed(regs[d])))
        return nxt
    return fn


@_op(Op.CVTF2SI)
def _c_cvtf2si(ops, rip, nxt, cost):
    d = ops[0]

    def fn(cpu):
        cpu.cycles += cost
        cpu.instructions += 1
        regs = cpu.regs
        regs[d] = int(_float_of(regs[d])) & _MASK64
        return nxt
    return fn


def compile_entry(entry: Tuple[int, Tuple[int, ...], int, int],
                  rip: int) -> _Closure:
    """Specialize one decoded icache entry into an execution closure."""
    op, ops, length, cost = entry
    builder = COMPILERS[op] if op < len(COMPILERS) else None
    if builder is None:
        def fn(cpu):  # pragma: no cover - SPECS and COMPILERS in sync
            cpu.cycles += cost
            cpu.instructions += 1
            raise InvalidInstruction(f"unimplemented opcode {op:#x}")
        return fn
    return builder(ops, rip, rip + length, cost)


# ---------------------------------------------------------------------------
# Superinstruction fusion: the Fig. 4 Try block
# ---------------------------------------------------------------------------

#: Instruction count charged by the fused op on the taken (IDs equal)
#: path: TLOAD_RI, TLOAD_RR, CMP_RR, JNE (not taken), JMP_R.
_FUSED_MATCH_INSTRS = 5
#: ... and on the mismatch path: the same minus the JMP_R.
_FUSED_MISS_INSTRS = 4


def try_fuse_check(cpu, addr: int,
                   entry0: Tuple[int, Tuple[int, ...], int, int]):
    """Recognize a check-transaction Try block starting at ``addr``.

    Returns ``(closure, end_address)`` when the five-instruction
    template matches (with the three scratch registers pairwise
    distinct, which the instrumenter guarantees), else ``(None, 0)``.
    The closure is a block terminator: it manages its own counters,
    ``tx_checks`` and fault-time ``rip``, and returns the next rip.
    """
    icache = cpu.icache
    entries = [entry0]
    cursor = addr + entry0[2]
    try:
        for _ in range(4):
            entry = icache.get(cursor)
            if entry is None:
                entry = cpu._fetch_decode(cursor)
            entries.append(entry)
            cursor += entry[2]
    except (MemoryFault, InvalidInstruction):
        return None, 0
    e0, e1, e2, e3, e4 = entries
    if (e1[0], e2[0], e3[0], e4[0]) != (int(Op.TLOAD_RR), int(Op.CMP_RR),
                                        int(Op.JNE), int(Op.JMP_R)):
        return None, 0
    r_a, bary_imm = e0[1]
    r_b, r_c = e1[1]
    if e2[1] != (r_a, r_b) or e4[1] != (r_c,):
        return None, 0
    if len({r_a, r_b, r_c}) != 3:
        return None, 0

    a0 = addr
    a1 = addr + e0[2]
    jne_addr = a1 + e1[2] + e2[2]
    check_target = jne_addr + e3[2] + e3[1][0]
    cost0 = e0[3]
    cost01 = e0[3] + e1[3]
    miss_cost = e0[3] + e1[3] + e2[3] + e3[3]
    match_cost = miss_cost + e4[3]
    # Mutable cell for the generation-stamped branch-ID cache:
    # [cached_id, stamp].  A stamp of -1 never matches a real
    # generation, so the first execution always reads the table.
    cell = [0, -1]

    def fused(cpu):
        tables = cpu.tables
        cpu.tx_checks += 1
        generation = tables.generation
        if generation == cell[1]:
            branch_id = cell[0]
        else:
            try:
                branch_id = tables.read_bary(bary_imm)
            except MemoryFault:
                cpu.cycles += cost0
                cpu.instructions += 1
                cpu.rip = a0
                raise
            cell[0] = branch_id
            cell[1] = generation
        regs = cpu.regs
        regs[r_a] = branch_id
        try:
            target_id = tables.read_tary(regs[r_c])
        except MemoryFault:
            cpu.cycles += cost01
            cpu.instructions += 2
            cpu.rip = a1
            raise
        regs[r_b] = target_id
        if branch_id == target_id:
            cpu.zf = True
            cpu.lt = False
            cpu.ltu = False
            cpu.cycles += match_cost
            cpu.instructions += _FUSED_MATCH_INSTRS
            return regs[r_c]
        cpu.zf = False
        # Stored IDs are 32-bit words, so signed and unsigned 64-bit
        # comparisons agree (both operands are small positives).
        cpu.lt = cpu.ltu = branch_id < target_id
        cpu.cycles += miss_cost
        cpu.instructions += _FUSED_MISS_INSTRS
        return check_target

    return fused, cursor


# ---------------------------------------------------------------------------
# Decoded basic blocks
# ---------------------------------------------------------------------------

#: Maximum instructions decoded into one block.  Together with the
#: fused macro-op's five instructions this bounds how far a single
#: block execution can advance the instruction counter, which
#: ``CPU.run`` uses to honour ``max_steps`` exactly.
MAX_BLOCK_INSTRS = 64
MAX_BLOCK_ADVANCE = MAX_BLOCK_INSTRS + _FUSED_MATCH_INSTRS


class Block:
    """One decoded straight-line run: closures plus fault bookkeeping."""

    __slots__ = ("entry", "limit", "linear", "addrs", "decoded", "term",
                 "term_addr", "term_decoded", "term_sets_rip", "exit_rip",
                 "runs", "compiled")

    def __init__(self, entry: int, limit: int, linear, addrs, decoded,
                 term: Optional[_Closure], term_addr: int, term_decoded,
                 term_sets_rip: bool, exit_rip: int) -> None:
        self.entry = entry
        self.limit = limit          # one past the last decoded byte
        self.linear = linear        # tuple of closures
        self.addrs = addrs          # per-closure instruction addresses
        self.decoded = decoded      # per-closure decoded icache entries
        self.term = term
        self.term_addr = term_addr
        # decoded entry of a plain-instruction terminator; None for a
        # fused check or a replay, which only exist as closures
        self.term_decoded = term_decoded
        self.term_sets_rip = term_sets_rip
        self.exit_rip = exit_rip    # fall-through when term is None
        self.runs = 0               # interpreted executions so far
        self.compiled: Optional[_Closure] = None

    def execute(self, cpu) -> int:
        """Run the whole block; return the rip to continue at.

        On any exception the architectural state is exactly what the
        per-instruction interpreter would leave: counters include the
        faulting instruction (each closure charges itself first) and
        ``rip`` names it.  The :data:`HOT_BLOCK_EXECUTIONS`-th call
        compiles the block (see :func:`compile_block`) and runs the
        compiled function instead; ``CPU.run`` calls that directly from
        then on.
        """
        compiled = self.compiled
        if compiled is None:
            self.runs += 1
            if self.runs >= HOT_BLOCK_EXECUTIONS:
                compiled = self.compiled = compile_block(self)
                cpu.dispatch_cache.blocks_compiled += 1
        if compiled is not None:
            return compiled(cpu)
        index = 0
        try:
            for fn in self.linear:
                fn(cpu)
                index += 1
        except BaseException:
            cpu.rip = self.addrs[index]
            raise
        term = self.term
        if term is None:
            return self.exit_rip
        if self.term_sets_rip:
            return term(cpu)
        try:
            return term(cpu)
        except BaseException:
            cpu.rip = self.term_addr
            raise

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.entry < hi and lo < self.limit


class DispatchCache:
    """Shared decoded state for one address space.

    Two layers keyed by code address: ``closures`` (one compiled
    closure per instruction, used by ``step()``) and ``blocks`` (one
    :class:`Block` per basic-block entry, used by ``run()``; a hot
    block carries its compiled function).  Both sit on top of the raw
    decoded icache and follow its invalidation: the dynamic linker
    calls :meth:`invalidate_range` wherever it drops icache entries.
    """

    __slots__ = ("closures", "blocks", "blocks_built", "fused_sites",
                 "blocks_compiled")

    def __init__(self) -> None:
        self.closures: Dict[int, _Closure] = {}
        self.blocks: Dict[int, Block] = {}
        self.blocks_built = 0
        self.fused_sites = 0
        self.blocks_compiled = 0

    def invalidate_range(self, lo: int, hi: int) -> None:
        """Drop every closure and block touching ``[lo, hi)``."""
        closures = self.closures
        for address in [a for a in closures if lo <= a < hi]:
            del closures[address]
        blocks = self.blocks
        for address in [a for a, b in blocks.items() if b.overlaps(lo, hi)]:
            del blocks[address]

    def clear(self) -> None:
        self.closures.clear()
        self.blocks.clear()


def _replay_closure(addr: int) -> _Closure:
    """Terminator for addresses that failed to decode at build time.

    Decoding may legitimately fail *ahead* of execution (straight-line
    code running to the end of the executable region): the fault must
    be raised when — and only when — execution actually reaches the
    address, with per-step state.  Replaying through the step path
    reproduces that exactly, and still works if the address has become
    decodable again in the meantime.
    """
    def fn(cpu):
        cpu.rip = addr
        ccache = cpu.ccache
        closure = ccache.get(addr)
        if closure is None:
            entry = cpu.icache.get(addr)
            if entry is None:
                try:
                    entry = cpu._fetch_decode(addr)
                except BaseException:
                    cpu._decode_fault = True
                    raise
            closure = compile_entry(entry, addr)
            ccache[addr] = closure
        return closure(cpu)
    return fn


_TLOAD_RI_INT = int(Op.TLOAD_RI)
_SYSCALL_INT = int(Op.SYSCALL)


def build_block(cpu, entry_rip: int) -> Block:
    """Decode, compile and cache the basic block starting at ``entry_rip``."""
    cache: DispatchCache = cpu.dispatch_cache
    ccache = cache.closures
    icache = cpu.icache
    linear: List[_Closure] = []
    addrs: List[int] = []
    decoded: List[_Entry] = []
    term: Optional[_Closure] = None
    term_addr = 0
    term_decoded: Optional[_Entry] = None
    term_sets_rip = False
    addr = entry_rip
    for _ in range(MAX_BLOCK_INSTRS):
        entry = icache.get(addr)
        if entry is None:
            try:
                entry = cpu._fetch_decode(addr)
            except (MemoryFault, InvalidInstruction):
                term = _replay_closure(addr)
                term_addr = addr
                term_sets_rip = True
                addr += 1  # keep the failed address inside the span
                break
        op = entry[0]
        if op == _TLOAD_RI_INT:
            fused, end = try_fuse_check(cpu, addr, entry)
            if fused is not None:
                term = fused
                term_addr = addr
                term_sets_rip = True  # the fused op repairs rip itself
                cache.fused_sites += 1
                addr = end
                break
        if op in BLOCK_TERMINATORS:
            closure = ccache.get(addr)
            if closure is None:
                closure = compile_entry(entry, addr)
                ccache[addr] = closure
            term = closure
            term_addr = addr
            term_decoded = entry
            term_sets_rip = op == _SYSCALL_INT
            addr += entry[2]
            break
        closure = ccache.get(addr)
        if closure is None:
            closure = compile_entry(entry, addr)
            ccache[addr] = closure
        linear.append(closure)
        addrs.append(addr)
        decoded.append(entry)
        addr += entry[2]
    block = Block(entry_rip, addr, tuple(linear), tuple(addrs),
                  tuple(decoded), term, term_addr, term_decoded,
                  term_sets_rip, exit_rip=addr)
    cache.blocks[entry_rip] = block
    cache.blocks_built += 1
    return block


# ---------------------------------------------------------------------------
# Hot-block compilation
# ---------------------------------------------------------------------------
#
# A block that has run HOT_BLOCK_EXECUTIONS times is turned into the
# source of one Python function and compiled.  The function does the
# work of the block's closures with no call per instruction: registers
# are ``regs[<const>]``, operands and addresses are literals, cycles and
# instructions are charged once at the end, and loads and stores probe
# the memory's permission maps (page number -> bytearray) themselves.
# A miss, a page straddle or any fault takes the ``Memory`` method, so
# every access is still permission-checked and faults carry the same
# address.  Before each instruction the function sets ``k``; on any
# exception the handler charges ``FC[k]`` cycles and ``FI[k]``
# instructions and sets ``rip = AD[k]``, exactly the per-instruction
# state.  Opcodes without a template, fused checks, SYSCALL, HLT and
# replays run their existing closures, which charge themselves.

#: Interpreted executions after which a block is compiled.  Compiling
#: costs about a millisecond, so a block must run often enough to earn
#: it back; compiling on first execution is slower overall.
HOT_BLOCK_EXECUTIONS = 32

_M = "0xFFFFFFFFFFFFFFFF"
_PAGE_MASK = PAGE_SIZE - 1
_STRUCTS = {2: struct.Struct("<H"), 4: struct.Struct("<I"), 8: _PACK_Q}
#: helpers every compiled block may reference, bound as free variables
_HELPERS = {"DIV": _divide}
for _width, _struct in _STRUCTS.items():
    _HELPERS[f"U{_width}"] = _struct.unpack_from
    _HELPERS[f"P{_width}"] = _struct.pack_into


def _plus(expr: str, imm: int) -> str:
    if not imm:
        return expr
    return f"{expr} + {imm}" if imm > 0 else f"{expr} - {-imm}"


def _signed_src(name: str) -> str:
    return f"({name} - {_TWO64:#x} if {name} & {_SIGN64:#x} else {name})"


def _read(target: str, width: int) -> List[str]:
    """Load ``width`` bytes at local ``a`` into ``target``: inline when
    the page is readable and the access stays on it, else through the
    ``Memory`` method (straddles, misses and faults)."""
    slow = f"mem.read_u{8 * width}(a)"
    if width == 1:
        return [f"p = R.get(a >> {PAGE_SHIFT})",
                f"{target} = p[a & {_PAGE_MASK}] if p is not None "
                f"else {slow}"]
    return [f"o = a & {_PAGE_MASK}",
            f"if o <= {PAGE_SIZE - width} and "
            f"(p := R.get(a >> {PAGE_SHIFT})) is not None:",
            f"    {target} = U{width}(p, o)[0]",
            "else:",
            f"    {target} = {slow}"]


def _write(value: str, width: int) -> List[str]:
    """Store the low ``width`` bytes of ``value`` at local ``a``, with
    the same split as :func:`_read`."""
    mask = f"{(1 << 8 * width) - 1:#x}"
    if width == 1:
        fast = [f"p = W.get(a >> {PAGE_SHIFT})",
                "if p is not None:",
                f"    p[a & {_PAGE_MASK}] = {value} & {mask}"]
    else:
        fast = [f"o = a & {_PAGE_MASK}",
                f"if o <= {PAGE_SIZE - width} and "
                f"(p := W.get(a >> {PAGE_SHIFT})) is not None:",
                f"    P{width}(p, o, {value} & {mask})"]
    return fast + ["else:", f"    mem.write_u{8 * width}(a, {value})"]


def _push(value: str) -> List[str]:
    return ([f"a = (regs[{_RSP}] - 8) & {_M}"] + _write(value, 8)
            + [f"regs[{_RSP}] = a"])


def _pop(target: str) -> List[str]:
    return ([f"a = regs[{_RSP}]"] + _read(target, 8)
            + [f"regs[{_RSP}] = (a + 8) & {_M}"])


#: opcode -> ``template(ops, nxt) -> source lines`` for linear ops
_TEMPLATES: Dict[int, Callable[[Tuple[int, ...], int], List[str]]] = {}
#: opcode -> ``template(ops, nxt) -> (source lines, next-rip expression)``
#: for plain-branch terminators; the expression is evaluated after the
#: counters are charged, so it must not fault
_TERM_TEMPLATES: Dict[int, Callable[[Tuple[int, ...], int],
                                    Tuple[List[str], str]]] = {}


def _template(*opcodes: Op, table=_TEMPLATES):
    def register(fn):
        for opcode in opcodes:
            table[int(opcode)] = fn
        return fn
    return register


def _alu(opcode: Op, expr: str) -> None:
    """``expr`` over ``{x}`` (the destination register) and ``{y}``
    (the source register, or the immediate as a literal that the
    Python compiler folds into the constants around it); ``{sx}`` and
    ``{sy}`` are the operands read as signed."""
    rr = opcode.name.endswith("_RR")

    def template(ops, nxt):
        d, s = ops
        y = f"regs[{s}]" if rr else f"({s})"
        lines = []
        if "{sx}" in expr:
            lines.append(f"x = regs[{d}]")
        if "{sy}" in expr:
            lines.append(f"y = {y}")
        return lines + [f"regs[{d}] = " + expr.format(
            x=f"regs[{d}]", y=y, sx=_signed_src("x"), sy=_signed_src("y"))]
    _TEMPLATES[int(opcode)] = template


for _opcode, _expr in (
        (Op.ADD_RR, f"({{x}} + {{y}}) & {_M}"),
        (Op.SUB_RR, f"({{x}} - {{y}}) & {_M}"),
        (Op.IMUL_RR, f"({{sx}} * {{sy}}) & {_M}"),
        (Op.AND_RR, "{x} & {y}"), (Op.OR_RR, "{x} | {y}"),
        (Op.XOR_RR, "{x} ^ {y}"),
        (Op.SHL_RR, f"({{x}} << ({{y}} & 63)) & {_M}"),
        (Op.SHR_RR, "{x} >> ({y} & 63)"),
        (Op.SAR_RR, f"({{sx}} >> ({{y}} & 63)) & {_M}"),
        (Op.IDIV_RR, "DIV({x}, {y}, False)"),
        (Op.IMOD_RR, "DIV({x}, {y}, True)"),
        (Op.OR_RI, f"({{x}} | {{y}}) & {_M}"),
        (Op.XOR_RI, f"({{x}} ^ {{y}}) & {_M}"),
        (Op.SHL_RI, f"({{x}} << ({{y}} & 63)) & {_M}"),
        (Op.SHR_RI, "{x} >> ({y} & 63)"),
        (Op.SAR_RI, f"({{sx}} >> ({{y}} & 63)) & {_M}")):
    _alu(_opcode, _expr)


@_template(Op.ADD_RI)
def _t_add_ri(ops, nxt):
    d, imm = ops
    return [f"regs[{d}] = ({_plus(f'regs[{d}]', imm)}) & {_M}"]


@_template(Op.SUB_RI)
def _t_sub_ri(ops, nxt):
    return _t_add_ri((ops[0], -ops[1]), nxt)


@_template(Op.AND_RI)
def _t_and_ri(ops, nxt):
    d, imm = ops
    return [f"regs[{d}] &= {imm & _MASK64:#x}"]


@_template(Op.NOP)
def _t_nop(ops, nxt):
    return []


@_template(Op.MOV_RR)
def _t_mov_rr(ops, nxt):
    return [f"regs[{ops[0]}] = regs[{ops[1]}]"]


@_template(Op.MOV_RI)
def _t_mov_ri(ops, nxt):
    return [f"regs[{ops[0]}] = {ops[1] & _MASK64:#x}"]


@_template(Op.MOVZX32)
def _t_movzx32(ops, nxt):
    return [f"regs[{ops[0]}] &= {_MASK32:#x}"]


@_template(Op.LEA)
def _t_lea(ops, nxt):
    d, b, disp = ops
    return [f"regs[{d}] = ({_plus(f'regs[{b}]', disp)}) & {_M}"]


@_template(Op.NEG)
def _t_neg(ops, nxt):
    return [f"regs[{ops[0]}] = (-regs[{ops[0]}]) & {_M}"]


@_template(Op.NOT)
def _t_not(ops, nxt):
    return [f"regs[{ops[0]}] ^= {_M}"]


@_template(Op.CMP_RR)
def _t_cmp_rr(ops, nxt):
    a, b = ops
    return [f"x = regs[{a}]", f"y = regs[{b}]",
            "cpu.zf = x == y",
            f"cpu.lt = {_signed_src('x')} < {_signed_src('y')}",
            "cpu.ltu = x < y"]


@_template(Op.CMP_RI)
def _t_cmp_ri(ops, nxt):
    right = ops[1] & _MASK64
    return [f"x = regs[{ops[0]}]",
            f"cpu.zf = x == {right:#x}",
            f"cpu.lt = {_signed_src('x')} < {_signed(right)}",
            f"cpu.ltu = x < {right:#x}"]


@_template(Op.TEST_RR)
def _t_test_rr(ops, nxt):
    return [f"cpu.zf = (regs[{ops[0]}] & regs[{ops[1]}]) == 0"]


@_template(Op.TEST_RI)
def _t_test_ri(ops, nxt):
    return [f"cpu.zf = (regs[{ops[0]}] & {ops[1] & _MASK64:#x}) == 0"]


@_template(Op.CMPW_RR)
def _t_cmpw_rr(ops, nxt):
    return [f"cpu.zf = (regs[{ops[0]}] & 0xFFFF) == "
            f"(regs[{ops[1]}] & 0xFFFF)"]


@_template(Op.TESTB1)
def _t_testb1(ops, nxt):
    return [f"cpu.zf = (regs[{ops[0]}] & 1) == 0"]


def _load_template(opcode: Op, width: int) -> None:
    def template(ops, nxt):
        d, b, disp = ops
        return ([f"a = ({_plus(f'regs[{b}]', disp)}) & {_M}"]
                + _read(f"regs[{d}]", width))
    _TEMPLATES[int(opcode)] = template


def _store_template(opcode: Op, width: int) -> None:
    def template(ops, nxt):
        b, disp, s = ops
        return ([f"a = ({_plus(f'regs[{b}]', disp)}) & {_M}"]
                + _write(f"regs[{s}]", width))
    _TEMPLATES[int(opcode)] = template


for _width, _load, _store in ((1, Op.LOAD8, Op.STORE8),
                              (2, Op.LOAD16, Op.STORE16),
                              (4, Op.LOAD32, Op.STORE32),
                              (8, Op.LOAD64, Op.STORE64)):
    _load_template(_load, _width)
    _store_template(_store, _width)


@_template(Op.PUSH)
def _t_push(ops, nxt):
    return _push(f"regs[{ops[0]}]")


@_template(Op.POP)
def _t_pop(ops, nxt):
    return _pop(f"regs[{ops[0]}]")


@_template(Op.TLOAD_RI)
def _t_tload_ri(ops, nxt):
    return ["cpu.tx_checks += 1",
            f"regs[{ops[0]}] = cpu.tables.read_bary({ops[1]})"]


@_template(Op.TLOAD_RR)
def _t_tload_rr(ops, nxt):
    return [f"regs[{ops[0]}] = cpu.tables.read_tary(regs[{ops[1]}])"]


@_template(Op.JMP, table=_TERM_TEMPLATES)
def _t_jmp(ops, nxt):
    return [], f"{nxt + ops[0]:#x}"


@_template(Op.JMP_R, table=_TERM_TEMPLATES)
def _t_jmp_r(ops, nxt):
    return [], f"regs[{ops[0]}]"


@_template(Op.CALL, table=_TERM_TEMPLATES)
def _t_call(ops, nxt):
    return _push(f"{nxt:#x}"), f"{nxt + ops[0]:#x}"


@_template(Op.CALL_R, table=_TERM_TEMPLATES)
def _t_call_r(ops, nxt):
    # the target register is read after rsp moves, as in the closure
    return _push(f"{nxt:#x}"), f"regs[{ops[0]}]"


@_template(Op.RET, table=_TERM_TEMPLATES)
def _t_ret(ops, nxt):
    return _pop("nx"), "nx"


def _jcc(opcode: Op, taken_if: str) -> None:
    def template(ops, nxt):
        return [], f"{nxt + ops[0]:#x} if {taken_if} else {nxt:#x}"
    _TERM_TEMPLATES[int(opcode)] = template


for _opcode, _cond in ((Op.JE, "cpu.zf"), (Op.JNE, "not cpu.zf"),
                       (Op.JL, "cpu.lt"), (Op.JLE, "cpu.lt or cpu.zf"),
                       (Op.JG, "not (cpu.lt or cpu.zf)"),
                       (Op.JGE, "not cpu.lt"), (Op.JB, "cpu.ltu"),
                       (Op.JAE, "not cpu.ltu")):
    _jcc(_opcode, _cond)


def _block_source(block: Block) -> Tuple[str, Dict[str, object]]:
    """Python source of ``block``'s compiled function, plus the values
    of the free names it uses other than the shared helpers."""
    body: List[str] = []
    names: Dict[str, object] = {}
    charged_cycles = charged_instrs = 0
    fault_cycles: List[int] = []
    fault_instrs: List[int] = []
    fault_addrs: List[int] = []

    def emit(address: int, lines: List[str], cost: Optional[int]) -> None:
        """Append one instruction; ``cost`` is None for a closure call,
        which charges its own counters (even when it faults)."""
        nonlocal charged_cycles, charged_instrs
        if fault_addrs:
            body.append(f"k = {len(fault_addrs)}")
        body.extend(lines)
        if cost is not None:
            charged_cycles += cost
            charged_instrs += 1
        fault_cycles.append(charged_cycles)
        fault_instrs.append(charged_instrs)
        fault_addrs.append(address)

    for index, (address, closure, entry) in enumerate(
            zip(block.addrs, block.linear, block.decoded)):
        op, ops, length, cost = entry
        template = _TEMPLATES.get(op)
        if template is None:
            names[f"F{index}"] = closure
            emit(address, [f"F{index}(cpu)"], None)
        else:
            emit(address, template(ops, address + length), cost)

    entry = block.term_decoded
    term_template = (_TERM_TEMPLATES.get(entry[0])
                     if entry is not None else None)
    if term_template is not None:
        op, ops, length, cost = entry
        lines, result = term_template(ops, block.term_addr + length)
        emit(block.term_addr, lines, cost)
        tail = [f"return {result}"]
    elif block.term is None:
        tail = [f"return {block.exit_rip:#x}"]
    else:
        names["TERM"] = block.term
        tail = (["return TERM(cpu)"] if block.term_sets_rip else
                ["try:", "    return TERM(cpu)", "except BaseException:",
                 f"    cpu.rip = {block.term_addr:#x}", "    raise"])

    text = "\n".join(body + tail)
    head = []
    if "regs[" in text:
        head.append("regs = cpu.regs")
    if "mem." in text:
        head.append("mem = cpu.memory")
    if "R.get" in text:
        head.append("R = mem._readable")
    if "W.get" in text:
        head.append("W = mem._writable")
    if body:
        names["FC"] = tuple(fault_cycles)
        names["FI"] = tuple(fault_instrs)
        names["AD"] = tuple(fault_addrs)
    params = ", ".join(list(_HELPERS) + list(names))
    lines = [f"def factory({params}):", "    def block(cpu):"]
    lines += ["        " + line for line in head]
    if body:
        lines += ["        k = 0", "        try:"]
        lines += ["            " + line for line in body]
        lines += ["        except BaseException:",
                  "            cpu.cycles += FC[k]",
                  "            cpu.instructions += FI[k]",
                  "            cpu.rip = AD[k]",
                  "            raise"]
    if charged_instrs:
        lines += [f"        cpu.cycles += {charged_cycles}",
                  f"        cpu.instructions += {charged_instrs}"]
    lines += ["        " + line for line in tail]
    lines.append("    return block")
    return "\n".join(lines), names


def compile_block(block: Block) -> _Closure:
    """Compile ``block`` into one function ``fn(cpu) -> next_rip`` with
    the observables of :meth:`Block.execute`."""
    source, names = _block_source(block)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<block {block.entry:#x}>", "exec"), namespace)
    return namespace["factory"](*_HELPERS.values(), *names.values())
