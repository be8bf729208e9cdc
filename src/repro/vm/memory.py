"""Flat paged memory with page protections for the SimVM.

The address-space layout mirrors the paper's x86-64 sandbox design
(Sec. 5.1): application code and data live in the low 4GB; the ID tables
live in a *separate* table region addressed through a reserved segment
register (``%gs`` in the paper, the ``TLOAD`` instructions here), so
sandboxed application writes — which are restricted to ``[0, 4GB)`` by
``MOVZX32`` instrumentation — can never reach the tables.

Layout constants::

    [0, 0x1000)                  unmapped null page
    [CODE_BASE, CODE_LIMIT)      code region (R+X; may embed RO jump tables)
    [DATA_BASE, DATA_LIMIT)      globals + heap (R+W)
    [STACK_BASE, STACK_LIMIT)    thread stacks (R+W)
    SANDBOX_LIMIT = 4GB          upper bound for any sandboxed write

The table region is a separate :class:`TableMemory`, not part of the
flat address space: the only way application code can touch it is via
``TLOAD`` reads, exactly like ``%gs``-based addressing.
"""

from __future__ import annotations

import struct
from typing import Collection, Dict, Set

from repro.errors import MemoryFault

PAGE_SIZE = 0x1000
PAGE_SHIFT = 12

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

CODE_BASE = 0x10000
CODE_LIMIT = 0x400000          # 4 MiB of code address space
DATA_BASE = 0x1000000
DATA_LIMIT = 0x1800000         # 8 MiB of globals + heap
STACK_BASE = 0x1800000
STACK_LIMIT = 0x2000000        # 8 MiB of stacks
SANDBOX_LIMIT = 0x100000000    # 4 GiB

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Memory:
    """Byte-addressable paged memory with R/W/X page protections.

    Normal accessors (``read_*``/``write_*``) enforce protections; the
    ``host_*`` accessors bypass them and model the trusted runtime
    (loader, dynamic linker) which runs outside the sandbox.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        # Permission maps: page number -> that page's bytearray, so one
        # probe both checks the permission and finds the bytes.  The
        # dispatch plane's compiled blocks probe them directly; ``map``
        # and ``protect`` keep them in sync with ``_pages``.
        self._readable: Dict[int, bytearray] = {}
        self._writable: Dict[int, bytearray] = {}
        self._executable: Set[int] = set()

    # -- mapping ----------------------------------------------------------

    def map(self, address: int, size: int, *, readable: bool = True,
            writable: bool = False, executable: bool = False) -> None:
        """Map ``[address, address + size)`` (page-rounded) with protections."""
        if address % PAGE_SIZE:
            raise MemoryFault(address, "map", "address not page aligned")
        # bulk updates: a runtime maps thousands of stack and heap pages
        # at load, one Python-level step each would dominate the load.
        # One list, so the page dict and the protection maps share each
        # page number's int object.
        pages = list(range(address >> PAGE_SHIFT,
                           (address + size + PAGE_SIZE - 1) >> PAGE_SHIFT))
        known = self._pages.get
        mapped = {page: known(page) or bytearray(PAGE_SIZE)
                  for page in pages}
        self._pages.update(mapped)
        if readable:
            self._readable.update(mapped)
        if writable:
            self._writable.update(mapped)
        if executable:
            self._executable.update(pages)

    def protect(self, address: int, size: int, *, readable: bool = True,
                writable: bool = False, executable: bool = False) -> None:
        """Change protections on already-mapped pages (``mprotect``)."""
        first = address >> PAGE_SHIFT
        last = (address + size + PAGE_SIZE - 1) >> PAGE_SHIFT
        for page in range(first, last):
            data = self._pages.get(page)
            if data is None:
                raise MemoryFault(page << PAGE_SHIFT, "protect", "unmapped")
            for flag, group in ((readable, self._readable),
                                (writable, self._writable)):
                if flag:
                    group[page] = data
                else:
                    group.pop(page, None)
            if executable:
                self._executable.add(page)
            else:
                self._executable.discard(page)

    def is_mapped(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._pages

    def is_writable(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._writable

    def is_executable(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._executable

    # -- checked access (application) --------------------------------------

    # The word accessors below take a no-copy fast path when the access
    # stays inside one page (the overwhelmingly common case on the VM's
    # hot load/store/stack paths) and fall back to the general
    # byte-slicing ``_read``/``_write`` only for page-straddling
    # accesses.  Fault addresses are identical on both paths.

    def read_u8(self, address: int) -> int:
        data = self._readable.get(address >> PAGE_SHIFT)
        if data is None:
            raise MemoryFault(address, "read")
        return data[address & (PAGE_SIZE - 1)]

    def read_u16(self, address: int) -> int:
        """Atomic 16-bit read; faults before observing either byte."""
        offset = address & (PAGE_SIZE - 1)
        page = address >> PAGE_SHIFT
        data = self._readable.get(page)
        if data is None:
            raise MemoryFault(address, "read")
        if offset <= PAGE_SIZE - 2:
            return _U16.unpack_from(data, offset)[0]
        high = self._readable.get(page + 1)
        if high is None:
            raise MemoryFault(address + 1, "read")
        return data[PAGE_SIZE - 1] | (high[0] << 8)

    def read_u64(self, address: int) -> int:
        offset = address & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 8:
            data = self._readable.get(address >> PAGE_SHIFT)
            if data is None:
                raise MemoryFault(address, "read")
            return _U64.unpack_from(data, offset)[0]
        return int.from_bytes(self._read(address, 8), "little")

    def read_u32(self, address: int) -> int:
        offset = address & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 4:
            data = self._readable.get(address >> PAGE_SHIFT)
            if data is None:
                raise MemoryFault(address, "read")
            return _U32.unpack_from(data, offset)[0]
        return int.from_bytes(self._read(address, 4), "little")

    def write_u8(self, address: int, value: int) -> None:
        data = self._writable.get(address >> PAGE_SHIFT)
        if data is None:
            raise MemoryFault(address, "write")
        data[address & (PAGE_SIZE - 1)] = value & 0xFF

    def write_u16(self, address: int, value: int) -> None:
        """Atomic 16-bit store: both byte addresses are validated
        before either byte is written, so a fault at a page boundary
        (e.g. a read-only second page) can never leave a torn,
        one-byte partial store behind."""
        offset = address & (PAGE_SIZE - 1)
        page = address >> PAGE_SHIFT
        data = self._writable.get(page)
        if data is None:
            raise MemoryFault(address, "write")
        if offset <= PAGE_SIZE - 2:
            _U16.pack_into(data, offset, value & 0xFFFF)
            return
        high = self._writable.get(page + 1)
        if high is None:
            raise MemoryFault(address + 1, "write")
        data[PAGE_SIZE - 1] = value & 0xFF
        high[0] = (value >> 8) & 0xFF

    def write_u32(self, address: int, value: int) -> None:
        offset = address & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 4:
            data = self._writable.get(address >> PAGE_SHIFT)
            if data is None:
                raise MemoryFault(address, "write")
            _U32.pack_into(data, offset, value & 0xFFFFFFFF)
            return
        self._write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def write_u64(self, address: int, value: int) -> None:
        offset = address & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 8:
            data = self._writable.get(address >> PAGE_SHIFT)
            if data is None:
                raise MemoryFault(address, "write")
            _U64.pack_into(data, offset, value & _MASK64)
            return
        self._write(address, (value & _MASK64).to_bytes(8, "little"))

    def read_bytes(self, address: int, size: int) -> bytes:
        return self._read(address, size)

    def write_bytes(self, address: int, payload: bytes) -> None:
        self._write(address, payload)

    def fetch(self, address: int, size: int) -> bytes:
        """Read up to ``size`` bytes for instruction fetch (X required)."""
        page = address >> PAGE_SHIFT
        if page not in self._executable:
            raise MemoryFault(address, "execute")
        return self._read(address, size, check=self._executable)

    # -- unchecked access (trusted runtime) ---------------------------------

    def host_read(self, address: int, size: int) -> bytes:
        return self._read(address, size, check=None)

    def host_write(self, address: int, payload: bytes) -> None:
        self._write(address, payload, check=None)

    # -- internals ----------------------------------------------------------

    def _read(self, address: int, size: int,
              check: Collection[int] | None | str = "default") -> bytes:
        check_set = self._readable if check == "default" else check
        out = bytearray()
        remaining = size
        cursor = address
        while remaining > 0:
            page = cursor >> PAGE_SHIFT
            if check_set is not None and page not in check_set:
                raise MemoryFault(cursor, "read")
            if page not in self._pages:
                raise MemoryFault(cursor, "read", "unmapped")
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += self._pages[page][offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def _write(self, address: int, payload: bytes,
               check: Collection[int] | None | str = "default") -> None:
        check_set = self._writable if check == "default" else check
        # Page-straddling stores validate every page up front so a
        # protection fault on a later page cannot leave a torn partial
        # write (one VM instruction is one atomic store).  The fault
        # address matches the lazy path: the first offending byte.
        if payload and (address + len(payload) - 1) >> PAGE_SHIFT != \
                address >> PAGE_SHIFT:
            first = address >> PAGE_SHIFT
            last = (address + len(payload) - 1) >> PAGE_SHIFT
            for page in range(first, last + 1):
                bad = max(address, page << PAGE_SHIFT)
                if check_set is not None and page not in check_set:
                    raise MemoryFault(bad, "write")
                if page not in self._pages:
                    raise MemoryFault(bad, "write", "unmapped")
        remaining = len(payload)
        cursor = address
        index = 0
        while remaining > 0:
            page = cursor >> PAGE_SHIFT
            if check_set is not None and page not in check_set:
                raise MemoryFault(cursor, "write")
            if page not in self._pages:
                raise MemoryFault(cursor, "write", "unmapped")
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - offset)
            self._pages[page][offset:offset + chunk] = \
                payload[index:index + chunk]
            cursor += chunk
            remaining -= chunk
            index += chunk


class TableMemory:
    """The MCFI ID-table region, reachable only through ``TLOAD``.

    * The **Tary** table occupies offsets ``[0, tary_size)`` and is
      indexed directly by code address (paper: the table "is an array of
      IDs indexed by code addresses"; we keep the identity mapping, so
      ``tary_size`` must cover ``CODE_LIMIT``).
    * The **Bary** table lives in a region that 32-bit sandboxed
      addresses cannot name: ``TLOAD_RI`` indexes it through a separate
      base, mirroring how the paper keeps branch-ID reads at
      loader-patched constant indexes.

    A ``TLOAD_RR`` with an index outside the Tary table faults, which
    models the segfault a real out-of-range ``%gs`` access would take —
    fail-safe, not fail-open.
    """

    def __init__(self, tary_size: int = CODE_LIMIT,
                 bary_entries: int = 65536) -> None:
        self.tary = bytearray(tary_size)
        self.bary = bytearray(4 * bary_entries)
        self.tary_size = tary_size
        self.bary_entries = bary_entries
        #: Monotonic write-generation stamp.  Every privileged table
        #: store bumps it, and so do bulk restores (journal rollback)
        #: and :meth:`repro.core.tables.IdTables.note_update`.  The
        #: dispatch plane's fused check transactions compare it to
        #: decide whether a cached branch-ID read is still current —
        #: any update transaction therefore invalidates fused fast
        #: paths (see :mod:`repro.vm.dispatch`).
        self.generation = 0

    # Reads are what TxCheck performs; they are atomic at 4-byte
    # granularity because the scheduler interleaves whole instructions.

    def read_tary(self, index: int) -> int:
        if not 0 <= index <= self.tary_size - 4:
            raise MemoryFault(index, "tary-read", "outside Tary table")
        return _U32.unpack_from(self.tary, index)[0]

    def read_bary(self, index: int) -> int:
        if not 0 <= index <= len(self.bary) - 4:
            raise MemoryFault(index, "bary-read", "outside Bary table")
        return _U32.unpack_from(self.bary, index)[0]

    # Writes are privileged: only the trusted runtime (TxUpdate) calls
    # them.  Each call is one atomic 4-byte store (the paper's ``movnti``).

    def write_tary(self, index: int, ident: int) -> None:
        if index % 4:
            raise MemoryFault(index, "tary-write", "unaligned ID store")
        self.tary[index:index + 4] = (ident & 0xFFFFFFFF).to_bytes(4, "little")
        self.generation += 1

    def write_bary(self, index: int, ident: int) -> None:
        if index % 4:
            raise MemoryFault(index, "bary-write", "unaligned ID store")
        self.bary[index:index + 4] = (ident & 0xFFFFFFFF).to_bytes(4, "little")
        self.generation += 1
