"""Tests for :mod:`repro.service` — sharded tables, the update
coalescer, and the multi-tenant service loop.

The determinism contract gets the heaviest coverage: the same seed and
arrival order must produce byte-identical batched transactions, shard
versions, and JSONL round traces (hypothesis over seeds/geometry, plus
a golden trace pinned in ``tests/golden/service_trace_seed7.jsonl``).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.idencoding import pack_id
from repro.core.tables import IdTables, TableSnapshot
from repro.core.transactions import UpdateLock
from repro.errors import RuntimeError_, ServiceBackpressure
from repro.faults.plane import FaultPlane
from repro.service import (
    ServiceLoop,
    ShardedIdTables,
    UpdateCoalescer,
    UpdateRequest,
)
from repro.service.coalescer import COMMITTED, FAILED
from repro.service.loop import WritesetTemplate
from repro.vm.memory import TableMemory

GOLDEN = Path(__file__).parent / "golden" / "service_trace_seed7.jsonl"

#: The pinned configuration behind the golden trace.
GOLDEN_CONFIG = dict(tenants=6, shards=3, seed=7, churn=2, window=6)


def _drain_all(coalescer):
    """Run the drain task to completion outside a scheduler."""
    ticks = [0]
    gen = coalescer.drain(active=lambda: False, clock=lambda: ticks[0])
    for _ in gen:
        ticks[0] += 1


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

class TestShardedIdTables:
    def test_bands_partition_the_tables(self):
        sharded = ShardedIdTables(shards=8)
        memory = sharded.memory
        assert sharded.shards[0].tary_lo == 0
        assert sharded.shards[-1].tary_hi == memory.tary_size
        assert sharded.shards[-1].site_hi == memory.bary_entries
        for left, right in zip(sharded.shards, sharded.shards[1:]):
            assert left.tary_hi == right.tary_lo
            assert left.site_hi == right.site_lo
            assert left.tary_lo % 4 == 0

    def test_shard_lookup_matches_bands(self):
        sharded = ShardedIdTables(shards=5)
        for shard in sharded.shards:
            assert sharded.shard_for_address(shard.tary_lo) is shard
            assert sharded.shard_for_address(shard.tary_hi - 4) is shard
            assert sharded.shard_for_site(shard.site_lo) is shard
            assert sharded.shard_for_site(shard.site_hi - 1) is shard

    def test_out_of_range_rejected(self):
        sharded = ShardedIdTables(shards=2)
        with pytest.raises(RuntimeError_):
            sharded.shard_for_address(sharded.memory.tary_size)
        with pytest.raises(RuntimeError_):
            sharded.shard_for_site(-1)

    def test_place_stripes_round_robin(self):
        sharded = ShardedIdTables(shards=4)
        placements = [sharded.place(slot, 16, 4) for slot in range(8)]
        assert [p[0] for p in placements] == [0, 1, 2, 3, 0, 1, 2, 3]
        # Second level stacks above the first inside the same shard.
        assert placements[4][1] == placements[0][1] + 16
        assert placements[4][2] == placements[0][2] + 4

    def test_place_raises_when_band_exhausted(self):
        sharded = ShardedIdTables(shards=2, bary_entries=8)
        with pytest.raises(RuntimeError_):
            # 4 sites per tenant, 4 sites per shard band: slot 2 is the
            # third tenant in shard 0's band and cannot fit.
            for slot in range(6):
                sharded.place(slot, 16, 4)

    def test_split_writes_routes_by_band(self):
        sharded = ShardedIdTables(shards=2)
        shard1 = sharded.shards[1]
        deltas = sharded.split_writes(
            set_tary={0: 3, shard1.tary_lo: 4},
            clear_tary=[4],
            set_bary={shard1.site_lo: 3},
            clear_bary=[0])
        assert set(deltas) == {0, 1}
        assert deltas[0].set_tary == {0: 3}
        assert deltas[0].clear_tary == [4]
        assert deltas[0].clear_bary == [0]
        assert deltas[1].set_tary == {shard1.tary_lo: 4}
        assert deltas[1].set_bary == {shard1.site_lo: 3}

    def test_too_many_shards_rejected(self):
        with pytest.raises(RuntimeError_):
            ShardedIdTables(shards=0)
        with pytest.raises(RuntimeError_):
            ShardedIdTables(TableMemory(bary_entries=4), shards=8)


class TestTableSnapshot:
    def test_range_bounded_rollback_restores_only_its_band(self):
        memory = TableMemory()
        tables = IdTables(memory)
        snapshot = TableSnapshot(tables, tary_range=(0, 64),
                                 site_range=(0, 16))
        memory.write_tary(4, 0x01010101 ^ 0x01010100)  # inside band
        memory.write_tary(128, 0x00000001)             # outside band
        generation = memory.generation
        snapshot.rollback()
        assert memory.read_tary(4) == 0
        assert memory.read_tary(128) == 0x00000001
        assert memory.generation == generation + 1  # dispatch inval

    def test_rollback_restores_bookkeeping(self):
        tables = IdTables(TableMemory())
        snapshot = TableSnapshot(tables)
        tables.version = 9
        tables.tary_ecns = {4: 1}
        snapshot.rollback()
        assert tables.version == 0
        assert tables.tary_ecns == {}

    def test_snapshot_holds_only_the_written_extent(self):
        memory = TableMemory()
        tables = IdTables(memory)
        assert TableSnapshot(tables).tary == b""
        memory.write_tary(0x100, 7)
        memory.write_bary(8, 9)
        memory.write_tary(0x40, 0)      # below the mark: no change
        snapshot = TableSnapshot(tables)
        assert (memory.tary_mark, memory.bary_mark) == (0x104, 12)
        assert snapshot.tary == bytes(memory.tary[:0x104])
        assert snapshot.bary == bytes(memory.bary[:12])

    def test_rollback_zeroes_writes_above_the_old_mark(self):
        memory = TableMemory()
        tables = IdTables(memory)
        memory.write_tary(8, 1)
        memory.write_bary(4, 2)
        before = (bytes(memory.tary), bytes(memory.bary))
        snapshot = TableSnapshot(tables)
        memory.write_tary(8, 3)
        memory.write_tary(0x2000, 4)
        memory.write_bary(0x400, 5)
        snapshot.rollback()
        assert (bytes(memory.tary), bytes(memory.bary)) == before

    def test_band_wholly_above_the_mark(self):
        memory = TableMemory()
        tables = IdTables(memory)
        memory.write_tary(4, 0x11)                   # below the band
        snapshot = TableSnapshot(tables, tary_range=(0x1000, 0x2000),
                                 site_range=(100, 200))
        assert snapshot.tary == b"" and snapshot.bary == b""
        memory.write_tary(0x1008, 0x22)              # inside the band
        memory.write_tary(0x3000, 0x33)              # above the band
        memory.write_bary(4 * 150, 0x44)
        snapshot.rollback()
        assert bytes(memory.tary[0x1000:0x2000]) == bytes(0x1000)
        assert bytes(memory.bary[400:800]) == bytes(400)
        assert memory.read_tary(4) == 0x11
        assert memory.read_tary(0x3000) == 0x33


class TestUpdateLockOwnerApi:
    def test_owner_roundtrip(self):
        lock = UpdateLock()
        assert lock.owner() is None
        for _ in lock.acquire_spin("linker"):
            pass
        assert lock.owner() == "linker"
        lock.set_owner(None)
        assert not lock.held


# ---------------------------------------------------------------------------
# Coalescer
# ---------------------------------------------------------------------------

def _request(tenant, seq, shard, kind="dlopen"):
    tary_base = shard.tary_lo
    site_base = shard.site_lo
    if kind == "dlopen":
        return UpdateRequest(tenant=tenant, kind=kind, seq=seq,
                             set_tary={tary_base: 1, tary_base + 4: 2},
                             set_bary={site_base: 1})
    return UpdateRequest(tenant=tenant, kind=kind, seq=seq,
                         clear_tary=(tary_base, tary_base + 4),
                         clear_bary=(site_base,))


class TestUpdateCoalescer:
    def test_round_batches_one_transaction_per_shard(self):
        sharded = ShardedIdTables(shards=4)
        coalescer = UpdateCoalescer(sharded, window=0)
        for i, shard_index in enumerate((0, 0, 1, 1, 2)):
            coalescer.submit(_request(f"t{i}", 0,
                                      sharded.shards[shard_index]))
        _drain_all(coalescer)
        assert coalescer.rounds == 1
        assert coalescer.transactions == 3  # shards 0, 1, 2
        assert coalescer.committed == 5
        assert coalescer.coalescing_factor == pytest.approx(5 / 3)
        assert sharded.versions() == [1, 1, 1, 0]

    def test_merge_applies_deltas_in_arrival_order(self):
        sharded = ShardedIdTables(shards=1)
        shard = sharded.shards[0]
        coalescer = UpdateCoalescer(sharded, window=0)
        coalescer.submit(_request("a", 0, shard))            # install
        coalescer.submit(_request("a", 1, shard, "dlclose"))  # then clear
        _drain_all(coalescer)
        assert coalescer.committed == 2
        assert coalescer.transactions == 1
        assert sharded.decoded_state() == {"tary": {}, "bary": {}}

    def test_backpressure_bounds_the_queue(self):
        sharded = ShardedIdTables(shards=1)
        coalescer = UpdateCoalescer(sharded, max_pending=2)
        shard = sharded.shards[0]
        coalescer.submit(_request("a", 0, shard))
        coalescer.submit(_request("b", 0, shard))
        with pytest.raises(ServiceBackpressure) as exc:
            coalescer.submit(_request("c", 0, shard))
        assert exc.value.pending == 2
        assert exc.value.limit == 2
        assert coalescer.rejected == 1
        assert len(coalescer.log) == 2  # the rejected one is not logged

    def test_partial_failure_rolls_back_only_that_shard(self):
        sharded = ShardedIdTables(shards=2)
        plane = FaultPlane(seed=0).arm("service.commit.step", skip=0)
        coalescer = UpdateCoalescer(sharded, window=0, batch=1,
                                    fault_plane=plane)
        good = _request("a", 0, sharded.shards[1])
        bad = _request("b", 0, sharded.shards[0])
        coalescer.submit(bad)
        coalescer.submit(good)
        _drain_all(coalescer)
        assert bad.status == FAILED
        assert good.status == COMMITTED
        # Shard 0 rolled back byte-exactly; shard 1 committed.
        assert sharded.shards[0].rollbacks == 1
        assert sharded.shards[0].tables.version == 0
        assert sharded.shards[0].tables.tary_ecns == {}
        assert sharded.shards[1].tables.version == 1
        assert not sharded.shards[0].lock.held  # released, not wedged
        state = sharded.decoded_state()
        assert sharded.shards[1].tary_lo in state["tary"]
        assert 0 not in state["tary"]
        record = coalescer.trace[0]["shards"][0]
        assert record["status"] == "rolled-back"

    def test_mid_batch_rollback_is_byte_isolated(self):
        """Raw band bytes around a mid-batch fault: the failed shard is
        byte-identical to its pre-round state, sibling shards carry
        exactly their committed bytes — no word outside the failed
        band moves in either direction."""
        sharded = ShardedIdTables(shards=3)
        memory = sharded.memory

        def bands():
            return [(bytes(memory.tary[s.tary_lo:s.tary_hi]),
                     bytes(memory.bary[4 * s.site_lo:4 * s.site_hi]))
                    for s in sharded.shards]

        # Seed every shard with one committed round first.
        warm = UpdateCoalescer(sharded, window=0)
        for i, shard in enumerate(sharded.shards):
            warm.submit(_request(f"w{i}", 0, shard))
        _drain_all(warm)
        before = bands()
        versions = sharded.versions()

        # Fault shard 1's batch mid-write (each shard's transaction
        # takes 4 steps; skip=5 lands on shard 1's second step);
        # shards 0 and 2 commit.
        plane = FaultPlane(seed=0).arm("service.commit.step", skip=5,
                                       count=1)
        coalescer = UpdateCoalescer(sharded, window=0, batch=1,
                                    fault_plane=plane)
        requests = [_request(f"t{i}", 1, shard)
                    for i, shard in enumerate(sharded.shards)]
        for request in requests:
            coalescer.submit(request)
        _drain_all(coalescer)
        after = bands()

        assert requests[1].status == FAILED
        assert after[1] == before[1]                    # byte-identical
        assert sharded.versions()[1] == versions[1]
        for index in (0, 2):
            assert requests[index].status == COMMITTED
            assert after[index] != before[index]        # really committed
            assert sharded.versions()[index] == versions[index] + 1
            # ... and exactly what a clean rebuild of the shard's
            # bookkeeping would store: no stray bytes rode the fault.
            shard = sharded.shards[index]
            expected_tary = bytearray(shard.tary_hi - shard.tary_lo)
            for address, ecn in shard.tables.tary_ecns.items():
                word = pack_id(ecn, shard.tables.version)
                offset = address - shard.tary_lo
                expected_tary[offset:offset + 4] = \
                    word.to_bytes(4, "little")
            assert after[index][0] == bytes(expected_tary)

    def test_failed_shard_does_not_block_later_rounds(self):
        sharded = ShardedIdTables(shards=1)
        plane = FaultPlane(seed=0).arm("service.commit", skip=0, count=1)
        coalescer = UpdateCoalescer(sharded, window=0, fault_plane=plane)
        shard = sharded.shards[0]
        first = _request("a", 0, shard)
        coalescer.submit(first)
        _drain_all(coalescer)
        assert first.status == FAILED
        second = _request("a", 1, shard)
        coalescer.submit(second)
        _drain_all(coalescer)
        assert second.status == COMMITTED
        assert shard.tables.version == 1


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           tenants=st.integers(min_value=2, max_value=12),
           shards=st.integers(min_value=1, max_value=6),
           window=st.integers(min_value=0, max_value=8))
    def test_same_seed_same_everything(self, seed, tenants, shards,
                                       window):
        runs = [ServiceLoop(tenants=tenants, shards=shards, seed=seed,
                            churn=1, window=window) for _ in range(2)]
        reports = [loop.run() for loop in runs]
        assert runs[0].coalescer.trace_jsonl() == \
            runs[1].coalescer.trace_jsonl()
        assert reports[0].to_dict() == reports[1].to_dict()
        assert runs[0].sharded.versions() == runs[1].sharded.versions()
        assert runs[0].sharded.decoded_state() == \
            runs[1].sharded.decoded_state()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batched_equals_serial_replay(self, seed):
        loop = ServiceLoop(tenants=8, shards=4, seed=seed, churn=2)
        report = loop.run()
        assert report.escalations == 0
        assert loop.sharded.decoded_state() == loop.replay_serial()

    def test_golden_trace(self):
        """The pinned seed-7 trace: any byte of drift is a determinism
        regression (or an intentional format change — regenerate with
        ``python -m repro service trace`` and update the golden)."""
        loop = ServiceLoop(**GOLDEN_CONFIG)
        loop.run()
        assert loop.coalescer.trace_jsonl() + "\n" == \
            GOLDEN.read_text(encoding="utf-8")

    def test_trace_is_canonical_jsonl(self):
        loop = ServiceLoop(tenants=4, shards=2, seed=1, churn=1)
        loop.run()
        for line in loop.coalescer.trace_jsonl().splitlines():
            entry = json.loads(line)
            assert json.dumps(entry, sort_keys=True) == line


# ---------------------------------------------------------------------------
# The service loop
# ---------------------------------------------------------------------------

class TestServiceLoop:
    def test_all_requests_commit_and_tables_drain_empty(self):
        loop = ServiceLoop(tenants=12, shards=4, seed=3, churn=2)
        report = loop.run()
        assert report.committed == 12 * 2 * 2  # open+close per round
        assert report.failed == 0
        assert report.escalations == 0
        assert report.checks == report.checks_allowed > 0
        assert loop.sharded.decoded_state() == {"tary": {}, "bary": {}}

    def test_global_mode_is_one_transaction_per_request(self):
        loop = ServiceLoop(tenants=6, seed=3, churn=1, mode="global")
        report = loop.run()
        assert report.shards == 1
        assert report.transactions == report.committed
        assert report.coalescing_factor == 1.0

    def test_tenants_placed_with_disjoint_bands(self):
        loop = ServiceLoop(tenants=40, shards=8, seed=0)
        seen = set()
        for spec in loop.specs:
            set_tary, set_bary = spec.writes()
            shard = loop.sharded.shards[spec.shard]
            for address in set_tary:
                assert shard.owns_address(address)
                assert address not in seen
                seen.add(address)
            for site in set_bary:
                assert shard.owns_site(site)

    def test_backpressure_engages_with_tiny_queue(self):
        loop = ServiceLoop(tenants=16, shards=2, seed=5, churn=1,
                           max_pending=2, window=8)
        report = loop.run()
        assert report.backpressure_waits > 0
        assert report.committed == 16 * 2  # retries still land them all

    def test_partial_failure_under_load(self):
        plane = FaultPlane(seed=0).arm("service.commit", skip=2, count=1)
        loop = ServiceLoop(tenants=8, shards=2, seed=1, churn=2,
                           fault_plane=plane)
        report = loop.run()
        assert report.failed > 0
        assert report.escalations == 0
        # Failed requests never installed: replay of committed ones
        # still reproduces the live state.
        assert loop.sharded.decoded_state() == loop.replay_serial()

    def test_custom_template_roundtrip(self):
        template = WritesetTemplate(
            tary=((0, 0), (4, 1), (8, 2)),
            bary=((0, 0), (1, 2)),
            checks=((0, 0), (1, 8)),
            n_classes=3)
        loop = ServiceLoop(tenants=5, shards=2, seed=2, churn=1,
                           template=template)
        report = loop.run()
        assert report.escalations == 0
        assert report.checks == report.checks_allowed
