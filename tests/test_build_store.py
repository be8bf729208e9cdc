"""Tests for :class:`repro.build.store.BuildStore`.

A store shared by many sessions must change nothing but the work done:
every image is byte-identical to a fresh ``cache=None`` build, the
frontend runs once per distinct (text, prelude, module name), each
distinct unit is compiled — and verified — once, and devirtualization
never rewrites the MIR other sessions share.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.build import BuildSession, BuildStore
from repro.build import store as store_module
from repro.errors import ReproError
from repro.infra.cache import open_cache
from repro.workloads.corpus import artifact_digest
from repro.workloads.spec import workload


@pytest.fixture(scope="module")
def source():
    return workload("mcf").source


def _digest(sources, store=None, **options):
    return artifact_digest(
        BuildSession(cache=store, **options).build(sources).program)


def _counting_frontend(monkeypatch):
    import repro.toolchain as toolchain
    calls = []
    original = toolchain.frontend

    def counted(text, name="unit", prelude=True, types=None):
        calls.append((name, prelude))
        return original(text, name=name, prelude=prelude, types=types)

    monkeypatch.setattr(toolchain, "frontend", counted)
    return calls


class TestSharedStore:
    @pytest.mark.parametrize("arch", ["x64", "x32"])
    def test_every_cell_matches_a_fresh_build(self, source, arch):
        store = BuildStore()
        sources = {"prog": source}
        for devirt in (False, True, False):
            assert _digest(sources, store, arch=arch,
                           devirtualize=devirt) == \
                _digest(sources, arch=arch, devirtualize=devirt)

    def test_frontend_runs_once_per_text(self, source, monkeypatch):
        calls = _counting_frontend(monkeypatch)
        store = BuildStore()
        for arch in ("x64", "x32"):
            for devirt in (False, True):
                BuildSession(arch=arch, devirtualize=devirt,
                             cache=store).build({"prog": source})
        assert sorted(calls) == [("libc", True), ("prog", True)]

    def test_prelude_and_name_are_part_of_the_key(self, monkeypatch):
        calls = _counting_frontend(monkeypatch)
        store = BuildStore()
        text = "long f(long x) { return x + 1; }\n"
        first = store.frontend(text, "a")
        assert store.frontend(text, "a") is first
        store.frontend(text, "b")
        store.frontend(text, "a", prelude=False)
        assert calls == [("a", True), ("b", True), ("a", False)]

    def test_units_compile_and_verify_once(self, source):
        store = BuildStore()
        with obs.scoped() as state:
            for devirt in (False, True):
                BuildSession(devirtualize=devirt,
                             cache=store).build({"prog": source})
            first = state.metrics.snapshot().counters
            BuildSession(cache=store).build({"prog": source})
            second = state.metrics.snapshot().counters
        assert first["build.unit_compiled"] > 0
        assert first["binverify.accepted"] == first["build.unit_compiled"]
        assert second["build.unit_compiled"] == \
            first["build.unit_compiled"]
        assert second["binverify.accepted"] == first["binverify.accepted"]

    def test_devirtualized_mir_is_a_private_lowering(self, source):
        store = BuildStore()
        products = store.frontend(source, "prog")
        base = products.lowered()
        devirt = products.lowered(devirtualize=True)
        assert devirt is not base
        assert products.lowered() is base
        fresh = store_module.FrontendProducts(source, "prog", True)
        assert [f.blocks for f in base.functions] == \
            [f.blocks for f in fresh.lowered().functions]

    def test_rejected_source_is_not_stored(self, monkeypatch):
        calls = _counting_frontend(monkeypatch)
        store = BuildStore()
        for _ in range(2):
            with pytest.raises(ReproError):
                store.frontend("long f( {", "bad")
        assert len(calls) == 2

    def test_incremental_rebuild_matches_cold(self, source):
        store = BuildStore()
        edited = source.replace("return", "return 0 +", 1)
        session = BuildSession(cache=store)
        session.build({"prog": edited})
        back = session.build({"prog": source})
        assert back.kind == "incremental"
        assert artifact_digest(back.program) == _digest({"prog": source})


class TestBounds:
    def test_units_evict_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(store_module, "UNIT_CAPACITY", 2)
        store = BuildStore()
        for key in ("a", "b"):
            store.put_unit(key, key.upper())
        assert store.get_unit("a") == "A"        # refresh a
        store.put_unit("c", "C")
        assert store.get_unit("b") is None
        assert store.get_unit("a") == "A"
        assert store.get_unit("c") == "C"

    def test_frontends_evict_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(store_module, "FRONTEND_CAPACITY", 1)
        calls = _counting_frontend(monkeypatch)
        store = BuildStore()
        text = "long f(long x) { return x; }\n"
        store.frontend(text, "a")
        store.frontend(text, "b")
        store.frontend(text, "a")
        assert [name for name, _ in calls] == ["a", "b", "a"]


class TestReadThrough:
    def test_disk_backing_serves_and_receives_units(self, source,
                                                    tmp_path):
        disk = open_cache(tmp_path / "cache")
        BuildSession(cache=BuildStore(disk)).build({"prog": source})
        published = disk.entry_count()["units"]
        assert published > 0
        with obs.scoped() as state:
            result = BuildSession(cache=BuildStore(disk)).build(
                {"prog": source})
            counters = state.metrics.snapshot().counters
        assert "build.unit_compiled" not in counters
        assert result.stats["unit_hits"] == published
        assert artifact_digest(result.program) == \
            _digest({"prog": source})

    def test_native_build_uses_the_backing_objects(self, source,
                                                   tmp_path):
        disk = open_cache(tmp_path / "cache")
        store = BuildStore(disk)
        BuildSession(mcfi=False, cache=store).build({"prog": source})
        again = BuildSession(mcfi=False, cache=store).build(
            {"prog": source})
        assert again.stats["object_hits"] == again.stats["objects"]
        assert BuildSession(mcfi=False, cache=BuildStore()).build(
            {"prog": source}).stats["object_hits"] == 0
