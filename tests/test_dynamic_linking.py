"""Tests for the dynamic linker: the paper's dlopen protocol (Sec. 6)."""

import pytest

from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime
from repro.toolchain import compile_and_link, compile_module
from repro.vm.scheduler import GeneratorTask

MAIN_SOURCE = {"main": """
    int libfn(int x);
    int main(void) {
        long h = dlopen("plugin");
        if (h == 0) { return 99; }
        print_int(libfn(10));          /* via PLT */
        print_char(' ');
        {
            long sym = dlsym(h, "libfn");
            int (*f)(int) = (int (*)(int))sym;
            print_int(f(20));          /* via dlsym'd pointer */
        }
        return 0;
    }
"""}

LIB_SOURCE = "int libfn(int x) { return x * 3 + 1; }"


def make_runtime(verify=False):
    program = compile_and_link(MAIN_SOURCE, mcfi=True,
                               allow_unresolved=["libfn"])
    runtime = Runtime(program)
    linker = DynamicLinker(runtime, verify=verify)
    linker.register("plugin", compile_module(LIB_SOURCE, name="plugin"))
    return runtime, linker


class TestDlopen:
    def test_full_protocol_single_threaded(self):
        runtime, _ = make_runtime(verify=True)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"31 61"
        assert result.exit_code == 0

    def test_unknown_library_returns_zero(self):
        runtime, _ = make_runtime()
        runtime.dynamic_linker.registry.clear()
        result = runtime.run()
        assert result.exit_code == 99

    def test_dlopen_idempotent(self):
        runtime, linker = make_runtime()
        first = linker.dlopen("plugin")
        second = linker.dlopen("plugin")
        assert first == second != 0

    def test_library_code_sealed_after_load(self):
        runtime, linker = make_runtime()
        handle = linker.dlopen("plugin")
        module = linker.loaded[handle].module
        assert runtime.memory.is_executable(module.base)
        assert not runtime.memory.is_writable(module.base)

    def test_wrong_arch_library_rejected(self):
        from repro.errors import LinkError
        runtime, linker = make_runtime()
        lib32 = compile_module(LIB_SOURCE, name="lib32", arch="x32")
        with pytest.raises(LinkError):
            linker.register("plugin32", lib32)

    def test_library_with_unresolved_import_rejected(self):
        from repro.errors import LinkError
        runtime, linker = make_runtime()
        bad = compile_module(
            "int nowhere(int); int libfn2(int x) { return nowhere(x); }",
            name="bad")
        linker.register("bad", bad)
        with pytest.raises(LinkError):
            linker.dlopen("bad")


class TestCfgUpdate:
    def test_cfg_grows_after_dlopen(self):
        runtime, linker = make_runtime()
        before = runtime.cfg.stats()
        linker.dlopen("plugin")
        after = runtime.cfg.stats()
        assert after["IBs"] > before["IBs"]
        assert after["IBTs"] > before["IBTs"]

    def test_table_version_bumped(self):
        runtime, linker = make_runtime()
        assert runtime.id_tables.version == 0
        linker.dlopen("plugin")
        assert runtime.id_tables.version == 1

    def test_got_rewritten_to_library_entry(self):
        runtime, linker = make_runtime()
        handle = linker.dlopen("plugin")
        got = runtime.program.got_slots["libfn"]
        value = int.from_bytes(runtime.memory.host_read(got, 8), "little")
        assert value == linker.loaded[handle].exports["libfn"]

    def test_dlsym_unknown_symbol_returns_zero(self):
        runtime, linker = make_runtime()
        handle = linker.dlopen("plugin")
        assert linker.dlsym(handle, "missing") == 0
        assert linker.dlsym(999, "libfn") == 0

    def test_library_calls_back_into_program(self):
        """lib -> main-program symbol resolution (libc functions)."""
        sources = {"main": """
            long sum3(long a);
            int main(void) {
                long h = dlopen("plugin");
                long sym = dlsym(h, "sum3");
                long (*f)(long) = (long (*)(long))sym;
                print_int(f(5));
                return 0;
            }
        """}
        program = compile_and_link(sources, mcfi=True,
                                   allow_unresolved=["sum3"])
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        lib = compile_module(
            "long sum3(long a) { print_str(\"lib:\"); return a + 3; }",
            name="plugin")
        linker.register("plugin", lib)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"lib:8"


class TestConcurrentDlopen:
    """The headline scenario: one thread dlopens while others run."""

    SOURCE = {"main": """
        int libfn(int x);
        long ticks;
        void spinner(long n) {
            long i;
            for (i = 0; i < n; i++) {
                ticks += classify((int)(i & 7));
                sched_yield();
            }
        }
        int classify(int x) {
            switch (x) {
                case 0: return 1;
                case 1: return 2;
                case 2: return 3;
                case 3: return 4;
                default: return 0;
            }
        }
        int main(void) {
            long h;
            thread_spawn(spinner, 400);
            h = dlopen("plugin");           /* concurrent update */
            if (h == 0) { return 99; }
            print_int(libfn(10));
            return 0;
        }
    """}

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_dlopen_during_execution(self, seed):
        program = compile_and_link(self.SOURCE, mcfi=True,
                                   allow_unresolved=["libfn"])
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        linker.register("plugin", compile_module(LIB_SOURCE,
                                                 name="plugin"))
        result = runtime.run_scheduled(seed=seed, burst=4)
        assert result.ok, result.violation or result.fault
        assert result.output == b"31"
        assert runtime.id_tables.version == 1


class TestPreparedImageReuse:
    """A library is instrumented and assembled on its first dlopen;
    later dlopens re-place that image and still verify it."""

    def _reopen(self, linker):
        handle = linker.dlopen("plugin")
        assert linker.dlclose(handle) == 0
        cursors = (linker._code_cursor, linker._data_cursor,
                   linker._next_site)
        handle = linker.dlopen("plugin")
        assert handle
        return linker.loaded[handle].module, cursors

    def test_reopen_matches_fresh_linker_at_same_cursor(self):
        from repro.obs import scoped
        runtime, linker = make_runtime(verify=True)
        with scoped() as obs:
            reopened, cursors = self._reopen(linker)
            counters = obs.metrics.snapshot().counters
        assert counters["linker.prepares"] == 1
        assert counters["linker.placements"] == 1
        _, fresh = make_runtime(verify=True)
        fresh._code_cursor, fresh._data_cursor, fresh._next_site = cursors
        module = fresh.loaded[fresh.dlopen("plugin")].module
        assert reopened.base == cursors[0]
        assert module == reopened

    def test_every_placed_image_is_verified(self, monkeypatch):
        import repro.core.verifier as verifier
        verified = []
        real = verifier.verify_module
        monkeypatch.setattr(verifier, "verify_module",
                            lambda module: verified.append(module.base)
                            or real(module))
        runtime, linker = make_runtime(verify=True)
        module, _ = self._reopen(linker)
        assert len(verified) == 2
        assert verified[-1] == module.base

    def test_register_replacing_library_drops_memo(self):
        runtime, linker = make_runtime(verify=True)
        linker.dlclose(linker.dlopen("plugin"))
        assert "plugin" in linker._prepared
        linker.register("plugin", compile_module(
            "int libfn(int x) { return x + 1000; }\n"
            "int extra(int x) { return x; }", name="plugin"))
        assert "plugin" not in linker._prepared
        module = linker.loaded[linker.dlopen("plugin")].module
        assert "extra" in module.aux.functions
        assert linker._prepared["plugin"][0] is linker.registry["plugin"]
