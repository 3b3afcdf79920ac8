"""Regression tests for global-state leaks across Runtime lifetimes.

Every Runtime once leaked its languages' export tables into a process-global
binding table (~4k entries per Runtime), and all Runtimes once shared one
mutable counter singleton. Bindings now live on scopes; these tests pin that
a binding lives exactly as long as the syntax (and Runtime) that can reach
its scope.
"""

from __future__ import annotations

import gc

from benchmarks.programs import ALL_PROGRAMS
from repro import Runtime
from repro.runtime.numerics import generic_add

SOURCE = """#lang racket
(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))
(twice (displayln "hi"))
"""


class TestBindingTableReclamation:
    def test_entry_count_flat_across_fresh_runtimes(self, live_bindings):
        """N fresh Runtimes must not grow the bindings alive in the process."""
        counts = []
        for _ in range(5):
            with Runtime() as rt:
                rt.register_module("m", SOURCE)
                rt.run("m")
            del rt
            counts.append(live_bindings())
        assert len(set(counts)) == 1, f"bindings grew across Runtimes: {counts}"

    def test_close_reclaims_entries(self, live_bindings):
        before = live_bindings()
        rt = Runtime()
        languages_only = live_bindings()
        rt.register_module("m", SOURCE)
        rt.run("m")
        assert live_bindings() > languages_only
        rt.close()
        assert live_bindings() == languages_only
        del rt
        assert live_bindings() == before

    def test_close_is_idempotent(self, live_bindings):
        rt = Runtime()
        rt.register_module("m", SOURCE)
        rt.run("m")
        rt.close()
        after_close = live_bindings()
        rt.close()
        assert live_bindings() == after_close
        assert rt.registry.compiled == {}

    def test_garbage_collected_runtime_reclaims_entries(self, live_bindings):
        before = live_bindings()
        rt = Runtime()
        rt.register_module("m", SOURCE)
        rt.run("m")
        del rt
        assert live_bindings() == before

    def test_reregistering_module_does_not_stack_bindings(self, live_bindings):
        with Runtime() as rt:
            rt.register_module("m", SOURCE)
            rt.run("m")
            baseline = live_bindings()
            for _ in range(3):
                rt.register_module("m", SOURCE)
                rt.run("m")
                assert live_bindings() == baseline

    def test_unregistered_module_scopes_die_without_the_collector(
        self, module_scopes
    ):
        """Compile and unregister 20 figure modules with the cyclic collector
        off: refcounting alone frees every module scope, so nothing in the
        Runtime keeps one (and no binding keeps its own scope) alive."""
        sources = [
            (f"{program.name}-{config}", f"#lang {lang}\n{text}")
            for program in ALL_PROGRAMS[:10]
            for config, lang, text in (
                ("untyped", "racket", program.untyped),
                ("typed", "typed", program.typed),
            )
        ]
        with Runtime() as rt:
            gc.collect()
            gc.disable()
            try:
                for path, source in sources:
                    rt.register_module(path, source)
                    rt.compile(path)
                    rt.registry.unregister(path)
                alive = [ref for ref in module_scopes if ref() is not None]
            finally:
                gc.enable()
        assert len(module_scopes) == len(sources)
        assert alive == []


class TestPerRuntimeStats:
    def test_counters_do_not_bleed_between_runtimes(self):
        rt1 = Runtime()
        rt1.register_module("m", SOURCE)
        rt1.run("m")
        steps1 = rt1.stats.expansion_steps
        assert steps1 > 0

        rt2 = Runtime()
        assert rt2.stats.expansion_steps == 0
        rt2.register_module("m", "#lang racket\n(displayln 1)\n")
        rt2.run("m")
        assert rt1.stats.expansion_steps == steps1  # untouched by rt2
        rt1.close()
        rt2.close()

    def test_work_outside_an_operation_reaches_no_runtime(self):
        """A primitive called outside any Runtime operation is charged to
        neither Runtime, whichever was created last."""
        a = Runtime()
        b = Runtime()
        generic_add(1, 2)
        assert a.stats.generic_dispatches == 0
        assert b.stats.generic_dispatches == 0
        a.close()
        b.close()
