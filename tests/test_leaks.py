"""Regression tests for global-state leaks across Runtime lifetimes.

Every Runtime once leaked its languages' export tables into the global
binding TABLE (~4k entries per Runtime), and all Runtimes once shared one
mutable counter singleton. These tests pin the fixes.
"""

from __future__ import annotations

import gc

from repro import Runtime
from repro.runtime.numerics import generic_add
from repro.syn.binding import TABLE

SOURCE = """#lang racket
(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))
(twice (displayln "hi"))
"""


class TestBindingTableReclamation:
    def test_entry_count_flat_across_fresh_runtimes(self):
        """The ISSUE's leak: N fresh Runtimes must not grow the table."""
        gc.collect()  # flush finalizers of earlier tests' Runtimes first
        counts = []
        for _ in range(5):
            with Runtime() as rt:
                rt.register_module("m", SOURCE)
                rt.run("m")
            counts.append(TABLE.entry_count())
        assert len(set(counts)) == 1, f"table grew across Runtimes: {counts}"

    def test_close_reclaims_entries(self):
        gc.collect()
        before = TABLE.entry_count()
        rt = Runtime()
        rt.register_module("m", SOURCE)
        rt.run("m")
        assert TABLE.entry_count() > before
        reclaimed = rt.close()
        assert reclaimed > 0
        assert TABLE.entry_count() == before

    def test_close_is_idempotent(self):
        rt = Runtime()
        assert rt.close() > 0
        assert rt.close() == 0

    def test_garbage_collected_runtime_reclaims_entries(self):
        gc.collect()
        before = TABLE.entry_count()
        rt = Runtime()
        rt.register_module("m", SOURCE)
        rt.run("m")
        del rt
        gc.collect()
        assert TABLE.entry_count() == before

    def test_reregistering_module_does_not_stack_bindings(self):
        gc.collect()
        with Runtime() as rt:
            rt.register_module("m", SOURCE)
            rt.run("m")
            baseline = TABLE.entry_count()
            for _ in range(3):
                rt.register_module("m", SOURCE)
                rt.run("m")
                assert TABLE.entry_count() == baseline


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
