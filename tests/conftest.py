"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import itertools
import os
import sys
import weakref

import pytest

from repro import Runtime
from repro.expander.env import ExpandContext
from repro.syn.scopes import Scope

_COUNTER = itertools.count()


@pytest.fixture()
def rt() -> Runtime:
    """A fresh Runtime per test (languages, registry, namespaces)."""
    return Runtime()


@pytest.fixture()
def run(rt: Runtime):
    """Run ``#lang`` source and return its captured output."""

    def runner(source: str) -> str:
        return rt.run_source(source, path=f"<test-{next(_COUNTER)}>")

    return runner


def live_binding_count() -> int:
    """Bindings stored on every scope still alive in the process, after a
    full collection: the process-wide leak metric."""
    gc.collect()
    return sum(
        len(entries)
        for obj in gc.get_objects()
        if type(obj) is Scope and obj.bindings
        for entries in obj.bindings.values()
    )


@pytest.fixture()
def live_bindings():
    """The :func:`live_binding_count` probe."""
    return live_binding_count


@pytest.fixture()
def module_scopes(monkeypatch):
    """Weak references to the module scope of every compile started while
    the fixture is active."""
    refs: list[weakref.ref] = []
    init = ExpandContext.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self.module_scope))

    monkeypatch.setattr(ExpandContext, "__init__", recording_init)
    return refs


@pytest.fixture(scope="session")
def figure_cell():
    """Run a figure 6-9 program under one configuration on one backend and
    return its :class:`~benchmarks.harness.BenchResult`. Each cell runs
    once per session, untimed, however many tests read it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)  # benchmarks/ is a top-level package
    from benchmarks.harness import Harness

    harnesses = {backend: Harness(backend=backend) for backend in ("interp", "pyc")}
    results: dict = {}

    def run(backend: str, program, config: str):
        key = (backend, program.name, config)
        if key not in results:
            results[key] = harnesses[backend].run(program, config)
        return results[key]

    return run
