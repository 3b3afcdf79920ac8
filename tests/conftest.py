"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import itertools
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
