"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro import Runtime

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
