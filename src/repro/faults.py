"""Deterministic fault injection (``repro.faults``).

A :class:`FaultPlan` is a seeded schedule of filesystem failures injected
at named call sites inside the platform (currently the compiled-artifact
cache, :mod:`repro.modules.cache`). The chaos suite uses it to prove the
acceptance property of ISSUE 6: every corrupt artifact, torn write,
transient I/O error, or contended lock ends in a structured diagnostic (or
warning) plus a successful recompile — never a crash, hang, or wrong
result.

Call sites are *guarded no-ops*: production code calls
:func:`fault_point` (and :func:`fault_bytes` for payload-garbling sites)
with the plan of the object it serves, which return immediately when that
plan is ``None``. A plan is attached to one cache handle,
``ModuleCache.fault_plan`` (``rt.cache.fault_plan = plan``), never to the
process: two Runtimes in one process inject only their own faults.

Fault kinds
-----------

- ``"fail"`` — raise ``OSError`` (``errno`` configurable). With
  ``times=N`` the site fails N times then behaves — the *transient* error
  shape, for exercising bounded retries.
- ``"garble"`` — corrupt the payload bytes flowing through the site
  (deterministically, from the plan's seed).
- ``"torn"`` — truncate the payload, simulating a partial write/read.
- ``"crash"`` — raise :class:`InjectedCrash`, which deliberately derives
  from ``BaseException`` so ``except Exception`` recovery paths do *not*
  swallow it: the process "dies" at that instant, leaving whatever debris
  a real crash would leave (e.g. a ``.tmp`` file and a stale lock) for
  crash-recovery code (``repro cache doctor``) to clean up.
- ``"delay"`` — sleep ``delay`` seconds, for latency/timeout tests.

Example::

    plan = FaultPlan(seed=7, rules=[
        FaultRule("cache.read", "fail", times=2),       # transient
        FaultRule("cache.write", "garble", times=1),    # corruption
    ])
    rt.cache.fault_plan = plan
    ...exercise the cache...
    assert plan.fired == [("cache.read", "fail"), ...]
"""

from __future__ import annotations

import errno as _errno
import random
import time
from dataclasses import dataclass, field
from typing import Optional


class InjectedCrash(BaseException):
    """A simulated process death at a fault point.

    Derives from ``BaseException`` so that the platform's ``except
    Exception`` degradation paths cannot intercept it — exactly like a real
    ``kill -9`` between two filesystem operations, it skips every cleanup
    handler and leaves the on-disk state torn.
    """


@dataclass
class FaultRule:
    """One injection rule: fire ``kind`` at ``site``, ``times`` times.

    ``site`` matches exactly, or as a prefix when it ends with ``*``
    (``"cache.*"``). ``times=None`` fires forever. ``probability`` draws
    from the plan's seeded RNG, so partial-probability plans are still
    reproducible run-to-run.
    """

    site: str
    kind: str  # fail | garble | torn | crash | delay
    times: Optional[int] = 1
    probability: float = 1.0
    errno: int = _errno.EIO
    delay: float = 0.01

    #: how many times this rule has fired (mutated by the plan)
    fired_count: int = field(default=0, compare=False)

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    def exhausted(self) -> bool:
        return self.times is not None and self.fired_count >= self.times


class FaultPlan:
    """A seeded, ordered collection of :class:`FaultRule`.

    The first non-exhausted matching rule decides each fault point; every
    decision (site, kind) is appended to :attr:`fired` so tests can assert
    the exact fault schedule that ran.
    """

    def __init__(self, seed: int = 0, rules: Optional[list[FaultRule]] = None) -> None:
        self.rules: list[FaultRule] = list(rules or [])
        self._rng = random.Random(seed)
        self.fired: list[tuple[str, str]] = []

    def rule(self, *args, **kwargs) -> "FaultPlan":
        """Append a rule; chainable: ``FaultPlan().rule("cache.read", "fail")``."""
        self.rules.append(FaultRule(*args, **kwargs))
        return self

    def decide(self, site: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.exhausted() or not rule.matches(site):
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired_count += 1
            self.fired.append((site, rule.kind))
            return rule
        return None

    def garble(self, payload: bytes) -> bytes:
        """Deterministically corrupt ``payload`` (flip a run of bytes)."""
        if not payload:
            return b"\xff"
        data = bytearray(payload)
        start = self._rng.randrange(len(data))
        for i in range(start, min(start + 16, len(data))):
            data[i] ^= 0x5A
        return bytes(data)


def fault_point(plan: Optional[FaultPlan], site: str) -> None:
    """Raise/delay here if ``plan`` says so; no-op without a plan."""
    if plan is None:
        return
    rule = plan.decide(site)
    if rule is None:
        return
    _execute(rule, site)


def fault_bytes(plan: Optional[FaultPlan], site: str, payload: bytes) -> bytes:
    """Like :func:`fault_point`, but can also corrupt a byte payload."""
    if plan is None:
        return payload
    rule = plan.decide(site)
    if rule is None:
        return payload
    if rule.kind == "garble":
        return plan.garble(payload)
    if rule.kind == "torn":
        return payload[: max(1, len(payload) // 2)]
    _execute(rule, site)
    return payload


def _execute(rule: FaultRule, site: str) -> None:
    if rule.kind == "fail":
        raise OSError(rule.errno, f"injected fault at {site}")
    if rule.kind == "crash":
        raise InjectedCrash(f"injected crash at {site}")
    if rule.kind == "delay":
        time.sleep(rule.delay)
        return
    if rule.kind in ("garble", "torn"):
        # payload faults only make sense at fault_bytes sites; at a plain
        # fault_point they degrade to a hard failure
        raise OSError(rule.errno, f"injected {rule.kind} fault at {site}")
    raise ValueError(f"unknown fault kind: {rule.kind!r}")
