"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the speed of the same code drifts by up to 2x over tens
of seconds (other tenants' load on the shared cores and caches), so wall
times taken minutes apart are not comparable. The benchmark therefore runs
this loop next to every timed op (between consecutive ops of a batch
workload, before and after each pass, before and after each set-up) and
reports times *at the reference speed*::

    reported = wall * REFERENCE_S / reference_wall

The loop runs in a helper interpreter of its own (this file run as a
script), one loop per request, while the benchmark waits for the answer.
So it never shares a heap, an allocator or a collector with the program
under test: a program change that grows or fragments the heap slows the
program's ops but not the loop, and shows at its full size. (Run inside the
benchmark's process, the loop slowed by ~20% next to a program that kept a
large structure alive, hiding part of that program's slowdown; see
README.md in this directory.)

The loop uses only Python built-ins. It mixes what an interpreter's work
is made of: recursive calls, method calls on small objects, allocation,
dict and list traffic, sorting and string building, and a random walk over
a 1.6 MB array. Measured against program ops on a shared host, each part
alone tracks some ops and misses others (its time moves 0.75x to 1.25x as
much as theirs); the mix tracks all of them.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from array import array
from typing import Optional

#: the loop's duration at the reference speed: its median on a shared
#: 2-vCPU x86_64 guest at 2.1 GHz running CPython 3.11
REFERENCE_S = 0.003

_order = list(range(200_000))
random.Random(1).shuffle(_order)
_WALK = array("l", _order)
del _order


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next: "_Node | None") -> None:
        self.value = value
        self.next = next


class _Account:
    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a + x) & 0xFFFF


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _loop() -> int:
    # allocation, dict traffic and a random walk over memory
    node = None
    for i in range(1500):
        node = _Node(i, node)
    table: dict[int, _Node] = {}
    total = 0
    while node is not None:
        table[node.value & 1023] = node
        total += node.value
        node = node.next
    walk = _WALK
    index = 0
    for _ in range(4000):
        index = walk[index]
    # recursive calls
    total += _fib(14)
    # method calls on small objects
    accounts = [_Account(i, i + 1) for i in range(1000)]
    for account in accounts:
        total = account.step(total)
    # grouping, sorting and string building
    items = [(i * 7919) % 1000 for i in range(2000)]
    groups: dict[int, list] = {}
    for i, x in enumerate(items):
        groups.setdefault(x, []).append({"k": i, "v": str(x)})
    total += len(",".join(str(v) for v in sorted(items)[:700]))
    return total + index


def _loop_seconds() -> float:
    """Wall seconds of one reference loop in this process (collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


_helper: Optional[subprocess.Popen] = None


def reference_seconds() -> float:
    """Wall seconds of one reference loop, run in the helper interpreter
    (started on the first call)."""
    global _helper
    if _helper is None:
        _helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
    _helper.stdin.write(b"\n")
    return float(_helper.stdout.readline())


def stop_helper() -> None:
    """End the helper interpreter and wait for it."""
    global _helper
    if _helper is not None:
        _helper.stdin.close()
        _helper.wait(timeout=30)
        _helper.stdout.close()
        _helper = None


def _serve() -> None:
    """The helper: one loop per line on stdin, its seconds on stdout."""
    gc.collect()
    gc.freeze()
    for _ in sys.stdin.buffer:
        sys.stdout.write(f"{_loop_seconds()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
