"""The four workloads.

A *cell* is one (program, configuration) pair, one module, or one request
class. Batch workloads (``figures-interp``, ``figures-pyc``,
``compile-cold``) run one op per cell per pass, in a seeded shuffled order;
``serve-mixed`` runs a fixed schedule of requests per pass from one
closed-loop client. Every workload passes the backend and the cache choice
to the program explicitly and talks to it only through ``Runtime(...)``,
``register_module``/``compile``/``make_namespace``/``instantiate``,
``rt.stats.snapshot()``, ``capture_output`` and ``ReproServer`` over HTTP.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import shutil
import time
from typing import Any, Callable, Iterator, Optional

from inputs import (
    FIGURE_PROGRAMS,
    LANG_MODULES,
    SERVE_BUDGET,
    SERVE_WARM,
    Module,
    big_module,
    serve_cold,
)
from reference import REFERENCE_S, reference_seconds
from repro import Runtime
from repro.runtime.ports import capture_output
from repro.serve import ReproServer
from spans import Spans

CONFIGS = ("untyped", "typed/opt")

#: ``rt.stats.snapshot()`` counters that must repeat exactly every pass
STAT_COUNTERS = (
    "generic_dispatches", "tag_checks", "unsafe_ops", "contract_checks",
    "expansion_steps", "cache_hits", "cache_misses", "cache_stores",
    "pyc_codegens",
)

# -- cells and inner repeat counts --------------------------------------------
#
# k is the number of instantiates one op runs back to back, fixed per cell so
# that no op is shorter than ~15 ms on the pyc backend; it is part of the
# workload definition and is never calibrated at run time.

#: figures-interp: at least one program per figure, plus the paper's headline
#: (pseudoknot) and the closure-heavy cpstak; about 3 s per pass
INTERP_PROGRAMS = (
    "cpstak", "fib",                 # figure 6
    "fannkuch", "mandelbrot",        # figure 7
    "pseudoknot",                    # figure 8
    "fft", "raytrace",               # figure 9
)
INTERP_K: dict[tuple[str, str], int] = {}  # every cell is over 30 ms

#: figures-pyc: all 19 programs; k for the cells under ~15 ms per instantiate
PYC_PROGRAMS = tuple(FIGURE_PROGRAMS)
PYC_K: dict[tuple[str, str], int] = {
    ("ack", "untyped"): 100, ("ack", "typed/opt"): 100,
    ("fib", "untyped"): 4, ("fib", "typed/opt"): 5,
    ("nqueens", "untyped"): 6, ("nqueens", "typed/opt"): 8,
    ("tak", "untyped"): 2, ("tak", "typed/opt"): 4,
    ("nsieve", "untyped"): 2, ("nsieve", "typed/opt"): 4,
    ("fannkuch", "untyped"): 2, ("fannkuch", "typed/opt"): 2,
    ("mandelbrot", "typed/opt"): 3, ("raytrace", "typed/opt"): 3,
    ("diviter", "typed/opt"): 2, ("sumloop", "typed/opt"): 2,
}

#: serve-mixed: one pass of the schedule, by request class
SERVE_WARM_PER_VARIANT = 17   # 6 variants -> 102 warm requests (85%)
SERVE_COLD_PER_PASS = 12      # 10%
SERVE_BUDGET_PER_PASS = 6     # 5%
SERVE_TENANTS = ("t0", "t1", "t2")
#: the step budget a budget request sends; the spin program needs more
SERVE_BUDGET_STEPS = 5

#: reference loops whose median scales one op (see ``Samples``)
SCALE_WINDOW = 5


class OpFailed(Exception):
    """An op produced wrong output, diagnostics, or no artifact."""


class Samples:
    """What one timed phase measured, at the reference speed.

    A pass's raw times are held until the pass ends. Each op is then scaled
    by the speed of the machine around it: ``REFERENCE_S`` over the median
    of the ``SCALE_WINDOW`` reference loops run nearest to it (every
    workload runs one between consecutive ops, because the host's speed
    changes within a second; every pass starts and ends with a few).
    """

    def __init__(self) -> None:
        #: cell -> seconds per unit of work (one instantiate, compile, request)
        self.times: dict[str, list[float]] = {}
        #: the same, unscaled wall seconds
        self.wall_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: per pass: wall seconds and speed scale of the whole pass, and the
        #: sum of its recorded ops' seconds (scaled, then unscaled)
        self.walls: list[float] = []
        self.scales: list[float] = []
        self.op_sums: list[float] = []
        self.raw_op_sums: list[float] = []
        #: per pass: deterministic counter deltas
        self.counts: list[dict[str, int]] = []
        #: this pass's ops as (cell, seconds, references run before it)
        self._ops: list[tuple[str, float, int]] = []
        self._references: list[float] = []

    def reference(self) -> None:
        """Run one reference loop and keep its time for this pass."""
        self._references.append(reference_seconds())

    def record(self, cell: str, seconds: float) -> None:
        self.attempted += 1
        self._ops.append((cell, seconds, len(self._references)))

    def fail(self, cell: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{cell}: {why}")

    def end_pass(self, wall: float) -> None:
        """Scale the pass's times to the reference speed and keep them."""
        refs = self._references
        half = SCALE_WINDOW // 2
        op_sum = raw_op_sum = 0.0
        for cell, seconds, before in self._ops:
            lo = max(0, min(before - half, len(refs) - SCALE_WINDOW))
            scaled = seconds * _scale(refs[lo:lo + SCALE_WINDOW])
            self.times.setdefault(cell, []).append(scaled)
            self.wall_times.setdefault(cell, []).append(seconds)
            op_sum += scaled
            raw_op_sum += seconds
        scale = _scale(refs)
        self.walls.append(wall * scale)
        self.scales.append(scale)
        self.op_sums.append(op_sum)
        self.raw_op_sums.append(raw_op_sum)
        self._ops, self._references = [], []


def _scale(references: list[float]) -> float:
    ordered = sorted(references)
    return REFERENCE_S / ordered[len(ordered) // 2]


class Workload:
    """Set-up, one pass, teardown, and the deterministic counters."""

    #: how ``pass_s`` is formed: "sum" of per-cell medians, or "ops": the
    #: median over passes of the sum of a pass's op times
    pass_metric = "sum"

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        #: the span recorder of a traced phase; batch ops name themselves to it
        self.spans: Optional[Spans] = None

    def setup(self) -> Iterator[None]:
        """Set up, yielding between steps; measure.py times each step and
        runs a reference loop between them."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def run_pass(self, rng: random.Random, samples: Samples) -> None:
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Cumulative deterministic counters (per-pass deltas must repeat)."""
        raise NotImplementedError


class BatchWorkload(Workload):
    """One op per cell per pass, in a seeded shuffled order."""

    cells: tuple[str, ...] = ()

    def op(self, cell: str) -> float:
        """Run one op; return seconds per unit of work, raise OpFailed."""
        raise NotImplementedError

    def run_pass(self, rng: random.Random, samples: Samples) -> None:
        order = list(self.cells)
        rng.shuffle(order)
        for cell in order:
            if self.spans is not None:
                self.spans.op = cell
            try:
                seconds = self.op(cell)
            except Exception as err:  # one failed op must not end the run
                samples.fail(cell, f"{type(err).__name__}: {err}")
            else:
                samples.record(cell, seconds)
            gc.collect()
            samples.reference()


def _stat_counts(runtimes: list[Runtime]) -> dict[str, int]:
    totals = dict.fromkeys(STAT_COUNTERS, 0)
    for rt in runtimes:
        snap = rt.stats.snapshot()
        for key in STAT_COUNTERS:
            totals[key] += snap.get(key, 0)
    return totals


# -- figures-interp / figures-pyc ---------------------------------------------

class FiguresWorkload(BatchWorkload):
    """Run compiled figure programs; one op = k instantiates."""

    def __init__(self, workdir: str, *, backend: str,
                 programs: tuple[str, ...], k: dict[tuple[str, str], int]) -> None:
        super().__init__(workdir)
        self.backend = backend
        self.cell_keys = {
            f"{p}:{c}": (p, c) for p in programs for c in CONFIGS
        }
        self.cells = tuple(self.cell_keys)
        self.k = {cell: k.get(key, 1) for cell, key in self.cell_keys.items()}
        self.runtimes: dict[str, Runtime] = {}

    def setup(self) -> Iterator[None]:
        # one Runtime per configuration, not one per cell
        for config in CONFIGS:
            self.runtimes[config] = Runtime(
                backend=self.backend, cache=False, trace=False
            )
            yield
        for cell, (program, config) in self.cell_keys.items():
            rt = self.runtimes[config]
            rt.register_module(cell, FIGURE_PROGRAMS[program].source(config))
            result = rt.compile(cell, diagnostics=True)
            if not result.ok:
                raise OpFailed(f"{cell} does not compile: {result.diagnostics}")
            yield

    def close(self) -> None:
        for rt in self.runtimes.values():
            rt.close()
        self.runtimes = {}

    def op(self, cell: str) -> float:
        program, config = self.cell_keys[cell]
        rt = self.runtimes[config]
        k = self.k[cell]
        namespaces = [rt.make_namespace() for _ in range(k)]
        outputs = []
        start = time.perf_counter()
        for ns in namespaces:
            with capture_output() as port:
                rt.instantiate(cell, ns)
            outputs.append(port.contents())
        seconds = (time.perf_counter() - start) / k
        expected = FIGURE_PROGRAMS[program].expected
        for out in outputs:
            if out != expected:
                raise OpFailed(f"printed {out!r}, expected {expected!r}")
        return seconds

    def counts(self) -> dict[str, int]:
        return _stat_counts(list(self.runtimes.values()))


# -- compile-cold -------------------------------------------------------------

class CompileColdWorkload(BatchWorkload):
    """Register each module under a fresh path, compile it with the pyc
    backend and store its artifact; the module and its artifact are removed
    after the op, outside the timer."""

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        modules: dict[str, str] = {}
        for name, program in FIGURE_PROGRAMS.items():
            for config in CONFIGS:
                modules[f"{name}:{config}"] = program.source(config)
        for name, module in LANG_MODULES.items():
            modules[name] = module.source
        big = big_module()
        modules[big.name] = big.source
        self.sources = modules
        self.cells = tuple(modules)
        self.rt: Optional[Runtime] = None
        self.cache_dir = ""
        self.serial = 0
        self.artifact_bytes = 0
        self._setups = 0

    def setup(self) -> Iterator[None]:
        self.cache_dir = os.path.join(self.workdir, f"cold-cache-{self._setups}")
        self._setups += 1
        os.makedirs(self.cache_dir)
        self.rt = Runtime(backend="pyc", cache_dir=self.cache_dir, trace=False)
        yield

    def close(self) -> None:
        if self.rt is not None:
            self.rt.close()
            self.rt = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self, cell: str) -> float:
        rt = self.rt
        # a fixed-width serial keeps every path of a cell the same length,
        # so the artifact's bytes repeat exactly from pass to pass
        path = f"<cold:{self.serial:07d}:{cell}>"
        self.serial += 1
        before = set(os.listdir(self.cache_dir))
        start = time.perf_counter()
        rt.register_module(path, self.sources[cell])
        result = rt.compile(path, diagnostics=True)
        seconds = time.perf_counter() - start
        written = set(os.listdir(self.cache_dir)) - before
        sizes = [
            os.path.getsize(os.path.join(self.cache_dir, name)) for name in written
        ]
        # No public surface unregisters a module, so this drops it the way
        # ReproServer.handle drops a request's module; with the evict call
        # alone, every op's read forms stay registered and memory grows with
        # the number of passes
        rt.registry.evict_module(path)
        rt.registry.sources.pop(path, None)
        rt.registry._source_hashes.pop(path, None)
        for name in written:
            os.remove(os.path.join(self.cache_dir, name))
        if not result.ok or result.diagnostics:
            raise OpFailed(f"diagnostics: {[str(d) for d in result.diagnostics]}")
        if not any(name.endswith(".zo") for name in written):
            raise OpFailed("no artifact written")
        self.artifact_bytes += sum(sizes)
        return seconds

    def counts(self) -> dict[str, int]:
        totals = _stat_counts([self.rt] if self.rt is not None else [])
        totals["artifact_bytes"] = self.artifact_bytes
        return totals


# -- serve-mixed --------------------------------------------------------------

def _http_call(address: tuple[str, int], method: str, path: str,
               body: Optional[dict] = None) -> tuple[float, dict]:
    """One request on its own connection; returns (seconds, reply).

    The connection is closed after the reply, as a one-shot client such as
    curl does. (On a kept-alive connection each reply stalls ~40 ms, because
    the server writes its headers and its body in two sends.)
    """
    headers = {"Connection": "close"}
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    start = time.perf_counter()
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request(method, path, body=data, headers=headers)
        raw = conn.getresponse().read()
    finally:
        conn.close()
    return time.perf_counter() - start, json.loads(raw)


class ServeWorkload(Workload):
    """A real ReproServer on an ephemeral port, three tenants, and one
    closed-loop client working through a fixed, shuffled schedule."""

    pass_metric = "ops"

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.server: Optional[ReproServer] = None
        self.address = ("", 0)
        self.cache_dir = ""
        self.cold_serial = 0
        self.reply_counts = dict.fromkeys(
            ("expansion_steps", "cache_hits", "cache_misses", "cache_stores",
             "pyc_codegens"), 0)
        self._setups = 0

    def setup(self) -> Iterator[None]:
        self.cache_dir = os.path.join(self.workdir, f"serve-cache-{self._setups}")
        self._setups += 1
        os.makedirs(self.cache_dir)
        self.server = ReproServer(
            cache_dir=self.cache_dir, backend="pyc", trace=False
        )
        self.address = self.server.start()
        yield
        # store every warm variant's artifact (and the budget program's)
        for i, module in enumerate((*SERVE_WARM, SERVE_BUDGET)):
            _, body, expected = _request(module, SERVE_TENANTS[i % len(SERVE_TENANTS)])
            _, reply = _http_call(self.address, "POST", "/run", body)
            problem = _check_reply(reply, expected)
            if problem:
                raise OpFailed(f"set-up request {module.name}: {problem}")
            yield

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def schedule(self, rng: random.Random) -> list[tuple[str, dict, str]]:
        modules: list[Module] = []
        for module in SERVE_WARM:
            modules.extend([module] * SERVE_WARM_PER_VARIANT)
        modules.extend([SERVE_BUDGET] * SERVE_BUDGET_PER_PASS)
        for _ in range(SERVE_COLD_PER_PASS):
            # a fixed-width constant: every cold source has the same length
            modules.append(serve_cold(10_000_000 + self.cold_serial))
            self.cold_serial += 1
        rng.shuffle(modules)
        return [_request(m, rng.choice(SERVE_TENANTS)) for m in modules]

    def run_pass(self, rng: random.Random, samples: Samples) -> None:
        for cell, body, expected in self.schedule(rng):
            try:
                seconds, reply = _http_call(self.address, "POST", "/run", body)
            except (OSError, http.client.HTTPException, ValueError) as err:
                samples.fail(cell, f"{type(err).__name__}: {err}")
                continue
            for key in self.reply_counts:
                self.reply_counts[key] += reply.get("stats", {}).get(key, 0)
            problem = _check_reply(reply, expected)
            if problem:
                samples.fail(cell, problem)
            else:
                samples.record(cell, seconds)
            gc.collect()
            samples.reference()

    def counts(self) -> dict[str, int]:
        totals = dict(self.reply_counts)
        _, stats = _http_call(self.address, "GET", "/stats")
        totals["budget_kills"] = stats.get("budget_kills", {}).get("G001", 0)
        runtimes = stats.get("runtimes", {})
        totals["pool_created"] = runtimes.get("created", 0)
        totals["pool_reused"] = runtimes.get("reused", 0)
        return totals


def _request(module: Module, tenant: str) -> tuple[str, dict, str]:
    """(cell, request body, expected output or "G001") for one /run."""
    body: dict[str, Any] = {"source": module.source, "tenant": tenant}
    if module is SERVE_BUDGET:
        body["budget"] = {"steps": SERVE_BUDGET_STEPS}
    return module.name, body, module.expected


def _check_reply(reply: dict, expected: str) -> str:
    """Why the reply does not match its expected envelope ('' if it does)."""
    if expected == "G001":
        code = reply.get("error", {}).get("code")
        if reply.get("ok") is False and code == "G001":
            return ""
        return f"expected a G001 reply, got {reply!r:.200}"
    if reply.get("ok") is True and reply.get("output") == expected:
        return ""
    return f"expected output {expected!r}, got {reply!r:.200}"


WORKLOADS: dict[str, Callable[[str], Workload]] = {
    "figures-interp": lambda workdir: FiguresWorkload(
        workdir, backend="interp", programs=INTERP_PROGRAMS, k=INTERP_K),
    "figures-pyc": lambda workdir: FiguresWorkload(
        workdir, backend="pyc", programs=PYC_PROGRAMS, k=PYC_K),
    "compile-cold": CompileColdWorkload,
    "serve-mixed": ServeWorkload,
}
