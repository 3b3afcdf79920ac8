"""Parallel module-graph compilation.

``compile_graph`` compiles a set of modules (and their dependencies) by
spreading them over a ``concurrent.futures`` process pool. The
content-hashed artifact cache (:mod:`repro.modules.cache`) is the single
coordination point: every worker compiles in its own Runtime against the
shared cache directory, compiled artifacts land there atomically, and a
worker that reaches a module another worker is still compiling waits for
that winner's artifact through the cache's writer-claim protocol instead of
duplicating the compile. The order modules are handed out in is therefore
an *optimization*, not a correctness mechanism — a module the dependency
scan missed is simply compiled transitively by whichever worker requires it
first.

Order: a cheap top-level scan of each module's ``require`` forms produces a
dependency graph, and a depth-first post-order over it puts every module
after the modules it requires. The scan is best-effort by design (a macro
that expands into a ``require`` is invisible to it).

``jobs`` alone chooses the path. ``jobs == 1`` compiles serially in the
calling registry, in that order (the differential baseline). ``jobs > 1``
runs a ``ProcessPoolExecutor`` of at most ``min(jobs, on-disk modules)``
workers (fork start method when the platform offers it, else spawn):
compilation is pure Python, so only processes buy wall-clock speedup. Each
on-disk module is one task, submitted dependency-first, with no barrier
between tasks. Each worker builds one Runtime when it starts and keeps it
for the whole call, so the modules it compiled stay in memory for the later
tasks that require them. A fork from a threaded caller (the serve process)
is safe because the process-global locks a worker's Runtime needs are
acquired around every fork (see ``repro.syn.binding`` and
``repro.modules.cache``).

The calling registry compiles what the pool does not take, after the pool:
in-memory modules (``register_module`` sources), since only it holds their
source text, and every module on or above a scan-visible require cycle —
two workers each holding one cycle member's writer claim would wait on
each other until the cache's winner timeout, while one registry reports the
cycle as M003 at once. The same pass cache-loads every module the workers
compiled into the calling registry.
"""

from __future__ import annotations

import os
import sys
import time
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ReproError
from repro.reader import lang_line
from repro.runtime.stats import current_stats, use_stats

if TYPE_CHECKING:
    from repro.modules.registry import ModuleRegistry


class ModuleResult:
    """Outcome of one module's compilation within a graph run."""

    __slots__ = ("path", "status", "seconds", "error")

    def __init__(
        self,
        path: str,
        status: str,
        seconds: float,
        error: Optional[str] = None,
    ) -> None:
        self.path = path
        #: "compiled" | "cache-hit" | "failed"
        self.status = status
        self.seconds = seconds
        self.error = error

    def __repr__(self) -> str:
        return f"#<module-result {self.path} {self.status} {self.seconds:.3f}s>"


class GraphReport:
    """What ``compile_graph`` did: per-module outcomes, dependency-first."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.results: dict[str, ModuleResult] = {}
        self.seconds = 0.0

    @property
    def mode(self) -> str:
        """``"serial"`` for ``jobs == 1``, else ``"process"``."""
        return "process" if self.jobs > 1 else "serial"

    @property
    def ok(self) -> bool:
        return all(r.status != "failed" for r in self.results.values())

    @property
    def errors(self) -> dict[str, str]:
        return {
            path: r.error or "compilation failed"
            for path, r in self.results.items()
            if r.status == "failed"
        }

    def counts(self) -> dict[str, int]:
        out = {"compiled": 0, "cache-hit": 0, "failed": 0}
        for r in self.results.values():
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def snapshot(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "mode": self.mode,
            "seconds": self.seconds,
            "counts": self.counts(),
            "modules": {
                path: {
                    "status": r.status,
                    "seconds": r.seconds,
                    **({"error": r.error} if r.error else {}),
                }
                for path, r in self.results.items()
            },
        }

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"#<graph-report jobs={self.jobs} mode={self.mode} "
            f"compiled={c['compiled']} cache-hit={c['cache-hit']} "
            f"failed={c['failed']} {self.seconds:.3f}s>"
        )


# -- dependency scan ---------------------------------------------------------

_WRAPPERS = ("only-in", "rename-in", "only")


def _spec_module_name(spec: Any) -> Optional[str]:
    """The module name of one require spec, or None when it isn't literal."""
    e = spec.e
    if isinstance(e, tuple) and e and e[0].is_identifier() and e[0].e.name in _WRAPPERS:
        if len(e) < 2:
            return None
        e = e[1].e
    if isinstance(e, str):
        return e
    # a symbol spec names a registered module path verbatim
    from repro.runtime.values import Symbol

    if isinstance(e, Symbol):
        return e.name
    return None


def scan_requires(registry: "ModuleRegistry", path: str) -> list[str]:
    """Best-effort top-level ``require`` scan of a registered module.

    Resolves each literal require spec against the registry; specs that
    cannot be resolved (or requires produced by macro expansion) are
    silently skipped — the compile itself discovers and compiles them.
    """
    text = registry.sources.get(path)
    if text is None and os.path.exists(path):
        # an on-disk dependency reached only through the scan: register it
        # so its own requires are visible to the planner
        try:
            registry.register_file(path)
        except OSError:
            return []
        text = registry.sources.get(path)
    if text is None:
        return []
    # registration stores text only, so the scan reads it here; the
    # module's compile reads it again (DESIGN §5a)
    try:
        _lang, forms = lang_line.read_module_source(text, path)
    except ReproError:
        return []
    deps: list[str] = []
    for form in forms:
        e = form.e
        if not (isinstance(e, tuple) and e and e[0].is_identifier()):
            continue
        if e[0].e.name != "require":
            continue
        for spec in e[1:]:
            name = _spec_module_name(spec)
            if name is None:
                continue
            try:
                dep = registry.resolve_module_path(name, relative_to=path)
            except ReproError:
                continue
            if dep != path and dep not in deps:
                deps.append(dep)
    return deps


def plan_order(
    registry: "ModuleRegistry", paths: list[str]
) -> tuple[list[str], set[str]]:
    """Order the (scanned) dependency graph dependency-first: a depth-first
    post-order, so every module comes after the modules it requires.
    Returns ``(order, cyclic)``, where ``cyclic`` holds every module on a
    scan-visible require cycle or requiring one; compiling any of them
    reports M003 with the precise chain."""
    order: list[str] = []
    seen: set[str] = set()
    open_: set[str] = set()
    cyclic: set[str] = set()

    def visit(path: str) -> None:
        seen.add(path)
        open_.add(path)
        for dep in scan_requires(registry, path):
            if dep not in seen:
                visit(dep)
            if dep in open_ or dep in cyclic:
                cyclic.add(path)
        open_.discard(path)
        order.append(path)

    for path in paths:
        if path not in seen:
            visit(path)
    return order, cyclic


def _compile_one(registry: "ModuleRegistry", path: str) -> ModuleResult:
    """Compile ``path`` in ``registry``, labelled from the counters the
    compile bumps: a cache miss means the module was compiled here, no miss
    means it was cache-loaded or already held. Without a cache, a module
    the registry did not already hold was compiled."""
    stats = current_stats()
    t0 = time.perf_counter()
    held = path in registry.compiled
    misses = stats.cache_misses
    try:
        registry.get_compiled(path)
    except ReproError as err:
        return ModuleResult(path, "failed", time.perf_counter() - t0, str(err))
    except OSError as err:
        return ModuleResult(
            path, "failed", time.perf_counter() - t0,
            f"cannot read {path}: {err.strerror or err}",
        )
    if registry.cache is not None:
        compiled = stats.cache_misses > misses
    else:
        compiled = not held
    return ModuleResult(
        path, "compiled" if compiled else "cache-hit", time.perf_counter() - t0
    )


# -- the pool worker ---------------------------------------------------------

#: this pool worker's Runtime, built once by :func:`_start_worker`
_WORKER: Any = None


def _start_worker(
    cache_dir: str,
    backend: str,
    expansion_fuel: Optional[int],
    inline_primitives: bool,
    optimizer_rules: frozenset[str],
) -> None:
    """Pool initializer: build the one Runtime this worker compiles in for
    the whole ``compile_graph`` call, with the caller's compile profile."""
    from repro.tools.runner import Runtime

    global _WORKER
    _WORKER = Runtime(
        cache_dir=cache_dir,
        backend=backend,
        expansion_fuel=expansion_fuel,
        inline_primitives=inline_primitives,
        optimizer_rules=optimizer_rules,
    )


def _compile_in_worker(path: str) -> ModuleResult:
    """Pool task (module-level, hence picklable): compile one on-disk
    module in this worker's Runtime. The artifact it publishes into the
    shared cache is the result; the modules it compiled stay in the
    Runtime for the later tasks that require them."""
    # re-intern the unpickled path: module paths must be the one interned
    # object the registry uses, or the artifact bytes differ (see
    # ``canonical_path``)
    with use_stats(_WORKER.stats):
        return _compile_one(_WORKER.registry, sys.intern(path))


def _run_pool(
    registry: "ModuleRegistry", paths: list[str], jobs: int, report: GraphReport
) -> None:
    """Compile ``paths`` (on-disk, dependency-first) on a process pool of at
    most ``jobs`` workers, one task per module and no barrier between them."""
    import concurrent.futures
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        ctx = multiprocessing.get_context("spawn")
    profile = (
        registry.cache.dir,
        registry.backend,
        registry.expansion_fuel,
        registry.inline_primitives,
        registry.optimizer_rules,
    )
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(paths)),
        mp_context=ctx,
        initializer=_start_worker,
        initargs=profile,
    ) as pool:
        futures = {pool.submit(_compile_in_worker, path): path for path in paths}
        for future in concurrent.futures.as_completed(futures):
            path = futures[future]
            try:
                report.results[path] = future.result()
            except Exception as err:  # worker died (crash, kill)
                report.results[path] = ModuleResult(
                    path, "failed", 0.0, f"worker failed: {err}"
                )


# -- the driver --------------------------------------------------------------


def compile_graph(
    registry: "ModuleRegistry",
    paths: list[str],
    *,
    jobs: Optional[int] = None,
) -> GraphReport:
    """Compile ``paths`` (and their dependencies), spreading on-disk modules
    over a worker pool; see the module docstring for the model.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` compiles serially in
    the calling registry (the differential baseline); ``jobs > 1`` compiles
    on a process pool and requires an artifact cache — it is the only
    channel through which workers hand their results back. After the pool
    the calling registry cache-loads every artifact, so on return the
    modules are compiled *in this registry* exactly as if it had done all
    the work itself.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"compile_graph: jobs must be >= 1, got {jobs}")
    if jobs > 1 and registry.cache is None:
        raise ValueError(
            "compile_graph: jobs > 1 requires an artifact cache "
            "(workers publish their results through it); build the "
            "Runtime with cache=True or cache_dir=..."
        )

    from repro.observe.recorder import current_recorder

    rec = current_recorder()
    t_start = time.perf_counter()

    # canonicalize: on-disk spellings register under their canonical path
    resolved: list[str] = []
    for p in paths:
        canon = registry.register_file(p) if os.path.exists(p) else p
        if canon not in resolved:
            resolved.append(canon)

    with rec.span("graph", f"plan {len(resolved)} roots"):
        order, cyclic = plan_order(registry, resolved)
    report = GraphReport(jobs)

    if jobs > 1:
        pooled = [p for p in order if p not in cyclic and os.path.exists(p)]
        if pooled:
            with rec.span("graph", f"pool {len(pooled)} modules"):
                _run_pool(registry, pooled, jobs, report)

    # the calling registry, deps first: cache-load what the pool compiled,
    # compile the rest (in-memory and cycle modules; everything for jobs=1)
    with rec.span("graph", f"compile {len(order)} modules in the caller"):
        for path in order:
            pooled_result = report.results.get(path)
            if pooled_result is not None and pooled_result.status == "failed":
                continue
            result = _compile_one(registry, path)
            if pooled_result is None or result.status == "failed":
                report.results[path] = result
    report.results = {path: report.results[path] for path in order}
    report.seconds = time.perf_counter() - t_start
    return report
