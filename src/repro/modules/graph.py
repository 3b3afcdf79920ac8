"""Parallel module-graph compilation.

``compile_graph`` compiles a set of modules (and their dependencies) by
fanning independent modules out across a ``concurrent.futures`` pool. The
content-hashed artifact cache (:mod:`repro.modules.cache`) is the single
coordination point: every worker builds its own Runtime against the shared
cache directory, compiled artifacts land there atomically, and two workers
that race to the same module are reconciled by the cache's writer-claim
protocol (the loser waits for the winner's artifact instead of duplicating
the compile). The scheduler is therefore an *optimization*, not a
correctness mechanism — a module the dependency scan missed is simply
compiled transitively by whichever worker requires it first.

Scheduling: a cheap top-level scan of each module's ``require`` forms
produces a dependency graph; Kahn's algorithm layers it into *waves* of
mutually independent modules, and each wave is chunked across the pool.
The scan is best-effort by design (a macro that expands into a ``require``
is invisible to it) — see the module-graph note above.

``jobs`` alone chooses the path. ``jobs == 1`` compiles serially in the
calling registry (the differential baseline). ``jobs > 1`` runs a
``ProcessPoolExecutor`` (fork start method when the platform offers it,
else spawn): compilation is pure Python, so only processes buy wall-clock
speedup, and the workers coordinate through the cache's cross-process
protocol (PID-stamped lock files). A fork from a threaded caller (the
serve process) is safe because the process-global locks a worker's
Runtime needs are acquired around every fork (see
``repro.syn.binding`` and ``repro.modules.cache``).

Only on-disk modules are dispatched to workers (a worker re-registers the
file by path); in-memory modules (``register_module`` sources) are compiled
in the calling Runtime, since only it holds their source forms.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.modules.registry import ModuleRegistry


class ModuleResult:
    """Outcome of one module's compilation within a graph run."""

    __slots__ = ("path", "status", "seconds", "wave", "error")

    def __init__(
        self,
        path: str,
        status: str,
        seconds: float,
        wave: int,
        error: Optional[str] = None,
    ) -> None:
        self.path = path
        #: "compiled" | "cache-hit" | "failed"
        self.status = status
        self.seconds = seconds
        self.wave = wave
        self.error = error

    def __repr__(self) -> str:
        return f"#<module-result {self.path} {self.status} {self.seconds:.3f}s>"


class GraphReport:
    """What ``compile_graph`` did: per-module outcomes plus the schedule."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.waves: list[list[str]] = []
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
            "waves": [list(w) for w in self.waves],
            "counts": self.counts(),
            "modules": {
                path: {
                    "status": r.status,
                    "seconds": r.seconds,
                    "wave": r.wave,
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
    source = registry.sources.get(path)
    if source is None and os.path.exists(path):
        # an on-disk dependency reached only through the scan: register it
        # so its own requires are visible to the planner
        try:
            registry.register_file(path)
        except (ReproError, OSError):
            return []
        source = registry.sources.get(path)
    if source is None:
        return []
    _lang, forms = source
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


def plan_waves(
    registry: "ModuleRegistry", paths: list[str]
) -> tuple[list[list[str]], dict[str, list[str]]]:
    """Layer the (scanned) dependency graph into waves of independent
    modules — Kahn's algorithm, with deterministic ordering inside each
    wave. Returns ``(waves, deps)`` where ``deps`` maps each discovered
    module to its scanned in-graph dependencies. A scan-visible dependency
    cycle puts its members into one final wave (the compile itself then
    reports M003 with the precise chain)."""
    deps: dict[str, list[str]] = {}
    order: list[str] = []
    stack = list(paths)
    while stack:
        path = stack.pop()
        if path in deps:
            continue
        scanned = scan_requires(registry, path)
        deps[path] = scanned
        order.append(path)
        stack.extend(d for d in scanned if d not in deps)

    remaining = {p: set(d for d in ds if d in deps) for p, ds in deps.items()}
    waves: list[list[str]] = []
    while remaining:
        ready = sorted(p for p, blockers in remaining.items() if not blockers)
        if not ready:
            # cycle: flush the rest in one wave; compilation raises M003
            waves.append(sorted(remaining))
            break
        waves.append(ready)
        for p in ready:
            del remaining[p]
        for blockers in remaining.values():
            blockers.difference_update(ready)
    return waves, deps


# -- the pool worker ---------------------------------------------------------


def _compile_batch(
    paths: list[str],
    cache_dir: str,
    backend: str,
    expansion_fuel: Optional[int],
    inline_primitives: bool,
    optimizer_rules: frozenset[str],
) -> dict[str, tuple[str, float, Optional[str]]]:
    """Compile a batch of on-disk modules into the shared cache.

    Module-level (hence picklable) so it runs in a ProcessPoolExecutor.
    Builds one fresh Runtime per batch — the artifacts it publishes into
    ``cache_dir`` are the result; the Runtime itself is torn down before
    returning.
    """
    from repro.tools.runner import Runtime

    results: dict[str, tuple[str, float, Optional[str]]] = {}
    rt = Runtime(
        cache_dir=cache_dir,
        backend=backend,
        expansion_fuel=expansion_fuel,
        inline_primitives=inline_primitives,
        optimizer_rules=optimizer_rules,
    )
    try:
        for path in paths:
            t0 = time.perf_counter()
            try:
                canon = rt.register_file(path)
                before = rt.stats.cache_misses
                rt.compile(canon)
                status = "compiled" if rt.stats.cache_misses > before else "cache-hit"
                results[path] = (status, time.perf_counter() - t0, None)
            except ReproError as err:
                results[path] = ("failed", time.perf_counter() - t0, str(err))
            except OSError as err:
                results[path] = (
                    "failed",
                    time.perf_counter() - t0,
                    f"cannot read {path}: {err.strerror or err}",
                )
    finally:
        rt.close()
    return results


def _chunk(items: list[str], jobs: int) -> list[list[str]]:
    """Split a wave into at most ``jobs`` contiguous, balanced batches."""
    n = min(jobs, len(items))
    if n <= 0:
        return []
    size, extra = divmod(len(items), n)
    out: list[list[str]] = []
    start = 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def _make_executor(jobs: int) -> Any:
    import concurrent.futures
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        ctx = multiprocessing.get_context("spawn")
    return concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)


# -- the driver --------------------------------------------------------------


def compile_graph(
    registry: "ModuleRegistry",
    paths: list[str],
    *,
    jobs: Optional[int] = None,
) -> GraphReport:
    """Compile ``paths`` (and their dependencies), fanning independent
    modules across a worker pool; see the module docstring for the model.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` compiles serially in
    the calling registry (the differential baseline); ``jobs > 1`` compiles
    on a process pool and requires an artifact cache — it is the only
    channel through which workers hand their results back. After the fan-out the calling registry cache-loads
    every artifact, so on return the modules are compiled *in this
    registry* exactly as if it had done all the work itself.
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
        waves, _deps = plan_waves(registry, resolved)
    report = GraphReport(jobs)
    report.waves = waves

    def _serial_compile(path: str, wave_no: int) -> None:
        t0 = time.perf_counter()
        try:
            before = (
                registry.compiled.get(path) is not None
                or _has_artifact(registry, path)
            )
            registry.get_compiled(path)
            status = "cache-hit" if before else "compiled"
            report.results[path] = ModuleResult(
                path, status, time.perf_counter() - t0, wave_no
            )
        except ReproError as err:
            report.results[path] = ModuleResult(
                path, "failed", time.perf_counter() - t0, wave_no, str(err)
            )

    if jobs == 1:
        for wave_no, wave in enumerate(waves):
            for path in wave:
                _serial_compile(path, wave_no)
        report.seconds = time.perf_counter() - t_start
        return report

    import concurrent.futures

    executor = _make_executor(jobs)
    try:
        for wave_no, wave in enumerate(waves):
            disk = [p for p in wave if os.path.exists(p)]
            local = [p for p in wave if p not in disk]
            # in-memory modules: only this registry holds their forms
            for path in local:
                _serial_compile(path, wave_no)
            if not disk:
                continue
            with rec.span("graph", f"wave {wave_no} ({len(disk)} modules)"):
                futures = {
                    executor.submit(
                        _compile_batch,
                        batch,
                        registry.cache.dir,
                        registry.backend,
                        registry.expansion_fuel,
                        registry.inline_primitives,
                        registry.optimizer_rules,
                    ): batch
                    for batch in _chunk(disk, jobs)
                }
                for future in concurrent.futures.as_completed(futures):
                    batch = futures[future]
                    try:
                        outcomes = future.result()
                    except BaseException as err:  # worker died (crash, kill)
                        for path in batch:
                            report.results[path] = ModuleResult(
                                path, "failed", 0.0, wave_no,
                                f"worker failed: {err}",
                            )
                        continue
                    for path, (status, seconds, error) in outcomes.items():
                        report.results[path] = ModuleResult(
                            path, status, seconds, wave_no, error
                        )
    finally:
        executor.shutdown(wait=True)

    # adopt the workers' artifacts: cache-load every successfully compiled
    # module into *this* registry (deps first — get_compiled recurses, so
    # plain topo order suffices)
    with rec.span("graph", "adopt artifacts"):
        for wave_no, wave in enumerate(waves):
            for path in wave:
                result = report.results.get(path)
                if result is None or result.status == "failed":
                    continue
                if registry.compiled.get(path) is not None:
                    continue
                try:
                    registry.get_compiled(path)
                except ReproError as err:
                    report.results[path] = ModuleResult(
                        path, "failed", result.seconds, wave_no, str(err)
                    )
    report.seconds = time.perf_counter() - t_start
    return report


def _has_artifact(registry: "ModuleRegistry", path: str) -> bool:
    """Whether the cache already holds an artifact for ``path`` (used only
    to label serial results compiled vs cache-hit)."""
    cache = registry.cache
    if cache is None:
        return False
    try:
        lang, _forms = registry.sources[path]
        file = cache.artifact_path(
            path, registry.cache_lang_key(lang), registry.source_hash(path)
        )
    except (KeyError, OSError, ReproError):
        return False
    return os.path.exists(file)
