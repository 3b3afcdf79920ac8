"""The public entry point: a Runtime that compiles and runs ``#lang`` modules.

    from repro import Runtime

    rt = Runtime()
    rt.register_module("m", '#lang racket\\n(displayln (+ 1 2))')
    output = rt.run("m")          # -> "3\\n"
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional

from repro.core.namespace import Namespace
from repro.diagnostics import CompileResult, Diagnostic
from repro.errors import CompilationFailed, ReproError
from repro.guard.budget import Budget, CancelToken, resolve_budget, use_guard
from repro.langs.typed.optimizer import ALL_RULES
from repro.modules.cache import ENV_CACHE_DIR, ModuleCache, default_cache_dir
from repro.modules.instantiate import instantiate_module
from repro.modules.registry import ModuleRegistry
from repro.observe.recorder import Recorder, Tracer, resolve_trace, use_recorder
from repro.runtime.ports import capture_output
from repro.runtime.stats import Stats, use_stats

_ANON = itertools.count()

#: environment variable supplying the default Runtime backend ("interp" or
#: "pyc"); the explicit ``Runtime(backend=...)`` argument wins over it
ENV_BACKEND = "REPRO_BACKEND"


class Runtime:
    """A registry of languages and modules plus a runtime namespace factory.

    ``expansion_fuel`` bounds the number of macro-expansion steps spent per
    compilation (default: ``repro.expander.expander.DEFAULT_FUEL``); runaway
    macros fail with :class:`~repro.errors.ExpansionLimitError` instead of
    exhausting the Python stack.

    ``cache`` / ``cache_dir`` control the persistent compiled-artifact cache
    (:mod:`repro.modules.cache`). By default the library Runtime compiles
    from source every time (hermetic for tests); pass ``cache=True`` to use
    the default directory (``.repro-cache/``, or ``$REPRO_CACHE_DIR``),
    ``cache_dir="..."`` to use a specific one, or ``cache=False`` to force
    it off even when the environment variable is set. The ``repro`` CLI
    enables the cache by default, mirroring Racket's ``compiled/``.

    ``budget`` attaches a resource governor (:mod:`repro.guard`): ``None``
    (default) runs ungoverned at zero overhead; ``True`` attaches a
    :class:`~repro.guard.Budget` with no limits (step counting plus
    cancellation); an ``int`` is a step budget; a ``dict`` passes keyword
    arguments through (``steps``, ``seconds``, ``max_depth``,
    ``allocations``); a :class:`~repro.guard.Budget` instance is used as
    given (shareable across Runtimes for one joint allowance). Exhaustion
    raises :class:`~repro.errors.BudgetExhausted` with a stable ``G`` code;
    ``rt.cancel()`` (or the token at ``rt.cancel_token``, from any thread)
    aborts the in-flight evaluation cooperatively with
    :class:`~repro.errors.EvaluationCancelled`.

    ``trace`` selects the observability recorder (:mod:`repro.observe`):
    ``None`` (default) adopts the recorder active where the Runtime is
    constructed (see :func:`~repro.observe.use_recorder`), otherwise no
    tracing; ``True`` attaches a fresh :class:`Tracer` (phase spans, macro
    steps, optimization-coach events); ``"full"`` additionally renders each
    macro step's input/output syntax (the stepper's expensive mode);
    ``False`` forces tracing off; a :class:`Recorder` instance is used as
    given. The attached recorder is ``rt.tracer``, and every operation of
    the Runtime records to it and nowhere else (``None`` records nothing).

    ``backend`` selects how module bodies execute (see
    :mod:`repro.core.backend`): ``"interp"`` (default) walks closure-compiled
    trees; ``"pyc"`` lowers the core AST to real CPython code objects
    (marshalled into the ``.zo`` artifact, so warm starts skip codegen).
    Defaults to ``$REPRO_BACKEND`` when set. Both backends share the
    expander, guard budgets, contracts, and observe bus, and produce
    identical values, output, and diagnostics.

    ``inline_primitives`` and ``optimizer_rules`` are the compile profile;
    a non-default one is part of the artifact key.
    ``inline_primitives=False`` calls kernel primitives through generic
    application (the ``baseline`` configuration, DESIGN.md §3); an empty
    ``optimizer_rules`` skips the typed optimizer (``typed/no-opt``).

    Each Runtime owns its instrumentation counters (``rt.stats``). Its
    bindings live on its own scopes, so dropping the Runtime frees them;
    ``close()`` (or use as a context manager) drops its compiled modules
    at once.
    """

    def __init__(
        self,
        *,
        expansion_fuel: Optional[int] = None,
        cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        trace: Any = None,
        budget: Any = None,
        backend: Optional[str] = None,
        inline_primitives: bool = True,
        optimizer_rules: Iterable[str] = ALL_RULES,
    ) -> None:
        from repro.core.backend import validate_backend

        self.registry = ModuleRegistry()
        if backend is None:
            backend = os.environ.get(ENV_BACKEND) or "interp"
        self.registry.backend = validate_backend(backend)
        self.registry.inline_primitives = bool(inline_primitives)
        self.registry.optimizer_rules = frozenset(optimizer_rules)
        if expansion_fuel is not None:
            self.registry.expansion_fuel = expansion_fuel
        self.stats = Stats()
        self.budget: Optional[Budget] = resolve_budget(budget)
        self.tracer: Optional[Recorder] = resolve_trace(trace)
        self.cache: Optional[ModuleCache] = None
        if cache is not False:
            resolved = cache_dir or (
                os.environ.get(ENV_CACHE_DIR) if cache is None else None
            )
            if resolved is None and cache is True:
                resolved = default_cache_dir()
            if resolved is not None:
                self.cache = ModuleCache(resolved)
        self.registry.cache = self.cache
        self._install_languages()

    def close(self) -> None:
        """Drop every compiled module, and with them the bindings on their
        scopes. Idempotent; the Runtime must not be used afterwards."""
        for path in list(self.registry.compiled):
            self.registry.evict_module(path)

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _install_languages(self) -> None:
        from repro.langs.count import make_count_language
        from repro.langs.datalog import make_datalog_language
        from repro.langs.infix import make_infix_language
        from repro.langs.lazy import make_lazy_language
        from repro.langs.match_ext import make_match_ext_language
        from repro.langs.racket import make_racket_language
        from repro.langs.simple_type import make_simple_type_language
        from repro.langs.typed import make_typed_language

        make_racket_language(self.registry)
        make_count_language(self.registry)
        make_simple_type_language(self.registry)
        make_typed_language(self.registry)
        make_lazy_language(self.registry)
        make_datalog_language(self.registry)
        make_match_ext_language(self.registry)
        make_infix_language(self.registry)

    @contextmanager
    def _observed(self) -> Iterator[None]:
        """Activate this Runtime's stats, recorder, and budget for one
        operation; governed work is mirrored into ``stats.eval_steps`` /
        ``stats.eval_allocations`` even when the run is killed."""
        with use_stats(self.stats), use_recorder(self.tracer), self._governed():
            yield

    @contextmanager
    def _governed(self) -> Iterator[None]:
        budget = self.budget
        if budget is None:
            yield
            return
        steps_before = budget.steps_used
        allocs_before = budget.allocs_used
        try:
            with use_guard(budget):
                yield
        finally:
            self.stats.eval_steps += budget.steps_used - steps_before
            self.stats.eval_allocations += budget.allocs_used - allocs_before

    # -- cancellation ---------------------------------------------------------

    @property
    def cancel_token(self) -> Optional[CancelToken]:
        """The cooperative cancellation token (None when ungoverned)."""
        return self.budget.cancel if self.budget is not None else None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Abort the in-flight evaluation (callable from any thread).

        The governed evaluator notices at its next checkpoint and raises
        :class:`~repro.errors.EvaluationCancelled`. Requires a budget —
        pass ``budget=True`` for a no-limit, cancellable Runtime.
        """
        if self.budget is None:
            raise ValueError(
                "Runtime has no budget; pass budget=True (or limits) to "
                "make evaluations cancellable"
            )
        self.budget.cancel.cancel(reason)

    # -- module registration -------------------------------------------------

    def register_module(self, path: str, source: str) -> str:
        """Register a module from ``#lang`` source text under ``path``."""
        with self._observed():
            self.registry.register_module_source(path, source)
        return path

    def register_file(self, filename: str) -> str:
        with self._observed():
            return self.registry.register_file(filename)

    # -- compilation / execution ----------------------------------------------

    def compile(self, path: str, *, diagnostics: bool = False) -> Any:
        """Compile a module (and its dependencies); returns the CompiledModule.

        With ``diagnostics=True``, never raises for compilation problems:
        returns a :class:`~repro.diagnostics.CompileResult` whose
        ``diagnostics`` list holds every error the pipeline collected
        (``result.ok`` distinguishes success), and whose ``module`` is the
        CompiledModule on success.
        """
        with self._observed():
            if not diagnostics:
                return self.registry.get_compiled(path)
            try:
                module = self.registry.get_compiled(path)
            except CompilationFailed as err:
                return CompileResult(None, list(err.diagnostics))
            except ReproError as err:
                diagnostic = Diagnostic.from_error(err, self.registry.sources)
                return CompileResult(None, [diagnostic])
            return CompileResult(module, [])

    def compile_graph(
        self,
        paths: list[str],
        *,
        jobs: Optional[int] = None,
    ) -> Any:
        """Compile a module graph in parallel (see
        :func:`repro.modules.graph.compile_graph`): modules go
        dependency-first to a pool of long-lived workers (``jobs=None`` →
        ``os.cpu_count()``), the artifact cache is the coordination point,
        and on return every
        module is compiled in *this* Runtime exactly as if it had compiled
        the graph serially. ``jobs > 1`` requires the cache."""
        with self._observed():
            return self.registry.compile_graph(paths, jobs=jobs)

    def make_namespace(self) -> Namespace:
        return self.registry.make_runtime_namespace()

    def instantiate(self, path: str, ns: Optional[Namespace] = None) -> Namespace:
        """Compile and run a module; returns the namespace it ran in."""
        with self._observed():
            if ns is None:
                ns = self.make_namespace()
            instantiate_module(self.registry, path, ns)
            return ns

    def run(self, path: str, ns: Optional[Namespace] = None) -> str:
        """Compile and run a module, capturing and returning its output."""
        with capture_output() as port:
            self.instantiate(path, ns)
        return port.contents()

    def run_source(self, source: str, path: Optional[str] = None) -> str:
        """Register and run anonymous ``#lang`` source text."""
        if path is None:
            path = f"<program-{next(_ANON)}>"
        self.register_module(path, source)
        return self.run(path)

    def run_file(self, filename: str) -> str:
        return self.run(self.register_file(filename))

    @property
    def backend(self) -> str:
        """The active execution backend (``"interp"`` or ``"pyc"``)."""
        return self.registry.backend


_USAGE = """\
usage: python -m repro [options] <file.rkt>
       python -m repro run [options] <file.rkt>
       python -m repro trace <file.rkt|script.py> [--format chrome|summary|jsonl] [--out FILE]
       python -m repro import-smoke [options] <module.name> [--dir DIR]
       python -m repro serve [--host H] [--port P] [--backend B] [--cache-dir D]
       python -m repro cache stats
       python -m repro cache clear
       python -m repro cache doctor
       python -m repro langs [--json]

langs lists every registered language (with the dialect stack its #lang
line implies) and every registered dialect (with the version folded into
artifact-cache keys); --json emits the machine-readable form
(schema repro-langs/1).

serve runs the long-lived compile-and-eval service (repro.serve): JSON over
HTTP, per-tenant Runtime pools sharing one artifact cache, and per-request
budgets (--steps/--time-limit/--max-depth set the default; each request can
override). POST /run and /compile, GET /healthz and /stats.

import-smoke installs the #lang import hook (repro.importer), imports the
named Python module (resolving registered #lang files such as .rkt), and
reports its provides plus cache/expansion counters — "expansions=0" on a
warm cache proves the import skipped macro expansion entirely. --dir DIR
prepends DIR to sys.path (default: the working directory).

options:
  --backend NAME       execution backend: interp (closure trees, default)
                       or pyc (CPython code objects); also $REPRO_BACKEND
  --cache              use the compiled-artifact cache (default)
  --no-cache           compile from source, ignore the cache
  --cache-dir DIR      cache directory (default .repro-cache/ or $REPRO_CACHE_DIR)
  --log-optimizations  report fired + near-miss type specializations on
                       stderr after the run (implies --no-cache)
  --steps N            evaluation step budget (G001 diagnostic on exhaustion)
  --time-limit SECS    wall-clock evaluation budget (G002 on exhaustion)
  --max-depth N        non-tail recursion depth budget (G003 on exhaustion)

trace writes the trace to stdout (or --out FILE) and the program's own
output to stderr. Tracing a .py driver script installs a process-global
tracer observed by every Runtime the script creates; a .rkt file is run
directly, with the artifact cache off so the whole pipeline is visible.
"""


def _cache_command(args: list[str], cache_dir: Optional[str]) -> int:
    import sys

    cache = ModuleCache(cache_dir)
    sub = args[0] if args else "stats"
    if sub == "clear":
        report = cache.clear()
        parts = [f"{report['artifacts']} artifact(s)"]
        if report["quarantined"]:
            parts.append(f"{report['quarantined']} quarantined file(s)")
        if report["tmp"]:
            parts.append(f"{report['tmp']} torn-write temp file(s)")
        if report["locks"]:
            parts.append(f"{report['locks']} stale lock(s)")
        print(f"removed {', '.join(parts)} from {cache.dir}")
        for problem in report["errors"]:
            print(f"  error: {problem}", file=sys.stderr)
        return 1 if report["errors"] else 0
    if sub == "stats":
        entries = cache.entries()
        total = sum(size for _name, size in entries)
        print(f"cache directory: {cache.dir}")
        print(f"artifacts: {len(entries)} ({total} bytes)")
        for name, size in entries:
            print(f"  {name}  {size} bytes")
        return 0
    if sub == "doctor":
        report = cache.doctor()
        print(f"cache directory: {report['dir']}")
        print(f"artifacts scanned: {report['scanned']} ({report['ok']} ok)")
        for name, magic in report.get("old_version", []):
            print(
                f"  old format {name}: intact artifact from cache version "
                f"{magic!r} (ignored by loads; safe to clear)"
            )
        for name, why, dest in report["quarantined"]:
            print(f"  quarantined {name}: {why} -> {dest}")
        for name in report["tmp_removed"]:
            print(f"  removed torn-write debris {name}")
        for name, pid in report.get("tmp_live", []):
            print(
                f"  in-flight write {name}: writer pid {pid} is alive "
                f"(left alone; doctor is safe to run mid-compile)"
            )
        for name in report["locks_removed"]:
            print(f"  removed stale lock {name}")
        for name, pid in report.get("locks_held", []):
            holder = f"pid {pid}" if pid and pid > 0 else "unknown pid"
            print(f"  lock {name}: held by live {holder} (left alone)")
        for problem in report["errors"]:
            print(f"  error: {problem}")
        if not (
            report.get("old_version")
            or report["quarantined"]
            or report["tmp_removed"]
            or report.get("tmp_live")
            or report["locks_removed"]
            or report.get("locks_held")
            or report["errors"]
        ):
            print("no problems found")
        return 1 if report["errors"] else 0
    print(f"error: unknown cache command: {sub}", file=sys.stderr)
    return 2


def _import_smoke_command(
    args: list[str],
    *,
    use_cache: Optional[bool],
    cache_dir: Optional[str],
    backend: Optional[str],
    budget_limits: dict[str, Any],
) -> int:
    """``repro import-smoke app.rules`` — import a ``#lang`` module through
    the meta-path hook and report provides + counters. Exit 0 on success,
    1 on ImportError (the diagnostic chain is printed)."""
    import importlib
    import sys

    from repro.importer import ReproImportError, install, uninstall

    search_dir: Optional[str] = None
    names: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--dir":
            if i + 1 >= len(args):
                print("error: --dir requires a directory", file=sys.stderr)
                return 2
            i += 1
            search_dir = args[i]
        elif arg.startswith("--dir="):
            search_dir = arg[len("--dir="):]
        else:
            names.append(arg)
        i += 1
    if len(names) != 1:
        print(_USAGE, file=sys.stderr)
        return 2
    sys.path.insert(0, search_dir if search_dir is not None else os.getcwd())
    try:
        rt = Runtime(
            cache=use_cache,
            cache_dir=cache_dir,
            backend=backend,
            budget=budget_limits or None,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    install(rt)
    try:
        module = importlib.import_module(names[0])
    except ReproImportError as err:
        print(f"error: {err}", file=sys.stderr)
        rt.close()
        return 1
    except ImportError as err:
        print(f"error: cannot import {names[0]}: {err}", file=sys.stderr)
        rt.close()
        return 1
    finally:
        uninstall()
        for diag in rt.cache.diagnostics if rt.cache is not None else ():
            print(diag, file=sys.stderr)
    language = getattr(module, "__language__", None)
    if language is None:
        print(
            f"error: {names[0]} resolved to a plain Python module "
            f"({getattr(module, '__file__', '?')}), not a #lang file",
            file=sys.stderr,
        )
        return 1
    snap = rt.stats
    print(f"imported {names[0]} from {module.__file__} (#lang {language})")
    print(f"provides: {', '.join(module.__provides__) or '(none)'}")
    print(
        f"[import] expansions={snap.expansion_steps} "
        f"codegens={snap.pyc_codegens} cache hits={snap.cache_hits} "
        f"misses={snap.cache_misses} stores={snap.cache_stores}"
    )
    rt.close()
    return 0


def _langs_command(args: list[str]) -> int:
    """``repro langs`` — list registered languages and dialects."""
    import json
    import sys

    as_json = False
    for arg in args:
        if arg == "--json":
            as_json = True
        else:
            print(f"error: unknown langs option: {arg}", file=sys.stderr)
            return 2
    rt = Runtime(cache=False)
    try:
        registry = rt.registry
        # keyed by the registered spec (what a #lang line may say), so
        # aliases list once each instead of repeating the Language's name
        languages = [
            {
                "name": spec,
                "dialects": list(lang.dialect_names),
                "exports": len(lang.exports),
            }
            for spec, lang in sorted(registry.languages.items())
        ]
        dialects = [
            {"name": d.name, "version": d.version}
            for _, d in sorted(registry.dialects.items())
        ]
    finally:
        rt.close()
    if as_json:
        print(json.dumps(
            {
                "schema": "repro-langs/1",
                "languages": languages,
                "dialects": dialects,
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print("languages:")
    for entry in languages:
        stack = f" (dialects: {', '.join(entry['dialects'])})" if entry["dialects"] else ""
        print(f"  {entry['name']}  {entry['exports']} exports{stack}")
    print("dialects:")
    if not dialects:
        print("  (none)")
    for entry in dialects:
        print(f"  {entry['name']}  version {entry['version']}")
    return 0


def _trace_command(args: list[str]) -> int:
    """``repro trace file`` — run under a full tracer, emit the trace.

    The trace goes to stdout (or ``--out FILE``); the traced program's own
    output is redirected to stderr so a chrome/jsonl export stays parseable.
    A ``.py`` file is treated as a driver script and run with the tracer
    active, so every Runtime the script builds with the default ``trace``
    records to it; anything else is run as a ``#lang`` module file
    with the artifact cache disabled (a cache hit would skip expansion and
    leave nothing to trace).
    """
    import sys
    from contextlib import redirect_stdout

    from repro.observe.profiler import export as export_trace

    fmt = "chrome"
    out: Optional[str] = None
    files: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--format":
            if i + 1 >= len(args):
                print("error: --format requires a value", file=sys.stderr)
                return 2
            i += 1
            fmt = args[i]
        elif arg.startswith("--format="):
            fmt = arg[len("--format="):]
        elif arg == "--out":
            if i + 1 >= len(args):
                print("error: --out requires a file", file=sys.stderr)
                return 2
            i += 1
            out = args[i]
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
        else:
            files.append(arg)
        i += 1
    if fmt not in ("chrome", "summary", "jsonl"):
        print(f"error: unknown trace format: {fmt} (chrome|summary|jsonl)",
              file=sys.stderr)
        return 2
    if len(files) != 1:
        print(_USAGE, file=sys.stderr)
        return 2
    file = files[0]

    tracer = Tracer(capture_syntax=True)
    if file.endswith(".py"):
        import runpy

        try:
            with use_recorder(tracer), redirect_stdout(sys.stderr):
                runpy.run_path(file, run_name="__main__")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
            if code != 0:
                print(f"error: {file} exited with status {code}", file=sys.stderr)
                return code
        except OSError as err:
            print(f"error: cannot run {file}: {err.strerror or err}", file=sys.stderr)
            return 1
    else:
        rt = Runtime(trace=tracer, cache=False)
        try:
            path = rt.register_file(file)
            output = rt.run(path)
        except ReproError as err:
            print(err, file=sys.stderr)
            return 1
        except OSError as err:
            print(f"error: cannot read {file}: {err.strerror or err}", file=sys.stderr)
            return 1
        finally:
            rt.close()
        if output:
            sys.stderr.write(output)

    text = export_trace(tracer, fmt)
    if out is not None:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
        print(f"wrote {fmt} trace ({len(tracer.events)} events) to {out}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: ``python -m repro program.rkt`` runs a ``#lang`` module file."""
    import sys

    args = list(argv if argv is not None else sys.argv[1:])
    use_cache: Optional[bool] = True  # the CLI mirrors Racket's compiled/
    cache_dir: Optional[str] = None
    backend: Optional[str] = None
    log_optimizations = False
    budget_limits: dict[str, Any] = {}

    def _budget_value(name: str, raw: str, convert: Any) -> bool:
        try:
            value = convert(raw)
        except ValueError:
            print(f"error: {name} requires a number, got {raw!r}", file=sys.stderr)
            return False
        if not 0 < value < float("inf"):
            print(f"error: {name} must be positive and finite", file=sys.stderr)
            return False
        budget_limits[
            {"--steps": "steps", "--time-limit": "seconds",
             "--max-depth": "max_depth"}[name]
        ] = value
        return True

    _BUDGET_FLAGS = {"--steps": int, "--time-limit": float, "--max-depth": int}
    rest: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--cache":
            use_cache = True
        elif arg == "--no-cache":
            use_cache = False
        elif arg == "--cache-dir":
            if i + 1 >= len(args):
                print("error: --cache-dir requires a directory", file=sys.stderr)
                return 2
            i += 1
            cache_dir = args[i]
        elif arg.startswith("--cache-dir="):
            cache_dir = arg[len("--cache-dir="):]
        elif arg == "--backend":
            if i + 1 >= len(args):
                print("error: --backend requires a name", file=sys.stderr)
                return 2
            i += 1
            backend = args[i]
        elif arg.startswith("--backend="):
            backend = arg[len("--backend="):]
        elif arg == "--log-optimizations":
            log_optimizations = True
        elif arg in _BUDGET_FLAGS:
            if i + 1 >= len(args):
                print(f"error: {arg} requires a value", file=sys.stderr)
                return 2
            i += 1
            if not _budget_value(arg, args[i], _BUDGET_FLAGS[arg]):
                return 2
        elif any(arg.startswith(f"{flag}=") for flag in _BUDGET_FLAGS):
            flag, _, raw = arg.partition("=")
            if not _budget_value(flag, raw, _BUDGET_FLAGS[flag]):
                return 2
        else:
            rest.append(arg)
        i += 1

    if rest and rest[0] == "serve":
        from repro.serve import serve_command

        serve_args = rest[1:]
        if backend is not None:
            serve_args = [f"--backend={backend}"] + serve_args
        if cache_dir is not None:
            serve_args = [f"--cache-dir={cache_dir}"] + serve_args
        for key, flag in (("steps", "--steps"), ("seconds", "--time-limit"),
                          ("max_depth", "--max-depth")):
            if key in budget_limits:
                serve_args = [f"{flag}={budget_limits[key]}"] + serve_args
        return serve_command(serve_args)
    if rest and rest[0] == "cache":
        return _cache_command(rest[1:], cache_dir)
    if rest and rest[0] == "langs":
        return _langs_command(rest[1:])
    if rest and rest[0] == "trace":
        return _trace_command(rest[1:])
    if rest and rest[0] == "import-smoke":
        return _import_smoke_command(
            rest[1:],
            use_cache=use_cache,
            cache_dir=cache_dir,
            backend=backend,
            budget_limits=budget_limits,
        )
    if rest and rest[0] == "run":
        rest = rest[1:]

    if "-h" in rest or "--help" in rest:
        print(_USAGE, end="")
        return 0
    unknown = next((arg for arg in rest if arg.startswith("--")), None)
    if unknown is not None:
        print(f"error: unknown option {unknown}", file=sys.stderr)
        print(_USAGE.splitlines()[0], file=sys.stderr)
        return 2
    if not rest:
        print(_USAGE, file=sys.stderr)
        return 2
    tracer: Optional[Tracer] = None
    if log_optimizations:
        # a cache hit would skip the optimizer — nothing for the coach to see
        tracer = Tracer()
        use_cache = False
    try:
        rt = Runtime(
            cache=use_cache,
            cache_dir=cache_dir,
            trace=tracer,
            budget=budget_limits or None,
            backend=backend,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        path = rt.register_file(rest[0])
        rt.instantiate(path)
    except ReproError as err:
        # a platform error (parse, expansion, type, module, runtime): render
        # the diagnostic report, not a Python traceback
        print(err, file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: cannot read {rest[0]}: {err.strerror or err}", file=sys.stderr)
        return 1
    finally:
        if rt.cache is not None:
            for diag in rt.cache.diagnostics:
                print(diag, file=sys.stderr)
        rt.close()
    if tracer is not None:
        from repro.observe.coach import coach_report

        print(coach_report(tracer), file=sys.stderr)
    snap = rt.stats
    if rt.cache is not None and (snap.cache_hits or snap.cache_misses):
        print(
            f"[cache] hits={snap.cache_hits} misses={snap.cache_misses} "
            f"stores={snap.cache_stores} invalidations={snap.cache_invalidations}",
            file=sys.stderr,
        )
    return 0
