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
from typing import Any, Iterable, Iterator, NoReturn, Optional

from repro.core.namespace import Namespace
from repro.diagnostics import CompileResult, Diagnostic
from repro.errors import CompilationFailed, ReproError
from repro.guard.budget import (
    Budget, CancelToken, parse_limit, resolve_budget, use_guard,
)
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
       python -m repro serve [--host H] [--port P] [--backend B] [--cache-dir D] [budget options]
       python -m repro cache [stats|clear|doctor] [--cache-dir D]
       python -m repro langs [--json]
       python -m repro --repl [language] [--backend B]

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

run takes every option below, import-smoke all but --log-optimizations, and
the other commands those on their usage line; any other is an error (exit 2).
options:
  --backend NAME       execution backend: interp (closure trees, default)
                       or pyc (CPython code objects); also $REPRO_BACKEND
  --cache              use the compiled-artifact cache (default)
  --no-cache           compile from source, ignore the cache
  --cache-dir DIR      cache directory (default .repro-cache/ or $REPRO_CACHE_DIR)
  --log-optimizations  report fired + near-miss type specializations on
                       stderr after the run (implies --no-cache)
budget options (each an integer >= 0, --time-limit a finite real >= 0):
  --steps N            evaluation step budget (G001 diagnostic on exhaustion)
  --time-limit SECS    wall-clock evaluation budget (G002 on exhaustion)
  --max-depth N        non-tail recursion depth budget (G003 on exhaustion)

trace writes the trace to stdout (or --out FILE) and the program's own
output to stderr. Tracing a .py driver script installs a process-global
tracer observed by every Runtime the script creates; a .rkt file is run
directly, with the artifact cache off so the whole pipeline is visible.
"""


def _cache_command(opts: Any) -> int:
    """``repro cache stats|clear|doctor`` — inspect or sweep the cache."""
    import sys

    cache = ModuleCache(opts.cache_dir)
    if opts.action == "clear":
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
    if opts.action == "stats":
        entries = cache.entries()
        total = sum(size for _name, size in entries)
        print(f"cache directory: {cache.dir}")
        print(f"artifacts: {len(entries)} ({total} bytes)")
        for name, size in entries:
            print(f"  {name}  {size} bytes")
        return 0
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


def _import_smoke_command(opts: Any) -> int:
    """``repro import-smoke app.rules`` — import a ``#lang`` module through
    the meta-path hook and report provides + counters. Exit 0 on success,
    1 on ImportError (the diagnostic chain is printed)."""
    import importlib
    import sys

    from repro.importer import ReproImportError, install, uninstall

    name = opts.module
    sys.path.insert(0, opts.dir if opts.dir is not None else os.getcwd())
    rt = _runtime(opts)
    install(rt)
    try:
        module = importlib.import_module(name)
    except ImportError as err:
        # a ReproImportError's message names the module and the diagnostics
        why = err if isinstance(err, ReproImportError) else f"cannot import {name}: {err}"
        print(f"error: {why}", file=sys.stderr)
        return 1
    finally:
        uninstall()
        for diag in rt.cache.diagnostics if rt.cache is not None else ():
            print(diag, file=sys.stderr)
        rt.close()  # the counters below outlive the compiled modules
    language = getattr(module, "__language__", None)
    if language is None:
        print(
            f"error: {name} resolved to a plain Python module "
            f"({getattr(module, '__file__', '?')}), not a #lang file",
            file=sys.stderr,
        )
        return 1
    snap = rt.stats
    print(f"imported {name} from {module.__file__} (#lang {language})")
    print(f"provides: {', '.join(module.__provides__) or '(none)'}")
    print(
        f"[import] expansions={snap.expansion_steps} "
        f"codegens={snap.pyc_codegens} cache hits={snap.cache_hits} "
        f"misses={snap.cache_misses} stores={snap.cache_stores}"
    )
    return 0


def _langs_command(opts: Any) -> int:
    """``repro langs`` — list registered languages and dialects."""
    import json

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
    if opts.json:
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


def _trace_command(opts: Any) -> int:
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

    fmt, out, file = opts.format, opts.out, opts.file

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


class _UsageError(Exception):
    """A command line the parser rejects: ``main`` reports it, exit 2."""


def _parsers() -> dict[str, Any]:
    """One parser per command, each taking exactly the options the command
    uses; ``run`` is the default command and ``--repl`` one spelled as an
    option. Each parser sets ``handler``, the function that runs it."""
    import argparse

    from repro.core.backend import BACKENDS

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            raise _UsageError(message)

    def group(*parents: Any) -> Any:
        return Parser(add_help=False, allow_abbrev=False, parents=list(parents))

    def limit(name: str) -> Any:  # the argparse type of a budget flag
        def parse(raw: str) -> Any:
            try:
                return parse_limit(name, raw)
            except ValueError as err:
                raise argparse.ArgumentTypeError(str(err)) from None
        return parse

    common = group()
    common.add_argument("-h", "--help", action="store_true")
    backend = group()
    backend.add_argument("--backend", choices=BACKENDS)
    cache_dir = group()
    cache_dir.add_argument("--cache-dir")
    budget = group()
    for flag, name in (("--steps", "steps"), ("--time-limit", "seconds"),
                       ("--max-depth", "max_depth")):
        budget.add_argument(flag, dest=name, type=limit(name))
    # the Runtime options: everything a command-line Runtime is built from
    runtime = group(backend, cache_dir, budget)
    runtime.add_argument("--cache", action="store_true", default=True)
    runtime.add_argument("--no-cache", dest="cache", action="store_false")

    def command(handler: Any, *parents: Any) -> Any:
        parser = group(common, *parents)
        parser.set_defaults(handler=handler)
        return parser

    run = command(_run_command, runtime)
    run.add_argument("--log-optimizations", action="store_true")
    run.add_argument("file", nargs="?")
    trace = command(_trace_command)
    trace.add_argument("--format", choices=("chrome", "summary", "jsonl"),
                       default="chrome")
    trace.add_argument("--out")
    trace.add_argument("file")
    smoke = command(_import_smoke_command, runtime)
    smoke.add_argument("--dir")
    smoke.add_argument("module")
    serve = command(_serve_command, backend, cache_dir, budget)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8737)
    cache = command(_cache_command, cache_dir)
    cache.add_argument("action", nargs="?", default="stats",
                       choices=("stats", "clear", "doctor"))
    langs = command(_langs_command)
    langs.add_argument("--json", action="store_true")
    repl = command(_repl_command, backend)
    repl.add_argument("--repl", dest="language", nargs="?", const="racket")
    return {"run": run, "trace": trace, "import-smoke": smoke, "serve": serve,
            "cache": cache, "langs": langs, "--repl": repl}


def _budget(opts: Any) -> Optional[dict[str, Any]]:
    """The budget flags given on the command line, as a budget dict."""
    limits = {name: getattr(opts, name) for name in ("steps", "seconds", "max_depth")}
    return {name: value for name, value in limits.items() if value is not None} or None


def _runtime(opts: Any, **overrides: Any) -> Runtime:
    """A Runtime built from the Runtime options."""
    config = dict(cache=opts.cache, cache_dir=opts.cache_dir,
                  backend=opts.backend, budget=_budget(opts))
    return Runtime(**{**config, **overrides})


def _serve_command(opts: Any) -> int:
    from repro.serve import serve_command

    return serve_command(host=opts.host, port=opts.port, backend=opts.backend,
                         cache_dir=opts.cache_dir, budget=_budget(opts))


def _repl_command(opts: Any) -> int:
    from repro.tools.repl import main as repl_main

    return repl_main(opts.language, backend=opts.backend)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: ``python -m repro program.rkt`` runs a ``#lang`` module file;
    ``_USAGE`` lists the other commands. A command names itself first
    (``--repl`` anywhere); anything else is ``run``'s."""
    import sys

    from repro.core.backend import BACKENDS

    args = list(argv if argv is not None else sys.argv[1:])
    parsers = _parsers()
    if any(arg.split("=", 1)[0] == "--repl" for arg in args):
        command = "--repl"
    elif args and args[0] in parsers:
        command = args.pop(0)
    else:
        command = "run"
    try:
        opts, extra = parsers[command].parse_known_args(args)
        if command == "run" and opts.file in parsers:  # `--steps 5 serve`
            raise _UsageError(f"options go after the command: "
                              f"python -m repro {opts.file} [options]")
        if extra:
            kind = "option" if extra[0].startswith("-") else "argument"
            raise _UsageError(f"unknown {kind} {extra[0]}")
        # without --backend, a command's Runtimes take $REPRO_BACKEND: it
        # meets --backend's rule before anything runs, and a command
        # taking --backend gets the backend it resolved
        if not opts.help and getattr(opts, "backend", None) is None:
            env_backend = os.environ.get(ENV_BACKEND)
            if env_backend and env_backend not in BACKENDS:
                raise _UsageError(
                    f"unknown backend {env_backend!r} in ${ENV_BACKEND} "
                    f"(expected one of {', '.join(BACKENDS)})"
                )
            if hasattr(opts, "backend"):
                opts.backend = env_backend or "interp"
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        print(_USAGE.splitlines()[0], file=sys.stderr)
        return 2
    if opts.help:
        print(_USAGE, end="")
        return 0
    return opts.handler(opts)


def _run_command(opts: Any) -> int:
    """``repro [run] file.rkt`` — run a ``#lang`` module file."""
    import sys

    if opts.file is None:
        print(_USAGE, file=sys.stderr)
        return 2
    tracer = Tracer() if opts.log_optimizations else None
    # a cache hit would skip the optimizer — nothing for the coach to see
    rt = _runtime(opts, cache=opts.cache and tracer is None, trace=tracer)
    try:
        path = rt.register_file(opts.file)
        rt.instantiate(path)
    except ReproError as err:
        # a platform error (parse, expansion, type, module, runtime): render
        # the diagnostic report, not a Python traceback
        print(err, file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: cannot read {opts.file}: {err.strerror or err}", file=sys.stderr)
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
