"""First-class ``import`` of ``#lang`` modules: the ``sys.meta_path`` hook.

The paper's thesis is that languages are libraries of the host; this module
makes the host's own module system agree. After :func:`install` (or
``import repro.activate``), ``import myapp.rules`` resolves
``myapp/rules.rkt`` — any file whose suffix is registered with the hook —
through the ordinary pipeline: the registry canonicalizes the path, the
compiled-artifact cache supplies a ``.zo`` on warm starts (zero macro
expansions, zero codegen), and the selected backend instantiates the module
body into a namespace shared by every imported ``#lang`` module, so a
``require`` between two ``.rkt`` files and a Python ``import`` of both see
one module instance.

Design points:

- **The hook never shadows Python.** The finder is *appended* to
  ``sys.meta_path``, after the interpreter's own ``PathFinder``; a ``.py``
  module with the same name always wins.
- **Provides become module attributes.** Exported values land in the
  Python module's namespace verbatim (Scheme names like ``make-adder``
  are reachable via ``getattr``) plus an underscore alias
  (``mod.make_adder``); a PEP 562 ``__getattr__`` resolves late or
  renamed exports and explains macro-only exports.
- **Procedures are Python callables.** Exported procedures are wrapped in
  :class:`ImportedProcedure`: calling one routes through the platform's
  trampoline under the owning Runtime's stats, tracer, and budget.
- **Failures are ImportErrors.** ``Diagnostic``-carrying platform errors
  chain into :class:`ReproImportError` (an ``ImportError`` subclass) with
  the stable R/E/T/M/C/G code, srcloc, and diagnostics preserved — both
  on the exception object and via ``__cause__``.
- **Budgets bound hostile modules.** ``install(budget=...)`` resolves a
  *fresh* :class:`~repro.guard.Budget` per import, so a config module with
  an infinite top-level loop dies with a ``G``-coded ImportError instead
  of hanging the importing service.
- **Concurrency is safe.** Python's import machinery serializes per
  module; the context additionally holds one runtime lock around
  registry/namespace mutation (two *different* modules importing on two
  threads share one Runtime), and cross-process cache writes serialize on
  the cache's per-artifact fcntl locks.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import importlib.util
import os
import sys
import threading
from typing import Any, Iterable, Optional

from repro.errors import CompilationFailed, ReproError
from repro.guard.budget import resolve_budget, use_guard
from repro.modules.registry import canonical_path
from repro.observe.recorder import NULL_RECORDER

#: file suffixes the finder recognizes as ``#lang`` modules, by default
DEFAULT_SUFFIXES = (".rkt",)

_DASH_TRANS = str.maketrans({"-": "_", "?": "_p", "!": "_bang", "*": "_star",
                             ">": "_gt", "<": "_lt", "=": "_eq", "/": "_", "%": "_"})


def python_name(name: str) -> str:
    """A Python-identifier-friendly alias for a Scheme export name."""
    return name.translate(_DASH_TRANS)


class ReproImportError(ImportError):
    """An ImportError carrying the platform diagnostic that caused it.

    ``code`` is the stable diagnostic code (``R004``, ``E002``, ``T001``,
    ``M002``, ``G001``, ...; ``X100`` for a multi-error compilation),
    ``srcloc`` the offending source location when one is known, and
    ``diagnostics`` every :class:`~repro.diagnostics.Diagnostic` the
    pipeline collected. The original exception is ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        name: Optional[str] = None,
        path: Optional[str] = None,
        code: Optional[str] = None,
        srcloc: Any = None,
        diagnostics: Optional[list] = None,
    ) -> None:
        super().__init__(message, name=name, path=path)
        self.code = code
        self.srcloc = srcloc
        self.diagnostics = diagnostics if diagnostics is not None else []


class ImportedProcedure:
    """A Python-callable adapter around an exported object-language procedure.

    Calls run through the platform trampoline under the importing
    Runtime's stats/tracer/budget, so embedded calls stay governed and
    observable. Python ``list``/``tuple`` arguments convert to object
    lists; everything else passes through (ints, floats, strings, and
    booleans are shared representations).
    """

    __slots__ = ("proc", "_context", "__name__")

    def __init__(self, proc: Any, context: "ImportContext") -> None:
        self.proc = proc
        self._context = context
        self.__name__ = python_name(getattr(proc, "name", "procedure"))

    def __call__(self, *args: Any) -> Any:
        return self._context.call(self.proc, args)

    def __repr__(self) -> str:
        return f"#<imported-procedure {getattr(self.proc, 'name', '?')}>"


def _to_repro(value: Any) -> Any:
    from repro.runtime.values import from_list

    if isinstance(value, (list, tuple)):
        return from_list([_to_repro(item) for item in value])
    return value


class ImportContext:
    """The shared state behind one installed hook: a Runtime, a namespace,
    the suffix list, and the per-import budget specification."""

    def __init__(
        self,
        runtime: Any = None,
        *,
        suffixes: Iterable[str] = DEFAULT_SUFFIXES,
        budget: Any = None,
        cache: Any = None,
        cache_dir: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.suffixes = tuple(suffixes)
        #: budget *specification* (anything ``resolve_budget`` accepts);
        #: resolved to a fresh Budget per import so one import's
        #: consumption never starves the next
        self.budget = budget
        self._runtime = runtime
        self._runtime_opts = {
            "cache": True if cache is None else cache,
            "cache_dir": cache_dir,
            "backend": backend,
        }
        self._ns: Any = None
        #: serializes registry + namespace mutation across importing
        #: threads (Python's import system already locks per module name;
        #: this covers two *different* modules importing concurrently)
        self._lock = threading.RLock()

    @property
    def runtime(self) -> Any:
        """The Runtime imports compile and run under (created lazily).

        The default enables the artifact cache — imports are the
        production-deployment path, and warm imports must load marshalled
        ``.zo`` code instead of re-expanding.
        """
        with self._lock:
            if self._runtime is None:
                from repro.tools.runner import Runtime

                self._runtime = Runtime(**self._runtime_opts)
            return self._runtime

    @property
    def namespace(self) -> Any:
        """One namespace shared by every imported module, so ``require``
        graphs and Python imports agree on module instances."""
        with self._lock:
            if self._ns is None:
                self._ns = self.runtime.make_namespace()
            return self._ns

    # -- execution ----------------------------------------------------------

    def call(self, proc: Any, args: Iterable[Any]) -> Any:
        """Apply an exported procedure under the Runtime's observation.

        A procedure *result* (a curried/constructor return) is wrapped
        again, so higher-order exports stay callable from Python.
        """
        from repro.core.interp import apply_procedure

        rt = self.runtime
        with rt._observed():
            result = apply_procedure(proc, [_to_repro(a) for a in args])
        return self._wrap(result)

    def exec_module(self, module: Any, filename: str) -> None:
        """Compile, instantiate, and bind ``filename`` into ``module``."""
        fullname = module.__name__
        rt = self.runtime
        budget = resolve_budget(self.budget)
        rec = rt.tracer if rt.tracer is not None else NULL_RECORDER
        with self._lock:
            before = rt.stats.cache_hits
            try:
                with rec.span(
                    "import", fullname, attrs={"file": filename}
                ), use_guard(budget):
                    path = rt.register_file(filename)
                    with rt._observed():
                        compiled = rt.registry.get_compiled(path)
                    rt.instantiate(path, self.namespace)
            except FileNotFoundError as err:
                raise ModuleNotFoundError(
                    f"import {fullname}: {filename} disappeared during import",
                    name=fullname,
                ) from err
            except (CompilationFailed, ReproError) as err:
                if rec.enabled:
                    rec.instant(
                        "import", "error",
                        attrs={"module": fullname,
                               "code": getattr(err, "code", None)},
                    )
                raise _as_import_error(
                    fullname, filename, err, rt.registry.sources
                ) from err
            if rec.enabled:
                rec.instant(
                    "import",
                    "warm" if rt.stats.cache_hits > before else "cold",
                    attrs={"module": fullname, "language": compiled.language},
                )
        self._bind(module, compiled, path, filename)

    # -- binding provides ---------------------------------------------------

    def _bind(self, module: Any, compiled: Any, path: str, filename: str) -> None:
        ns = self.namespace
        bound: dict[str, Any] = {}
        for name, export in compiled.exports.items():
            if export.transformer is not None:
                continue  # a Python-implemented macro: compile-time only
            if not ns.has(export.binding):
                continue  # macro or late export: resolved by __getattr__
            value = ns.lookup(export.binding)
            bound[name] = self._wrap(value)
        module.__dict__.update(bound)
        for name, value in bound.items():
            alias = python_name(name)
            if alias != name and alias not in compiled.exports:
                module.__dict__.setdefault(alias, value)
        module.__dict__["__language__"] = compiled.language
        module.__dict__["__provides__"] = sorted(compiled.exports)
        module.__dict__["__repro__"] = self
        module.__dict__["__getattr__"] = self._late_getattr(
            module, compiled, path
        )

    def _wrap(self, value: Any) -> Any:
        from repro.runtime.values import Procedure

        if isinstance(value, Procedure):
            return ImportedProcedure(value, self)
        return value

    def _late_getattr(self, module: Any, compiled: Any, path: str) -> Any:
        """A PEP 562 module ``__getattr__``: late and renamed exports."""

        def __getattr__(name: str) -> Any:
            export = compiled.exports.get(name)
            if export is None:
                # mod.make_adder for a provide named make-adder
                for provided, candidate in compiled.exports.items():
                    if python_name(provided) == name:
                        export = candidate
                        break
            if export is not None and export.transformer is None:
                ns = self.namespace
                if ns.has(export.binding):
                    value = self._wrap(ns.lookup(export.binding))
                    module.__dict__[name] = value
                    return value
                raise AttributeError(
                    f"module {module.__name__!r} provides "
                    f"{export.name!r} as a macro (or a not-yet-defined "
                    f"value); it has no run-time value to import"
                )
            raise AttributeError(
                f"module {module.__name__!r} ({path}) has no attribute "
                f"{name!r}; provides: {', '.join(sorted(compiled.exports))}"
            )

        return __getattr__


def _as_import_error(
    fullname: str, filename: str, err: BaseException, sources: Any
) -> ReproImportError:
    """Translate a platform error into an ImportError preserving the
    stable diagnostic code(s) and source location; ``sources`` (the
    registry's) supplies a lone error's excerpt line."""
    if isinstance(err, CompilationFailed):
        diagnostics = list(err.diagnostics)
        codes = sorted(
            {d.code for d in diagnostics if d.severity == "error"}
        ) or [err.code]
        srcloc = next(
            (d.srcloc for d in diagnostics if d.srcloc is not None), None
        )
        n = sum(1 for d in diagnostics if d.severity == "error")
        message = (
            f"cannot import {fullname} ({filename}): compilation failed "
            f"with {n} error(s) [{', '.join(codes)}]\n{err}"
        )
        code = codes[0]
    else:
        from repro.diagnostics.diagnostic import Diagnostic

        diagnostics = [Diagnostic.from_error(err, sources)]
        code = getattr(err, "code", None) or "X001"
        srcloc = getattr(err, "srcloc", None)
        message = f"cannot import {fullname} ({filename}): [{code}] {err}"
    return ReproImportError(
        message,
        name=fullname,
        path=filename,
        code=code,
        srcloc=srcloc,
        diagnostics=diagnostics,
    )


class ReproLoader(importlib.abc.Loader):
    """Loads one ``#lang`` file as a Python module via an ImportContext."""

    def __init__(self, fullname: str, path: str, context: ImportContext) -> None:
        self._fullname = fullname
        self.path = path
        self.context = context

    def create_module(self, spec: Any) -> None:
        return None  # default module creation semantics

    def get_filename(self, fullname: str) -> str:
        return self.path

    def exec_module(self, module: Any) -> None:
        self.context.exec_module(module, self.path)

    def __repr__(self) -> str:
        return f"#<repro-loader {self.path}>"


class ReproFinder(importlib.abc.MetaPathFinder):
    """Resolves dotted module names to ``#lang`` files on the search path.

    Top-level names search ``sys.path``; submodules search their parent
    package's ``__path__`` (the standard protocol), so ``#lang`` files
    inside ordinary Python packages import with no extra configuration.
    """

    def __init__(self, context: ImportContext) -> None:
        self.context = context

    def find_spec(
        self, fullname: str, path: Any = None, target: Any = None
    ) -> Optional[importlib.machinery.ModuleSpec]:
        tail = fullname.rpartition(".")[2]
        entries = sys.path if path is None else path
        for entry in entries:
            if not isinstance(entry, str):
                continue
            base = entry or os.getcwd()
            for suffix in self.context.suffixes:
                candidate = os.path.join(base, tail + suffix)
                if os.path.isfile(candidate):
                    candidate = canonical_path(candidate)
                    loader = ReproLoader(fullname, candidate, self.context)
                    return importlib.util.spec_from_file_location(
                        fullname, candidate, loader=loader
                    )
        return None

    def invalidate_caches(self) -> None:
        pass


#: the currently installed finder (one per process), or None
_INSTALLED: list[Optional[ReproFinder]] = [None]


def install(
    runtime: Any = None,
    *,
    suffixes: Iterable[str] = DEFAULT_SUFFIXES,
    budget: Any = None,
    cache: Any = None,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> ReproFinder:
    """Install the ``#lang`` import hook; returns the finder.

    - ``runtime`` — the :class:`~repro.Runtime` imports run under; by
      default one is created lazily with the artifact cache *enabled*
      (``cache``/``cache_dir``/``backend`` configure it, mirroring the
      Runtime constructor; they are ignored when ``runtime`` is given).
    - ``suffixes`` — file suffixes recognized as ``#lang`` modules.
    - ``budget`` — per-import resource budget specification (anything
      ``Runtime(budget=...)`` accepts); resolved fresh per import.

    Installing again replaces the previous hook (its runtime and namespace
    are discarded). The finder is appended to ``sys.meta_path`` after the
    standard finders, so genuine Python modules always take precedence.
    """
    uninstall()
    context = ImportContext(
        runtime,
        suffixes=suffixes,
        budget=budget,
        cache=cache,
        cache_dir=cache_dir,
        backend=backend,
    )
    finder = ReproFinder(context)
    sys.meta_path.append(finder)
    _INSTALLED[0] = finder
    return finder


def uninstall() -> bool:
    """Remove the installed hook (if any); returns whether one was removed.

    Modules already imported stay in ``sys.modules``; this only stops new
    ``#lang`` files from being found.
    """
    finder = _INSTALLED[0]
    _INSTALLED[0] = None
    if finder is None:
        return False
    from contextlib import suppress

    with suppress(ValueError):
        sys.meta_path.remove(finder)
    return True


def installed() -> Optional[ReproFinder]:
    """The active finder, or None."""
    return _INSTALLED[0]
