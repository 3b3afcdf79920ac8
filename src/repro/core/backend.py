"""Backend selection: the last stage of the IR pipeline.

The compilation pipeline is::

    read -> expand -> core AST -> lower (repro.core.lower) -> backend

Two backends implement the final stage, selectable per Runtime
(``Runtime(backend="interp"|"pyc")``, CLI ``--backend``, REPL ``,backend``):

``interp``
    The closure-compiling tree walk (:mod:`repro.core.compile`): each core
    form compiles, at instantiation time with the namespace in hand, to a
    tree of Python closures. Codegen is charged to the ``closure-compile``
    observe phase, interleaved per form with ``run``.

``pyc``
    The CPython code-object backend (:mod:`repro.core.pyc`): the whole
    module body is translated to Python ``ast`` and ``compile()``d once,
    namespace-independently (charged to ``pyc-codegen``, usually at module
    compile time so the unit persists into the ``.zo`` artifact); at
    instantiation the unit is *linked* against the namespace
    (``pyc-link``) and the resulting per-form functions run.

Both backends share the expander, the core AST, the lower pass, the guard
budgets, and the observe bus; their procedures (:class:`Closure` /
:class:`PyClosure`) interoperate through the same trampoline, so a program
may even mix them across modules.
"""

from __future__ import annotations

from typing import Any

from repro.core.compile import Compiler
from repro.core.lower import module_analysis

BACKENDS = ("interp", "pyc")


def validate_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend: {name!r} (expected one of {', '.join(BACKENDS)})"
        )
    return name


class InterpBackend:
    """Per-form closure compilation interleaved with execution."""

    name = "interp"

    def __init__(self, registry: Any) -> None:
        self.registry = registry

    def instantiate(self, compiled: Any, ns: Any, rec: Any, guard: Any) -> None:
        compiler = Compiler(
            ns,
            inline=self.registry.inline_primitives,
            analysis=module_analysis(compiled),
        )
        path = compiled.path
        if not rec.enabled:
            if guard is None:
                for form in compiled.body.forms:
                    compiler.compile_module_form(form)()
                return
            # governed eval loop: a checkpoint between top-level forms
            # bounds deadline/cancellation latency even for programs that
            # never apply a closure (straight-line module bodies)
            for form in compiled.body.forms:
                guard.checkpoint(path)
                compiler.compile_module_form(form)()
            return
        # traced: keep the compile-then-run interleaving, but charge the
        # closure-compilation and execution of each form to separate spans
        with rec.span("instantiate", path):
            for form in compiled.body.forms:
                if guard is not None:
                    guard.checkpoint(path)
                with rec.span("closure-compile", path):
                    thunk = compiler.compile_module_form(form)
                with rec.span("run", path):
                    thunk()


class PycBackend:
    """Link the module's code-object unit, then run its form functions."""

    name = "pyc"

    def __init__(self, registry: Any) -> None:
        self.registry = registry

    def instantiate(self, compiled: Any, ns: Any, rec: Any, guard: Any) -> None:
        from repro.core.pyc import link_unit

        # normally already generated (module compile time / artifact load);
        # regenerates only when the backend was switched after compilation
        # or the artifact came from a different CPython version
        unit = self.registry.ensure_pyc_unit(compiled)
        path = compiled.path
        if not rec.enabled:
            thunks = link_unit(unit, ns, guard)
            if guard is None:
                for thunk in thunks:
                    thunk()
                return
            for thunk in thunks:
                guard.checkpoint(path)
                thunk()
            return
        with rec.span("instantiate", path):
            with rec.span("pyc-link", path):
                thunks = link_unit(unit, ns, guard)
            for thunk in thunks:
                if guard is not None:
                    guard.checkpoint(path)
                with rec.span("run", path):
                    thunk()


def make_backend(name: str, registry: Any):
    pyc = validate_backend(name) == "pyc"
    return PycBackend(registry) if pyc else InterpBackend(registry)
