"""Backend selection: the last stage of the IR pipeline.

The compilation pipeline is::

    read -> expand -> core AST -> lower (repro.core.lower) -> backend

Two backends implement the final stage, selectable per Runtime
(``Runtime(backend="interp"|"pyc")``, CLI ``--backend``, REPL ``,backend``):

``interp``
    The closure-compiling tree walk (:mod:`repro.core.compile`): each core
    form compiles, at instantiation time with the namespace in hand, to a
    tree of Python closures. Codegen is charged to the ``closure-compile``
    observe phase, before any form runs.

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

from typing import Any, Callable

from repro.core.compile import Compiler
from repro.core.lower import module_analysis

BACKENDS = ("interp", "pyc")


def validate_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend: {name!r} (expected one of {', '.join(BACKENDS)})"
        )
    return name


def _interp_forms(registry: Any, compiled: Any, ns: Any, rec: Any,
                  guard: Any) -> list[Callable[[], Any]]:
    with rec.span("closure-compile", compiled.path):
        compiler = Compiler(
            ns,
            inline=registry.inline_primitives,
            analysis=module_analysis(compiled),
        )
        return [compiler.compile_module_form(form) for form in compiled.body.forms]


def _pyc_forms(registry: Any, compiled: Any, ns: Any, rec: Any,
               guard: Any) -> list[Callable[[], Any]]:
    from repro.core.pyc import link_unit

    # normally already generated (module compile time / artifact load);
    # regenerates only when the backend was switched after compilation
    # or the artifact came from a different CPython version
    unit = registry.ensure_pyc_unit(compiled)
    with rec.span("pyc-link", compiled.path):
        return link_unit(unit, ns, guard)


_FORM_THUNKS = {"interp": _interp_forms, "pyc": _pyc_forms}


def run_module_body(registry: Any, compiled: Any, ns: Any, rec: Any,
                    guard: Any) -> None:
    """Run ``compiled``'s body in ``ns`` on the registry's backend.

    The backend turns the body into one thunk per top-level form, and this
    one loop runs them. Nothing a backend compiles depends on run-time
    state, so every form is compiled before the first one runs.
    """
    path = compiled.path
    form_thunks = _FORM_THUNKS[validate_backend(registry.backend)]
    traced = rec.enabled
    with rec.span("instantiate", path):
        for thunk in form_thunks(registry, compiled, ns, rec, guard):
            # governed: a checkpoint between top-level forms bounds
            # deadline/cancellation latency even for programs that never
            # apply a closure (straight-line module bodies)
            if guard is not None:
                guard.checkpoint(path)
            if traced:
                with rec.span("run", path):
                    thunk()
            else:
                thunk()
