"""Module instantiation: run a compiled module's phase-0 body in a namespace.

The actual execution strategy lives in :mod:`repro.core.backend`: the
registry's ``backend`` attribute selects the closure-compiling tree walk
(``interp``) or the CPython code-object backend (``pyc``). Both honor the
same structure — requires first, idempotence per namespace, a guard
checkpoint between top-level forms, and per-phase observe spans.

Code compiled or linked with no guard is never charged (DESIGN §8), so a
governed instantiation refuses, with ``G006`` and before any module body
runs, to reach a module that this namespace instantiated with no guard:
its procedures would run free of the budget.
"""

from __future__ import annotations

from repro.core.backend import run_module_body
from repro.core.namespace import Namespace
from repro.errors import RuntimeReproError
from repro.guard.budget import current_guard
from repro.modules.registry import ModuleRegistry
from repro.observe.recorder import current_recorder


def instantiate_module(registry: ModuleRegistry, path: str, ns: Namespace) -> None:
    """Instantiate ``path`` (and, first, its requires) into ``ns``. Idempotent."""
    guard = current_guard()
    if guard is not None:
        _check_governable(registry, path, ns, set())
    _instantiate(registry, path, ns, guard)


def _check_governable(
    registry: ModuleRegistry, path: str, ns: Namespace, seen: set[str]
) -> None:
    """Raise G006 if ``path`` or a module it requires was instantiated in
    ``ns`` with no guard."""
    if path in seen:
        return
    seen.add(path)
    governed = ns.instantiated.get(path)
    if governed is False:
        raise RuntimeReproError(
            f"a governed run cannot use module {path}: it was instantiated "
            f"in this namespace with no budget, so its code is never charged "
            f"[G006]",
            code="G006",
        )
    if governed is None:
        for req in registry.get_compiled(path).requires:
            _check_governable(registry, req, ns, seen)


def _instantiate(
    registry: ModuleRegistry, path: str, ns: Namespace, guard: object
) -> None:
    compiled = registry.get_compiled(path)
    if path in ns.instantiated:
        return
    ns.instantiated[path] = guard is not None
    for req in compiled.requires:
        _instantiate(registry, req, ns, guard)
    run_module_body(registry, compiled, ns, current_recorder(), guard)
