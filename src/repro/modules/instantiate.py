"""Module instantiation: run a compiled module's phase-0 body in a namespace.

The actual execution strategy lives in :mod:`repro.core.backend`: the
registry's ``backend`` attribute selects the closure-compiling tree walk
(``interp``) or the CPython code-object backend (``pyc``). Both honor the
same structure — requires first, idempotence per namespace, a guard
checkpoint between top-level forms, and per-phase observe spans.
"""

from __future__ import annotations

from repro.core.backend import run_module_body
from repro.core.namespace import Namespace
from repro.guard.budget import current_guard
from repro.modules.registry import ModuleRegistry
from repro.observe.recorder import current_recorder


def instantiate_module(registry: ModuleRegistry, path: str, ns: Namespace) -> None:
    """Instantiate ``path`` (and, first, its requires) into ``ns``. Idempotent."""
    compiled = registry.get_compiled(path)
    if ns.instantiated.get(path):
        return
    ns.instantiated[path] = True
    for req in compiled.requires:
        instantiate_module(registry, req, ns)
    run_module_body(registry, compiled, ns, current_recorder(), current_guard())
