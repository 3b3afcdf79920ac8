"""Run-time namespaces: binding key -> mutable cell.

A namespace is one "store" in the paper's sense. Each program run gets a
fresh phase-0 namespace; each module *compilation* gets a fresh phase-1
namespace (§2.3: "each module is compiled with a fresh store").
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.interp import UNDEFINED
from repro.errors import RuntimeReproError
from repro.syn.binding import ModuleBinding


class Namespace:
    def __init__(self, name: str = "namespace") -> None:
        self.name = name
        self.cells: dict[Any, list[Any]] = {}
        #: module path -> whether it was instantiated under a guard, for
        #: every module instantiated in this namespace; the primitive
        #: modules a registry prefills count as governed, having no
        #: closures to charge (see repro.modules.instantiate)
        self.instantiated: dict[str, bool] = {}

    def cell(self, key: Any) -> list[Any]:
        c = self.cells.get(key)
        if c is None:
            c = [UNDEFINED]
            self.cells[key] = c
        return c

    def define(self, binding: ModuleBinding, value: Any) -> None:
        self.cell(binding.key())[0] = value

    def lookup(self, binding: ModuleBinding) -> Any:
        c = self.cells.get(binding.key())
        if c is None or c[0] is UNDEFINED:
            raise RuntimeReproError(
                f"{binding.name}: undefined; referenced before definition"
            )
        return c[0]

    def has(self, binding: ModuleBinding) -> bool:
        c = self.cells.get(binding.key())
        return c is not None and c[0] is not UNDEFINED
