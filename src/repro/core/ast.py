"""The core AST — fully-expanded programs (fig. 1 of the paper).

Everything the expander produces parses into these ~12 node types; every
language implemented as a library bottoms out here. The typed languages'
checkers and optimizers work on *syntax objects* of fully-expanded code (so
they can keep using identifier resolution and syntax properties); this AST is
the final step before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.syn.binding import Binding, LocalBinding, ModuleBinding
from repro.syn.syntax import Syntax


class _Node:
    """Pickles as a constructor call on the fields, in ``__match_args__``
    order: a frozen slotted dataclass's own ``__setstate__`` calls
    ``dataclasses.fields`` on every node, which was half of decoding a
    compiled artifact."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return (type(self), tuple(getattr(self, name) for name in self.__match_args__))


class CoreExpr(_Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Quote(CoreExpr):
    value: Any  # already a runtime value


@dataclass(frozen=True, slots=True)
class QuoteSyntax(CoreExpr):
    stx: Syntax


@dataclass(frozen=True, slots=True)
class LocalRef(CoreExpr):
    binding: LocalBinding
    name: str  # for error messages


@dataclass(frozen=True, slots=True)
class ModuleRef(CoreExpr):
    binding: ModuleBinding


@dataclass(frozen=True, slots=True)
class If(CoreExpr):
    test: CoreExpr
    then: CoreExpr
    orelse: CoreExpr


@dataclass(frozen=True, slots=True)
class Begin(CoreExpr):
    exprs: tuple[CoreExpr, ...]  # non-empty


@dataclass(frozen=True, slots=True)
class Lambda(CoreExpr):
    name: str
    params: tuple[LocalBinding, ...]
    rest: Optional[LocalBinding]
    body: tuple[CoreExpr, ...]  # non-empty


@dataclass(frozen=True, slots=True)
class LetValues(CoreExpr):
    bindings: tuple[tuple[tuple[LocalBinding, ...], CoreExpr], ...]
    body: tuple[CoreExpr, ...]
    recursive: bool = False


@dataclass(frozen=True, slots=True)
class SetBang(CoreExpr):
    binding: Binding
    name: str
    expr: CoreExpr


@dataclass(frozen=True, slots=True)
class App(CoreExpr):
    fn: CoreExpr
    args: tuple[CoreExpr, ...]


# --- module-level forms -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DefineValues(_Node):
    bindings: tuple[ModuleBinding, ...]
    names: tuple[str, ...]
    expr: CoreExpr


ModuleForm = Union[DefineValues, CoreExpr]


@dataclass(slots=True)
class CoreModuleBody:
    """The executable (phase 0) part of a compiled module."""

    forms: list[ModuleForm] = field(default_factory=list)
