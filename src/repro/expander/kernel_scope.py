"""The core scope: a scope in which every core form and kernel primitive is
bound. ``core_id`` builds identifiers that always resolve to the kernel —
the anchor Python-implemented language libraries use for introduced names.
"""

from __future__ import annotations

from repro.expander.core_forms import CORE_FORMS
from repro.modules.registry import KERNEL_PATH
from repro.runtime.primitives import PRIMITIVES
from repro.runtime.values import Symbol
from repro.syn.binding import ModuleBinding, bind
from repro.syn.scopes import Scope
from repro.syn.srcloc import NO_SRCLOC, SrcLoc
from repro.syn.syntax import Syntax

CORE_SCOPE = Scope("core")
_CORE_SCOPES = frozenset({CORE_SCOPE})

#: special kernel binding recognized by define-syntaxes
SYNTAX_RULES_BINDING = ModuleBinding(KERNEL_PATH, Symbol("syntax-rules"))


def _install() -> None:
    for name, binding in CORE_FORMS.items():
        sym = Symbol(name)
        bind(sym, _CORE_SCOPES, binding, phase=0)
        bind(sym, _CORE_SCOPES, binding, phase=1)
    for name in PRIMITIVES:
        sym = Symbol(name)
        binding = ModuleBinding(KERNEL_PATH, sym)
        bind(sym, _CORE_SCOPES, binding, phase=0)
        bind(sym, _CORE_SCOPES, binding, phase=1)
    for phase in (0, 1):
        bind(Symbol("syntax-rules"), _CORE_SCOPES, SYNTAX_RULES_BINDING, phase=phase)


_install()


def core_id(name: str, srcloc: SrcLoc = NO_SRCLOC) -> Syntax:
    """An identifier resolving to the kernel binding for ``name``."""
    return Syntax(Symbol(name), _CORE_SCOPES, srcloc)


#: a syntax object whose scopes are the core scope — usable as the ``ctx``
#: argument of datum->syntax / Template.fill for kernel-level templates
CORE_CTX = Syntax(Symbol("#%core-ctx"), _CORE_SCOPES)
