"""The core scope: a scope in which every ``#%kernel`` export is bound.
``core_id`` builds identifiers that always resolve to the kernel — the
anchor Python-implemented language libraries use for introduced names.
"""

from __future__ import annotations

from repro.modules.registry import KERNEL_EXPORTS
from repro.runtime.values import Symbol
from repro.syn.binding import bind
from repro.syn.scopes import Scope
from repro.syn.srcloc import NO_SRCLOC, SrcLoc
from repro.syn.syntax import Syntax

CORE_SCOPE = Scope("core")
_CORE_SCOPES = frozenset({CORE_SCOPE})

#: special kernel binding recognized by define-syntaxes
SYNTAX_RULES_BINDING = KERNEL_EXPORTS["syntax-rules"].binding



def _install() -> None:
    for name, export in KERNEL_EXPORTS.items():
        for phase in (0, 1):
            bind(Symbol(name), _CORE_SCOPES, export.binding, phase=phase)


_install()


def core_id(name: str, srcloc: SrcLoc = NO_SRCLOC) -> Syntax:
    """An identifier resolving to the kernel binding for ``name``."""
    return Syntax(Symbol(name), _CORE_SCOPES, srcloc)


#: a syntax object whose scopes are the core scope — usable as the ``ctx``
#: argument of datum->syntax / Template.fill for kernel-level templates
CORE_CTX = Syntax(Symbol("#%core-ctx"), _CORE_SCOPES)
