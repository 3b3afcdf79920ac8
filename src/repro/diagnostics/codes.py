"""The stable error-code namespace.

Codes never change meaning once assigned, so tools (editors, CI annotators,
test suites) can match on them instead of on message text. The namespaces:

- ``R00x`` — reader errors
- ``E00x`` — expander errors
- ``T00x`` — typechecker errors
- ``M00x`` — module system errors
- ``C00x`` — contract violations
- ``C10x`` — compiled-artifact cache warnings
- ``D00x`` — dialect errors (whole-module rewrites below the macro layer)
- ``G00x`` — resource-governance errors (budgets, cancellation)
- ``X00x`` — runtime errors and aggregates
"""

from __future__ import annotations

CODES: dict[str, str] = {
    # reader
    "R001": "syntax error while reading",
    "R002": "unterminated list or vector",
    "R003": "unterminated string",
    "R004": "unterminated |symbol|",
    "R005": "missing #lang line",
    # expander
    "E001": "bad syntax during expansion",
    "E002": "unbound identifier",
    "E003": "ambiguous binding",
    "E004": "macro expansion budget exhausted",
    "E005": "fully-expanded term does not match the core grammar",
    # typechecker
    "T001": "type error",
    # module system
    "M001": "module error",
    "M002": "module not found",
    "M003": "module dependency cycle",
    # contracts
    "C001": "contract violation",
    # compiled-artifact cache (warnings: the pipeline degrades to recompile)
    "C101": "corrupt compiled artifact (recompiled from source)",
    "C102": "stale compiled artifact (recompiled from source)",
    "C103": "compiled artifact could not be stored",
    "C104": "corrupt compiled artifact quarantined (recompiled from source)",
    "C105": "cache directory unavailable (caching disabled)",
    "C106": "timed out waiting for a concurrent artifact writer (compiled locally)",
    # dialects (whole-module rewrites applied before #%module-begin)
    "D001": "unknown dialect",
    "D002": "dialect rewrite failed",
    "D003": "malformed operator declaration",
    "D004": "malformed infix expression",
    # resource governance (repro.guard)
    "G001": "evaluation step budget exhausted",
    "G002": "evaluation wall-clock deadline exceeded",
    "G003": "evaluation recursion-depth budget exhausted",
    "G004": "evaluation allocation budget exhausted",
    "G005": "evaluation cancelled by the host",
    "G006": "governed run reaches a module instantiated with no budget",
    # runtime / aggregate
    "X001": "runtime error",
    "X002": "wrong runtime type",
    "X003": "arity error",
    "X100": "compilation failed (aggregate)",
}


def describe_code(code: str) -> str:
    """A one-line description of a stable error code."""
    return CODES.get(code, "unknown error code")
