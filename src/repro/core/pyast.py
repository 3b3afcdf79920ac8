"""The :mod:`ast` node classes the pyc emitter builds, positioned at birth.

``compile()`` needs a source position on every statement, expression and
argument node. Generated code has no source lines of its own, so every
node sits at line 1, column 0, and ends there too. This module re-exports
:mod:`ast`, replacing each positioned node class the emitter uses by a
subclass that holds those four attributes at class level, where
``compile()`` reads them like instance attributes. No pass over the
finished tree is needed to stamp them.
"""

from __future__ import annotations

import ast as _ast
from ast import *  # noqa: F401,F403 - the unpositioned classes, used as they are

_POSITION = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}

for _name in (
    # statements
    "Assign", "AugAssign", "Break", "Continue", "Expr", "FunctionDef", "If",
    "Nonlocal", "Return", "Try", "While",
    # exception handlers
    "ExceptHandler",
    # expressions
    "Attribute", "BinOp", "BoolOp", "Call", "Compare", "Constant", "IfExp",
    "List", "Name", "NamedExpr", "Subscript", "Tuple", "UnaryOp",
    # function parameters
    "arg",
):
    globals()[_name] = type(
        _name, (getattr(_ast, _name),), {**_POSITION, "__module__": __name__}
    )
