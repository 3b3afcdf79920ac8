"""Runtime values, the numeric tower, primitives, and instrumentation."""

from repro.runtime.stats import Stats
from repro.runtime.values import (
    EOF, NULL, VOID, Box, Char, Closure, ContractedProcedure, HashTable,
    Keyword, MVector, Pair, Primitive, Procedure, Symbol, Values,
    from_list, gensym, is_list, list_length, to_list,
)

__all__ = [
    "Stats", "EOF", "NULL", "VOID", "Box", "Char", "Closure",
    "ContractedProcedure", "HashTable", "Keyword", "MVector", "Pair",
    "Primitive", "Procedure", "Symbol", "Values", "from_list", "gensym",
    "is_list", "list_length", "to_list",
]
