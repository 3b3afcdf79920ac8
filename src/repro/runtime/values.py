"""Runtime value representations for the object language.

The object language is a Scheme-family language, so the value universe is:
pairs and the empty list, symbols, keywords, booleans, the full numeric tower
(exact integers and rationals, flonums, float-complexes), characters, strings,
vectors, boxes, hash tables, procedures, multiple values, void, and ports.

Python values are reused where safe (``int``, ``float``, ``complex``, ``str``,
``bool``, ``fractions.Fraction``); everything else gets a small dedicated
class. ``bool`` must always be tested *before* ``int`` because it subclasses
``int`` in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional


class Symbol:
    """An interned symbol. Two symbols with the same name are identical."""

    __slots__ = ("name",)
    _table: dict[str, "Symbol"] = {}

    def __new__(cls, name: str) -> "Symbol":
        sym = cls._table.get(name)
        if sym is None:
            sym = object.__new__(cls)
            sym.name = name
            cls._table[name] = sym
        return sym

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __reduce__(self):
        # unpickle through __new__ so deserialized symbols re-intern —
        # pattern matching and `free-identifier=?` compare symbols by identity
        return (Symbol, (self.name,))

    # identity equality is inherited and correct because of interning


_GENSYM_COUNTER = [0]


def gensym(base: str = "g") -> Symbol:
    """Return a symbol guaranteed distinct from all interned symbols so far."""
    _GENSYM_COUNTER[0] += 1
    return Symbol(f"{base}~{_GENSYM_COUNTER[0]}")


class Keyword:
    """A ``#:name`` keyword. Interned like symbols."""

    __slots__ = ("name",)
    _table: dict[str, "Keyword"] = {}

    def __new__(cls, name: str) -> "Keyword":
        kw = cls._table.get(name)
        if kw is None:
            kw = object.__new__(cls)
            kw.name = name
            cls._table[name] = kw
        return kw

    def __repr__(self) -> str:
        return f"#:{self.name}"

    def __hash__(self) -> int:
        return hash(("kw", self.name))

    def __reduce__(self):
        return (Keyword, (self.name,))


@dataclass(frozen=True, slots=True)
class Char:
    """A character value, e.g. ``#\\a``."""

    value: str

    def __post_init__(self) -> None:
        if len(self.value) != 1:
            raise ValueError(f"Char must hold one character, got {self.value!r}")


class _Null:
    """The empty list. A singleton."""

    __slots__ = ()
    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"

    def __iter__(self) -> Iterator[Any]:
        return iter(())

    def __len__(self) -> int:
        return 0


NULL = _Null()


class Pair:
    """A mutable cons cell."""

    __slots__ = ("car", "cdr")

    def __init__(self, car: Any, cdr: Any) -> None:
        self.car = car
        self.cdr = cdr

    def __iter__(self) -> Iterator[Any]:
        """Iterate the elements of a proper list; raises on improper tails."""
        node: Any = self
        while isinstance(node, Pair):
            yield node.car
            node = node.cdr
        if node is not NULL:
            raise ValueError("improper list")

    def __repr__(self) -> str:
        from repro.runtime.printing import write_value

        return write_value(self)


class _Void:
    """The result of side-effecting operations. A singleton."""

    __slots__ = ()
    _instance: Optional["_Void"] = None

    def __new__(cls) -> "_Void":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#<void>"


VOID = _Void()


class _Eof:
    """The end-of-file object."""

    __slots__ = ()
    _instance: Optional["_Eof"] = None

    def __new__(cls) -> "_Eof":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#<eof>"


EOF = _Eof()


class MVector:
    """A mutable vector."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]) -> None:
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        from repro.runtime.printing import write_value

        return write_value(self)


class Box:
    """A single mutable cell (``box``/``unbox``/``set-box!``)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"#&{self.value!r}"


class HashTable:
    """A mutable hash table keyed by ``equal?``-style hashing.

    Keys are normalized through :func:`hash_key` so that structurally equal
    object-language values collide, matching Racket's ``equal?``-based hashes.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: dict[Any, tuple[Any, Any]] = {}

    def set(self, key: Any, value: Any) -> None:
        self.data[hash_key(key)] = (key, value)

    def get(self, key: Any, default: Any = None) -> Any:
        entry = self.data.get(hash_key(key))
        if entry is None:
            return default
        return entry[1]

    def has(self, key: Any) -> bool:
        return hash_key(key) in self.data

    def remove(self, key: Any) -> None:
        self.data.pop(hash_key(key), None)

    def count(self) -> int:
        return len(self.data)

    def keys(self) -> list[Any]:
        return [orig for (orig, _val) in self.data.values()]

    def __repr__(self) -> str:
        return f"#<hash:{len(self.data)}>"


def hash_key(value: Any) -> Any:
    """Convert a value to a hashable key respecting ``equal?`` semantics."""
    if isinstance(value, Pair):
        node: Any = value
        parts: list[Any] = []
        while isinstance(node, Pair):
            parts.append(hash_key(node.car))
            node = node.cdr
        return ("pair", tuple(parts), hash_key(node))
    if isinstance(value, MVector):
        return ("vector", tuple(hash_key(x) for x in value.items))
    if value is NULL:
        return ("null",)
    if isinstance(value, Box):
        return ("box", hash_key(value.value))
    return value


class Values:
    """Multiple return values, produced by ``(values a b ...)``."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[Any, ...]) -> None:
        self.items = items

    def __repr__(self) -> str:
        return f"#<values:{len(self.items)}>"


class Procedure:
    """Base class for applicable values."""

    __slots__ = ()
    name: str = "procedure"


class Primitive(Procedure):
    """A procedure implemented in Python, with what compilers may know of it.

    Beside ``fn`` and its arity, the record holds facts that both backends
    and the optimizers read at compile and link time, never per call:

    - ``allocates`` marks constructors (pairs, vectors, strings, boxes,
      hashes, struct instances) so the resource governor
      (:mod:`repro.guard`) can charge an allocation budget at their call
      sites;
    - ``result`` is ``"bool"`` (always a Python ``bool``), ``"one"`` (never
      a :class:`Values`) or ``"any"``;
    - ``binary`` is what ``fn`` computes for exactly two arguments, without
      the ``*args`` tuple or the arity branch;
    - ``op`` names the :mod:`ast` operator class the primitive is on its
      representations (``"Add"``, ``"Lt"`` ...); with ``against`` set, it
      is that binary operator against the constant ``against``
      (``add1`` is ``"Add"`` against ``1``);
    - an ``unsafe-*`` primitive names its optimizer ``rule`` group and the
      checked calls it ``replaces``, as ``(name, operand count)`` pairs.
    """

    __slots__ = (
        "name", "fn", "arity_min", "arity_max", "allocates", "result",
        "binary", "op", "against", "rule", "replaces",
    )

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        arity_min: int = 0,
        arity_max: Optional[int] = None,
        *,
        allocates: bool = False,
        result: str = "any",
        binary: Optional[Callable[[Any, Any], Any]] = None,
        op: Optional[str] = None,
        against: Any = None,
        rule: Optional[str] = None,
        replaces: tuple[tuple[str, int], ...] = (),
    ) -> None:
        self.name = name
        self.fn = fn
        self.arity_min = arity_min
        self.arity_max = arity_max
        self.allocates = allocates
        self.result = result
        self.binary = binary
        self.op = op
        self.against = against
        self.rule = rule
        self.replaces = replaces

    def __repr__(self) -> str:
        return f"#<procedure:{self.name}>"


class Closure(Procedure):
    """A procedure created by ``#%plain-lambda``.

    ``body`` is a compiled code thunk; ``frame_size``/``rest`` describe the
    argument frame layout (see :mod:`repro.core.compile`).
    """

    __slots__ = ("name", "params", "rest", "body", "env")

    def __init__(
        self,
        name: str,
        params: int,
        rest: bool,
        body: Callable[[list[Any]], Any],
        env: Any,
    ) -> None:
        self.name = name
        self.params = params
        self.rest = rest
        self.body = body
        self.env = env

    def __repr__(self) -> str:
        return f"#<procedure:{self.name}>"


class PyClosure(Procedure):
    """A procedure compiled to a real Python function by the ``pyc`` backend.

    ``fn`` takes exactly ``params`` positional arguments (plus, when
    ``rest`` is true, one final argument holding the already-packed rest
    list); the trampoline in :mod:`repro.core.interp` checks arity and
    packs rest arguments, exactly as it does for interp :class:`Closure`
    frames, so the two procedure kinds interoperate freely (either may
    tail-call or pass the other around).
    """

    __slots__ = ("name", "params", "rest", "fn")

    def __init__(
        self, name: str, params: int, rest: bool, fn: Callable[..., Any]
    ) -> None:
        self.name = name
        self.params = params
        self.rest = rest
        self.fn = fn

    def __repr__(self) -> str:
        return f"#<procedure:{self.name}>"


class ContractedProcedure(Procedure):
    """A procedure wrapped in a higher-order contract (see repro.contracts)."""

    __slots__ = ("name", "inner", "contract", "positive", "negative")

    def __init__(self, inner: Procedure, contract: Any, positive: str, negative: str) -> None:
        self.name = getattr(inner, "name", "contracted")
        self.inner = inner
        self.contract = contract
        self.positive = positive
        self.negative = negative

    def __repr__(self) -> str:
        return f"#<procedure:{self.name} (contracted)>"


# --- list helpers -----------------------------------------------------------


def from_list(items: Iterable[Any], tail: Any = NULL) -> Any:
    """Build an object-language list from a Python iterable."""
    result = tail
    for item in reversed(list(items)):
        result = Pair(item, result)
    return result


def to_list(value: Any) -> list[Any]:
    """Convert a proper object-language list to a Python list."""
    out: list[Any] = []
    node = value
    while isinstance(node, Pair):
        out.append(node.car)
        node = node.cdr
    if node is not NULL:
        raise ValueError("to_list: improper list")
    return out


def is_list(value: Any) -> bool:
    """Is ``value`` a proper list?"""
    node = value
    while isinstance(node, Pair):
        node = node.cdr
    return node is NULL


def list_length(value: Any) -> int:
    n = 0
    node = value
    while isinstance(node, Pair):
        n += 1
        node = node.cdr
    if node is not NULL:
        raise ValueError("length: improper list")
    return n
