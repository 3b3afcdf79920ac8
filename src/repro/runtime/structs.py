"""Runtime support for structs.

The ``struct`` form is a macro (see ``repro.langs.racket.structs``): it
expands to one ``make-struct-type`` call returning the constructor,
predicate, accessors, and (when ``#:mutable``) mutators as multiple values —
all ordinary runtime procedures.
"""

from __future__ import annotations

from typing import Any

from repro.errors import WrongTypeError
from repro.runtime.stats import current_stats
from repro.runtime.values import Primitive, Symbol, Values


class StructTypeDescriptor:
    __slots__ = ("name", "field_count", "transparent")

    def __init__(self, name: str, field_count: int, transparent: bool) -> None:
        self.name = name
        self.field_count = field_count
        self.transparent = transparent

    def __repr__(self) -> str:
        return f"#<struct-type:{self.name}>"


class StructInstance:
    __slots__ = ("descriptor", "fields")

    def __init__(self, descriptor: StructTypeDescriptor, fields: list[Any]) -> None:
        self.descriptor = descriptor
        self.fields = fields

    def __repr__(self) -> str:
        from repro.runtime.printing import write_value

        return write_value(self)


def _register() -> None:
    from repro.runtime.primitives import add_prim

    def make_struct_type(
        name: Any, field_count: Any, mutable: Any = False, transparent: Any = False
    ) -> Values:
        text = name.name if isinstance(name, Symbol) else str(name)
        descriptor = StructTypeDescriptor(text, field_count, transparent is not False)

        def construct(*args: Any) -> StructInstance:
            return StructInstance(descriptor, list(args))

        def predicate(x: Any) -> bool:
            current_stats().tag_checks += 1
            return isinstance(x, StructInstance) and x.descriptor is descriptor

        out: list[Any] = [
            Primitive(text, construct, field_count, field_count, allocates=True),
            Primitive(f"{text}?", predicate, 1, 1),
        ]
        for index in range(field_count):
            def accessor(x: Any, _i: int = index) -> Any:
                current_stats().tag_checks += 1
                if not (isinstance(x, StructInstance) and x.descriptor is descriptor):
                    raise WrongTypeError(f"{text}-ref", f"{text}?", x)
                return x.fields[_i]

            out.append(Primitive(f"{text}-field{index}", accessor, 1, 1))
        if mutable is not False:
            for index in range(field_count):
                def mutator(x: Any, value: Any, _i: int = index) -> Any:
                    from repro.runtime.values import VOID

                    current_stats().tag_checks += 1
                    if not (
                        isinstance(x, StructInstance) and x.descriptor is descriptor
                    ):
                        raise WrongTypeError(f"set-{text}!", f"{text}?", x)
                    x.fields[_i] = value
                    return VOID

                out.append(Primitive(f"set-{text}-field{index}!", mutator, 2, 2))
        return Values(tuple(out))

    def struct_ref(x: Any, index: Any) -> Any:
        if not isinstance(x, StructInstance):
            raise WrongTypeError("struct-ref", "struct instance", x)
        if not (0 <= index < len(x.fields)):
            raise WrongTypeError("struct-ref", "valid field index", index)
        return x.fields[index]

    add_prim("make-struct-type", make_struct_type, 2, 4)
    add_prim("struct?", lambda x: isinstance(x, StructInstance), 1, 1)
    add_prim("struct-ref", struct_ref, 2, 2)


_register()
