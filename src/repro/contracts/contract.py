"""Higher-order contracts with blame (§6).

Typed Racket "automatically generate[s] run-time contracts from the types of
imported and exported bindings". These are the contracts it generates: flat
(first-order) checks applied immediately, and function contracts that wrap
procedures to check every application's arguments (blaming the *negative*
party, the caller's side) and results (blaming the *positive* party, the
implementation's side).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import ContractViolation
from repro.runtime.stats import current_stats
from repro.runtime.values import ContractedProcedure, Procedure
from repro.syn.srcloc import SrcLoc


class Contract:
    """Base class. ``attach`` applies the contract to a value at a boundary.

    ``srcloc`` records the boundary that generated this contract (the
    ``require/typed`` clause or provided identifier), so violations can point
    back at source code; ``None`` when the origin is unknown.
    """

    name: str = "contract"
    srcloc: Optional[SrcLoc] = None

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"#<contract:{self.name}>"


def propagate_srcloc(contract: Contract, srcloc: Optional[SrcLoc]) -> Contract:
    """Stamp ``srcloc`` onto ``contract`` and its sub-contracts (the pieces
    that check elements, arguments, results, ...), so that however deep a
    violation occurs, it names the boundary it guards. Already-stamped
    contracts are left alone (shared sub-contracts keep their own origin)."""
    if srcloc is None or contract.srcloc is not None:
        return contract
    if isinstance(contract, AnyContract):
        return contract  # ANY is a shared singleton (and never raises)
    contract.srcloc = srcloc
    for child in _sub_contracts(contract):
        propagate_srcloc(child, srcloc)
    return contract


def _sub_contracts(contract: Contract) -> list[Contract]:
    if isinstance(contract, ListOfContract) or isinstance(contract, VectorOfContract):
        return [contract.element]
    if isinstance(contract, PairOfContract):
        return [contract.car, contract.cdr]
    if isinstance(contract, OrContract):
        return list(contract.disjuncts)
    if isinstance(contract, FunctionContract):
        return [*contract.domain, contract.range]
    return []


class FlatContract(Contract):
    """An immediate first-order check: a named predicate."""

    def __init__(self, name: str, predicate: Callable[[Any], bool]) -> None:
        self.name = name
        self.predicate = predicate

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        current_stats().contract_checks += 1
        if not self.predicate(value):
            from repro.runtime.printing import write_value

            raise ContractViolation(
                f"promised {self.name}, produced {write_value(value)}",
                positive,
                srcloc=self.srcloc,
            )
        return value


class AnyContract(Contract):
    """Accepts everything (the contract for type Any)."""

    name = "any/c"

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        return value


ANY = AnyContract()


class ListOfContract(Contract):
    """Checks a proper list, applying the element contract to every element.

    Eager, like ``listof`` on immutable data in Racket (our pairs are
    mutable, but the typed languages treat them as immutable; DESIGN.md
    documents this substitution).
    """

    def __init__(self, element: Contract) -> None:
        self.element = element
        self.name = f"(listof {element.name})"

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        from repro.runtime.values import NULL, Pair

        current_stats().contract_checks += 1
        node = value
        out = []
        while isinstance(node, Pair):
            out.append(self.element.attach(node.car, positive, negative))
            node = node.cdr
        if node is not NULL:
            from repro.runtime.printing import write_value

            raise ContractViolation(
                f"promised {self.name}, produced {write_value(value)}",
                positive,
                srcloc=self.srcloc,
            )
        from repro.runtime.values import from_list

        return from_list(out)


class PairOfContract(Contract):
    def __init__(self, car: Contract, cdr: Contract) -> None:
        self.car = car
        self.cdr = cdr
        self.name = f"(cons/c {car.name} {cdr.name})"

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        from repro.runtime.values import Pair

        current_stats().contract_checks += 1
        if not isinstance(value, Pair):
            from repro.runtime.printing import write_value

            raise ContractViolation(
                f"promised {self.name}, produced {write_value(value)}",
                positive,
                srcloc=self.srcloc,
            )
        return Pair(
            self.car.attach(value.car, positive, negative),
            self.cdr.attach(value.cdr, positive, negative),
        )


class VectorOfContract(Contract):
    """Eagerly checks (and re-wraps) vector elements."""

    def __init__(self, element: Contract) -> None:
        self.element = element
        self.name = f"(vectorof {element.name})"

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        from repro.runtime.values import MVector

        current_stats().contract_checks += 1
        if not isinstance(value, MVector):
            from repro.runtime.printing import write_value

            raise ContractViolation(
                f"promised {self.name}, produced {write_value(value)}",
                positive,
                srcloc=self.srcloc,
            )
        for i, item in enumerate(value.items):
            value.items[i] = self.element.attach(item, positive, negative)
        return value


class OrContract(Contract):
    """First-order union: value must satisfy at least one disjunct.

    Higher-order disjuncts are only allowed if at most one could apply
    (we restrict to: any number of flat disjuncts plus at most one
    function contract, applied when the value is a procedure).
    """

    def __init__(self, disjuncts: Sequence[Contract]) -> None:
        self.disjuncts = list(disjuncts)
        self.name = "(or/c " + " ".join(c.name for c in self.disjuncts) + ")"

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        current_stats().contract_checks += 1
        fn_contract: Optional[Contract] = None
        for c in self.disjuncts:
            if isinstance(c, FunctionContract):
                fn_contract = c
                continue
            try:
                return c.attach(value, positive, negative)
            except ContractViolation:
                continue
        if fn_contract is not None and isinstance(value, Procedure):
            return fn_contract.attach(value, positive, negative)
        from repro.runtime.printing import write_value

        raise ContractViolation(
            f"promised {self.name}, produced {write_value(value)}",
            positive,
            srcloc=self.srcloc,
        )


class FunctionContract(Contract):
    """``(-> dom ... rng)``: wraps procedures; checks per application."""

    def __init__(self, domain: Sequence[Contract], range_: Contract) -> None:
        self.domain = list(domain)
        self.range = range_
        self.name = (
            "(-> " + " ".join(c.name for c in self.domain) + f" {range_.name})"
        )

    def attach(self, value: Any, positive: str, negative: str) -> Any:
        # wrapping is not itself a check: applications are counted, in apply
        if not isinstance(value, Procedure):
            from repro.runtime.printing import write_value

            raise ContractViolation(
                f"promised {self.name}, produced {write_value(value)}",
                positive,
                srcloc=self.srcloc,
            )
        return ContractedProcedure(value, self, positive, negative)

    def apply(self, wrapped: ContractedProcedure, args: list[Any]) -> Any:
        from repro.core.interp import apply_procedure

        if len(args) != len(self.domain):
            raise ContractViolation(
                f"{self.name}: expected {len(self.domain)} arguments, "
                f"got {len(args)}",
                wrapped.negative,
                srcloc=self.srcloc,
            )
        checked = [
            # reversed blame for arguments: the *caller* promised them
            c.attach(a, wrapped.negative, wrapped.positive)
            for c, a in zip(self.domain, args)
        ]
        result = apply_procedure(wrapped.inner, checked)
        return self.range.attach(result, wrapped.positive, wrapped.negative)
