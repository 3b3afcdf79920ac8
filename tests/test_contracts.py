"""Tests for the contract system (flat, higher-order, blame)."""

from __future__ import annotations

import pytest

from repro.contracts.contract import (
    ANY,
    FlatContract,
    FunctionContract,
    ListOfContract,
    OrContract,
    PairOfContract,
    VectorOfContract,
)
from repro.core.interp import apply_procedure
from repro.errors import ContractViolation
from repro.runtime.values import MVector, Pair, Primitive, from_list


def integer_contract() -> FlatContract:
    return FlatContract("exact-integer?", lambda x: isinstance(x, int) and not isinstance(x, bool))


def string_contract() -> FlatContract:
    return FlatContract("string?", lambda x: isinstance(x, str))


class TestFlat:
    def test_passing_value_returned(self):
        assert integer_contract().attach(5, "server", "client") == 5

    def test_failing_value_blames_positive(self):
        with pytest.raises(ContractViolation) as exc:
            integer_contract().attach("no", "server", "client")
        assert exc.value.blame == "server"

    def test_any_accepts_everything(self):
        assert ANY.attach(object(), "s", "c") is not None


class TestFunctionContracts:
    def make_wrapped(self, fn, domain, rng):
        prim = Primitive("fn", fn, len(domain), len(domain))
        return FunctionContract(domain, rng).attach(prim, "server", "client")

    def test_good_application(self):
        wrapped = self.make_wrapped(lambda x: x + 1, [integer_contract()], integer_contract())
        assert apply_procedure(wrapped, [4]) == 5

    def test_bad_argument_blames_client(self):
        wrapped = self.make_wrapped(lambda x: x, [integer_contract()], integer_contract())
        with pytest.raises(ContractViolation) as exc:
            apply_procedure(wrapped, ["bad"])
        assert exc.value.blame == "client"

    def test_bad_result_blames_server(self):
        wrapped = self.make_wrapped(lambda x: "oops", [integer_contract()], integer_contract())
        with pytest.raises(ContractViolation) as exc:
            apply_procedure(wrapped, [1])
        assert exc.value.blame == "server"

    def test_wrong_arity_blames_client(self):
        wrapped = self.make_wrapped(lambda x: x, [integer_contract()], integer_contract())
        with pytest.raises(ContractViolation) as exc:
            apply_procedure(wrapped, [1, 2])
        assert exc.value.blame == "client"

    def test_non_procedure_rejected(self):
        contract = FunctionContract([integer_contract()], integer_contract())
        with pytest.raises(ContractViolation):
            contract.attach(42, "server", "client")

    def test_higher_order_result_contract(self):
        # (-> Integer (-> Integer Integer)): returned function is wrapped too
        inner_contract = FunctionContract([integer_contract()], integer_contract())
        make_bad = Primitive("mk", lambda n: Primitive("f", lambda x: "bad", 1, 1), 1, 1)
        wrapped = FunctionContract([integer_contract()], inner_contract).attach(
            make_bad, "server", "client"
        )
        inner = apply_procedure(wrapped, [1])
        with pytest.raises(ContractViolation) as exc:
            apply_procedure(inner, [2])
        assert exc.value.blame == "server"

    def test_contract_checks_counted(self):
        from repro.runtime.stats import Stats, use_stats

        wrapped = self.make_wrapped(lambda x: x, [integer_contract()], integer_contract())
        with use_stats(Stats()) as s:
            apply_procedure(wrapped, [1])
        assert s.contract_checks > 0


class TestContainerContracts:
    def test_listof_pass(self):
        c = ListOfContract(integer_contract())
        result = c.attach(from_list([1, 2, 3]), "s", "c")
        assert [x for x in result] == [1, 2, 3]

    def test_listof_element_failure(self):
        c = ListOfContract(integer_contract())
        with pytest.raises(ContractViolation):
            c.attach(from_list([1, "two"]), "s", "c")

    def test_listof_non_list(self):
        with pytest.raises(ContractViolation):
            ListOfContract(integer_contract()).attach(42, "s", "c")

    def test_listof_improper_list(self):
        with pytest.raises(ContractViolation):
            ListOfContract(integer_contract()).attach(Pair(1, 2), "s", "c")

    def test_pairof(self):
        c = PairOfContract(integer_contract(), string_contract())
        result = c.attach(Pair(1, "x"), "s", "c")
        assert result.car == 1 and result.cdr == "x"
        with pytest.raises(ContractViolation):
            c.attach(Pair("x", 1), "s", "c")

    def test_vectorof(self):
        c = VectorOfContract(integer_contract())
        vec = MVector([1, 2])
        assert c.attach(vec, "s", "c") is vec
        with pytest.raises(ContractViolation):
            c.attach(MVector([1, "x"]), "s", "c")

    def test_or_contract_first_order(self):
        c = OrContract([integer_contract(), string_contract()])
        assert c.attach(1, "s", "c") == 1
        assert c.attach("x", "s", "c") == "x"
        with pytest.raises(ContractViolation):
            c.attach(1.5, "s", "c")

    def test_or_contract_with_function_disjunct(self):
        fn_contract = FunctionContract([integer_contract()], integer_contract())
        c = OrContract([FlatContract("false?", lambda x: x is False), fn_contract])
        assert c.attach(False, "s", "c") is False
        prim = Primitive("f", lambda x: x, 1, 1)
        wrapped = c.attach(prim, "s", "c")
        assert apply_procedure(wrapped, [3]) == 3
