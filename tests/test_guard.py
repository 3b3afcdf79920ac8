"""Resource-governance tests (ISSUE 6): budgets, cancellation, recovery.

The acceptance property: an adversarial program (infinite loop, runaway
recursion, allocation bomb) under a budget terminates with a structured
``G``-coded error, and the platform's global state is left exactly as a
successful run would leave it — the Runtime, registry, and live bindings
all stay usable.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    Budget,
    BudgetExhausted,
    CancelToken,
    EvaluationCancelled,
    ReproError,
    Runtime,
)
from repro.guard import resolve_budget

LOOP = "#lang racket\n(define (loop) (loop))\n(loop)\n"

DEEP = """#lang racket
(define (count n) (if (= n 0) 0 (+ 1 (count (- n 1)))))
(displayln (count 200))
"""

TAIL_LOOP = """#lang racket
(define (iter n acc) (if (= n 0) acc (iter (- n 1) (+ acc 1))))
(displayln (iter 100000 0))
"""

ALLOC_BOMB = """#lang racket
(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
(displayln (length (build 500)))
"""


def calls_program(n: int) -> str:
    """A module that performs exactly ``n`` closure applications."""
    apps = "\n".join("(f 0)" for _ in range(n))
    return f"#lang racket\n(define (f x) x)\n{apps}\n"


class TestStepBudget:
    def test_infinite_loop_terminates_with_g001(self):
        with Runtime(budget={"steps": 50_000}) as rt:
            t0 = time.monotonic()
            with pytest.raises(BudgetExhausted) as excinfo:
                rt.run_source(LOOP)
            assert time.monotonic() - t0 < 30
        err = excinfo.value
        assert err.code == "G001"
        assert err.kind == "steps"
        assert err.steps_consumed > 50_000
        assert "50000 steps" in str(err)

    def test_step_accounting_is_exact(self):
        with Runtime(budget=True) as rt:  # no limits: just counts
            rt.run_source(calls_program(7))
            assert rt.stats.eval_steps == 7

    def test_limit_allows_exactly_that_many_steps(self):
        with Runtime(budget=5) as rt:  # int shorthand: steps=5
            assert rt.run_source(calls_program(5)) == ""
        with Runtime(budget=5) as rt2:
            with pytest.raises(BudgetExhausted) as excinfo:
                rt2.run_source(calls_program(6))
            assert excinfo.value.steps_consumed == 6

    def test_budget_spans_runs_until_reset(self):
        with Runtime(budget=10) as rt:
            rt.run_source(calls_program(8))
            with pytest.raises(BudgetExhausted):
                rt.run_source(calls_program(8))
            rt.budget.reset()
            assert rt.run_source(calls_program(8)) == ""


class TestDeadline:
    def test_wall_clock_deadline_g002(self):
        with Runtime(budget={"seconds": 0.2}) as rt:
            t0 = time.monotonic()
            with pytest.raises(BudgetExhausted) as excinfo:
                rt.run_source(LOOP)
            elapsed = time.monotonic() - t0
        assert excinfo.value.code == "G002"
        assert excinfo.value.kind == "deadline"
        assert elapsed < 10  # noticed within an amortized checkpoint or two

    def test_fast_program_fits_deadline(self):
        with Runtime(budget={"seconds": 30.0}) as rt:
            assert rt.run_source("#lang racket\n(displayln 1)\n") == "1\n"


class TestDepth:
    def test_runaway_recursion_g003(self):
        with Runtime(budget={"max_depth": 50}) as rt:
            with pytest.raises(BudgetExhausted) as excinfo:
                rt.run_source(DEEP)
        assert excinfo.value.code == "G003"
        assert excinfo.value.kind == "depth"

    def test_tail_calls_do_not_deepen(self):
        """100k trampolined tail iterations run fine under max_depth=50."""
        with Runtime(budget={"max_depth": 50}) as rt:
            assert rt.run_source(TAIL_LOOP) == "100000\n"


class TestAllocations:
    def test_allocation_bomb_g004(self):
        with Runtime(budget={"allocations": 100}) as rt:
            with pytest.raises(BudgetExhausted) as excinfo:
                rt.run_source(ALLOC_BOMB)
        assert excinfo.value.code == "G004"
        assert excinfo.value.kind == "allocations"

    def test_allocations_counted_in_stats(self):
        with Runtime(budget={"allocations": 10_000}) as rt:
            rt.run_source(ALLOC_BOMB)
            assert rt.stats.eval_allocations >= 500

    def test_untracked_by_default(self):
        with Runtime(budget=True) as rt:
            rt.run_source(ALLOC_BOMB)
            assert rt.stats.eval_allocations == 0  # no allocation limit set


class TestCancellation:
    def test_cross_thread_cancel_g005(self):
        with Runtime(budget=True) as rt:
            timer = threading.Timer(0.15, rt.cancel, args=("shutting down",))
            timer.start()
            try:
                t0 = time.monotonic()
                with pytest.raises(EvaluationCancelled) as excinfo:
                    rt.run_source(LOOP)
                elapsed = time.monotonic() - t0
            finally:
                timer.cancel()
        assert excinfo.value.code == "G005"
        assert "shutting down" in str(excinfo.value)
        assert elapsed < 10

    def test_token_is_reusable(self):
        token = CancelToken()
        with Runtime(budget={"cancel": token}) as rt:
            token.cancel("no")
            with pytest.raises(EvaluationCancelled):
                rt.run_source(calls_program(2000))
            token.reset()
            rt.budget.reset()
            assert rt.run_source("#lang racket\n(displayln 3)\n") == "3\n"

    def test_ungoverned_runtime_has_no_token(self):
        with Runtime() as rt:
            assert rt.budget is None
            assert rt.cancel_token is None
            with pytest.raises(ValueError):
                rt.cancel()


class TestStateIntegrity:
    """Satellite 3: a killed run leaves the platform exactly as it was."""

    def test_killed_run_leaves_binding_table_clean(self, live_bindings):
        before = live_bindings()
        rt = Runtime(budget={"steps": 2_000})
        rt.register_module("victim", LOOP)
        with pytest.raises(BudgetExhausted):
            rt.run("victim")
        rt.close()
        del rt
        assert live_bindings() == before

    def test_runtime_usable_after_exhaustion(self):
        with Runtime(budget={"steps": 2_000}) as rt:
            rt.register_module("victim", LOOP)
            with pytest.raises(BudgetExhausted):
                rt.run("victim")
            rt.budget.reset()
            rt.register_module("ok", "#lang racket\n(displayln 9)\n")
            assert rt.run("ok") == "9\n"

    def test_exhausted_module_can_rerun_under_bigger_budget(self):
        source = calls_program(100)
        with Runtime(budget={"steps": 10}) as rt:
            rt.register_module("m", source)
            with pytest.raises(BudgetExhausted):
                rt.run("m")
            rt.budget.configure(steps=100_000)
            rt.budget.reset()
            assert rt.run("m") == ""

    def test_shared_budget_governs_jointly(self):
        budget = Budget()
        with Runtime(budget=budget) as rt1, Runtime(budget=budget) as rt2:
            rt1.run_source(calls_program(4))
            rt2.run_source(calls_program(3))
        assert budget.steps_used == 7


SPIN_LIB = """#lang racket
(define (spin n) (if (= n 0) 'done (spin (- n 1))))
(provide spin)
"""

COUNT_LIB = """#lang racket
(define (count-up n) (if (= n 0) 0 (+ 1 (count-up (- n 1)))))
(provide count-up)
"""


@pytest.mark.parametrize("backend", ["interp", "pyc"])
class TestSharedNamespace:
    """Code compiled or linked with no guard is never charged, so a governed
    run must not reach a module that its namespace instantiated ungoverned:
    G006, before any module body runs."""

    def _runtime(self, backend, lib, call):
        rt = Runtime(backend=backend)
        rt.register_module("lib", lib)
        rt.register_module(
            "main", f'#lang racket\n(require "lib")\n(displayln {call})\n'
        )
        return rt

    @pytest.mark.parametrize("lib, call, steps", [
        (SPIN_LIB, "(spin 100000)", 1000),
        (COUNT_LIB, "(count-up 500)", 100),
    ])
    def test_ungoverned_module_is_refused(self, backend, lib, call, steps):
        with self._runtime(backend, lib, call) as rt:
            ns = rt.make_namespace()
            rt.instantiate("lib", ns)
            rt.budget = Budget(steps=steps)
            with pytest.raises(ReproError) as excinfo:
                rt.run("main", ns)
            assert excinfo.value.code == "G006"
            assert "lib" in str(excinfo.value)
            assert "main" not in ns.instantiated  # nothing of main ran
            assert rt.budget.steps_used == 0

    def test_governed_then_ungoverned_is_allowed(self, backend):
        with self._runtime(backend, COUNT_LIB, "(count-up 500)") as rt:
            ns = rt.make_namespace()
            rt.budget = Budget(steps=100)
            rt.instantiate("lib", ns)
            rt.budget = None
            assert rt.run("main", ns) == "500\n"

    def test_governed_code_charges_the_active_guard(self, backend):
        """A module instantiated under one budget charges the budget of
        the run that enters its code."""
        with self._runtime(backend, COUNT_LIB, "(count-up 500)") as rt:
            ns = rt.make_namespace()
            rt.budget = Budget()
            rt.instantiate("lib", ns)
            rt.budget = Budget(steps=100)
            with pytest.raises(BudgetExhausted) as excinfo:
                rt.run("main", ns)
            assert excinfo.value.code == "G001"
            assert excinfo.value.steps_consumed == 101


class TestObservability:
    def test_exhaustion_emits_guard_event(self):
        with Runtime(trace="full", budget={"steps": 2_000}, cache=False) as rt:
            with pytest.raises(BudgetExhausted):
                rt.run_source(LOOP)
            guard_events = [
                e for e in rt.tracer.events if e.category == "guard"
            ]
        assert any(e.name == "exhausted:steps" for e in guard_events)
        assert any(
            e.attrs.get("steps_used", 0) > 2_000 for e in guard_events
        )


class TestResolveBudget:
    def test_none_and_false_are_ungoverned(self):
        assert resolve_budget(None) is None
        assert resolve_budget(False) is None

    def test_true_counts_without_limits(self):
        budget = resolve_budget(True)
        assert isinstance(budget, Budget)
        assert budget.steps is None and budget.seconds is None

    def test_int_is_a_step_budget(self):
        assert resolve_budget(1234).steps == 1234

    def test_dict_is_keyword_arguments(self):
        budget = resolve_budget({"steps": 5, "max_depth": 3})
        assert (budget.steps, budget.max_depth) == (5, 3)

    def test_budget_passes_through(self):
        budget = Budget(steps=1)
        assert resolve_budget(budget) is budget

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_budget("lots")

    @pytest.mark.parametrize("limits", [
        {"steps": -5}, {"steps": True}, {"steps": 1.5}, {"max_depth": "a"},
        {"allocations": "z"}, {"seconds": "x"}, {"seconds": float("inf")},
        {"seconds": float("nan")}, {"seconds": -0.5}, {"seconds": 10**400},
    ])
    def test_rejects_bad_limits(self, limits):
        with pytest.raises(ValueError):
            Budget(**limits)
        budget = Budget(steps=7)
        with pytest.raises(ValueError):
            budget.configure(**{"allocations": 9, **limits})
        # nothing changed, not even the valid limit
        assert (budget.steps, budget.allocations) == (7, None)


class TestCLI:
    def test_steps_flag_reports_g001(self, tmp_path, capsys):
        from repro.tools.runner import main

        program = tmp_path / "loop.rkt"
        program.write_text(LOOP)
        assert main(["--no-cache", "--steps", "5000", str(program)]) == 1
        err = capsys.readouterr().err
        assert "G001" in err

    def test_time_limit_flag(self, tmp_path, capsys):
        from repro.tools.runner import main

        program = tmp_path / "loop.rkt"
        program.write_text(LOOP)
        assert main(["--no-cache", "--time-limit", "0.2", str(program)]) == 1
        assert "G002" in capsys.readouterr().err

    def test_governed_program_runs_normally(self, tmp_path, capsys):
        from repro.tools.runner import main

        program = tmp_path / "ok.rkt"
        program.write_text("#lang racket\n(displayln 11)\n")
        assert main(["--no-cache", "--steps", "100000", str(program)]) == 0


class TestRepl:
    def make_repl(self, *, for_run: bool = False):
        from repro.tools.repl import Repl

        repl = Repl()
        if not for_run:
            # run() prepends this helper itself; eval_input-level tests
            # need it installed by hand
            repl.forms.append(
                "(define (%repl-show v) (if (void? v) (void) (displayln v)))"
            )
        return repl

    def test_stats_reports_eval_steps(self):
        repl = self.make_repl()
        repl.eval_input("(define (f x) x)")
        repl.eval_input("(f 1)")
        out = repl.eval_input(",stats")
        assert "eval_steps" in out

    def test_budget_meta_command_round_trip(self):
        repl = self.make_repl()
        assert "steps: 50" in repl.eval_input(",budget steps 50")
        assert "steps" in repl.eval_input(",budget")
        assert "unlimited" in repl.eval_input(",budget steps off")

    def test_exhausted_input_does_not_poison_the_session(self):
        repl = self.make_repl()
        repl.eval_input("(define (loop) (loop))")
        repl.eval_input(",budget steps 5000")
        with pytest.raises(BudgetExhausted):
            repl.eval_input("(loop)")
        # the next input gets a fresh allowance and the session state
        # (definitions, accumulated module body) is intact
        assert repl.eval_input("(+ 1 2)") == "3\n"

    def test_loop_error_is_reported_not_fatal(self):
        """Driving the run() loop end to end: the G-code renders as an
        error line and the prompt comes back."""
        import io

        repl = self.make_repl(for_run=True)
        stdin = io.StringIO(
            ",budget steps 5000\n(define (loop) (loop))\n(loop)\n(+ 1 2)\n"
        )
        stdout = io.StringIO()
        assert repl.run(stdin=stdin, stdout=stdout) == 0
        out = stdout.getvalue()
        assert "G001" in out
        assert "3" in out

    def test_keyboard_interrupt_at_prompt_returns_to_prompt(self):
        class ScriptedStdin:
            def __init__(self, items):
                self.items = list(items)

            def readline(self):
                if not self.items:
                    return ""
                item = self.items.pop(0)
                if isinstance(item, BaseException):
                    raise item
                return item

        import io

        repl = self.make_repl(for_run=True)
        stdin = ScriptedStdin(["(define x 7)\n", KeyboardInterrupt(), "x\n"])
        stdout = io.StringIO()
        assert repl.run(stdin=stdin, stdout=stdout) == 0
        assert "7" in stdout.getvalue()

    def test_keyboard_interrupt_mid_eval_keeps_state(self, monkeypatch):
        import io

        repl = self.make_repl(for_run=True)
        original = repl.eval_input

        def interruptible(text):
            if "interrupt-me" in text:
                raise KeyboardInterrupt
            return original(text)

        monkeypatch.setattr(repl, "eval_input", interruptible)
        stdin = io.StringIO("(define x 5)\ninterrupt-me\nx\n")
        stdout = io.StringIO()
        assert repl.run(stdin=stdin, stdout=stdout) == 0
        out = stdout.getvalue()
        assert "interrupted (session state intact)" in out
        assert "5" in out
