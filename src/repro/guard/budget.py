"""Per-Runtime evaluation budgets and cooperative cancellation.

Design (mirrors :mod:`repro.observe.recorder`): the evaluator's hot paths
pay for governance only when a guard is active. :func:`current_guard`
returns ``None`` for ungoverned Runtimes. Code compiled (interp) or linked
(pyc) under a guard charges each closure entry one *step* and one depth
level, against the guard active at entry; code made with no guard carries
no charging code at all (DESIGN §8). :meth:`Budget.checkpoint` runs only
every :data:`CHECK_INTERVAL` steps, so the expensive checks (monotonic
clock read, cancellation flag) are amortized; the step-limit comparison
itself is exact because ``next_check`` never exceeds the step limit.

The hooks are deliberately *data* (plain attributes on one object), not a
callback protocol: both backends inline ``guard.steps_used += 1; if
guard.steps_used >= guard.next_check: ...`` and the ``depth`` /
``depth_limit`` pair into the code they build.

Exhaustion raises :class:`~repro.errors.BudgetExhausted` (stable ``G``
codes, see :mod:`repro.diagnostics.codes`) carrying the steps consumed and
a best-effort location (the name of the procedure being applied); host
cancellation raises :class:`~repro.errors.EvaluationCancelled`. Both are
:class:`~repro.errors.RuntimeReproError` subclasses, so every existing
recovery path (REPL, ``diagnostics=True``, the CLI's renderer, a failed
compile registering nothing) already handles them.
"""

from __future__ import annotations

import contextvars
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.errors import BudgetExhausted, EvaluationCancelled

#: steps between slow checkpoints (clock read + cancellation flag); chosen
#: so a deadline is noticed within ~a millisecond of object-language work
CHECK_INTERVAL = 1024

#: the limit dimensions a Budget governs
LIMITS = ("steps", "seconds", "max_depth", "allocations")


def _check_limit(name: str, value: Any) -> Any:
    """``value`` if it is a valid ``name`` limit, else ValueError: None
    (unlimited) or a non-negative number — an int for the counted
    dimensions, any finite real for ``seconds``. Bools are not numbers
    here, however Python treats them."""
    if value is None:
        return value
    if name == "seconds":  # a deadline is a float: NaN, inf and 10**400 are not
        ok = isinstance(value, (int, float)) and 0 <= value <= sys.float_info.max
    else:
        ok = isinstance(value, int) and value >= 0
    if ok and not isinstance(value, bool):
        return value
    kind = "a finite real" if name == "seconds" else "an integer"
    raise ValueError(
        f"budget limit {name} must be None or {kind} >= 0, got {value!r}"
    )


def parse_limit(name: str, text: str) -> Any:
    """Limit ``name`` read from command-line ``text`` (``,budget``, the
    CLI's budget flags): an int, or a float for ``seconds``, held to
    :func:`_check_limit`'s rule, the one a JSON budget meets. ValueError
    otherwise."""
    try:
        value = float(text) if name == "seconds" else int(text)
    except ValueError:
        value = text  # not a number: the error names the text
    return _check_limit(name, value)


class CancelToken:
    """A cooperative cancellation flag a host hands to a Runtime.

    ``cancel()`` may be called from any thread; the governed evaluator
    notices at its next checkpoint and raises
    :class:`~repro.errors.EvaluationCancelled`. Reusable: ``reset()``
    re-arms the token for the next evaluation.
    """

    __slots__ = ("cancelled", "reason")

    def __init__(self) -> None:
        self.cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        self.reason = reason
        self.cancelled = True

    def reset(self) -> None:
        self.cancelled = False
        self.reason = None

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason}" if self.cancelled else "armed"
        return f"#<cancel-token {state}>"


class Budget:
    """Evaluation limits for one Runtime (all dimensions optional).

    - ``steps`` — closure applications allowed per Runtime (evaluation fuel,
      generalizing PR 1's expansion fuel); ``G001`` on exhaustion.
    - ``seconds`` — wall-clock deadline per top-level operation, measured on
      the monotonic clock and checked every :data:`CHECK_INTERVAL` steps;
      ``G002``.
    - ``max_depth`` — non-tail application nesting cap (tail calls are
      trampolined and never deepen); ``G003``.
    - ``allocations`` — constructor allocations (pairs, vectors, strings,
      boxes, hashes, structs) counted at compiled call sites; ``G004``.
    - ``cancel`` — a :class:`CancelToken`; checked at every checkpoint,
      raising ``G005``. One is created if not supplied.

    A Budget with no limits still counts steps and supports cancellation —
    what the REPL uses so ``,stats`` can report work done.
    """

    __slots__ = (
        "steps", "seconds", "max_depth", "allocations", "cancel",
        "steps_used", "allocs_used", "depth", "next_check", "deadline",
        "depth_limit", "_armed",
    )

    def __init__(
        self,
        *,
        steps: Optional[int] = None,
        seconds: Optional[float] = None,
        max_depth: Optional[int] = None,
        allocations: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        self.steps = _check_limit("steps", steps)
        self.seconds = _check_limit("seconds", seconds)
        self.max_depth = _check_limit("max_depth", max_depth)
        self.allocations = _check_limit("allocations", allocations)
        self.cancel = cancel if cancel is not None else CancelToken()
        self.steps_used = 0
        self.allocs_used = 0
        self.depth = 0
        self.deadline: Optional[float] = None
        self._armed = 0
        self.next_check = self._compute_next_check()
        self.depth_limit = self._compute_depth_limit()

    # -- configuration -------------------------------------------------------

    def configure(self, **limits: Any) -> None:
        """Adjust limits in place (used by the REPL's ``,budget``); an
        invalid limit raises before any is changed."""
        unknown = set(limits) - set(LIMITS)
        if unknown:
            raise TypeError(f"unknown budget limit(s): {sorted(unknown)}")
        for name in LIMITS:
            if name in limits:
                _check_limit(name, limits[name])
        for name, value in limits.items():
            setattr(self, name, value)
        self.next_check = self._compute_next_check()
        self.depth_limit = self._compute_depth_limit()

    def reset(self) -> None:
        """Zero the consumed counters (limits are kept)."""
        self.steps_used = 0
        self.allocs_used = 0
        self.depth = 0
        self.next_check = self._compute_next_check()

    def _compute_next_check(self) -> int:
        nxt = self.steps_used + CHECK_INTERVAL
        if self.steps is not None and nxt > self.steps:
            return self.steps
        return nxt

    def _compute_depth_limit(self) -> int:
        # an int either way, so a closure entry's depth test is one compare
        return sys.maxsize if self.max_depth is None else self.max_depth

    # -- arming (one deadline per outermost governed operation) --------------

    def arm(self) -> None:
        self._armed += 1
        if self._armed == 1 and self.seconds is not None:
            self.deadline = time.monotonic() + self.seconds

    def disarm(self) -> None:
        self._armed -= 1
        if self._armed == 0:
            self.deadline = None

    # -- slow path -----------------------------------------------------------

    def checkpoint(self, where: Optional[str] = None) -> None:
        """Amortized slow check: step limit, deadline, cancellation.

        Called by a governed closure entry or loop back-edge when
        ``steps_used`` reaches ``next_check``, and directly at coarse sites
        (between module-level forms) to bound the latency of
        deadline/cancel detection.
        """
        if self.steps is not None and self.steps_used > self.steps:
            self._exhaust(
                "steps", "G001",
                f"evaluation exceeded its budget of {self.steps} steps",
                where,
            )
        if self.cancel.cancelled:
            reason = self.cancel.reason
            detail = f": {reason}" if reason else ""
            self._emit("cancelled", where)
            raise EvaluationCancelled(
                f"evaluation cancelled by the host{detail}"
                f"{self._where_note(where)} "
                f"[G005; {self.steps_used} steps consumed]",
                steps_consumed=self.steps_used,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._exhaust(
                "deadline", "G002",
                f"evaluation exceeded its wall-clock budget of "
                f"{self.seconds}s",
                where,
            )
        self.next_check = self._compute_next_check()

    def exhaust_depth(self, where: Optional[str]) -> None:
        """Called by a closure entry whose depth level passed
        ``depth_limit``."""
        self._exhaust(
            "depth", "G003",
            f"evaluation exceeded its recursion-depth budget of "
            f"{self.max_depth}",
            where,
        )

    def charge_alloc(self, n: int = 1) -> None:
        """Called at compiled constructor call sites (see core.compile)."""
        self.allocs_used += n
        if self.allocations is not None and self.allocs_used > self.allocations:
            self._exhaust(
                "allocations", "G004",
                f"evaluation exceeded its allocation budget of "
                f"{self.allocations}",
                None,
            )

    @property
    def track_allocations(self) -> bool:
        return self.allocations is not None

    # -- diagnostics ---------------------------------------------------------

    @staticmethod
    def _where_note(where: Optional[str]) -> str:
        return f" while applying {where}" if where else ""

    def _emit(self, what: str, where: Optional[str]) -> None:
        from repro.observe.recorder import current_recorder

        rec = current_recorder()
        if rec.enabled:
            attrs: dict[str, Any] = {
                "steps_used": self.steps_used,
                "allocs_used": self.allocs_used,
                "depth": self.depth,
            }
            if where:
                attrs["where"] = where
            rec.instant("guard", what, attrs=attrs)

    def _exhaust(
        self, kind: str, code: str, message: str, where: Optional[str]
    ) -> None:
        self._emit(f"exhausted:{kind}", where)
        raise BudgetExhausted(
            f"{message}{self._where_note(where)} "
            f"[{code}; {self.steps_used} steps consumed]",
            kind=kind,
            steps_consumed=self.steps_used,
            code=code,
        )

    def __repr__(self) -> str:
        limits = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in ("steps", "seconds", "max_depth", "allocations")
            if getattr(self, name) is not None
        )
        return (
            f"#<budget {limits or 'unlimited'}; "
            f"used steps={self.steps_used} allocs={self.allocs_used}>"
        )


# -- the current guard (context-scoped, like stats and the recorder) ----------

_ACTIVE: contextvars.ContextVar[Optional[Budget]] = contextvars.ContextVar(
    "repro_active_guard", default=None
)

#: bound C method — the cheapest "is governance on?" probe for hot paths
current_guard = _ACTIVE.get


def charge_entry(where: str) -> Optional[Budget]:
    """Charge the entry of a closure that code made under a guard built:
    one step to the guard active now, then one depth level (``G003`` past
    ``depth_limit``), which the caller takes back when the closure's body
    returns or raises. Returns that guard, or None (nothing charged).

    pyc calls it at the top of every emitted function when the unit was
    linked under a guard; the interp ``Compiler`` inlines the same lines
    into each governed lambda body (DESIGN §8)."""
    guard = _ACTIVE.get()
    if guard is not None:
        steps = guard.steps_used + 1
        guard.steps_used = steps
        if steps >= guard.next_check:
            guard.checkpoint(where)
        depth = guard.depth + 1
        if depth > guard.depth_limit:
            guard.exhaust_depth(where)
        guard.depth = depth
    return guard


@contextmanager
def use_guard(guard: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Activate ``guard`` for the dynamic extent of a Runtime operation.

    The outermost activation arms the wall-clock deadline; nested
    activations (a governed operation triggering another) keep the outer
    deadline, so one ``seconds`` limit covers the whole request.
    """
    if guard is None:
        yield None
        return
    guard.arm()
    token = _ACTIVE.set(guard)
    try:
        yield guard
    finally:
        _ACTIVE.reset(token)
        guard.disarm()


def resolve_budget(budget: Any) -> Optional[Budget]:
    """Map a ``Runtime(budget=...)`` argument to a Budget (or None).

    - ``None`` / ``False`` — ungoverned (the zero-overhead default);
    - ``True`` — a Budget with no limits (step counting + cancellation);
    - an ``int`` — a step budget of that many closure applications;
    - a ``dict`` — keyword arguments for :class:`Budget`;
    - a :class:`Budget` — used as given (shareable between Runtimes to
      govern them under one joint allowance).
    """
    if budget is None or budget is False:
        return None
    if budget is True:
        return Budget()
    if isinstance(budget, bool):  # pragma: no cover - unreachable
        return None
    if isinstance(budget, int):
        return Budget(steps=budget)
    if isinstance(budget, dict):
        return Budget(**budget)
    if isinstance(budget, Budget):
        return budget
    raise TypeError(
        f"budget must be None, True, an int, a dict, or a Budget: {budget!r}"
    )
