"""Output ports and output capture.

The object language's ``display``/``printf`` write to the *current output
port*, a dynamically scoped stack so tests and the benchmark harness can
capture program output.

The stack is context-local (a :class:`~contextvars.ContextVar`, like the
expander's context stack): concurrent
``Runtime.run`` calls on different threads — e.g. two ``repro serve``
requests — each capture their own program's output. A shared list here
let one request's ``displayln`` land in whichever capture was pushed
last, across tenants.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from io import StringIO
from typing import Iterator


class OutputPort:
    def __init__(self, name: str = "port") -> None:
        self.name = name

    def write(self, text: str) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class StdoutPort(OutputPort):
    def __init__(self) -> None:
        super().__init__("stdout")

    def write(self, text: str) -> None:
        sys.stdout.write(text)


class StringPort(OutputPort):
    def __init__(self) -> None:
        super().__init__("string")
        self.buffer = StringIO()

    def write(self, text: str) -> None:
        self.buffer.write(text)

    def contents(self) -> str:
        return self.buffer.getvalue()


_STDOUT = StdoutPort()

# immutable tuple per context: pushes build a new tuple, so a concurrent
# reader in another context never observes a half-mutated stack
_PORT_STACK: ContextVar[tuple[OutputPort, ...]] = ContextVar(
    "repro-output-ports", default=()
)


def current_output_port() -> OutputPort:
    stack = _PORT_STACK.get()
    return stack[-1] if stack else _STDOUT


@contextmanager
def capture_output() -> Iterator[StringPort]:
    """Redirect object-language output into a string port (context-local)."""
    port = StringPort()
    token = _PORT_STACK.set(_PORT_STACK.get() + (port,))
    try:
        yield port
    finally:
        _PORT_STACK.reset(token)
