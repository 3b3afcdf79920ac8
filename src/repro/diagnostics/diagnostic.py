"""The Diagnostic value: one structured report of one problem."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:
    from repro.syn.srcloc import SrcLoc


@dataclass(frozen=True, slots=True)
class ExpansionFrame:
    """One macro invocation in a macro-expansion backtrace."""

    macro: str
    srcloc: Optional["SrcLoc"] = None

    def __str__(self) -> str:
        if self.srcloc is not None:
            return f"in macro `{self.macro}` at {self.srcloc}"
        return f"in macro `{self.macro}`"


@dataclass(slots=True)
class Diagnostic:
    """Severity, stable code, message, location, excerpt, notes, backtrace."""

    severity: str  # "error" | "warning" | "note"
    code: str
    message: str
    srcloc: Optional["SrcLoc"] = None
    notes: tuple[str, ...] = ()
    backtrace: tuple[ExpansionFrame, ...] = ()
    #: the exception this diagnostic was recovered from, when any; kept so a
    #: single-error compilation can re-raise the original (backwards
    #: compatible) exception instead of an aggregate.
    exception: Optional[BaseException] = field(default=None, repr=False)
    #: the source line at ``srcloc``, taken from the text the compile read
    #: when the diagnostic was recorded; the excerpt quotes it
    line: Optional[str] = field(default=None, repr=False)

    @classmethod
    def from_error(
        cls, err: BaseException, sources: Optional[Mapping[str, str]] = None
    ) -> "Diagnostic":
        """Build a Diagnostic from any platform exception; ``sources`` (source
        name -> text, a registry's ``sources``) supplies the excerpt line."""
        code = getattr(err, "code", None) or "X001"
        message = getattr(err, "message", None) or str(err)
        srcloc = getattr(err, "srcloc", None)
        backtrace = tuple(getattr(err, "expansion_backtrace", ()) or ())
        return cls(
            severity="error",
            code=code,
            message=message,
            srcloc=srcloc,
            backtrace=backtrace,
            exception=err,
            line=_source_line(sources, srcloc),
        )

    # -- rendering ---------------------------------------------------------

    def excerpt(self) -> Optional[str]:
        """The offending source line with a caret underneath, or None."""
        loc, line = self.srcloc, self.line
        if loc is None or line is None:
            return None
        col = min(max(loc.column, 0), len(line))
        width = max(1, min(loc.span or 1, len(line) - col)) if len(line) > col else 1
        caret = " " * col + "^" + "~" * (width - 1)
        return f"  | {line}\n  | {caret}"

    def render(self) -> str:
        """The full human-readable report for this diagnostic."""
        where = f"{self.srcloc}: " if self.srcloc is not None else ""
        out = [f"{where}{self.severity}[{self.code}]: {self.message}"]
        shown = self.excerpt()
        if shown is not None:
            out.append(shown)
        for note in self.notes:
            out.append(f"  note: {note}")
        if self.backtrace:
            out.append("  macro expansion backtrace:")
            for frame in self.backtrace:
                out.append(f"    {frame}")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def _source_line(
    sources: Optional[Mapping[str, str]], loc: Optional["SrcLoc"]
) -> Optional[str]:
    """The 1-based ``loc.line``-th line of ``loc.source``'s text, or None.
    Only a newline ends a line, as the reader counts them (``splitlines``
    would also split at form feeds and other separators)."""
    if sources is None or loc is None or loc.line < 1:
        return None
    text = sources.get(loc.source)
    if text is None:
        return None
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    return lines[loc.line - 1].rstrip("\r") if loc.line <= len(lines) else None
