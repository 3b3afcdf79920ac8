"""Source locations attached to every datum the reader produces."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class SrcLoc:
    """A point (and span) in a source file.

    ``line`` and ``column`` are 1- and 0-based respectively, following
    Racket's convention. ``position`` is the 0-based character offset and
    ``span`` the number of characters covered.
    """

    source: str
    line: int
    column: int
    position: int = 0
    span: int = 0

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"

    def __reduce__(self):
        # load with the source re-interned: pickle shares strings by
        # identity, so a location loaded from one artifact must hold the
        # same path object as one read in this process for the artifacts
        # stored after it to come out byte-identical
        return (_load_srcloc, (self.source, self.line, self.column, self.position, self.span))

    def merge(self, other: Optional["SrcLoc"]) -> "SrcLoc":
        """Produce a location spanning from ``self`` to the end of ``other``."""
        if other is None or other.source != self.source:
            return self
        end = max(self.position + self.span, other.position + other.span)
        return SrcLoc(
            source=self.source,
            line=self.line,
            column=self.column,
            position=self.position,
            span=end - self.position,
        )


def _load_srcloc(source: str, line: int, column: int, position: int, span: int) -> SrcLoc:
    return SrcLoc(sys.intern(source), line, column, position, span)


#: Placeholder location for syntax constructed programmatically.
NO_SRCLOC = SrcLoc(source="<generated>", line=0, column=0)
