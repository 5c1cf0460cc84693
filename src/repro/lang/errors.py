"""Source locations and diagnostics for the C-subset frontend."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["SourceLocation", "CompileError", "LexError", "ParseError", "SemaError"]


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """A point in a source file (1-based line and column).

    Slotted because the lexer builds one per token.
    """

    filename: str
    line: int
    column: int

    UNKNOWN: ClassVar["SourceLocation"]

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


SourceLocation.UNKNOWN = SourceLocation("<unknown>", 0, 0)


class CompileError(Exception):
    """Base class for frontend diagnostics carrying a source location."""

    def __init__(self, message: str, loc: SourceLocation = SourceLocation.UNKNOWN):
        super().__init__(f"{loc}: {message}")
        self.message = message
        self.loc = loc


class LexError(CompileError):
    """Invalid characters or malformed literals."""


class ParseError(CompileError):
    """Syntax errors."""


class SemaError(CompileError):
    """Type errors and unresolved names."""
