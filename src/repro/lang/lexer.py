"""Tokenizer for the C subset.

Handles the full token set the parser needs: identifiers/keywords, integer
literals (decimal/hex/octal/char), string literals with escapes, both
comment styles, and all multi-character operators.  Preprocessor lines are
skipped (the analysis corpora are written pre-expanded; the paper's tool
likewise consumed post-preprocessor IR from Phoenix) -- with one
exception: ``#line N "file"`` / ``# N "file"`` markers update the
location tracking, so drivers that concatenate several source files (the
CLI's multi-file mode) get diagnostics pointing at the original file and
line instead of offsets into the concatenation.

The scanner is one compiled master regex with a named group per token
class, tried in the lexer's priority order; :func:`tokenize` dispatches
on ``match.lastgroup`` and tracks line and column from the newlines the
matches span.  A literal that starts but does not match (an unterminated
string, a bad escape) falls through to the one-character ``other`` group,
whose handler pinpoints the diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.lang.errors import LexError, SourceLocation

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]


class TokenKind:
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    """
    void char short int long unsigned signed float double
    struct union enum typedef
    if else while do for return break continue
    sizeof static extern const volatile inline goto switch case default
    """.split()
)

# Longest-match-first punctuation table.
_PUNCTS = [
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ",", ";", ".", "?", ":",
]

# GNU cpp-style line markers: `#line 5 "f.c"`, `# 5 "f.c" 1`, `#line 5`.
_LINE_MARKER = re.compile(r'#\s*(?:line\s+)?(\d+)(?:\s+"([^"]*)")?')

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}

_ESCAPE = r"\\[" + re.escape("".join(_ESCAPES)) + "]"
# A string body up to (not including) its closing quote or first error.
_STRING_BODY = r'[^"\\\n]*(?:' + _ESCAPE + r'[^"\\\n]*)*'

# Token classes in priority order.  ``word`` also catches a non-ASCII
# digit or numeric character at a token start; its handler rejects those.
_TOKEN_CLASSES = [
    ("skip", r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+"),  # blanks and comments
    ("open_comment", r"/\*"),
    ("directive", r"\#(?:\\\n|[^\n])*"),
    ("hex", r"0[xX][0-9a-fA-F]*[uUlL]*"),
    ("number", r"[0-9]+[uUlL]*"),
    ("word", r"\w+"),
    ("string", '"' + _STRING_BODY + '"'),
    ("char", r"'(?:[^'\\]|" + _ESCAPE + ")'"),
    ("punct", "|".join(re.escape(punct) for punct in _PUNCTS)),
    ("other", r"."),
]
_MASTER = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_CLASSES),
    re.DOTALL,
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE_SEQUENCE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(match: "re.Match[str]") -> str:
    return _ESCAPES[match.group(1)]


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    value: str
    loc: SourceLocation

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``; the result always ends with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        start = match.start()
        if kind == "skip":
            end = match.end()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
            continue
        value = match.group()
        loc = SourceLocation(filename, line, start - line_start + 1)
        if kind == "word":
            first = value[0]
            if first.isalpha() or first == "_":
                append(
                    Token(
                        TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT,
                        value,
                        loc,
                    )
                )
            elif first.isdigit():
                raise LexError(f"non-ASCII digit {first!r} in number", loc)
            else:
                raise LexError(f"unexpected character {first!r}", loc)
        elif kind == "punct":
            append(Token(TokenKind.PUNCT, value, loc))
        elif kind == "number":
            digits = value.rstrip("uUlL")
            if digits[0] == "0" and len(digits) > 1:
                bad = next((d for d in digits if d in "89"), None)
                if bad is not None:
                    raise LexError(f"invalid digit {bad!r} in octal literal", loc)
                digits = str(int(digits, 8))
            append(Token(TokenKind.INT, digits, loc))
        elif kind == "hex":
            digits = value.rstrip("uUlL")
            if len(digits) == 2:
                raise LexError("malformed hex literal", loc)
            append(Token(TokenKind.INT, str(int(digits, 16)), loc))
        elif kind == "string":
            body = value[1:-1]
            if "\\" in body:
                body = _ESCAPE_SEQUENCE.sub(_unescape, body)
            append(Token(TokenKind.STRING, body, loc))
        elif kind == "char":
            body = value[1:-1]
            char = body if len(body) == 1 else _ESCAPES[body[1]]
            append(Token(TokenKind.INT, str(ord(char)), loc))
            if body == "\n":
                line += 1
                line_start = start + 2
        elif kind == "directive":
            # Preprocessor directive: skip the (possibly continued) line,
            # but honor line markers so concatenated inputs keep their
            # original locations.
            if start != line_start:
                raise LexError("unexpected character '#'", loc)
            if "\n" in value:
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
                value = value.replace("\\\n", "")
            marker = _LINE_MARKER.match(value)
            if marker is not None:
                # The *next* line is numbered N; the upcoming newline
                # advances the counter by one.
                line = int(marker.group(1)) - 1
                if marker.group(2) is not None:
                    filename = marker.group(2)
        elif kind == "open_comment":
            raise LexError("unterminated block comment", loc)
        elif value == '"':
            raise _string_error(text, start, loc)
        elif value == "'":
            raise _char_error(text, start, loc)
        else:
            raise LexError(f"unexpected character {value!r}", loc)
    end_loc = SourceLocation(filename, line, len(text) - line_start + 1)
    append(Token(TokenKind.EOF, "", end_loc))
    return tokens


def _shifted(loc: SourceLocation, offset: int) -> SourceLocation:
    """``loc`` moved ``offset`` characters right on the same line."""
    return SourceLocation(loc.filename, loc.line, loc.column + offset)


def _string_error(text: str, start: int, loc: SourceLocation) -> LexError:
    """Diagnose a string literal opening at ``start`` that did not match."""
    stop = _STRING_PREFIX.match(text, start + 1).end()
    if text.startswith("\\", stop):
        escape = text[stop + 1 : stop + 2]
        return LexError(
            f"unknown escape \\{escape}", _shifted(loc, stop + 1 - start)
        )
    if text.startswith("\n", stop):
        return LexError("newline in string literal", loc)
    return LexError("unterminated string literal", loc)


def _char_error(text: str, start: int, loc: SourceLocation) -> LexError:
    """Diagnose a character literal opening at ``start`` that did not match."""
    char = text[start + 1 : start + 2]
    if char == "\\":
        escape = text[start + 2 : start + 3]
        if escape not in _ESCAPES:
            return LexError(f"unknown escape \\{escape}", _shifted(loc, 2))
    elif char in ("'", ""):
        return LexError("empty character literal", loc)
    return LexError("unterminated character literal", loc)
