"""Reference lexer: the character-at-a-time ``_Cursor`` tokenizer.

This is the implementation :mod:`repro.lang.lexer` replaced with one
compiled master regex.  It is kept, unchanged apart from sharing the
token tables, as the oracle for the differential lexer tests
(``test_lexer_differential.py``): both must produce the same tokens and
the same ``LexError`` text on every input, except on numbers containing
non-ASCII or non-octal digits, where this lexer crashes (``ValueError``
from ``int()``) or reads a Unicode digit, and the production lexer
raises a located ``LexError``.
"""

from __future__ import annotations

from typing import List

from repro.lang.errors import LexError, SourceLocation
from repro.lang.lexer import (
    _ESCAPES,
    _LINE_MARKER,
    _PUNCTS,
    KEYWORDS,
    Token,
    TokenKind,
)

__all__ = ["tokenize"]


class _Cursor:
    def __init__(self, text: str, filename: str) -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def loc(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line, self.column)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def starts_with(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``; the result always ends with an EOF token."""
    cursor = _Cursor(text, filename)
    tokens: List[Token] = []
    while not cursor.at_end():
        ch = cursor.peek()
        if ch in " \t\r\n":
            cursor.advance()
            continue
        if cursor.starts_with("//"):
            while not cursor.at_end() and cursor.peek() != "\n":
                cursor.advance()
            continue
        if cursor.starts_with("/*"):
            loc = cursor.loc()
            cursor.advance(2)
            while not cursor.starts_with("*/"):
                if cursor.at_end():
                    raise LexError("unterminated block comment", loc)
                cursor.advance()
            cursor.advance(2)
            continue
        if ch == "#" and cursor.column == 1:
            # Preprocessor directive: skip the (possibly continued) line,
            # but honor line markers so concatenated inputs keep their
            # original locations.
            directive: List[str] = []
            while not cursor.at_end():
                if cursor.peek() == "\\" and cursor.peek(1) == "\n":
                    cursor.advance(2)
                    continue
                if cursor.peek() == "\n":
                    break
                directive.append(cursor.peek())
                cursor.advance()
            marker = _LINE_MARKER.match("".join(directive))
            if marker is not None:
                # The *next* line is numbered N; the upcoming newline
                # advances the counter by one.
                cursor.line = int(marker.group(1)) - 1
                if marker.group(2) is not None:
                    cursor.filename = marker.group(2)
            continue
        if ch.isalpha() or ch == "_":
            tokens.append(_lex_word(cursor))
            continue
        if ch.isdigit():
            tokens.append(_lex_number(cursor))
            continue
        if ch == '"':
            tokens.append(_lex_string(cursor))
            continue
        if ch == "'":
            tokens.append(_lex_char(cursor))
            continue
        punct = _lex_punct(cursor)
        if punct is not None:
            tokens.append(punct)
            continue
        raise LexError(f"unexpected character {ch!r}", cursor.loc())
    tokens.append(Token(TokenKind.EOF, "", cursor.loc()))
    return tokens


def _lex_word(cursor: _Cursor) -> Token:
    loc = cursor.loc()
    start = cursor.pos
    while not cursor.at_end() and (cursor.peek().isalnum() or cursor.peek() == "_"):
        cursor.advance()
    word = cursor.text[start : cursor.pos]
    kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
    return Token(kind, word, loc)


def _lex_number(cursor: _Cursor) -> Token:
    loc = cursor.loc()
    start = cursor.pos
    if cursor.peek() == "0" and cursor.peek(1) in "xX":
        cursor.advance(2)
        while not cursor.at_end() and cursor.peek() in "0123456789abcdefABCDEF":
            cursor.advance()
        text = cursor.text[start : cursor.pos]
        if len(text) == 2:
            raise LexError("malformed hex literal", loc)
        value = int(text, 16)
    else:
        while not cursor.at_end() and cursor.peek().isdigit():
            cursor.advance()
        text = cursor.text[start : cursor.pos]
        value = int(text, 8) if text.startswith("0") and len(text) > 1 else int(text)
    # Swallow integer suffixes (uUlL).
    while not cursor.at_end() and cursor.peek() in "uUlL":
        cursor.advance()
    return Token(TokenKind.INT, str(value), loc)


def _lex_string(cursor: _Cursor) -> Token:
    loc = cursor.loc()
    cursor.advance()  # opening quote
    chars: List[str] = []
    while True:
        if cursor.at_end():
            raise LexError("unterminated string literal", loc)
        ch = cursor.peek()
        if ch == '"':
            cursor.advance()
            break
        if ch == "\\":
            cursor.advance()
            escape = cursor.peek()
            if escape not in _ESCAPES:
                raise LexError(f"unknown escape \\{escape}", cursor.loc())
            chars.append(_ESCAPES[escape])
            cursor.advance()
            continue
        if ch == "\n":
            raise LexError("newline in string literal", loc)
        chars.append(ch)
        cursor.advance()
    return Token(TokenKind.STRING, "".join(chars), loc)


def _lex_char(cursor: _Cursor) -> Token:
    loc = cursor.loc()
    cursor.advance()  # opening quote
    ch = cursor.peek()
    if ch == "\\":
        cursor.advance()
        escape = cursor.peek()
        if escape not in _ESCAPES:
            raise LexError(f"unknown escape \\{escape}", cursor.loc())
        value = ord(_ESCAPES[escape])
        cursor.advance()
    elif ch == "'" or ch == "":
        raise LexError("empty character literal", loc)
    else:
        value = ord(ch)
        cursor.advance()
    if cursor.peek() != "'":
        raise LexError("unterminated character literal", loc)
    cursor.advance()
    return Token(TokenKind.INT, str(value), loc)


def _lex_punct(cursor: _Cursor) -> Token | None:
    loc = cursor.loc()
    for punct in _PUNCTS:
        if cursor.starts_with(punct):
            cursor.advance(len(punct))
            return Token(TokenKind.PUNCT, punct, loc)
    return None
