"""Differential tests: the master-regex lexer against the reference lexer.

``tests/lang/reference_lexer.py`` is the character-at-a-time tokenizer the
production lexer replaced.  On every input both must give the same
``(kind, value, filename, line, column)`` stream, or the same
``LexError`` text.  The one allowed divergence is a number holding a
non-ASCII or non-octal digit: the reference passes the digit run to
``int()``, which either raises ``ValueError`` (``1²``, ``08``) or reads a
Unicode decimal digit (``٣``) as a number, where the production lexer
raises a located ``LexError``.
"""

import pathlib
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.workloads import paper_scale_units
from tests.lang import reference_lexer

EXAMPLES = sorted(
    path
    for path in (pathlib.Path(__file__).parents[2] / "examples").iterdir()
    if path.is_file()
)

#: Fragments that steer random strings into every lexer state.
FRAGMENTS = [
    "/*", "*/", "//", '#line 7 "g.c"\n', "# 3\n", "#define X \\\n 1\n",
    "0x", "0X1f", "0", "07", "08", "12uL", '"', "'", "\\", "\\n", "\\q",
    "\\\n", "\n", " ", "\t", "\r", "'a'", '"s\\t"', "->", "...", "<<=",
    "int", "_x9", "é", "λ", "²", "٣", "½", " ", "\v", "@", "#",
]

C_ISH = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.sampled_from("abcxyzL_019+-*/%=<>!&|^~(){}[],;.?:"),
        st.characters(),
    ),
    max_size=40,
).map("".join)


def lex(lexer, text):
    """The token stream as plain tuples, or the ``LexError`` raised."""
    try:
        tokens = lexer(text, "f.c")
    except LexError as error:
        return error
    return [
        (t.kind, t.value, t.loc.filename, t.loc.line, t.loc.column)
        for t in tokens
    ]


def is_number_error(outcome):
    return isinstance(outcome, LexError) and (
        outcome.message.startswith("non-ASCII digit")
        or outcome.message.startswith("invalid digit")
    )


def assert_lexers_agree(text):
    new = lex(tokenize, text)
    try:
        old = lex(reference_lexer.tokenize, text)
    except ValueError:
        # int() rejected the reference's digit run.
        assert is_number_error(new), (text, new)
        return
    if is_number_error(new):
        # The reference read a Unicode decimal digit as part of a number.
        assert new.message.startswith("non-ASCII digit"), (text, new)
        digit = new.message.split("'")[1]
        assert unicodedata.decimal(digit, None) is not None, (text, new)
        return
    if isinstance(new, LexError) or isinstance(old, LexError):
        assert str(new) == str(old), text
    else:
        assert new == old, text


@settings(max_examples=1000, deadline=None)
@given(C_ISH)
def test_random_c_ish_text(text):
    assert_lexers_agree(text)


@pytest.mark.parametrize(
    "unit", paper_scale_units(scale=0.05), ids=lambda unit: unit.name
)
def test_paper_scale_sources(unit):
    assert_lexers_agree(unit.source)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_files(path):
    assert_lexers_agree(path.read_text())


@pytest.mark.parametrize(
    "text", ["int x = 1²;", "a = 08;", "x = ٣;", "y = 1٣;"]
)
def test_number_divergences_are_expected(text):
    assert is_number_error(lex(tokenize, text))
    assert_lexers_agree(text)


def test_unterminated_block_comment_is_routed_to_the_error():
    assert_lexers_agree("a /* b */ c /* d")
    assert str(lex(tokenize, "a /* b */ c /* d")) == (
        "f.c:1:13: unterminated block comment"
    )
