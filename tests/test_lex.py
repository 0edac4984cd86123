"""Token kinds and line:col positions of the three text languages."""

import re
import sys

import pytest

import sbcheck._lex as _lex
import sbcheck.ctl as C
import sbcheck.formula as F
import sbcheck.ingest as I
from sbcheck.errors import CtlError, FormulaError, ModelFileError

LEXERS = {"formula": F.LEXER, "ctl": C.LEXER, "sbs": I.LEXER}
ERRORS = {"formula": FormulaError, "ctl": CtlError, "sbs": ModelFileError}


@pytest.mark.parametrize(
    "lang, text, want",
    [
        # an operator wins over its prefix
        ("formula", "a->b-1", "ident 1:1, arrow 1:2, ident 1:4, minus 1:5, int 1:6, eof 1:7"),
        ("formula", "!a!=b", "not 1:1, ident 1:2, ne 1:3, ident 1:5, eof 1:6"),
        (
            "formula",
            "a<=b<c>=d>e",
            "ident 1:1, le 1:2, ident 1:4, lt 1:5, ident 1:6, ge 1:7, ident 1:9, gt 1:10, "
            "ident 1:11, eof 1:12",
        ),
        # CTL has '[' and ']' but no '-[' or ']->'
        (
            "ctl",
            "E[x U y]->-[z]",
            "ident 1:1, lbracket 1:2, ident 1:3, ident 1:5, ident 1:7, rbracket 1:8, "
            "arrow 1:9, minus 1:11, lbracket 1:12, ident 1:13, rbracket 1:14, eof 1:15",
        ),
        (
            "ctl",
            "@(a!=1)\n\t!b",
            "at 1:1, lpar 1:2, ident 1:3, ne 1:4, int 1:6, rpar 1:7, not 2:2, ident 2:3, eof 2:4",
        ),
        (
            "sbs",
            'r -["x"]-> s;',
            "ident 1:1, arrowl 1:3, string 1:5, arrowr 1:8, ident 1:12, semi 1:13, eof 1:14",
        ),
        (
            "sbs",
            "a->b - [ ] int[-2..2]",
            "ident 1:1, arrow 1:2, ident 1:4, minus 1:6, lbracket 1:8, rbracket 1:10, "
            "ident 1:12, lbracket 1:15, minus 1:16, int 1:17, dotdot 1:18, int 1:20, "
            "rbracket 1:21, eof 1:22",
        ),
        # comments, tabs and newlines
        ("sbs", "a // c\n\t b", "ident 1:1, ident 2:3, eof 2:4"),
        ("sbs", "a\n// c\n", "ident 1:1, eof 3:1"),
        # after a comment that ends the text, EOF sits where the comment starts
        ("formula", "x && y // note", "ident 1:1, and 1:3, ident 1:6, eof 1:8"),
        ("ctl", "steady\n  //", "ident 1:1, eof 2:3"),
        ("sbs", "", "eof 1:1"),
        # a carriage return is a blank; "//" inside a string starts no comment
        ("sbs", "a\r\nb", "ident 1:1, ident 2:1, eof 2:2"),
        ("sbs", 'x "a // b"', "ident 1:1, string 1:3, eof 1:11"),
        ("sbs", 'x "a // b" // c', "ident 1:1, string 1:3, eof 1:12"),
        ("sbs", "a;// c", "ident 1:1, semi 1:2, eof 1:3"),
        ("formula", "  \n  ", "eof 2:3"),
    ],
)
def test_token_kinds_and_positions(lang, text, want):
    got = ", ".join(f"{t.kind} {t.line}:{t.col}" for t in LEXERS[lang].tokenize(text))
    assert got == want


@pytest.mark.parametrize(
    "lang, text, line, col, char",
    [
        ("formula", "\tx $", 1, 4, "$"),
        ("formula", "x // c\n  y # z", 2, 5, "#"),
        ("ctl", "a // c\n\t\t#", 2, 3, "#"),
        ("ctl", "AG {", 1, 4, "{"),
        ("sbs", "a\n\n  b ?", 3, 5, "?"),
        ("sbs", "a\nb ?", 2, 3, "?"),
        ("formula", "x\r\n$", 2, 1, "$"),
    ],
)
def test_unexpected_character_position(lang, text, line, col, char):
    with pytest.raises(ERRORS[lang]) as e:
        LEXERS[lang].tokenize(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert e.value.message == f"unexpected character {char!r}"


try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:
    import sre_parse

NEWER_THAN_3_10 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}  # *+ ++ ?+ {m,n}+ and (?>...)


def _opcodes(node):
    """The names of the opcodes in a parsed pattern, nested ones included."""
    if isinstance(node, sre_parse.SubPattern):
        for op, arg in node:
            yield str(op)
            yield from _opcodes(arg)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)


def _patterns(module):
    for value in vars(module).values():
        if isinstance(value, _lex.Lexer):
            value.tokenize("")  # a lexer compiles its patterns on first use
            yield value._scan.__self__.pattern
            yield value._lead.__self__.pattern
        elif isinstance(value, re.Pattern):
            yield value.pattern
        elif isinstance(getattr(value, "__self__", None), re.Pattern):
            yield value.__self__.pattern


def test_patterns_use_no_regex_syntax_newer_than_python_3_10():
    if sys.version_info >= (3, 11):
        assert NEWER_THAN_3_10 <= set(_opcodes(sre_parse.parse(r"(?:a(?>b|c)*+)")))
    patterns = [p for m in (I, F, C, _lex) for p in _patterns(m)]
    assert len(patterns) >= 11  # four lexers, two patterns each, and the loose ones
    for pattern in patterns:
        assert not NEWER_THAN_3_10 & set(_opcodes(sre_parse.parse(pattern))), pattern
