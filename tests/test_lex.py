"""Token kinds and line:col positions of the three text languages."""

import re
import sys
from functools import partial

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


def _node_positions(tree):
    """``type line:col`` of every node of ``tree`` in fold order; the
    formula of an ``@(...)`` comes just before its node."""
    out = []

    def visit(node, values, parent):
        if type(node) is C.ObsHolds:
            out.append(_node_positions(node.phi))
        out.append(f"{type(node).__name__} {node.pos[0]}:{node.pos[1]}")

    _lex.fold(tree, visit)
    return ", ".join(out)


@pytest.mark.parametrize(
    "parse, text, want",
    [
        # a run of "!"; a left-associative term chain and a negative literal
        (F.parse_raw, "!!!x && y", "Name 1:4, Not 1:3, Not 1:2, Not 1:1, Name 1:9, And 1:6"),
        (
            F.parse_raw,
            "a + 1 - b == -2 || c",
            "Name 1:1, IntLit 1:5, Arith 1:3, Name 1:9, Arith 1:7, IntLit 1:14, Compare 1:11, "
            "Name 1:20, Or 1:17",
        ),
        # a bracketed term, and brackets that make no node
        (
            F.parse_raw,
            "(a + 1) < b && !((c)) -> d",
            "Name 1:2, IntLit 1:6, Arith 1:4, Name 1:11, Compare 1:9, Name 1:19, Not 1:16, "
            "And 1:13, Name 1:26, Implies 1:23",
        ),
        (
            C.parse_ctl,
            "@(x && !y) -> EF steady",
            "Name 1:3, Name 1:9, Not 1:8, And 1:5, ObsHolds 1:1, Atom 1:18, Modal 1:15, "
            "Implies 1:12",
        ),
        (
            C.parse_ctl,
            "A[adapting U in(r1)] || E[!steady U @(p - 1 == q)]",
            "Atom 1:3, InState 1:14, Until 1:1, Atom 1:28, Not 1:27, Name 1:39, IntLit 1:43, "
            "Arith 1:41, Name 1:48, Compare 1:45, ObsHolds 1:37, Until 1:25, Or 1:22",
        ),
        # a --formula text over three lines
        (
            C.parse_ctl,
            "AG (adapting\n  -> AF steady)\n  && EX in(r0)",
            "Atom 1:5, Atom 2:9, Modal 2:6, Implies 2:3, Modal 1:1, InState 3:9, Modal 3:6, "
            "And 3:3",
        ),
    ],
)
def test_parsed_nodes_keep_their_positions(parse, text, want):
    assert _node_positions(parse(text)) == want


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
        elif isinstance(value, partial) and getattr(value.func, "__module__", None) == "re":
            yield value.args[0]  # a pattern ``re`` compiles on its first use


def test_patterns_use_no_regex_syntax_newer_than_python_3_10():
    if sys.version_info >= (3, 11):
        assert NEWER_THAN_3_10 <= set(_opcodes(sre_parse.parse(r"(?:a(?>b|c)*+)")))
    patterns = [p for m in (I, F, C, _lex) for p in _patterns(m)]
    assert len(patterns) >= 11  # four lexers, two patterns each, and the loose ones
    for pattern in patterns:
        assert not NEWER_THAN_3_10 & set(_opcodes(sre_parse.parse(pattern))), pattern
