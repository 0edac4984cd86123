"""The front-end core shared by the three text languages.

A language gives its token table to :class:`Lexer` and parses with one
:class:`Parser` cursor.  The constraint and CTL languages share their
connectives: the node classes :class:`BoolLit`, :class:`Not`, :class:`And`,
:class:`Or` and :class:`Implies` live here, :func:`connectives` parses them
and :func:`join` prints a chain with the fewest parentheses.
"""

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

EOF = "eof"

# Taken up after every token and before the first: whitespace, newlines
# and "//" comments, which run to the end of the line.
_SKIP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_NEWLINE = re.compile(r"\n")


class Token(NamedTuple):
    """A token of kind ``kind`` spelled ``text`` at ``offset`` in its source.

    ``lines`` holds the offsets of the source's newlines, one list shared
    by all its tokens, so ``line`` and ``col`` cost a bisection and only
    when read: by an error or an AST ``pos``.
    """

    kind: str
    text: str
    offset: int
    lines: list

    @property
    def line(self):
        return bisect_right(self.lines, self.offset) + 1

    @property
    def col(self):
        i = bisect_right(self.lines, self.offset)
        return self.offset - (self.lines[i - 1] if i else -1)


class Lexer:
    """A token table compiled into one master regex.

    ``rules`` is an ordered list of ``(kind, pattern)`` strings, patterns
    without capturing groups; at each position the first pattern that
    matches wins, so longer operators go before their prefixes.  Errors
    are raised as ``error_cls(message, line, col)``.
    """

    def __init__(self, rules, error_cls):
        self.rules = rules
        self.error_cls = error_cls
        alternatives = "".join(f"(?P<{k}>{p})|" for k, p in rules)
        # One match per token, with the skip after it; where no rule
        # matches, "_bad" takes the rest of the text.
        self._scan = re.compile(f"(?:{alternatives}(?P<_bad>[\\s\\S]+)){_SKIP}").finditer
        self._lead = re.compile(_SKIP).match

    def tokenize(self, text):
        """Split ``text`` into tokens, always ending with an EOF token."""
        lines = [m.start() for m in _NEWLINE.finditer(text)]
        new = tuple.__new__
        out = [
            new(Token, (m.lastgroup, m[m.lastindex], m.start(), lines))
            for m in self._scan(text, self._lead(text).end())
        ]
        end = 0
        if out:
            last = out[-1]
            if last.kind == "_bad":
                raise self.error_cls(
                    f"unexpected character {last.text[0]!r}", last.line, last.col
                )
            end = last.offset + len(last.text)
        # After a comment that ends the text, EOF sits where it starts.  On
        # the last line of the skip after the last token, only blanks can
        # come before that comment.
        comment = text.find("//", max(end, text.rfind("\n", end) + 1))
        out.append(new(Token, (EOF, "", len(text) if comment < 0 else comment, lines)))
        return out

    def parser(self, text):
        """A :class:`Parser` over the tokens of ``text``."""
        return Parser(self.tokenize(text), self.error_cls)


class Parser:
    """Cursor over a token list; errors name the token they stopped at."""

    def __init__(self, tokens, error_cls, i=0):
        self.tokens = tokens
        self.error_cls = error_cls
        self.i = i
        self._closing = {}  # index of a "(" -> index of its ")", or None
        self.memo = {}  # results a grammar caches for one parse, keyed as it chooses

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, what=None):
        t = self.tokens[self.i]
        if kind is not None and t.kind != kind:
            raise self.fail(what or f"expected {kind}")
        self.i += 1
        return t

    def keyword(self, word):
        if not self.at_keyword(word):
            raise self.fail(f"expected {word!r}")
        return self.take()

    def at_keyword(self, word):
        t = self.tokens[self.i]
        return t.kind == "ident" and t.text == word

    def closing(self, i):
        """Index of the ``)`` that closes the ``(`` at token ``i``; None if unclosed.

        A scan records every group it passes, so each token is scanned once.
        """
        if i not in self._closing:
            opened = []
            for j in range(i, len(self.tokens)):
                kind = self.tokens[j].kind
                if kind == "lpar":
                    opened.append(j)
                elif kind == "rpar":
                    self._closing[opened.pop()] = j
                    if not opened:
                        break
            for k in opened:
                self._closing[k] = None
        return self._closing[i]

    def fail(self, msg):
        t = self.tokens[self.i]
        found = "end of input" if t.kind == EOF else repr(t.text)
        return self.error_cls(f"{msg}, found {found}", t.line, t.col)


def position():
    """The ``pos`` field of an AST node: ``(line, col)`` or None, ignored by ``==``."""
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# connective nodes, shared by constraint formulas and CTL


@dataclass(frozen=True)
class BoolLit:
    value: bool
    pos: tuple | None = position()


@dataclass(frozen=True)
class Not:
    arg: object
    pos: tuple | None = position()


def not_run(node):
    """The chain of :class:`Not` nodes that starts at ``node``, outermost first.

    A walk over a formula takes a run of ``!`` in one step, so any length
    costs one frame.
    """
    run = []
    while isinstance(node, Not):
        run.append(node)
        node = node.arg
    return run


@dataclass(frozen=True, init=False)
class _Chain:
    """A connective over ``args``, a tuple of two or more operands.

    An operand of the same connective on the chain's associative side (the
    first for ``&&``/``||``, the last for ``->``) is spliced in, so chains
    are one-to-one with binary trees: ``(a && b) && c`` builds the same node
    as ``a && b && c``, while ``a && (b && c)`` keeps its inner node.
    """

    args: tuple
    pos: tuple | None = position()
    _side = 0  # index of the associative operand

    def __init__(self, *args, pos=None):
        if len(args) < 2:
            raise TypeError(f"{type(self).__name__} needs two or more operands")
        edge = args[self._side]
        if type(edge) is type(self):
            args = edge.args + args[1:] if self._side == 0 else args[:-1] + edge.args
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "pos", pos)


class And(_Chain):
    pass


class Or(_Chain):
    pass


class Implies(_Chain):
    _side = -1


# precedence levels for printing, loosest first
IMPLIES, OR, AND, UNARY, ATOM = 1, 2, 3, 4, 5
LEVELS = {Implies: IMPLIES, Or: OR, And: AND, Not: UNARY}
_SYMBOL = {IMPLIES: "->", OR: "||", AND: "&&"}
_CONNECTIVE = {"arrow": Implies, "or": Or, "and": And}


def connectives(p, operand):
    """Parse ``operand`` joined by ``&&``, then ``||``, then ``->``.

    One loop keeps the chains still open, loosest first.  An operator
    closes every open chain that binds tighter, then extends the open chain
    of its own connective or opens a new one.  So each run of one
    connective is one node, whatever its length, and ``->`` costs no
    recursion either.
    """
    chains = []  # (class, operands so far, position of its first operator)
    x = operand(p)
    while True:
        cls = _CONNECTIVE.get(p.peek().kind)
        lvl = LEVELS[cls] if cls else 0
        while chains and LEVELS[chains[-1][0]] > lvl:
            top, args, pos = chains.pop()
            x = top(*args, x, pos=pos)
        if cls is None:
            return x
        t = p.take()
        if chains and chains[-1][0] is cls:
            chains[-1][1].append(x)
        else:
            chains.append((cls, [x], (t.line, t.col)))
        x = operand(p)


def level(node, levels):
    """Precedence level of ``node``; ``levels`` maps node classes to levels."""
    return levels.get(type(node), ATOM)


def join(node, unparse, levels):
    """Render a connective chain, parenthesising each operand at or below its level.

    The constructor has spliced away every same-connective operand that
    needs no parentheses, so one rule serves both associativities.
    """
    lvl = levels[type(node)]
    parts = []
    for arg in node.args:
        text = unparse(arg)
        parts.append(f"({text})" if level(arg, levels) <= lvl else text)
    return f" {_SYMBOL[lvl]} ".join(parts)
