"""The front-end core shared by the three text languages.

A language gives its token table to :class:`Lexer`, parses with one
:class:`Parser` cursor, and, for the constraint and CTL languages, reads its
connectives with :func:`connectives` and prints them with :func:`binary`.
"""

import re
from dataclasses import dataclass

EOF = "eof"

# Skipped between tokens: the kinds start with "_" so no token table can
# name them.  A "//" comment runs to the end of the line.
_SKIP = [("_nl", r"\n"), ("_ws", r"[ \t\r]+"), ("_comment", r"//[^\n]*")]


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


class Lexer:
    """A token table compiled into one master regex.

    ``rules`` is an ordered list of ``(kind, pattern)`` strings; at each
    position the first pattern that matches wins, so longer operators go
    before their prefixes.  Errors are raised as ``error_cls(message, line,
    col)``.
    """

    def __init__(self, rules, error_cls):
        self.error_cls = error_cls
        self._match = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _SKIP + rules)).match

    def tokenize(self, text):
        """Split ``text`` into tokens, always ending with an EOF token."""
        out = []
        match = self._match
        pos, n = 0, len(text)
        line, line_start = 1, 0
        m = None
        while pos < n:
            m = match(text, pos)
            if m is None:
                raise self.error_cls(
                    f"unexpected character {text[pos]!r}", line, pos - line_start + 1
                )
            kind = m.lastgroup
            if kind == "_nl":
                line += 1
                line_start = m.end()
            elif kind[0] != "_":
                out.append(Token(kind, m.group(), line, pos - line_start + 1))
            pos = m.end()
        if m is not None and m.lastgroup == "_comment":
            pos = m.start()  # after a comment that ends the text, EOF sits where it starts
        out.append(Token(EOF, "", line, pos - line_start + 1))
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


def connectives(p, operand, implies, or_, and_):
    """Parse ``operand`` joined by ``&&``, then ``||``, then ``->``.

    ``&&`` and ``||`` associate to the left, ``->`` to the right.  The node
    constructors are called as ``node(left, right, pos=(line, col))``.
    """

    def conjunction():
        left = operand(p)
        while p.peek().kind == "and":
            t = p.take()
            left = and_(left, operand(p), pos=(t.line, t.col))
        return left

    left = conjunction()
    while p.peek().kind == "or":
        t = p.take()
        left = or_(left, conjunction(), pos=(t.line, t.col))
    if p.peek().kind == "arrow":
        t = p.take()
        return implies(left, connectives(p, operand, implies, or_, and_), pos=(t.line, t.col))
    return left


# precedence levels for printing, loosest first
IMPLIES, OR, AND, UNARY, ATOM = 1, 2, 3, 4, 5
_SYMBOL = {IMPLIES: "->", OR: "||", AND: "&&"}


def level(node, levels):
    """Precedence level of ``node``; ``levels`` maps node classes to levels."""
    return levels.get(type(node), ATOM)


def binary(node, unparse, levels):
    """Render a connective node, parenthesising an operand only where needed.

    A left-associative chain (``&&`` or ``||``) is walked down its left
    spine in a loop, so its length costs no recursion.
    """
    lvl = levels[type(node)]
    right_assoc = lvl == IMPLIES
    parts = []
    while True:
        right, rl = unparse(node.right), level(node.right, levels)
        parts.append(f"({right})" if rl < lvl or (not right_assoc and rl == lvl) else right)
        node = node.left
        ll = level(node, levels)
        if right_assoc or ll != lvl:
            break
    left = unparse(node)
    parts.append(f"({left})" if ll < lvl or (right_assoc and ll == lvl) else left)
    return f" {_SYMBOL[lvl]} ".join(reversed(parts))
