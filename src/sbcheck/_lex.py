"""The front-end core shared by the three text languages.

A language gives its token table to :class:`Lexer` and parses with one
:class:`Parser` cursor.  The constraint and CTL languages share their
connectives and one parser: the node classes :class:`BoolLit`, :class:`Not`,
:class:`And`, :class:`Or` and :class:`Implies` live here, :func:`expression`
parses either language (CTL's ``@(...)`` switches to the constraint one)
with one explicit stack of open brackets, and :func:`join` prints a chain
with the fewest parentheses.  A :class:`Language` supplies only an operand
reader and, for constraint formulas, the operators on terms.  Every walk
over a tree of either language is a :func:`fold` over :func:`operands`.
"""

import re
from bisect import bisect_right
from collections import namedtuple
from functools import reduce
from itertools import accumulate
from operator import and_, attrgetter, or_

from ._record import Record, set_field

EOF = "eof"

# Taken up after every token and before the first: whitespace, newlines
# and "//" comments, which run to the end of the line.
_SKIP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_SKIP_HEADS = " \t\r\n/"  # the characters a skip can start with


class Source:
    """A text to tokenize, and the offsets where its lines start.

    The line starts are found on the first :meth:`position` asked of the
    text, for an error or a formula node, and kept for the rest.  So a
    model file read without error never has them found, and a position
    costs one bisection even on a long line.  A text without a newline,
    such as every quoted formula, has its one line found without a split,
    and a position on the first line costs no bisection.
    """

    __slots__ = ("text", "_starts")

    def __init__(self, text):
        self.text = text
        self._starts = None

    def position(self, offset):
        """The ``(line, col)`` of ``offset``, each counted from 1."""
        starts = self._starts
        if starts is None:
            starts = self._starts = self.line_starts()
        if offset < starts[1]:  # on the first line, the only one of most texts
            return 1, offset + 1
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def line_starts(self):
        """0 and the offset after each newline of the text, then ``len(text) + 1``."""
        text = self.text
        if "\n" not in text:
            return [0, len(text) + 1]
        return [0, *accumulate(len(line) + 1 for line in text.split("\n"))]


class Token(namedtuple("Token", "kind text offset source")):
    """A token of kind ``kind`` spelled ``text`` at ``offset`` in ``source``.

    ``source`` is the :class:`Source` shared by all tokens of one text.
    ``line`` and ``col`` (``pos`` for both) are computed from it only when
    read: by an error, or for an AST node's ``pos``, which the operand
    readers take as ``source.position(offset)`` without this property.
    """

    __slots__ = ()

    @property
    def pos(self):
        """``(line, col)``."""
        return self.source.position(self.offset)

    @property
    def line(self):
        return self.pos[0]

    @property
    def col(self):
        return self.pos[1]


class Lexer:
    """A token table compiled into one master regex on the first :meth:`tokenize`.

    ``rules`` is an ordered list of ``(kind, pattern)`` strings, patterns
    without capturing groups; at each position the first pattern that
    matches wins, so longer operators go before their prefixes.  Errors
    are raised as ``error_cls(message, line, col)``.
    """

    def __init__(self, rules, error_cls):
        self.rules = rules
        self.error_cls = error_cls
        self._scan = self._lead = None

    def _compile(self):
        alternatives = "".join(f"(?P<{k}>{p})|" for k, p in self.rules)
        # One match per token, with the skip after it; where no rule
        # matches, "_bad" takes the rest of the text.
        self._scan = re.compile(f"(?:{alternatives}(?P<_bad>[\\s\\S]+)){_SKIP}").finditer
        self._lead = re.compile(_SKIP).match

    def tokenize(self, text):
        """Split ``text``, a string or a :class:`Source`, into tokens, always
        ending with an EOF token.  Tokens of one :class:`Source` share its
        line starts."""
        if self._scan is None:
            self._compile()
        source = text if type(text) is Source else Source(text)
        text = source.text
        new = tuple.__new__
        start = self._lead(text).end() if text[:1] in _SKIP_HEADS else 0
        out = [
            new(Token, (m.lastgroup, m[m.lastindex], m.start(), source))
            for m in self._scan(text, start)
        ]
        end, eof = 0, len(text)
        if out:
            last = out[-1]
            if last.kind == "_bad":
                raise self.error_cls(f"unexpected character {last.text[0]!r}", *last.pos)
            end = last.offset + len(last.text)
        if end < eof:
            # After a comment that ends the text, EOF sits where it starts.
            # On the last line of the skip after the last token, only
            # blanks can come before that comment.
            comment = text.find("//", max(end, text.rfind("\n", end) + 1))
            if comment >= 0:
                eof = comment
        out.append(new(Token, (EOF, "", eof, source)))
        return out

    def parser(self, text):
        """A :class:`Parser` over the tokens of ``text``, a string or a :class:`Source`."""
        return Parser(self.tokenize(text), self.error_cls)


class Parser:
    """Cursor over a token list; errors name the token they stopped at."""

    def __init__(self, tokens, error_cls):
        self.tokens = tokens
        self.error_cls = error_cls
        self.i = 0

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

    def fail(self, msg):
        return failure(self.error_cls, self.tokens[self.i], msg)


def failure(error_cls, t, msg):
    """An ``error_cls`` for ``msg`` that names token ``t`` and points at it."""
    found = "end of input" if t.kind == EOF else repr(t.text)
    return error_cls(f"{msg}, found {found}", *t.pos)


# ---------------------------------------------------------------------------
# connective nodes, shared by constraint formulas and CTL
#
# Every AST node of both languages is a :class:`Record` whose last slot
# ``pos`` is its ``(line, col)`` or None, which ``==`` ignores.


class BoolLit(Record):
    __slots__ = ("value", "pos")


class Not(Record):
    __slots__ = ("arg", "pos")


class _Chain(Record):
    """A connective over ``args``, a tuple of two or more operands.

    An operand of the same connective on the chain's associative side (the
    first for ``&&``/``||``, the last for ``->``) is spliced in, so chains
    are one-to-one with binary trees: ``(a && b) && c`` builds the same node
    as ``a && b && c``, while ``a && (b && c)`` keeps its inner node.
    """

    __slots__ = ("args", "pos")
    _side = 0  # index of the associative operand

    def __init__(self, *args, pos=None):
        if len(args) < 2:
            raise TypeError(f"{type(self).__name__} needs two or more operands")
        edge = args[self._side]
        if type(edge) is type(self):
            args = edge.args + args[1:] if self._side == 0 else args[:-1] + edge.args
        set_field(self, "args", args)
        set_field(self, "pos", pos)


class And(_Chain):
    __slots__ = ()


class Or(_Chain):
    __slots__ = ()


class Implies(_Chain):
    __slots__ = ()
    _side = -1


CONNECTIVES = frozenset({BoolLit, Not, And, Or, Implies})


def boolean(node, values, top):
    """The value of a connective ``node`` from its operands' ``values``.

    Values are those of a Boolean algebra with ``^``, ``&`` and ``|`` whose
    greatest element is ``top``: truth values, bitsets or sets of states.
    """
    cls = type(node)
    if cls is Not:
        return top ^ values[0]
    if cls is Implies:  # a -> b -> c is !(a && b) || c
        return top ^ reduce(and_, values[:-1]) | values[-1]
    if cls is BoolLit:
        return top if node.value else top ^ top
    return reduce(and_ if cls is And else or_, values)


# precedence levels, loosest first; a language's term operators bind above UNARY
IMPLIES, OR, AND, UNARY, ATOM = 1, 2, 3, 4, 5
LEVELS = {Implies: IMPLIES, Or: OR, And: AND, Not: UNARY}
_SEPARATOR = {IMPLIES: " -> ", OR: " || ", AND: " && "}
_CONNECTIVE = {"arrow": (IMPLIES, Implies, ()), "or": (OR, Or, ()), "and": (AND, And, ())}

# What a bracket's content must be: a formula; a term; or either, for a "("
# where a formula may stand, whose term may go on after its ")".
FORMULA, TERM, EITHER = "formula", "term", "either"


class Language:
    """What :func:`expression` needs to know of a language besides its connectives.

    ``operand(p, term)`` reads from ``p`` and returns a prefix operator, an
    opened :class:`Bracket` or an atom node; ``term`` is true where only a
    term may stand.  A prefix operator is a tuple ``(UNARY, cls, args, pos)``
    that builds ``cls(*args, operand, pos)``.  ``binary`` maps the token
    kinds of term operators to ``(level, cls, args)``, levels above UNARY;
    they associate left and build ``cls(*args, left, right, pos)``.
    ``terms`` are the node classes a term operator takes, and of those only
    the ``bare`` ones may also stand as a formula.
    """

    def __init__(self, operand, error, binary=(), terms=(), bare=()):
        self.operand = operand
        self.error = error
        self.binary = {**_CONNECTIVE, **dict(binary)}
        self.terms = frozenset(terms)
        self.not_formulas = self.terms - frozenset(bare)
        self.whole = Bracket(self, "", "unexpected trailing input")  # the whole text

    def not_a_formula(self, after):
        """The error for a node of :attr:`not_formulas` that stands as a
        formula; ``after`` is the token after it."""
        what = "expected a comparison operator after an arithmetic term"
        return failure(self.error, after, what)


class Bracket:
    """A kind of bracket: its content's language and sort, and how it closes.

    It closes at the token spelled ``close`` (the end of the text is
    spelled ``""``); any other token where its content ends is an error
    ``what`` of the language it opened in.  ``build`` makes the node from
    the content, or opens the next bracket of a compound one such as
    ``A[ ... U ... ]``.  :func:`expression` keeps the operators waiting
    inside an open bracket, so a bracket without a ``build`` of its own is
    built once per language and shared by every parse.
    """

    __slots__ = ("language", "close", "what", "build", "sort")

    def __init__(self, language, close, what, build=None, sort=FORMULA):
        self.language = language
        self.close = close
        self.what = what
        self.build = build
        self.sort = sort


def _apply(ops, bound, x, language, after):
    """Apply to ``x`` every waiting operator that binds tighter than ``bound``."""
    while ops and ops[-1][0] > bound:
        lvl, cls, args, pos = ops.pop()
        if lvl <= UNARY and type(x) in language.not_formulas:
            raise language.not_a_formula(after)
        # a chain takes any number of operands, so its position by name
        x = cls(*args, x, pos=pos) if lvl <= AND else cls(*args, x, pos)
    return x


def expression(p, language):
    """Parse the tokens of ``p`` as one expression of ``language``.

    One loop keeps a stack of open brackets; the end of the text is the
    outermost.  An operator first applies the waiting operators of its
    bracket that bind tighter, then waits for its right operand; a run of
    one connective extends one chain.  A closing bracket applies all that
    wait in it.  So no nesting costs a frame and nothing is read twice.

    Whether a ``(`` where a formula may stand holds a term is settled by
    node sort when an operator applies: a term that fills its bracket goes
    on after the ``)`` with a term operator, and a term that must stand as
    a formula is reported at the token after it.
    """
    tokens = p.tokens
    position = tokens[-1].source.position
    top, ops = language.whole, []  # the innermost open bracket, and the operators waiting in it
    stack = []  # the brackets around it, each with its waiting operators
    while True:
        lang = top.language
        x = lang.operand(p, top.sort is TERM or bool(ops) and ops[-1][0] > UNARY)
        if type(x) is tuple:
            ops.append(x)
            continue
        if type(x) is Bracket:
            stack.append((top, ops))
            top, ops = x, []
            continue
        end = p.i  # the token after x while x is a term
        while True:  # binary operators and closing brackets, until one wants an operand
            t = tokens[p.i]
            op = lang.binary.get(t.kind)  # in a term bracket, only operators that build terms
            if op is not None and (top.sort is not TERM or op[1] in lang.terms):
                lvl, cls, args = op
                if lvl <= AND:
                    if ops and ops[-1][0] > lvl:
                        x = _apply(ops, lvl, x, lang, tokens[end])
                    if type(x) in lang.not_formulas:
                        raise lang.not_a_formula(tokens[end])
                    if ops and ops[-1][1] is cls:
                        ops[-1][2].append(x)
                    else:
                        ops.append((lvl, cls, [x], position(t.offset)))
                    p.i += 1
                    break
                # a term operator applies its equal too: it associates left
                if ops and ops[-1][0] >= lvl:
                    x = _apply(ops, lvl - 1, x, lang, tokens[end])
                if type(x) in lang.terms:
                    ops.append((lvl, cls, [*args, x], position(t.offset)))
                    p.i += 1
                    break
            if ops:
                x = _apply(ops, 0, x, lang, tokens[end])
            closes = t.text == top.close
            formula = top.sort is FORMULA or top.sort is EITHER and not closes
            if formula and type(x) in lang.not_formulas:
                raise lang.not_a_formula(tokens[end])
            if not closes:
                opener = stack[-1][0] if stack else top
                raise failure(opener.language.error, t, top.what)
            if not stack:
                return x
            p.i += 1
            if top.sort is TERM:
                end = p.i
            if top.build is not None:
                x = top.build(x)
            top, ops = stack.pop()
            lang = top.language
            if type(x) is Bracket:
                stack.append((top, ops))
                top, ops = x, []
                break


def join(node, texts, levels):
    """Render a connective chain from its operands' ``texts``, parenthesising
    each operand at or below its level.

    The constructor has spliced away every same-connective operand that
    needs no parentheses, so one rule serves both associativities.
    """
    lvl = levels[type(node)]
    parts = []
    for arg, text in zip(node.args, texts):
        parts.append(f"({text})" if levels.get(type(arg), ATOM) <= lvl else text)
    return _SEPARATOR[lvl].join(parts)


def prefix(symbol, node, text, levels, sep=""):
    """Render ``node``, a prefix operator ``symbol`` over the operand printed as ``text``."""
    bare = levels.get(type(node.arg), ATOM) >= UNARY
    return f"{symbol}{sep}{text}" if bare else f"{symbol}({text})"


def text(node, texts, levels):
    """The text of a connective ``node`` from its operands' ``texts``: the
    printing twin of :func:`boolean`."""
    cls = type(node)
    if cls is Not:
        return prefix("!", node, texts[0], levels)
    if cls is BoolLit:
        return "true" if node.value else "false"
    return join(node, texts, levels)


# ---------------------------------------------------------------------------
# walking a tree

def operands(node):
    """The operands of ``node``, a constraint formula or CTL node, in order.

    They are the node's field ``args``, a tuple, or ``arg``, or ``left``
    and ``right``.  So CTL's ``@(phi)``, whose formula is in ``phi``, is a
    leaf of the CTL walks, and the formula walks take its formula.
    """
    get = _GETTERS[type(node)]
    return () if get is None else get(node)


class _Getters(dict):
    """Node class -> function from a node of it to its operands, or None
    for a class whose nodes are leaves: a leaf costs no call."""

    def __missing__(self, cls):
        fields = cls._fields if issubclass(cls, Record) else ()
        get = self[cls] = next((g for f, g in _BY_FIELD.items() if f in fields), None)
        return get


_GETTERS = _Getters()
_BY_FIELD = {"args": attrgetter("args"), "arg": lambda node: (node.arg,),
             "left": attrgetter("left", "right")}


def fold(root, combine):
    """Fold the tree at ``root`` bottom-up with one explicit stack.

    Calls ``combine(node, values, parent)`` for every node, left to right
    and each after all of its operands; ``values`` are the results for the
    node's :func:`operands` and ``parent`` is the node it is an operand
    of, None at the root.  Returns the result for ``root``.  No depth
    costs a frame.
    """
    getters = _GETTERS
    args = operands(root)
    if not args:
        return combine(root, args, None)
    stack = []  # the open ancestors of ``node``, each with its state
    node, parent, todo, values = root, None, iter(args), []
    while True:
        for arg in todo:  # the next operand: a leaf is done at once
            get = getters[type(arg)]
            args = () if get is None else get(arg)
            if args:
                stack.append((node, parent, todo, values))
                node, parent, todo, values = arg, node, iter(args), []
                break
            values.append(combine(arg, args, node))
        else:
            value = combine(node, values, parent)
            if not stack:
                return value
            node, parent, todo, values = stack.pop()
            values.append(value)
