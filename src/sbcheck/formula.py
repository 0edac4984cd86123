"""Quantifier-free constraint formulas over finite-domain observables.

Atoms are boolean observables or comparisons between integer terms; enum
values may only be compared with ``==`` / ``!=`` against observables of the
same enum.  Precedence, tightest first (so ``!p == 0`` is ``!(p == 0)``)::

    + -   >   == != < <= > >=   >   !   >   &&   >   ||   >   ->

``->`` associates to the right, ``&&`` / ``||`` / ``+`` / ``-`` to the left.
Integer arithmetic inside formulas is unbounded; observable domains only
restrict the values a state may carry, not the literals a formula may use.
"""

import operator

from . import _lex
from ._lex import And, BoolLit, Implies, Not, Or  # the connective nodes, shared with CTL
from ._record import Record, set_field
from .errors import FormulaError, ModelError

# ---------------------------------------------------------------------------
# observable declarations


class BoolDomain(Record):
    """Two-valued domain {false, true}."""

    __slots__ = ()


class IntRange(Record):
    """Bounded integer interval [lo..hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ModelError(f"empty integer range [{lo}..{hi}]")
        super().__init__(lo, hi)


class EnumDomain(Record):
    """Finite set of named values, a tuple of str."""

    __slots__ = ("values",)

    def __init__(self, values):
        if not values:
            raise ModelError("enum domain with no values")
        if len(set(values)) != len(values):
            twice = next(v for i, v in enumerate(values) if v in values[:i])
            raise ModelError(f"duplicate enum value {twice!r}")
        super().__init__(values)


def domain_contains(domain, value):
    # bool is a subclass of int, so the checks are type-strict on purpose
    if isinstance(domain, BoolDomain):
        return type(value) is bool
    if isinstance(domain, IntRange):
        return type(value) is int and domain.lo <= value <= domain.hi
    return type(value) is str and value in domain.values


def domain_text(domain):
    if isinstance(domain, BoolDomain):
        return "bool"
    if isinstance(domain, IntRange):
        return f"int[{domain.lo}..{domain.hi}]"
    return "enum {" + ", ".join(domain.values) + "}"


class ObservableDecl(Record):
    """Observable ``name`` with a BoolDomain, IntRange or EnumDomain ``domain``."""

    __slots__ = ("name", "domain")


class Observables(Record):
    """Ordered observable declarations sharing one flat namespace.

    Observable names and enum value names must not collide, nor be
    ``true`` or ``false``: a bare identifier in a formula resolves to the
    boolean literal, an observable or an enum value, never ambiguously.
    ``decls`` is the one field, so declarations in another order are
    another value, as :func:`sbcheck.ingest.save` prints them.
    """

    __slots__ = ("decls", "_names", "_domains", "_enum_owner", "_checked")

    def __init__(self, decls):
        decls = tuple(decls)
        seen = set()
        for d in decls:
            names = (d.name, *(d.domain.values if isinstance(d.domain, EnumDomain) else ()))
            for name in names:
                if name in ("true", "false"):  # read as the boolean literal in every formula
                    raise ModelError(f"reserved name {name!r} in observable declarations")
            for name in names:
                if name in seen:
                    raise ModelError(f"duplicate name {name!r} in observable declarations")
                seen.add(name)
        super().__init__(decls)
        set_field(self, "_names", tuple(d.name for d in decls))
        set_field(self, "_domains", {d.name: d.domain for d in decls})
        set_field(self, "_enum_owner", {
            v: d.name for d in decls if isinstance(d.domain, EnumDomain) for v in d.domain.values
        })
        set_field(self, "_checked", {})  # id -> a formula typecheck returned for these declarations

    def names(self):
        return self._names

    def domain(self, name):
        """The domain of observable ``name``, or None when it is not declared."""
        return self._domains.get(name)

    def enum_owner(self, value):
        """Name of the enum observable declaring ``value``, or None."""
        return self._enum_owner.get(value)


def check_valuation(observables, valuation):
    """Raise ModelError unless ``valuation`` binds exactly the declared names to in-domain values."""
    names = observables._domains.keys()
    if valuation.keys() != names:
        got = set(valuation)
        missing = sorted(names - got)
        extra = sorted(got - names)
        parts = []
        if missing:
            parts.append("missing " + ", ".join(missing))
        if extra:
            parts.append("undeclared " + ", ".join(extra))
        raise ModelError("bad valuation: " + "; ".join(parts))
    for name, dom in observables._domains.items():
        if not domain_contains(dom, valuation[name]):
            raise ModelError(
                f"value {valuation[name]!r} of {name!r} outside domain {domain_text(dom)}"
            )


# ---------------------------------------------------------------------------
# abstract syntax


class IntLit(Record):
    __slots__ = ("value", "pos")


class Name(Record):
    """Observable reference; a bare boolean atom or an integer/enum term."""

    __slots__ = ("name", "pos")


class EnumLit(Record):
    """Enum value literal, produced by :func:`typecheck` for undeclared identifiers."""

    __slots__ = ("value", "pos")


class _Binary(Record):
    """``left op right``, an operator on terms."""

    __slots__ = ("op", "left", "right", "pos")


class Arith(_Binary):
    __slots__ = ()  # op: '+' or '-'


class Compare(_Binary):
    __slots__ = ()  # op: '==' '!=' '<' '<=' '>' '>='


# ---------------------------------------------------------------------------
# parsing

# The most frequent first, each longer operator before its prefix.
RULES = [
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("int", r"[0-9]+"),
    ("and", r"&&"),
    ("or", r"\|\|"),
    ("ne", r"!="),
    ("not", r"!"),
    ("lpar", r"\("),
    ("rpar", r"\)"),
    ("arrow", r"->"),
    ("eq", r"=="),
    ("le", r"<="),
    ("ge", r">="),
    ("lt", r"<"),
    ("gt", r">"),
    ("plus", r"\+"),
    ("minus", r"-"),
]

LEXER = _lex.Lexer(RULES, FormulaError)

_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
# comparisons bind tighter than "!", and "+ -" tighter still
_BINARY = {kind: (_lex.UNARY + 1, Compare, (op,)) for kind, op in _CMP.items()}
_BINARY.update(plus=(_lex.UNARY + 2, Arith, ("+",)), minus=(_lex.UNARY + 2, Arith, ("-",)))


def _operand(p, term):
    """A prefix ``!``, an opened ``(`` or an atom; only a term where ``term``."""
    t = p.tokens[p.i]
    p.i += 1
    kind = t.kind
    if kind == "lpar":
        return _TERM_GROUP if term else _GROUP
    pos = t.source.position(t.offset)
    if kind == "ident":
        if t.text == "true" or t.text == "false":
            if term:
                raise _lex.failure(FormulaError, t, f"{t.text!r} is not an arithmetic term")
            return BoolLit(t.text == "true", pos)
        return Name(t.text, pos)
    if kind == "not" and not term:
        return (_lex.UNARY, Not, (), pos)
    if kind == "int":
        return IntLit(int(t.text), pos)
    if kind == "minus":
        lit = p.take()
        if lit.kind != "int":
            raise _lex.failure(FormulaError, lit, "expected an integer after '-'")
        return IntLit(-int(lit.text), pos)
    what = "expected an integer, an observable or '('" if term else "expected a formula"
    raise _lex.failure(FormulaError, t, what)


LANGUAGE = _lex.Language(_operand, FormulaError, _BINARY, (Name, IntLit, Arith), (Name,))
_GROUP = _lex.Bracket(LANGUAGE, ")", "expected ')'", sort=_lex.EITHER)
_TERM_GROUP = _lex.Bracket(LANGUAGE, ")", "expected ')'", sort=_lex.TERM)


def parse_raw(text):
    """Parse formula syntax without resolving names (no declarations needed)."""
    return _lex.expression(LEXER.parser(text), LANGUAGE)


# ---------------------------------------------------------------------------
# type checking

_INT, _BOOL = "int", "bool"
_SORTS = {IntRange: _INT, BoolDomain: _BOOL}  # an enum term's type names its observable
_ORDERED = ("<", "<=", ">", ">=")
TERM_OPERATORS = (Compare, Arith)  # a node is a term exactly when its parent is one of these


def typecheck(phi, observables):
    """Validate ``phi`` against the declarations.

    Returns the formula with undeclared identifiers that name enum values
    rewritten to :class:`EnumLit`; where it rewrites nothing, ``phi`` itself,
    so an already-checked formula costs no new node.  A formula this
    function returned for ``observables`` before is returned at once.
    Raises :class:`FormulaError` on undeclared names and type mismatches.
    """
    checked = observables._checked
    if checked.get(id(phi)) is phi:
        return phi
    domain = observables._domains.get
    rewritten = False  # whether a name was rewritten yet, so that a node above it may be

    def check(node, args, parent):
        """The checked node; for a term, ``(node, type)``: 'int', 'bool' or ('enum', name)."""
        nonlocal rewritten
        cls = type(node)
        if type(parent) in TERM_OPERATORS:
            if cls is Name:
                dom = domain(node.name)
                if dom is None:
                    owner = observables.enum_owner(node.name)
                    if owner is None:
                        raise _fail(f"undeclared observable {node.name!r}", node)
                    rewritten = True
                    return EnumLit(node.name, node.pos), ("enum", owner)
                return node, _SORTS.get(type(dom)) or ("enum", node.name)
            if cls is IntLit:
                return node, _INT
            if cls is Arith:
                (left, lt), (right, rt) = args
                if lt != _INT or rt != _INT:
                    raise _fail("arithmetic on a non-integer operand", node)
                return _with(node, left, right), _INT
            if cls is EnumLit:
                owner = observables.enum_owner(node.value)
                if owner is None:
                    raise _fail(f"unknown enum value {node.value!r}", node)
                return node, ("enum", owner)
            raise FormulaError(f"not a term node: {node!r}")
        if cls is Name:
            dom = domain(node.name)
            if type(dom) is BoolDomain:
                return node
            if dom is not None:
                raise _fail(f"observable {node.name!r} is not boolean", node)
            if observables.enum_owner(node.name) is None:
                raise _fail(f"undeclared observable {node.name!r}", node)
            raise _fail(f"enum value {node.name!r} cannot stand alone as a boolean atom", node)
        if cls in _lex.CONNECTIVES:  # rebuilt only where an operand was
            if not rewritten or all(map(operator.is_, args, _lex.operands(node))):
                return node
            return cls(*args, pos=node.pos)
        if cls is Compare:
            (left, lt), (right, rt) = args
            if node.op in _ORDERED:
                if lt != _INT or rt != _INT:
                    raise _fail(f"ordered comparison {node.op!r} needs integer operands", node)
            elif lt != rt:
                raise _fail(f"operands of {node.op!r} have mismatched types", node)
            return _with(node, left, right)
        raise FormulaError(f"not a formula node: {node!r}")

    phi = _lex.fold(phi, check)
    checked[id(phi)] = phi
    return phi


def _fail(message, node):
    return FormulaError(message, *(node.pos or (None, None)))


def _with(node, left, right):
    """``node`` with operands ``left`` and ``right``; ``node`` itself if they are its own."""
    if left is node.left and right is node.right:
        return node
    return type(node)(node.op, left, right, node.pos)


# ---------------------------------------------------------------------------
# evaluation

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


def evaluate(phi, valuation):
    """Truth value of ``phi`` under ``valuation`` (a name -> value mapping).

    The formula must have been typechecked against the declarations the
    valuation comes from; enum literals then evaluate to themselves.
    Every operand is evaluated: ``&&``, ``||`` and ``->`` do not stop early.
    """

    def value(node, args, parent):
        cls = type(node)
        if cls is Name:
            try:
                v = valuation[node.name]
            except KeyError:
                raise FormulaError(f"observable {node.name!r} is unbound in this valuation") from None
            if type(v) is not bool and type(parent) not in TERM_OPERATORS:
                raise FormulaError(f"observable {node.name!r} is not boolean here")
            return v
        if cls in _lex.CONNECTIVES:
            return _lex.boolean(node, args, True)
        if cls is IntLit or cls is EnumLit:
            return node.value
        if cls is Compare:
            if node.op in _ORDERED and (type(args[0]) is not int or type(args[1]) is not int):
                raise FormulaError(f"ordered comparison {node.op!r} on non-integer values")
            return _COMPARE[node.op](*args)
        if cls is Arith:
            lv, rv = args
            if type(lv) is not int or type(rv) is not int:
                raise FormulaError("arithmetic on non-integer values")
            return lv + rv if node.op == "+" else lv - rv
        raise FormulaError(f"not a formula node: {node!r}")

    return _lex.fold(phi, value)


# ---------------------------------------------------------------------------
# printing

def unparse(phi):
    """Render ``phi`` as parseable text; parsing it back gives an equal AST."""
    return _lex.fold(phi, _text)


def _text(node, args, parent):
    cls = type(node)
    if cls is Name:
        return node.name
    if cls in _lex.CONNECTIVES:
        return _lex.text(node, args, _lex.LEVELS)
    if cls is Compare or cls is Arith:
        nested = cls is Arith and type(node.right) is Arith  # parenthesised to re-parse
        return f"{args[0]} {node.op} " + (f"({args[1]})" if nested else args[1])
    if cls is IntLit or cls is EnumLit:
        return str(node.value)
    raise FormulaError(f"not a formula node: {node!r}")
