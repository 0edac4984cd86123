"""Quantifier-free constraint formulas over finite-domain observables.

Atoms are boolean observables or comparisons between integer terms; enum
values may only be compared with ``==`` / ``!=`` against observables of the
same enum.  Precedence, tightest first (so ``!p == 0`` is ``!(p == 0)``)::

    + -   >   == != < <= > >=   >   !   >   &&   >   ||   >   ->

``->`` associates to the right, ``&&`` / ``||`` / ``+`` / ``-`` to the left.
Integer arithmetic inside formulas is unbounded; observable domains only
restrict the values a state may carry, not the literals a formula may use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import _lex
from ._lex import And, BoolLit, Implies, Not, Or  # the connective nodes, shared with CTL
from .errors import FormulaError, ModelError

# ---------------------------------------------------------------------------
# observable declarations


@dataclass(frozen=True)
class BoolDomain:
    """Two-valued domain {false, true}."""


@dataclass(frozen=True)
class IntRange:
    """Bounded integer interval [lo..hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ModelError(f"empty integer range [{self.lo}..{self.hi}]")


@dataclass(frozen=True)
class EnumDomain:
    """Finite set of named values."""

    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ModelError("enum domain with no values")
        if len(set(self.values)) != len(self.values):
            raise ModelError("duplicate enum value")


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


@dataclass(frozen=True)
class ObservableDecl:
    name: str
    domain: BoolDomain | IntRange | EnumDomain


class Observables:
    """Ordered observable declarations sharing one flat namespace.

    Observable names and enum value names must not collide: a bare
    identifier in a formula resolves either to an observable or to an
    enum value, never ambiguously.
    """

    def __init__(self, decls):
        self.decls = tuple(decls)
        self._names = tuple(d.name for d in self.decls)
        self._name_set = frozenset(self._names)
        self._domains = {}
        self._enum_owner = {}
        for d in self.decls:
            if d.name in self._domains or d.name in self._enum_owner:
                raise ModelError(f"duplicate name {d.name!r} in observable declarations")
            self._domains[d.name] = d.domain
            if isinstance(d.domain, EnumDomain):
                for v in d.domain.values:
                    if v in self._domains or v in self._enum_owner:
                        raise ModelError(f"duplicate name {v!r} in observable declarations")
                    self._enum_owner[v] = d.name

    def names(self):
        return self._names

    def domain(self, name):
        try:
            return self._domains[name]
        except KeyError:
            raise ModelError(f"undeclared observable {name!r}") from None

    def domain_or_none(self, name):
        return self._domains.get(name)

    def enum_owner(self, value):
        """Name of the enum observable declaring ``value``, or None."""
        return self._enum_owner.get(value)

    def __eq__(self, other):
        return isinstance(other, Observables) and self._domains == other._domains

    def __repr__(self):
        return f"Observables({list(self.decls)!r})"


def check_valuation(observables, valuation):
    """Raise ModelError unless ``valuation`` binds exactly the declared names to in-domain values."""
    names = observables._name_set
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
    for name in observables.names():
        dom = observables.domain(name)
        if not domain_contains(dom, valuation[name]):
            raise ModelError(
                f"value {valuation[name]!r} of {name!r} outside domain {domain_text(dom)}"
            )


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class IntLit:
    value: int
    pos: tuple | None = _lex.position()


@dataclass(frozen=True)
class Name:
    """Observable reference; a bare boolean atom or an integer/enum term."""

    name: str
    pos: tuple | None = _lex.position()


@dataclass(frozen=True)
class EnumLit:
    """Enum value literal, produced by :func:`typecheck` for undeclared identifiers."""

    value: str
    pos: tuple | None = _lex.position()


@dataclass(frozen=True)
class Arith:
    op: str  # '+' or '-'
    left: object
    right: object
    pos: tuple | None = _lex.position()


@dataclass(frozen=True)
class Compare:
    op: str  # '==' '!=' '<' '<=' '>' '>='
    left: object
    right: object
    pos: tuple | None = _lex.position()


# ---------------------------------------------------------------------------
# parsing

RULES = [
    ("arrow", r"->"),
    ("ne", r"!="),
    ("le", r"<="),
    ("ge", r">="),
    ("eq", r"=="),
    ("and", r"&&"),
    ("or", r"\|\|"),
    ("not", r"!"),
    ("lt", r"<"),
    ("gt", r">"),
    ("plus", r"\+"),
    ("minus", r"-"),
    ("lpar", r"\("),
    ("rpar", r"\)"),
    ("int", r"[0-9]+"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
]

LEXER = _lex.Lexer(RULES, FormulaError)

_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
# comparisons bind tighter than "!", and "+ -" tighter still
_BINARY = {kind: (_lex.UNARY + 1, Compare, (op,)) for kind, op in _CMP.items()}
_BINARY.update(plus=(_lex.UNARY + 2, Arith, ("+",)), minus=(_lex.UNARY + 2, Arith, ("-",)))


def _operand(p, term):
    """A prefix ``!``, an opened ``(`` or an atom; only a term where ``term``."""
    t = p.take()
    kind, pos = t.kind, (t.line, t.col)
    if kind == "ident":
        if t.text == "true" or t.text == "false":
            if term:
                raise _lex.failure(FormulaError, t, f"{t.text!r} is not an arithmetic term")
            return BoolLit(t.text == "true", pos=pos)
        return Name(t.text, pos=pos)
    if kind == "int":
        return IntLit(int(t.text), pos=pos)
    if kind == "minus":
        lit = p.take()
        if lit.kind != "int":
            raise _lex.failure(FormulaError, lit, "expected an integer after '-'")
        return IntLit(-int(lit.text), pos=pos)
    if kind == "lpar":
        return _lex.Bracket(LANGUAGE, ")", "expected ')'", sort=_lex.TERM if term else _lex.EITHER)
    if kind == "not" and not term:
        return (_lex.UNARY, Not, (), pos)
    what = "expected an integer, an observable or '('" if term else "expected a formula"
    raise _lex.failure(FormulaError, t, what)


LANGUAGE = _lex.Language(_operand, FormulaError, _BINARY, (Name, IntLit, Arith), (Name,))


def parse_raw(text):
    """Parse formula syntax without resolving names (no declarations needed)."""
    return _lex.expression(LEXER.parser(text), LANGUAGE)


def parse_formula(text, observables):
    """Parse and typecheck a formula against ``observables``."""
    return typecheck(parse_raw(text), observables)


# ---------------------------------------------------------------------------
# type checking

_INT, _BOOL = "int", "bool"


def typecheck(phi, observables):
    """Validate ``phi`` against the declarations.

    Returns the formula with undeclared identifiers that name enum values
    rewritten to :class:`EnumLit`; where it rewrites nothing, ``phi`` itself,
    so an already-checked formula costs no new node.
    Raises :class:`FormulaError` on undeclared names and type mismatches.
    """
    return _check_formula(phi, observables)


def _check_formula(phi, obs):
    if isinstance(phi, BoolLit):
        return phi
    if isinstance(phi, Name):
        dom = obs.domain_or_none(phi.name)
        if dom is None:
            if obs.enum_owner(phi.name) is not None:
                raise FormulaError(
                    f"enum value {phi.name!r} cannot stand alone as a boolean atom",
                    *(phi.pos or (None, None)),
                )
            raise FormulaError(f"undeclared observable {phi.name!r}", *(phi.pos or (None, None)))
        if not isinstance(dom, BoolDomain):
            raise FormulaError(
                f"observable {phi.name!r} is not boolean", *(phi.pos or (None, None))
            )
        return phi
    if isinstance(phi, Not):
        run = _lex.not_run(phi)
        inner = _check_formula(run[-1].arg, obs)
        if inner is run[-1].arg:
            return phi
        for n in reversed(run):
            inner = replace(n, arg=inner)
        return inner
    if isinstance(phi, (And, Or, Implies)):
        args = [_check_formula(a, obs) for a in phi.args]
        if all(new is old for new, old in zip(args, phi.args)):
            return phi
        return type(phi)(*args, pos=phi.pos)
    if isinstance(phi, Compare):
        left, lt = _check_term(phi.left, obs)
        right, rt = _check_term(phi.right, obs)
        if phi.op in ("<", "<=", ">", ">="):
            if lt != _INT or rt != _INT:
                raise FormulaError(
                    f"ordered comparison {phi.op!r} needs integer operands",
                    *(phi.pos or (None, None)),
                )
        else:
            if lt != rt:
                raise FormulaError(
                    f"operands of {phi.op!r} have mismatched types", *(phi.pos or (None, None))
                )
        if left is phi.left and right is phi.right:
            return phi
        return replace(phi, left=left, right=right)
    raise FormulaError(f"not a formula node: {phi!r}")


def _check_term(t, obs):
    """Returns (resolved term, type) with type in 'int', 'bool' or ('enum', name)."""
    if isinstance(t, IntLit):
        return t, _INT
    if isinstance(t, Arith):
        left, lt = _check_term(t.left, obs)
        right, rt = _check_term(t.right, obs)
        if lt != _INT or rt != _INT:
            raise FormulaError("arithmetic on a non-integer operand", *(t.pos or (None, None)))
        if left is t.left and right is t.right:
            return t, _INT
        return replace(t, left=left, right=right), _INT
    if isinstance(t, EnumLit):
        owner = obs.enum_owner(t.value)
        if owner is None:
            raise FormulaError(f"unknown enum value {t.value!r}", *(t.pos or (None, None)))
        return t, ("enum", owner)
    if isinstance(t, Name):
        dom = obs.domain_or_none(t.name)
        if dom is None:
            owner = obs.enum_owner(t.name)
            if owner is not None:
                return EnumLit(t.name, pos=t.pos), ("enum", owner)
            raise FormulaError(f"undeclared observable {t.name!r}", *(t.pos or (None, None)))
        if isinstance(dom, IntRange):
            return t, _INT
        if isinstance(dom, BoolDomain):
            return t, _BOOL
        return t, ("enum", t.name)
    raise FormulaError(f"not a term node: {t!r}")


# ---------------------------------------------------------------------------
# evaluation

def evaluate(phi, valuation):
    """Truth value of ``phi`` under ``valuation`` (a name -> value mapping).

    The formula must have been typechecked against the declarations the
    valuation comes from; enum literals then evaluate to themselves.
    """
    if isinstance(phi, BoolLit):
        return phi.value
    if isinstance(phi, Name):
        v = _lookup(phi, valuation, phi.name)
        if type(v) is not bool:
            raise FormulaError(f"observable {phi.name!r} is not boolean here")
        return v
    if isinstance(phi, Not):
        negate = True
        phi = phi.arg
        while isinstance(phi, Not):  # a run of "!" costs one frame
            negate = not negate
            phi = phi.arg
        return evaluate(phi, valuation) != negate
    if isinstance(phi, And):
        for arg in phi.args:
            if not evaluate(arg, valuation):
                return False
        return True
    if isinstance(phi, Or):
        for arg in phi.args:
            if evaluate(arg, valuation):
                return True
        return False
    if isinstance(phi, Implies):  # a -> b -> c holds when a or b fails, or c holds
        for arg in phi.args[:-1]:
            if not evaluate(arg, valuation):
                return True
        return evaluate(phi.args[-1], valuation)
    if isinstance(phi, Compare):
        lv = _eval_term(phi.left, valuation)
        rv = _eval_term(phi.right, valuation)
        op = phi.op
        if op in ("<", "<=", ">", ">="):
            if type(lv) is not int or type(rv) is not int:
                raise FormulaError(f"ordered comparison {op!r} on non-integer values")
            if op == "<":
                return lv < rv
            if op == "<=":
                return lv <= rv
            if op == ">":
                return lv > rv
            return lv >= rv
        if op == "==":
            return lv == rv
        return lv != rv
    raise FormulaError(f"not a formula node: {phi!r}")


def _eval_term(t, valuation):
    if isinstance(t, IntLit):
        return t.value
    if isinstance(t, EnumLit):
        return t.value
    if isinstance(t, Name):
        return _lookup(t, valuation, t.name)
    if isinstance(t, Arith):
        lv = _eval_term(t.left, valuation)
        rv = _eval_term(t.right, valuation)
        if type(lv) is not int or type(rv) is not int:
            raise FormulaError("arithmetic on non-integer values")
        return lv + rv if t.op == "+" else lv - rv
    raise FormulaError(f"not a term node: {t!r}")


def _lookup(node, valuation, name):
    try:
        return valuation[name]
    except KeyError:
        raise FormulaError(f"observable {name!r} is unbound in this valuation") from None


# ---------------------------------------------------------------------------
# printing

def unparse(phi):
    """Render ``phi`` as parseable text; parsing it back gives an equal AST."""
    if isinstance(phi, BoolLit):
        return "true" if phi.value else "false"
    if isinstance(phi, Name):
        return phi.name
    if isinstance(phi, Compare):
        return f"{_unparse_term(phi.left)} {phi.op} {_unparse_term(phi.right)}"
    if isinstance(phi, Not):
        run = _lex.not_run(phi)
        arg = run[-1].arg
        inner = unparse(arg)
        if _lex.level(arg, _lex.LEVELS) < _lex.UNARY:
            inner = f"({inner})"
        return "!" * len(run) + inner
    if isinstance(phi, (And, Or, Implies)):
        return _lex.join(phi, unparse, _lex.LEVELS)
    raise FormulaError(f"not a formula node: {phi!r}")


def _unparse_term(t):
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, Name):
        return t.name
    if isinstance(t, EnumLit):
        return t.value
    if isinstance(t, Arith):
        left = _unparse_term(t.left)
        right = _unparse_term(t.right)
        if isinstance(t.right, Arith):
            right = f"({right})"  # keep right-nested arithmetic re-parseable
        return f"{left} {t.op} {right}"
    raise FormulaError(f"not a term node: {t!r}")

