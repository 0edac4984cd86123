"""CTL over the flat semantics.

Atoms: ``adapting`` (the state has an outgoing adaptation transition),
``steady`` (no pending adaptation and no outgoing adaptation transition),
``in(r)`` (the active structure state is r) and ``@(phi)`` (the current
behaviour state's observation satisfies the constraint formula phi).
Stuck states satisfy neither ``adapting`` nor ``steady``.

Operators: ``! && || ->``, ``AX EX AF EF AG EG``, ``A[f U g]``, ``E[f U g]``.
Unary operators bind like ``!``; ``->`` is right associative and weakest.

Path quantification reads a state without successors as one that loops
on itself forever, so ``EX S`` and ``AX S`` hold at it exactly when S
does.

Labelling is bottom-up over the formula, on the flat system's own
``succ`` and ``pred`` tables.  EX and AX take one predecessor step.
Every F, G and U operator is one backward counter pass, linear in the
flat system: EF and AF are until with ``true`` on the left, and
``EG S = !AF !S``, ``AG S = !EF !S``.  A state without successors never
counts down, so it satisfies an until only where its right side holds,
as its self-loop would have it.

Adaptability characterisations checked at the initial state:

* weak:   ``EG (adapting -> EF steady)``
* strong: ``AG (adapting -> AF steady)``
"""

from collections import deque
from itertools import compress

from . import _lex
from . import formula as F
from ._lex import And, BoolLit, Implies, Not, Or  # the connective nodes, shared with formulas
from ._record import Record
from .adapt import STRONG, WEAK
from .errors import CtlError, FormulaError, ModelError
from .flat import ADAPTING, STEADY


class Atom(Record):
    __slots__ = ("name", "pos")  # name: 'adapting' or 'steady'


class InState(Record):
    __slots__ = ("r", "pos")


class ObsHolds(Record):
    """@(phi): the observation of the current behaviour state satisfies phi."""

    __slots__ = ("phi", "pos")


class Modal(Record):
    __slots__ = ("op", "arg", "pos")  # op: AX EX AF EF AG EG


class Until(Record):
    __slots__ = ("quant", "left", "right", "pos")  # quant: 'A' or 'E'


# ---------------------------------------------------------------------------
# parsing

LEXER = _lex.Lexer(
    F.RULES + [("lbracket", r"\["), ("rbracket", r"\]"), ("at", r"@")], CtlError
)

_MODALS = ("AX", "EX", "AF", "EF", "AG", "EG")


def parse_ctl(text):
    try:
        return _lex.expression(LEXER.parser(text), LANGUAGE)
    except FormulaError as e:  # raised only inside @(...)
        raise CtlError(f"in @(...): {e.message}", e.line, e.col) from None


def _operand(p, term):
    """A prefix ``!`` or modal operator, an opened bracket or an atom."""
    t = p.tokens[p.i]
    p.i += 1
    word = t.text
    if word == "(":
        return _GROUP
    pos = t.source.position(t.offset)
    if word == "!":
        return (_lex.UNARY, Not, (), pos)
    if word in _MODALS:
        return (_lex.UNARY, Modal, (word,), pos)
    if word == "true" or word == "false":
        return BoolLit(word == "true", pos)
    if word == "adapting" or word == "steady":
        return Atom(word, pos)
    if word == "in":
        p.take("lpar", "expected '(' after in")
        name = p.take("ident", "expected a structure state name")
        p.take("rpar", "expected ')'")
        return InState(name.text, pos)
    if word == "A" or word == "E":
        p.take("lbracket", f"expected '[' after {word}")

        def right(left):  # "U" closes the left operand and opens the right one
            until = lambda right: Until(word, left, right, pos)
            return _lex.Bracket(LANGUAGE, "]", "expected ']'", until)

        return _lex.Bracket(LANGUAGE, "U", "expected 'U'", right)
    if word == "@":
        p.take("lpar", "expected '(' after @")
        holds = lambda phi: ObsHolds(phi, pos)
        return _lex.Bracket(F.LANGUAGE, ")", "expected ')' closing @(...)", holds)
    raise _lex.failure(CtlError, t, "unknown atom" if t.kind == "ident" else "expected a CTL formula")


LANGUAGE = _lex.Language(_operand, CtlError)
_GROUP = _lex.Bracket(LANGUAGE, ")", "expected ')'")


# ---------------------------------------------------------------------------
# printing

_LEVELS = {**_lex.LEVELS, Modal: _lex.UNARY}


def unparse_ctl(f):
    """Render back to parseable text; parsing gives an equal AST."""
    return _lex.fold(f, _text)


def _text(node, args, parent):
    cls = type(node)
    if cls is Atom:
        return node.name
    if cls is Modal:
        return _lex.prefix(node.op, node, args[0], _LEVELS, " ")
    if cls in _lex.CONNECTIVES:
        return _lex.text(node, args, _LEVELS)
    if cls is Until:
        return f"{node.quant}[{args[0]} U {args[1]}]"
    if cls is InState:
        return f"in({node.r})"
    if cls is ObsHolds:
        return f"@({F.unparse(node.phi)})"
    raise CtlError(f"not a CTL node: {node!r}")


# ---------------------------------------------------------------------------
# checking

class CheckResult(Record):
    """The ``satisfying`` state ids, whether the initial state is one, and a
    ``witness`` state-id path when one is informative, else None."""

    __slots__ = ("satisfying", "holds_at_init", "witness")


def _until(flat, A, B, universal):
    """Least fixpoint of ``Z = B | (A & pre(Z))``: E[A U B], or A[A U B] when ``universal``.

    One backward pass from B over ``flat.pred``.  Each state of A counts
    down the successors it still needs: one, or all of them (duplicate
    edges included) when ``universal``; it joins when its count reaches
    zero, which a state without successors never does.
    """
    pred = flat.pred
    need = list(map(len, flat.succ)) if universal else [1] * len(pred)
    result = set(B)
    work = list(B)
    while work:
        j = work.pop()
        for i in pred[j]:
            if i not in result and i in A:
                need[i] -= 1
                if not need[i]:
                    result.add(i)
                    work.append(i)
    return frozenset(result)


_DUALS = {"AX": "EX", "EG": "AF", "AG": "EF"}


def _modal(flat, op, S, full):
    """The states satisfying ``op`` (AX, EX, AF, EF, AG or EG) over the
    states ``S`` that satisfy its operand; ``full`` is every state."""
    dual = _DUALS.get(op)  # AX S = !EX !S, EG S = !AF !S and AG S = !EF !S
    if dual:
        op, S = dual, full - S
    if op == "EX":  # a state without successors is its own successor
        pred, succ = flat.pred, flat.succ
        S = frozenset([i for j in S for i in pred[j]] + [j for j in S if not succ[j]])
    else:
        S = _until(flat, full, S, op == "AF")
    return full - S if dual else S


def _sat(flat, f):
    """The set of states of ``flat`` satisfying ``f``, labelled bottom-up."""
    full = frozenset(range(len(flat.states)))

    def label(node, args, parent):
        cls = type(node)
        if cls is Atom:
            tag = ADAPTING if node.name == "adapting" else STEADY
            return frozenset(compress(range(len(flat.classes)), map(tag.__eq__, flat.classes)))
        if cls is InState:
            if node.r not in flat.system.structure.states:
                where = node.pos or (None, None)
                raise CtlError(f"unknown structure state {node.r!r} in in(...)", *where)
            return frozenset(i for i, (_, r, _) in enumerate(flat.states) if r == node.r)
        if cls is ObsHolds:
            try:
                checked = F.typecheck(node.phi, flat.system.observables)
            except FormulaError as e:
                raise CtlError(f"in @(...): {e.message}", e.line, e.col) from None
            region = flat.system.region(checked)
            return frozenset(i for i, (q, _, _) in enumerate(flat.states) if q in region)
        if cls in _lex.CONNECTIVES:
            return _lex.boolean(node, args, full)
        if cls is Modal:
            return _modal(flat, node.op, args[0], full)
        if cls is Until:
            return _until(flat, args[0], args[1], node.quant == "A")
        raise CtlError(f"not a CTL node: {node!r}")

    return _lex.fold(f, label)


def _shortest_path(flat, start, targets):
    """BFS over the real transitions; returns a state-id path or None."""
    if start in targets:
        return (start,)
    parent = {start: None}
    work = deque([start])
    while work:
        i = work.popleft()
        for j in flat.succ[i]:
            if j not in parent:
                parent[j] = i
                if j in targets:
                    path = [j]
                    k = i
                    while k is not None:
                        path.append(k)
                        k = parent[k]
                    path.reverse()
                    return tuple(path)
                work.append(j)
    return None


def check_ctl(flat, f):
    """Label the flat system bottom-up and report the result.

    A witness path is attached for a satisfied ``EF phi`` (shortest run to
    a phi-state) and a counterexample path for a failed ``AG phi``
    (shortest run to a violating state).  The phi-states are labelled
    once, for the root and its path alike.
    """
    if not (isinstance(f, Modal) and f.op in ("AG", "EF")):
        sat = _sat(flat, f)
        return CheckResult(satisfying=sat, holds_at_init=flat.init_index in sat, witness=None)
    full = frozenset(range(len(flat.states)))
    operand = _sat(flat, f.arg)
    sat = _modal(flat, f.op, operand, full)
    holds = flat.init_index in sat
    witness = None
    if f.op == "EF" and holds:
        witness = _shortest_path(flat, flat.init_index, operand)
    elif f.op == "AG" and not holds:
        witness = _shortest_path(flat, flat.init_index, full - operand)
    return CheckResult(satisfying=sat, holds_at_init=holds, witness=witness)


def weak_formula():
    """EG (adapting -> EF steady)"""
    return Modal("EG", Implies(Atom("adapting"), Modal("EF", Atom("steady"))))


def strong_formula():
    """AG (adapting -> AF steady)"""
    return Modal("AG", Implies(Atom("adapting"), Modal("AF", Atom("steady"))))


def adaptability_formula(kind):
    """The CTL formula of ``kind`` adaptability, 'weak' or 'strong'."""
    if kind not in (WEAK, STRONG):
        raise ModelError(f"unknown adaptability kind {kind!r}")
    return weak_formula() if kind == WEAK else strong_formula()


def strong_adaptable_ctl(flat):
    return check_ctl(flat, strong_formula()).holds_at_init


def strong_counterexample(flat):
    """For a failed strong check: a run to an adapting state that can avoid
    steady states forever, extended until the avoiding loop closes.

    Returns a state-id path whose last entry repeats an earlier one, or
    None when the strong property holds.
    """
    never_steady = _sat(flat, Not(Modal("AF", Atom("steady"))))
    bad = _sat(flat, Atom("adapting")) & never_steady
    reachable_bad = _shortest_path(flat, flat.init_index, bad)
    if reachable_bad is None:
        return None
    path = list(reachable_bad)
    cur = path[-1]
    seen_at = {cur: len(path) - 1}
    while True:
        nxt = None
        for j in flat.succ[cur] or (cur,):  # a deadlock steps to itself
            if j in never_steady:
                nxt = j
                break
        path.append(nxt)
        if nxt in seen_at:
            return tuple(path)
        seen_at[nxt] = len(path) - 1
        cur = nxt


def ctl_oracle(flat, f):
    """Naive reference evaluator: every operator from its own fixpoint.

    Shares no traversal code with :func:`check_ctl` (no dualities, no
    predecessor index); used for differential testing.
    """
    n = len(flat.states)
    succ = [list(js) or [i] for i, js in enumerate(flat.succ)]
    full = frozenset(range(n))
    pending = [p is not None for _, _, p in flat.states]
    adapt_src = {i for i, j in flat.edges if pending[i] or pending[j]}

    def pre_e(S):
        return frozenset(i for i in range(n) if any(j in S for j in succ[i]))

    def pre_a(S):
        return frozenset(i for i in range(n) if all(j in S for j in succ[i]))

    def lfp(step):
        Z = frozenset()
        while True:
            nz = step(Z)
            if nz == Z:
                return Z
            Z = nz

    def gfp(step):
        Z = full
        while True:
            nz = step(Z)
            if nz == Z:
                return Z
            Z = nz

    def rec(node):
        if isinstance(node, BoolLit):
            return full if node.value else frozenset()
        if isinstance(node, Atom):
            if node.name == "adapting":
                return frozenset(adapt_src)
            return frozenset(
                i for i in range(n)
                if not pending[i] and i not in adapt_src
            )
        if isinstance(node, InState):
            if node.r not in flat.system.structure.states:
                raise CtlError(f"unknown structure state {node.r!r} in in(...)")
            return frozenset(i for i in range(n) if flat.states[i][1] == node.r)
        if isinstance(node, ObsHolds):
            checked = F.typecheck(node.phi, flat.system.observables)
            return frozenset(
                i for i in range(n)
                if F.evaluate(checked, flat.system.observe(flat.states[i][0]))
            )
        if isinstance(node, Not):
            return full - rec(node.arg)
        if isinstance(node, And):
            return frozenset.intersection(*[rec(a) for a in node.args])
        if isinstance(node, Or):
            return frozenset.union(*[rec(a) for a in node.args])
        if isinstance(node, Implies):
            return frozenset.union(*[full - rec(a) for a in node.args[:-1]], rec(node.args[-1]))
        if isinstance(node, Modal):
            S = rec(node.arg)
            if node.op == "EX":
                return pre_e(S)
            if node.op == "AX":
                return pre_a(S)
            if node.op == "EF":
                return lfp(lambda Z: S | pre_e(Z))
            if node.op == "AF":
                return lfp(lambda Z: S | pre_a(Z))
            if node.op == "EG":
                return gfp(lambda Z: S & pre_e(Z))
            return gfp(lambda Z: S & pre_a(Z))  # AG
        if isinstance(node, Until):
            A, B = rec(node.left), rec(node.right)
            if node.quant == "E":
                return lfp(lambda Z: B | (A & pre_e(Z)))
            return lfp(lambda Z: B | (A & pre_a(Z)))
        raise CtlError(f"not a CTL node: {node!r}")

    return rec(f)
