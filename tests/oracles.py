"""Independent reference implementations used only by the test suite.

Everything here recomputes results with different algorithms than the
package modules: the flat oracle enumerates all conceivable flat states
globally and applies each rule as a standalone predicate, the relation
oracle enumerates adaptation runs explicitly, the token oracle walks the
text one character at a time, and the predator machine is rebuilt from
the prose rules of the case study.  Tests compare these
against the package and freeze the agreed numbers.
"""

import operator
import re
from collections import deque

import sbcheck.formula as F
from sbcheck._record import Record
from sbcheck.model import BehaviourMachine, ObservationMap, SBSystem, StructureMachine

# ---------------------------------------------------------------------------
# predator case study, rebuilt from the behaviour rules


def _predator_name(p, a0, a1, eat):
    return f"q{p}{a0}{a1}{'t' if eat else 'f'}"


def predator_machine():
    """Behaviour of one predator hunting two prey kinds.

    Configurations are (p, a0, a1, eat): the favoured prey kind, the two
    prey counts and whether the last step fed.  Per step the predator
    either eats one unit of its favoured kind (if any is left), switches
    its favourite without eating, or does nothing.  A second consecutive
    step without eating makes it migrate; all migrated configurations
    collapse into one absorbing state.

    Returns (valuation table, initial state id, edge set).
    """
    init = (0, 1, 1, True)
    table = {"moved": {"p": 0, "a0": 0, "a1": 0, "eat": False, "moved": True}}
    edges = set()
    seen = {init}
    work = [init]
    while work:
        p, a0, a1, eat = work.pop()
        src = _predator_name(p, a0, a1, eat)
        table[src] = {"p": p, "a0": a0, "a1": a1, "eat": eat, "moved": False}
        moves = []
        if (a0, a1)[p] > 0:
            moves.append((p, a0 - (1 - p), a1 - p, True))  # eat the favourite
        if eat:
            moves.append((1 - p, a0, a1, False))  # switch favourite
            moves.append((p, a0, a1, False))  # idle
        else:
            edges.add((src, "moved"))  # second non-feeding step: migrate
        for nxt in moves:
            edges.add((src, _predator_name(*nxt)))
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return table, _predator_name(*init), edges


def predator_observables():
    return F.Observables(
        [
            F.ObservableDecl("p", F.IntRange(0, 1)),
            F.ObservableDecl("a0", F.IntRange(0, 1)),
            F.ObservableDecl("a1", F.IntRange(0, 1)),
            F.ObservableDecl("eat", F.BoolDomain()),
            F.ObservableDecl("moved", F.BoolDomain()),
        ]
    )


_LABELS = {
    "r0": "p == 0 && (!eat -> a0 > 0) && !moved",
    "r1": "p == 1 && (!eat -> a1 > 0) && !moved",
    "r2": "moved",
}

_STRUCTURES = {
    "predator_s0": [
        ("r0", "!moved", "r1"),
        ("r0", "!eat", "r2"),
        ("r1", "!moved", "r0"),
        ("r1", "!eat", "r2"),
    ],
    "predator_s1": [
        ("r0", "p == 1", "r1"),
        ("r1", "!eat", "r2"),
    ],
}


def predator_system(which):
    """Fully assembled reference system ('predator_s0' or 'predator_s1')."""
    obs = predator_observables()
    table, init, edges = predator_machine()
    behaviour = BehaviourMachine(tuple(table), init, frozenset(edges))
    labels = {r: F.typecheck(F.parse_raw(text), obs) for r, text in _LABELS.items()}
    strans = frozenset(
        (src, F.typecheck(F.parse_raw(inv), obs), dst) for src, inv, dst in _STRUCTURES[which]
    )
    structure = StructureMachine(tuple(labels), "r0", labels, strans)
    return SBSystem(which, obs, behaviour, structure, ObservationMap(table))


# ---------------------------------------------------------------------------
# flat semantics by global enumeration

def evaluate(phi, valuation):
    """Truth value of a typechecked formula under ``valuation``, by plain recursion.

    Shares no code with :mod:`sbcheck`: the region differentials compare
    it with ``SBSystem.region``, whose walk :func:`sbcheck.formula.evaluate`
    shares.
    """
    if isinstance(phi, F.BoolLit):
        return phi.value
    if isinstance(phi, F.Name):
        return valuation[phi.name]
    if isinstance(phi, F.Not):
        return not evaluate(phi.arg, valuation)
    if isinstance(phi, F.And):
        return all(evaluate(a, valuation) for a in phi.args)
    if isinstance(phi, F.Or):
        return any(evaluate(a, valuation) for a in phi.args)
    if isinstance(phi, F.Implies):
        *front, last = phi.args
        return not all(evaluate(a, valuation) for a in front) or evaluate(last, valuation)
    return _COMPARE[phi.op](_term(phi.left, valuation), _term(phi.right, valuation))


_COMPARE = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _term(t, valuation):
    if isinstance(t, (F.IntLit, F.EnumLit)):
        return t.value
    if isinstance(t, F.Name):
        return valuation[t.name]
    left, right = _term(t.left, valuation), _term(t.right, valuation)
    return left + right if t.op == "+" else left - right


def _holds(system, q, phi):
    return evaluate(phi, system.observation.table[q])


def flat_oracle(system):
    """Reachable flat fragment computed the slow way.

    Enumerates every conceivable (q, r, pending) triple, applies the four
    rules as independent predicates over ordered pairs of triples, then
    keeps the part reachable from the initial triple.  Returns a dict:
    states (set of triples), init (triple), transitions (set of
    (source, target, label) with label ('steady', r) or
    ('adapt', r, invariant-text, target)), classes (dict triple -> tag).
    In what it returns, a triple names its pending pair by the pair's
    index in ``out_transitions(r)``, as a flat state does.
    """
    B, S = system.behaviour, system.structure
    pendings = [None] + [(inv, dst) for (_, inv, dst) in S.transitions]
    triples = [
        (q, r, pu) for q in B.states for r in S.states for pu in pendings
    ]

    def steady_blocked(q, r):
        """AdaptStart precondition: no behaviour successor satisfies L(r)."""
        return all(not _holds(system, q2, S.labels[r]) for q2 in B.successors(q))

    edges = set()
    for a in triples:
        q, r, pu = a
        for b in triples:
            q2, r2, pu2 = b
            if pu is None and pu2 is None:
                # Steady
                if r2 == r and q2 in B.successors(q) and _holds(system, q2, S.labels[r]):
                    edges.add((a, b, ("steady", r)))
            if pu is None and pu2 is not None:
                # AdaptStart along an outgoing structure transition of r
                inv, target = pu2
                if (
                    r2 == r
                    and (r, inv, target) in S.transitions
                    and q2 in B.successors(q)
                    and _holds(system, q2, inv)
                    and steady_blocked(q, r)
                ):
                    edges.add((a, b, ("adapt", r, F.unparse(inv), target)))
            if pu is not None and pu2 is not None:
                # Adapt: keep moving inside the invariant
                inv, target = pu
                if (
                    pu2 == pu
                    and r2 == r
                    and q2 in B.successors(q)
                    and _holds(system, q2, inv)
                    and not _holds(system, q, S.labels[target])
                ):
                    edges.add((a, b, ("adapt", r, F.unparse(inv), target)))
            if pu is not None and pu2 is None:
                # AdaptEnd: same behaviour state, structure switches
                inv, target = pu
                if q2 == q and r2 == target and _holds(system, q, S.labels[target]):
                    edges.add((a, b, ("adapt", r, F.unparse(inv), target)))

    init = (B.init, S.init, None)
    reachable = {init}
    work = deque([init])
    out = {}
    for a, b, lab in edges:
        out.setdefault(a, []).append((b, lab))
    while work:
        a = work.popleft()
        for b, _ in out.get(a, ()):
            if b not in reachable:
                reachable.add(b)
                work.append(b)
    kept = {(a, b, lab) for (a, b, lab) in edges if a in reachable}
    classes = {}
    for a in reachable:
        labels_out = [lab for (x, _, lab) in kept if x == a]
        if any(lab[0] == "adapt" for lab in labels_out):
            classes[a] = "adapting"
        elif a[2] is None:
            classes[a] = "steady"
        else:
            classes[a] = "stuck"

    def named(a):
        q, r, pu = a
        return (q, r, None if pu is None else S.out_transitions(r).index(pu))

    return {
        "states": {named(a) for a in reachable},
        "init": named(init),
        "transitions": {(named(a), named(b), lab) for a, b, lab in kept},
        "classes": {named(a): tag for a, tag in classes.items()},
    }


def flat_state_triple(state):
    """A flat state as the oracle's ``(q, r, pending)`` triple, which it already is."""
    return tuple(state)


def flat_label_tuple(label):
    """A ``FlatTransition.label``, which already carries its invariant as text,
    as in :func:`flat_oracle`."""
    return tuple(label)


# ---------------------------------------------------------------------------
# adaptability relations by explicit run enumeration


def _phase_some_good(system, start, inv, target, pairs):
    """Some maximal in-phase run from ``start`` ends well: recursive
    enumeration of simple paths (a good endpoint is reachable iff it is
    reachable without revisiting states)."""
    B = system.behaviour
    goal = system.structure.labels[target]

    def dfs(x, on_path):
        if _holds(system, x, goal):
            return (x, target) in pairs
        for y in B.successors(x):
            if _holds(system, y, inv) and y not in on_path:
                if dfs(y, on_path | {y}):
                    return True
        return False

    return dfs(start, frozenset([start]))


def branch_oracle(system, start, inv, target):
    """Where the in-phase runs from ``start`` along ``inv`` => ``target`` can
    end: ``(endpoints, finite)``, the states satisfying the constraint of
    ``target`` reached, and whether every maximal run reaches one.

    Collects the non-endpoint states reachable inside the phase, marks a
    run infinite at a mid-phase state with no move left, and detects
    cycles by repeated sink elimination.
    """
    B = system.behaviour
    goal = system.structure.labels[target]
    if _holds(system, start, goal):
        return {start}, True
    interior = set()
    endpoints = set()
    finite = True
    work = [start]
    while work:
        x = work.pop()
        if x in interior:
            continue
        interior.add(x)
        moves = [y for y in B.successors(x) if _holds(system, y, inv)]
        if not moves:
            finite = False  # the phase can neither continue nor end here
        for y in moves:
            if _holds(system, y, goal):
                endpoints.add(y)
            elif y not in interior:
                work.append(y)
    remaining = set(interior)
    while True:
        sinks = [
            x
            for x in remaining
            if not any(
                y in remaining
                for y in B.successors(x)
                if _holds(system, y, inv) and not _holds(system, y, goal)
            )
        ]
        if not sinks:
            break
        remaining.difference_update(sinks)
    return endpoints, finite and not remaining  # anything left sits on a cycle: an infinite run


def _phase_all_good(system, start, inv, target, pairs):
    """All maximal in-phase runs from ``start`` are finite and end in ``pairs``."""
    endpoints, finite = branch_oracle(system, start, inv, target)
    return finite and all((e, target) in pairs for e in endpoints)


def relation_oracle(system, strong):
    """Greatest fixpoint of the adaptability condition, recomputed slowly."""
    B, S = system.behaviour, system.structure
    pairs = {
        (q, r)
        for r in S.states
        for q in B.states
        if _holds(system, q, S.labels[r])
    }
    while True:
        drop = set()
        for q, r in pairs:
            succs = B.successors(q)
            steady = [q2 for q2 in succs if _holds(system, q2, S.labels[r])]
            if steady:
                if any((q2, r) not in pairs for q2 in steady):
                    drop.add((q, r))
                continue
            ok = True
            for q2 in succs:
                branches = [
                    (inv, dst)
                    for (src, inv, dst) in S.transitions
                    if src == r and _holds(system, q2, inv)
                ]
                if strong:
                    if not all(
                        _phase_all_good(system, q2, inv, dst, pairs)
                        for inv, dst in branches
                    ):
                        ok = False
                        break
                else:
                    if branches and not any(
                        _phase_some_good(system, q2, inv, dst, pairs)
                        for inv, dst in branches
                    ):
                        ok = False
                        break
            if not ok:
                drop.add((q, r))
        if not drop:
            return frozenset(pairs)
        pairs -= drop


# ---------------------------------------------------------------------------
# tokens, found one position at a time


def tokens_oracle(rules, error_cls, text):
    """Naive reference tokenizer over a ``(kind, pattern)`` rule table.

    Blanks, newlines and ``//`` comments are skipped by hand with the line
    and column counted as it goes; anywhere else each rule is tried in table
    order with its own ``re.match``.  Returns ``(kind, text, line, col)``
    tuples ending with ``("eof", "", line, col)``, where EOF after a comment
    that ends the text sits where the comment starts, or raises
    ``error_cls("unexpected character ...", line, col)``.
    """
    compiled = [(kind, re.compile(pattern)) for kind, pattern in rules]
    out = []
    pos, line, col = 0, 1, 1
    eof = None
    while pos < len(text):
        c = text[pos]
        if c == "\n":
            pos, line, col = pos + 1, line + 1, 1
        elif c in " \t\r":
            pos, col = pos + 1, col + 1
        elif text.startswith("//", pos):
            end = text.find("\n", pos)
            if end < 0:
                eof = (line, col)
                break
            pos, col = end, col + end - pos
        else:
            for kind, pattern in compiled:
                m = pattern.match(text, pos)
                if m:
                    break
            else:
                raise error_cls(f"unexpected character {c!r}", line, col)
            word = m.group()
            out.append((kind, word, line, col))
            pos += len(word)
            if "\n" in word:
                line, col = line + word.count("\n"), len(word) - word.rfind("\n")
            else:
                col += len(word)
    out.append(("eof", "", *(eof or (line, col))))
    return out


# ---------------------------------------------------------------------------
# record equality and text, by plain recursion


def _record_fields(record):
    """The field names of a record: its class's slots, base classes first,
    without ``pos`` and the ``_`` tables."""
    slots = [s for c in reversed(type(record).__mro__) for s in vars(c).get("__slots__", ())]
    return [s for s in slots if s != "pos" and not s.startswith("_")]


def record_key(value, positions=False):
    """A value that is equal for two values exactly when they are equal as
    records: the same classes and equal fields all the way down, inside
    tuples, lists, sets and dicts too.  A record's ``pos`` counts only with
    ``positions``."""
    if isinstance(value, Record):
        fields = tuple(record_key(getattr(value, f), positions) for f in _record_fields(value))
        return ("record", type(value), fields, getattr(value, "pos", None) if positions else None)
    if type(value) in (tuple, list):
        return (type(value).__name__, tuple(record_key(v, positions) for v in value))
    if type(value) in (set, frozenset):
        return ("set", frozenset(record_key(v, positions) for v in value))
    if type(value) is dict:
        return ("dict", frozenset((k, record_key(v, positions)) for k, v in value.items()))
    return value


def record_text(value):
    """The repr of ``value`` as a dataclass would print its records."""
    if isinstance(value, Record):
        fields = ", ".join(f"{f}={record_text(getattr(value, f))}" for f in _record_fields(value))
        return f"{type(value).__qualname__}({fields})"
    if type(value) is dict:
        return "{" + ", ".join(f"{record_text(k)}: {record_text(v)}" for k, v in value.items()) + "}"
    if type(value) not in (tuple, list, set, frozenset):
        return repr(value)
    items = ", ".join(record_text(v) for v in value)
    if type(value) is tuple:
        return f"({items},)" if len(value) == 1 else f"({items})"
    if type(value) is list:
        return f"[{items}]"
    if not value:
        return f"{type(value).__name__}()"
    return f"{{{items}}}" if type(value) is set else f"frozenset({{{items}}})"
