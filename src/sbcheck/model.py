"""Two-level system model.

A behaviour machine steps through concrete states; a structure machine
assigns each of its states a constraint formula over the observables and
moves along invariant-guarded transitions.  The observation map ties the
two levels together by giving every behaviour state a valuation.

An ``SBSystem`` keeps one region table, keyed by structure state and
transition, never by formula: the behaviour states each constraint admits,
computed at construction, and those each invariant out of a structure
state admits, computed on that state's first use (``SBSystem.options``).
Next to it sit two tables that ``adapt`` fills and both adaptability
kinds read: the walk of each adaptation branch, once per entry state,
structure state and option (``SBSystem._walks``), and the move table of
the pairs that must adapt, once per root: the initial pair of a verdict,
the roots the discrepancy search solves, or every candidate for a whole
relation (``SBSystem._moves``).
Regions are computed from bitsets over the classes of equal valuation,
one kept per boolean observable and keyed by its name.
"""

from itertools import chain, compress
from operator import itemgetter

from . import _lex
from . import formula as F
from ._record import Record, set_field
from .errors import ModelError


def _lookup(table, key, missing):
    try:
        return table[key]
    except KeyError:
        raise ModelError(f"{missing} {key!r}") from None


class BehaviourMachine(Record):
    """Finite transition system over opaque state ids (no labels on edges).

    ``states`` is kept sorted and ``transitions`` as a frozenset of
    ``(src, dst)``; ``_succ`` maps each state to its sorted successors.
    """

    __slots__ = ("states", "init", "transitions", "_succ")

    def __init__(self, states, init, transitions):
        states = tuple(sorted(states))
        succ = {q: [] for q in states}
        if len(succ) != len(states):
            raise ModelError("duplicate behaviour state id")
        given, transitions = transitions, frozenset(transitions)
        if init not in succ:
            raise ModelError(f"initial behaviour state {init!r} is not declared")
        # A list is walked in its own order, which in a file usually groups
        # each source's transitions, so one successor list fills at a time;
        # the set's hash order scatters them.  The set is walked only when
        # it dropped a repeat.
        walk = given if type(given) in (list, tuple) and len(given) == len(transitions) else transitions
        for src, dst in walk:
            if src not in succ or dst not in succ:
                # name the first such transition in sorted order
                src, dst = min(t for t in transitions if t[0] not in succ or t[1] not in succ)
                raise ModelError(f"behaviour transition {src!r} -> {dst!r} uses an undeclared state")
            succ[src].append(dst)
        for v in succ.values():
            if len(v) > 1:  # most states of a long chain have one successor
                v.sort()
        super().__init__(states, init, transitions)
        set_field(self, "_succ", {q: tuple(v) for q, v in succ.items()})

    def successors(self, q):
        return _lookup(self._succ, q, "unknown behaviour state")


class StructureMachine(Record):
    """Constraint automaton: states carry formulas, edges carry invariants.

    ``labels`` maps each state id to its formula, and ``transitions`` are
    ``(src, invariant formula, dst)``.  ``transitions`` is kept as a tuple
    in canonical ``(src, unparse(inv), dst)`` order, with one transition
    per key; the canonical invariant texts are kept for the exports.
    """

    __slots__ = ("states", "init", "labels", "transitions", "_out", "_out_texts")

    def __init__(self, states, init, labels, transitions):
        states = tuple(sorted(states))
        if len(set(states)) != len(states):
            raise ModelError("duplicate structure state id")
        known = set(states)
        if init not in known:
            raise ModelError(f"initial structure state {init!r} is not declared")
        if set(labels) != known:
            raise ModelError("every structure state needs exactly one constraint label")
        keyed = {}
        for src, inv, dst in transitions:
            if src not in known or dst not in known:
                raise ModelError(f"structure transition {src!r} -> {dst!r} uses an undeclared state")
            keyed.setdefault((src, F.unparse(inv), dst), (src, inv, dst))
        keys = sorted(keyed)
        super().__init__(states, init, labels, tuple(keyed[k] for k in keys))
        out = {r: [] for r in states}
        texts = {r: [] for r in states}
        for key in keys:
            src, text, dst = key
            out[src].append((keyed[key][1], dst))
            texts[src].append((text, dst))
        set_field(self, "_out", {r: tuple(v) for r, v in out.items()})
        set_field(self, "_out_texts", {r: tuple(v) for r, v in texts.items()})

    def label(self, r):
        return _lookup(self.labels, r, "unknown structure state")

    def out_transitions(self, r):
        """Outgoing (invariant, target) pairs of ``r`` in a fixed order."""
        return _lookup(self._out, r, "unknown structure state")

    def out_texts(self, r):
        """``(unparse(invariant), target)`` of each of :meth:`out_transitions`."""
        return _lookup(self._out_texts, r, "unknown structure state")


class ObservationMap(Record):
    """Total map from behaviour state id to its valuation.

    ``table`` maps q to {observable name -> value}.  The map copies each
    valuation object it is given once, so states given one dict share one
    copy; callers must not mutate a valuation.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        copies = {id(v): v for v in table.values()}  # each given valuation once
        copies = {i: dict(v) for i, v in copies.items()}
        super().__init__({q: copies[id(v)] for q, v in table.items()})

    def valuation(self, q):
        return _lookup(self.table, q, "no observation recorded for behaviour state")


class SBSystem(Record):
    """Behaviour machine + structure machine + observation map.

    Constraint and invariant formulas are typechecked against the declared
    observables at construction time; enum literals are resolved in place.
    Its fields never change.  Its caches do: the regions of structure
    transitions and boolean observables, filled on first use, and the walk
    and move tables that ``adapt`` fills (``_walks`` and ``_moves``), which
    grow with the relation and live as long as the system.

    The behaviour states fall into classes of equal valuation, and a region
    is a bitset over the classes (bit ``i`` for class ``i``): each boolean
    observable's bitset is computed once per system, and a comparison is
    evaluated once per class.  Each class's names are checked against the
    declared ones, and each distinct typed assignment ``(name, type,
    value)`` against its domain once per system.
    """

    __slots__ = ("name", "observables", "behaviour", "structure", "observation",
                 "_classes", "_all", "_names", "_admits", "_options", "_walks", "_moves")

    def __init__(self, name, observables, behaviour, structure, observation):
        super().__init__(name, observables, behaviour, structure, observation)
        table = observation.table
        domains = self.observables._domains
        numbers = {}  # id of a valuation -> its class number
        keys = {}  # typed items of a valuation -> its class number
        checked = set()  # typed items found in their domain
        classes = []  # (valuation, behaviour states) by class number
        for q in self.behaviour.states:
            v = table.get(q) or self.observation.valuation(q)  # raises for q without one
            i = numbers.get(id(v))
            if i is None:
                key = tuple((n, type(x), x) for n, x in v.items())  # 1 == True, yet not in bool
                try:
                    i = numbers[id(v)] = keys.setdefault(key, len(keys))
                except TypeError:  # an unhashable value, outside every domain
                    F.check_valuation(self.observables, v)
                    raise
                if i == len(classes):
                    if v.keys() != domains.keys():
                        F.check_valuation(self.observables, v)  # raises, naming the names
                    if not checked.issuperset(key):
                        new = set(key).difference(checked)
                        if not all(F.domain_contains(domains[n], x) for n, _, x in new):
                            F.check_valuation(self.observables, v)  # raises, naming the value
                        checked |= new
                    classes.append((v, []))
            classes[i][1].append(q)
        set_field(self, "_classes", classes)
        set_field(self, "_all", (1 << len(classes)) - 1)
        set_field(self, "_names", {})  # boolean observable -> bitset
        extra = set(self.observation.table) - set(self.behaviour.states)
        if extra:
            raise ModelError(f"observation recorded for undeclared state {sorted(extra)[0]!r}")
        m = self.structure
        labels = {r: F.typecheck(phi, self.observables) for r, phi in m.labels.items()}
        transitions = tuple(
            (src, F.typecheck(inv, self.observables), dst) for src, inv, dst in m.transitions
        )
        if any(labels[r] is not phi for r, phi in m.labels.items()) or any(
            new[1] is not old[1] for new, old in zip(transitions, m.transitions)
        ):
            m = StructureMachine(m.states, m.init, labels, transitions)
            set_field(self, "structure", m)
        set_field(self, "_admits", {r: self.region(phi) for r, phi in m.labels.items()})
        set_field(self, "_options", {})
        set_field(self, "_walks", {})  # (entry, r, option index) -> adapt._branch's result, for every root and kind
        set_field(self, "_moves", {})  # root pair, frozenset of them, or None for every candidate -> adapt._moves's table

    def observe(self, q):
        """Valuation of behaviour state ``q``."""
        return self.observation.valuation(q)

    def region(self, phi):
        """All behaviour states satisfying ``phi``, a formula typechecked
        against the observables."""
        bits = _lex.fold(phi, self._bits)
        members = compress(self._classes, map("1".__eq__, format(bits, "b")[::-1]))
        return frozenset(chain.from_iterable(map(itemgetter(1), members)))

    def _bits(self, node, args, parent):
        """The bitset of the classes satisfying ``node``, from those of its operands."""
        if type(parent) in F.TERM_OPERATORS:
            return None  # a term: the comparison above it evaluates it
        cls = type(node)
        if cls is F.Name:  # a boolean observable: its bitset is read off the valuations
            name = node.name
            if name not in self._names:
                self._names[name] = _bitset(v[name] for v, _ in self._classes)
            return self._names[name]
        if cls in _lex.CONNECTIVES:
            return _lex.boolean(node, args, self._all)
        return _bitset(F.evaluate(node, v) for v, _ in self._classes)  # a comparison

    def constraint_region(self, r):
        """Behaviour states satisfying the constraint of structure state ``r``."""
        return _lookup(self._admits, r, "unknown structure state")

    def options(self, r):
        """``(invariant, target, invariant region)`` of each structure
        transition out of ``r``, in ``out_transitions`` order."""
        if r not in self._options:
            self._options[r] = tuple(
                (inv, t, self.region(inv)) for inv, t in self.structure.out_transitions(r)
            )
        return self._options[r]


def _bitset(truths):
    """The int whose bit ``i`` is set where the ``i``-th of ``truths`` is true."""
    return int("".join(["1" if t else "0" for t in truths])[::-1], 2)


class Violation(Record):
    __slots__ = ("kind", "subject", "message")  # kind: 'unsatisfiable-label' or 'initial-violation'


class WellFormedness(Record):
    __slots__ = ("ok", "violations")  # violations: a tuple of Violation


def check_well_formed(sys):
    """Check that every constraint is satisfiable over the behaviour states
    and that the initial behaviour state satisfies the initial constraint."""
    violations = []
    for r in sys.structure.states:
        if not sys.constraint_region(r):
            violations.append(
                Violation(
                    "unsatisfiable-label",
                    r,
                    f"no behaviour state satisfies the constraint of {r}: "
                    f"{F.unparse(sys.structure.label(r))}",
                )
            )
    q0 = sys.behaviour.init
    r0 = sys.structure.init
    if q0 not in sys.constraint_region(r0):
        violations.append(
            Violation(
                "initial-violation",
                r0,
                f"initial behaviour state {q0} does not satisfy the constraint of "
                f"initial structure state {r0}: {F.unparse(sys.structure.label(r0))}",
            )
        )
    return WellFormedness(not violations, tuple(violations))


def require_well_formed(sys):
    """Raise ModelError unless ``sys`` is well formed."""
    report = check_well_formed(sys)
    if not report.ok:
        details = "; ".join(v.message for v in report.violations)
        raise ModelError(f"model is not well formed: {details}")
