"""Two-level system model.

A behaviour machine steps through concrete states; a structure machine
assigns each of its states a constraint formula over the observables and
moves along invariant-guarded transitions.  The observation map ties the
two levels together by giving every behaviour state a valuation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as F
from .errors import ModelError


@dataclass(frozen=True)
class BehaviourMachine:
    """Finite transition system over opaque state ids (no labels on edges)."""

    states: tuple[str, ...]
    init: str
    transitions: frozenset[tuple[str, str]]

    def __post_init__(self):
        states = tuple(sorted(self.states))
        if len(set(states)) != len(states):
            raise ModelError("duplicate behaviour state id")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        known = set(states)
        if self.init not in known:
            raise ModelError(f"initial behaviour state {self.init!r} is not declared")
        succ = {q: [] for q in states}
        for src, dst in sorted(self.transitions):
            if src not in known or dst not in known:
                raise ModelError(f"behaviour transition {src!r} -> {dst!r} uses an undeclared state")
            succ[src].append(dst)
        object.__setattr__(self, "_succ", {q: tuple(v) for q, v in succ.items()})

    def successors(self, q):
        try:
            return self._succ[q]
        except KeyError:
            raise ModelError(f"unknown behaviour state {q!r}") from None


@dataclass(frozen=True)
class StructureMachine:
    """Constraint automaton: states carry formulas, edges carry invariants."""

    states: tuple[str, ...]
    init: str
    labels: dict  # state id -> Formula
    transitions: frozenset[tuple[str, object, str]]  # (src, invariant Formula, dst)

    def __post_init__(self):
        states = tuple(sorted(self.states))
        if len(set(states)) != len(states):
            raise ModelError("duplicate structure state id")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        known = set(states)
        if self.init not in known:
            raise ModelError(f"initial structure state {self.init!r} is not declared")
        if set(self.labels) != known:
            raise ModelError("every structure state needs exactly one constraint label")
        out = {r: [] for r in states}
        for src, inv, dst in self.transitions:
            if src not in known or dst not in known:
                raise ModelError(f"structure transition {src!r} -> {dst!r} uses an undeclared state")
            out[src].append((inv, dst))
        for r in states:
            out[r].sort(key=lambda e: (F.unparse(e[0]), e[1]))
        object.__setattr__(self, "_out", {r: tuple(v) for r, v in out.items()})

    def label(self, r):
        try:
            return self.labels[r]
        except KeyError:
            raise ModelError(f"unknown structure state {r!r}") from None

    def out_transitions(self, r):
        """Outgoing (invariant, target) pairs of ``r`` in a fixed order."""
        try:
            return self._out[r]
        except KeyError:
            raise ModelError(f"unknown structure state {r!r}") from None


@dataclass(frozen=True)
class ObservationMap:
    """Total map from behaviour state id to its valuation."""

    table: dict  # q -> {observable name -> value}

    def __post_init__(self):
        object.__setattr__(
            self, "table", {q: dict(v) for q, v in self.table.items()}
        )

    def valuation(self, q):
        try:
            return self.table[q]
        except KeyError:
            raise ModelError(f"no observation recorded for behaviour state {q!r}") from None


@dataclass(frozen=True)
class SBSystem:
    """Behaviour machine + structure machine + observation map.

    Constraint and invariant formulas are typechecked against the declared
    observables at construction time; enum literals are resolved in place.
    Instances are immutable and safe to share.
    """

    name: str
    observables: F.Observables
    behaviour: BehaviourMachine
    structure: StructureMachine
    observation: ObservationMap

    def __post_init__(self):
        for q in self.behaviour.states:
            v = self.observation.table.get(q)
            if v is None:
                raise ModelError(f"no observation recorded for behaviour state {q!r}")
            F.check_valuation(self.observables, v)
        extra = set(self.observation.table) - set(self.behaviour.states)
        if extra:
            raise ModelError(f"observation recorded for undeclared state {sorted(extra)[0]!r}")
        labels = {r: F.typecheck(phi, self.observables) for r, phi in self.structure.labels.items()}
        transitions = frozenset(
            (src, F.typecheck(inv, self.observables), dst)
            for src, inv, dst in self.structure.transitions
        )
        object.__setattr__(
            self,
            "structure",
            StructureMachine(self.structure.states, self.structure.init, labels, transitions),
        )
        object.__setattr__(self, "_regions", {})

    def observe(self, q):
        """Valuation of behaviour state ``q``."""
        return self.observation.valuation(q)

    def region(self, phi):
        """All behaviour states satisfying ``phi`` (cached per formula)."""
        cached = self._regions.get(phi)
        if cached is None:
            cached = frozenset(
                F.sat_set(phi, self.behaviour.states, self.observation.table)
            )
            self._regions[phi] = cached
        return cached

    def constraint_region(self, r):
        """Behaviour states satisfying the constraint of structure state ``r``."""
        return self.region(self.structure.label(r))


@dataclass(frozen=True)
class Violation:
    kind: str  # 'unsatisfiable-label' or 'initial-violation'
    subject: str
    message: str


@dataclass(frozen=True)
class WellFormedness:
    ok: bool
    violations: tuple


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
