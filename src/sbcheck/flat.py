"""Flat semantics: one transition system combining behaviour and structure.

A flat state is (q, r, pending) where pending is empty or a single
(invariant, target) pair recording an adaptation in progress.  Exactly one
rule family applies to any state:

* steady moves follow behaviour transitions whose endpoint satisfies the
  active constraint;
* when no behaviour successor satisfies the active constraint, adaptation
  starts along each enabled guarded structure transition;
* during adaptation the behaviour may only move through states satisfying
  the pending invariant;
* adaptation ends exactly when the current behaviour state satisfies the
  target constraint, by switching the active structure state.

States where adaptation can neither continue nor end are kept and
classified stuck.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from . import formula as F
from .errors import FormulaError, ModelError
from .model import require_well_formed

STEADY = "steady"
ADAPTING = "adapting"
STUCK = "stuck"


@dataclass(frozen=True)
class FlatState:
    q: str
    r: str
    pending: tuple | None  # None, or (invariant Formula, target structure state)

    def __str__(self):
        if self.pending is None:
            return f"({self.q},{self.r})"
        inv, target = self.pending
        return f"({self.q},{self.r},[{F.unparse(inv)} => {target}])"


@dataclass(frozen=True)
class SteadyLabel:
    r: str


@dataclass(frozen=True)
class AdaptLabel:
    r: str
    invariant: object
    target: str


@dataclass(frozen=True)
class FlatTransition:
    source: FlatState
    target: FlatState
    label: SteadyLabel | AdaptLabel


def successors(sys, state):
    """Outgoing flat transitions of ``state``, in a fixed deterministic order.

    The order is by target behaviour state, then by the structure
    machine's order of (invariant, target) options.
    """
    q, r, pending = state.q, state.r, state.pending
    succs = sys.behaviour.successors(q)
    if pending is None:
        region = sys.constraint_region(r)
        steady = [q2 for q2 in succs if q2 in region]
        if steady:
            label = SteadyLabel(r)
            return [FlatTransition(state, FlatState(q2, r, None), label) for q2 in steady]
        # no steady move possible: adaptation may start
        options = sys.options(r)
        return [
            FlatTransition(state, FlatState(q2, r, (inv, target)), AdaptLabel(r, inv, target))
            for q2 in succs
            for inv, target, inv_region in options
            if q2 in inv_region
        ]
    inv, target = pending
    label = AdaptLabel(r, inv, target)
    if q in sys.constraint_region(target):
        # adaptation ends here; the behaviour does not move
        return [FlatTransition(state, FlatState(q, target, None), label)]
    for inv2, target2, inv_region in sys.options(r):
        if target2 == target and inv2 == inv:
            return [FlatTransition(state, FlatState(q2, r, pending), label)
                    for q2 in succs if q2 in inv_region]
    raise ModelError(f"{state} is pending on no structure transition out of {r}")


class FlatLTS:
    """Reachable fragment of the flat semantics with stable state numbering.

    Equality compares states, the initial index and transitions; the
    backing system reference (used only to evaluate observation atoms) is
    ignored, so a JSON round trip restores an equal value.

    ``classes[i]`` is 'adapting' when state i has an outgoing adaptation
    transition, else 'steady' without a pending adaptation and 'stuck' with
    one.
    """

    def __init__(self, states, init_index, transitions, system=None):
        self.states = tuple(states)
        self.init_index = init_index
        self.transitions = tuple(transitions)
        self.system = system
        self._index = {s: i for i, s in enumerate(self.states)}
        out = [[] for _ in self.states]
        for t in self.transitions:
            out[self._index[t.source]].append(t)
        self._out = [tuple(v) for v in out]
        self.classes = tuple(
            ADAPTING if any(isinstance(t.label, AdaptLabel) for t in ts)
            else STEADY if s.pending is None
            else STUCK
            for s, ts in zip(self.states, self._out)
        )

    def __len__(self):
        return len(self.states)

    def __eq__(self, other):
        return (
            isinstance(other, FlatLTS)
            and self.states == other.states
            and self.init_index == other.init_index
            and self.transitions == other.transitions
        )

    def index_of(self, state):
        try:
            return self._index[state]
        except KeyError:
            raise ModelError(f"state {state} is not part of this flat system") from None

    def out_transitions(self, i):
        return self._out[i]

    def successor_ids(self, i):
        return tuple(self._index[t.target] for t in self._out[i])


def flatten(sys, roots=None):
    """Explore the flat semantics (model must be well formed).

    ``roots`` lists one or more distinct (q, r) pairs, q satisfying the
    constraint of r, whose states (q, r, no-pending) get ids 0, 1, ... in
    that order and are explored from; root 0 is the initial state.  The
    default root is the system's initial pair.
    """
    require_well_formed(sys)
    if roots is None:
        roots = [(sys.behaviour.init, sys.structure.init)]
    states = [FlatState(q, r, None) for q, r in roots]
    number = {s: i for i, s in enumerate(states)}
    if not states or len(number) < len(states) or any(
        s.q not in sys.constraint_region(s.r) for s in states
    ):
        raise ModelError("flatten needs distinct roots (q, r) with q satisfying the constraint of r")
    transitions = []
    queue = deque(states)
    while queue:
        s = queue.popleft()
        for t in successors(sys, s):
            if t.target not in number:
                number[t.target] = len(states)
                states.append(t.target)
                queue.append(t.target)
            transitions.append(t)
    return FlatLTS(states, 0, transitions, system=sys)


# ---------------------------------------------------------------------------
# exports

def state_json(state):
    """The JSON form of a flat state: ``{"q", "r", "pending": {"inv", "target"}}``."""
    pending = None
    if state.pending is not None:
        inv, target = state.pending
        pending = {"inv": F.unparse(inv), "target": target}
    return {"q": state.q, "r": state.r, "pending": pending}


def export_json(flat):
    """Serialize to the stable JSON interchange form (byte-identical across runs)."""
    states = [
        {"id": i, **state_json(s), "class": flat.classes[i]} for i, s in enumerate(flat.states)
    ]
    transitions = []
    for t in flat.transitions:
        adapt = isinstance(t.label, AdaptLabel)
        transitions.append(
            {
                "from": flat.index_of(t.source),
                "to": flat.index_of(t.target),
                "kind": "adapt" if adapt else "steady",
                "r": t.label.r,
                "inv": F.unparse(t.label.invariant) if adapt else None,
                "target": t.label.target if adapt else None,
            }
        )
    doc = {"states": states, "init": flat.init_index, "transitions": transitions}
    return json.dumps(doc, indent=2) + "\n"


def import_json(text, system=None):
    """Rebuild a FlatLTS from :func:`export_json` output.

    With ``system`` given, pending invariants and transition guards are
    typechecked against its observables, restoring full equality with the
    original, and every behaviour and structure state named must be one of
    its states; without it they stay syntactic.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ModelError(f"invalid flat JSON: {e}") from None

    def parse_inv(text_, where):
        try:
            phi = F.parse_raw(text_)
            return phi if system is None else F.typecheck(phi, system.observables)
        except FormulaError as e:
            raise ModelError(f"invalid flat JSON: {where}: bad 'inv': {e}") from None

    names = None if system is None else {
        "behaviour": set(system.behaviour.states), "structure": set(system.structure.states)}

    def known(value, what, where):
        if names and value not in names[what]:
            raise ModelError(f"invalid flat JSON: {where}: unknown {what} state {value!r}")
        return value

    def index(value, what):
        if type(value) is not int or not 0 <= value < len(states):
            raise ModelError(f"invalid flat JSON: bad {what} index {value!r}")
        return value

    try:
        if type(doc["states"]) is not list or type(doc["transitions"]) is not list:
            raise ModelError("invalid flat JSON: 'states' and 'transitions' must be lists")
        states = []
        seen = set()
        for i, row in enumerate(doc["states"]):
            where, pending = f"state {i}", row["pending"]
            if pending is not None:
                inv, target = parse_inv(pending["inv"], where), pending["target"]
                pending = (inv, known(target, "structure", where))
            q, r = known(row["q"], "behaviour", where), known(row["r"], "structure", where)
            state = FlatState(q, r, pending)
            if state in seen:
                raise ModelError(f"invalid flat JSON: duplicate state {state}")
            seen.add(state)
            states.append(state)
        if any(type(row["id"]) is not int or row["id"] != i for i, row in enumerate(doc["states"])):
            raise ModelError("invalid flat JSON: state ids must be 0..n-1 in order")
        transitions = []
        for i, row in enumerate(doc["transitions"]):
            where = f"transition {i}"
            src = states[index(row["from"], "'from'")]
            dst = states[index(row["to"], "'to'")]
            r = known(row["r"], "structure", where)
            if row["kind"] == "steady":
                if row["inv"] is not None or row["target"] is not None:
                    raise ModelError("invalid flat JSON: a steady transition has no 'inv' or 'target'")
                label = SteadyLabel(r)
            elif row["kind"] == "adapt":
                inv, target = parse_inv(row["inv"], where), known(row["target"], "structure", where)
                label = AdaptLabel(r, inv, target)
            else:
                raise ModelError(f"invalid flat JSON: unknown transition kind {row['kind']!r}")
            transitions.append(FlatTransition(src, dst, label))
        init = index(doc["init"], "init")
        declared = [row["class"] for row in doc["states"]]
    except (KeyError, IndexError, TypeError) as e:
        raise ModelError(f"invalid flat JSON: {e!r}") from None

    flat = FlatLTS(states, init, transitions, system=system)
    if list(flat.classes) != declared:
        raise ModelError("invalid flat JSON: 'class' tags disagree with the transition structure")
    return flat


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(flat):
    """Graphviz rendering: adaptation-phase nodes shaded, stuck nodes double-bordered."""
    lines = [
        "digraph flat {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
        "  __init [shape=point];",
    ]
    for i, s in enumerate(flat.states):
        if s.pending is None:
            label = f"{s.q},{s.r}"
        else:
            label = f"{s.q},{s.r},({F.unparse(s.pending[0])},{s.pending[1]})"
        attrs = [f'label="{_dot_escape(label)}"']
        if s.pending is not None:
            attrs.append("style=filled")
            attrs.append('fillcolor="#f4cccc"')
        if flat.classes[i] == STUCK:
            attrs.append("peripheries=2")
        lines.append(f'  n{i} [{", ".join(attrs)}];')
    lines.append(f"  __init -> n{flat.init_index};")
    for t in flat.transitions:
        if isinstance(t.label, AdaptLabel):
            text = f"{t.label.r},{F.unparse(t.label.invariant)},{t.label.target}"
        else:
            text = t.label.r
        lines.append(
            f'  n{flat.index_of(t.source)} -> n{flat.index_of(t.target)} '
            f'[label="{_dot_escape(text)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
