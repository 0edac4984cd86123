"""Flat semantics: one transition system combining behaviour and structure.

A flat state is the plain tuple (q, r, pending): behaviour state q,
structure state r, and pending None or the index, in ``sys.options(r)``,
of the structure transition whose adaptation is in progress.  Exactly one
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

A move's label follows from its two endpoints: it is an adaptation move
when either endpoint is pending, a steady move otherwise.  A flat system
stores, for each state, the tuple of its successors' ids (``succ``); its
transitions are those moves ordered by source id.  The edge pairs and,
from the first CTL check on, the table by target (``pred``) and the id
sets of the CTL atoms (``class_ids``) are derived from ``succ``.  A flat
system always has its model; the pending invariant, as text, and target
are looked up through the model only at the edges (text, JSON, DOT,
labels).  In the JSON form each transition
row must equal the row :func:`export_json` writes for its endpoints, and
the rows are listed by ascending source id.

The states of each mode ``(r, pending)`` met are numbered in one table
keyed by behaviour state (:class:`_Mode`), which also holds the regions
the rules read, so a move to a known state costs one lookup and builds
nothing.  One function applies the rules (the ``step`` of
:func:`_explorer`): :func:`flatten` steps every state it reaches, and
:func:`successors`, which ``simulate`` walks, steps one.
"""

import json
from collections import namedtuple
from itertools import compress
from json.encoder import encode_basestring_ascii

from .errors import ModelError
from .model import require_well_formed

STEADY = "steady"
ADAPTING = "adapting"
STUCK = "stuck"


FlatTransition = namedtuple("FlatTransition", "source target label")
FlatTransition.__doc__ = """A move between two flat states: ``label`` is ``("steady", r)``, or
``("adapt", r, invariant text, target)`` from the pending endpoint."""


def _written(sys, state):
    """The ``(invariant text, target)`` of a pending state, None for a state with none."""
    _, r, pending = state
    return None if pending is None else sys.structure.out_texts(r)[pending]


def _label(sys, source, target):
    pair = _written(sys, source) or _written(sys, target)
    return (STEADY, source[1]) if pair is None else ("adapt", source[1], *pair)


_RULES = {(False, False): "Steady", (False, True): "AdaptStart",
          (True, True): "Adapt", (True, False): "AdaptEnd"}


def rule_name(source, target):
    """The rule of the move from ``source`` to ``target``, read off which
    endpoints are pending: Steady, AdaptStart, Adapt or AdaptEnd."""
    return _RULES[source[2] is not None, target[2] is not None]


def state_text(sys, state):
    """``(q,r)``, or ``(q,r,[invariant => target])`` for a pending state."""
    pair = _written(sys, state)
    tail = "" if pair is None else f",[{pair[0]} => {pair[1]}]"
    return f"({state[0]},{state[1]}{tail})"


class _Mode(dict):
    """The flat states ``(q, r, pending)`` of one mode ``(r, pending)``: their
    ids keyed by q, a state not yet met numbered next, at the end of
    ``states``.

    Steady mode (no pending): ``region`` is the constraint region of r.  The
    options of r are read from ``sys.options(r)`` only when an adaptation
    starts, so a model that never adapts computes no invariant region.
    Pending mode: ``region`` is the invariant region of the option, ``goal``
    the region of its target and ``target`` the target.
    """

    __slots__ = ("states", "r", "pending", "region", "goal", "target")

    def __init__(self, sys, states, r, pending):
        self.states, self.r, self.pending = states, r, pending
        if pending is None:
            self.region = sys.constraint_region(r)
        else:
            _, self.target, self.region = sys.options(r)[pending]
            self.goal = sys.constraint_region(self.target)

    def __missing__(self, q):
        j = self[q] = len(self.states)
        self.states.append((q, self.r, self.pending))
        return j


def _explorer(sys, states):
    """The rules of the flat semantics over ``states``, a list of flat states
    numbered by position that grows as new ones are met.

    Returns ``mode(r, pending)``, the :class:`_Mode` whose ids number the
    states of that mode, and ``step(state)``, the ids of the successors of
    ``state`` (one of ``states``) in a fixed order.  A move to a known
    state costs one lookup.
    """
    modes = {}  # (r, pending) -> its _Mode
    behaviour = sys.behaviour._succ  # the table behind successors(), read without its check

    def mode(r, pending):
        m = modes.get((r, pending))
        if m is None:
            m = modes[r, pending] = _Mode(sys, states, r, pending)
        return m

    def step(state):
        q, r, pending = state
        m = modes[r, pending]
        region = m.region
        if pending is None:
            # no steady move possible: adaptation may start
            return [m[q2] for q2 in behaviour[q] if q2 in region] or [
                mode(r, k)[q2]
                for q2 in behaviour[q]
                for k, (_, _, inv_region) in enumerate(sys.options(r))
                if q2 in inv_region
            ]
        if q in m.goal:
            # adaptation ends here; the behaviour does not move
            return [mode(m.target, None)[q]]
        return [m[q2] for q2 in behaviour[q] if q2 in region]

    return mode, step


def successors(sys, state):
    """Successor flat states of ``state``, in a fixed deterministic order.

    The order is by target behaviour state, then by the structure
    machine's order of (invariant, target) options.
    """
    states = []
    mode, step = _explorer(sys, states)
    q, r, pending = state
    mode(r, pending)[q]  # numbers the state 0
    return [states[j] for j in step(states[0])]


class FlatLTS:
    """Reachable fragment of the flat semantics of ``system``, with stable
    state numbering.

    ``states`` are ``(q, r, pending)`` tuples and ``succ[i]`` the tuple of
    the target ids of the moves out of state i, in a fixed order: the
    transitions are those moves, ordered by source id.  :attr:`edges` lists
    them as ``(source id, target id)`` pairs and :attr:`pred` the source
    ids of the moves into each state; both are derived from ``succ``.
    Equality compares states, the initial index and successors, not the
    system, so a JSON round trip restores an equal value.

    ``classes[i]`` is 'adapting' when state i has a successor and it or a
    successor is pending (its moves are adaptation moves), else 'steady'
    without a pending adaptation and 'stuck' with one.
    """

    def __init__(self, states, init_index, succ, system):
        self.states = tuple(states)
        self.init_index = init_index
        self.succ = tuple(succ)
        self.system = system
        self._pred = None
        self._class_ids = None
        pending = [p is not None for _, _, p in self.states]
        is_pending = pending.__getitem__
        self.classes = tuple([
            (ADAPTING if p or any(map(is_pending, js)) else STEADY) if js
            else STUCK if p
            else STEADY
            for p, js in zip(pending, self.succ)
        ])

    @property
    def edges(self):
        """The transitions as ``(source id, target id)`` pairs, by source id."""
        return tuple((i, j) for i, js in enumerate(self.succ) for j in js)

    @property
    def pred(self):
        """``pred[j]``: the source ids of the moves into state j, one per move;
        built on first use (by CTL checking, not by the exports)."""
        if self._pred is None:
            pred = [[] for _ in self.states]
            for i, js in enumerate(self.succ):
                for j in js:
                    pred[j].append(i)
            self._pred = tuple(map(tuple, pred))
        return self._pred

    @property
    def class_ids(self):
        """``class_ids[c]``: the frozenset of the ids of the states of class
        ``c``, 'adapting' or 'steady', and ``class_ids[None]`` that of every
        id; built on first use (by CTL checking), like :attr:`pred`."""
        if self._class_ids is None:
            ids = range(len(self.states))
            table = {c: frozenset(compress(ids, map(c.__eq__, self.classes))) for c in (ADAPTING, STEADY)}
            table[None] = frozenset(ids)
            self._class_ids = table
        return self._class_ids

    @property
    def transitions(self):
        """The edges as labelled :class:`FlatTransition` triples."""
        states, sys = self.states, self.system
        return tuple(
            FlatTransition(states[i], states[j], _label(sys, states[i], states[j]))
            for i, j in self.edges
        )

    def __eq__(self, other):
        return (
            isinstance(other, FlatLTS)
            and self.states == other.states
            and self.init_index == other.init_index
            and self.succ == other.succ
        )


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
    states = []
    mode, step = _explorer(sys, states)
    for q, r in roots:
        if q not in sys.constraint_region(r):
            break
        mode(r, None)[q]  # numbers the root next, unless it repeats one
    if not roots or len(states) != len(roots):
        raise ModelError("flatten needs distinct roots (q, r) with q satisfying the constraint of r")
    # breadth first: states grows as they are found, and the iteration reads it as it grows
    return FlatLTS(states, 0, [tuple(step(s)) for s in states], sys)


# ---------------------------------------------------------------------------
# exports

def state_json(sys, state):
    """The JSON form of a flat state: ``{"q", "r", "pending": {"inv", "target"}}``."""
    pair = _written(sys, state)
    pending = None if pair is None else {"inv": pair[0], "target": pair[1]}
    return {"q": state[0], "r": state[1], "pending": pending}


def edge_json(sys, states, i, j):
    """The JSON row of the transition from ``states[i]`` to ``states[j]``."""
    label = _label(sys, states[i], states[j])
    adapt = label[0] == "adapt"
    return {
        "from": i,
        "to": j,
        "kind": label[0],
        "r": label[1],
        "inv": label[2] if adapt else None,
        "target": label[3] if adapt else None,
    }


def _json(value, depth=0):
    """``json.dumps(value, indent=2)`` for a scalar, or a list or a dict with
    string keys of such values, nested ``depth`` levels deep.  Unlike the
    indenting ``json.dumps``, whose pure-Python encoder is a knot of closures,
    it leaves no cyclic garbage."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is not dict and kind is not list or not value:
        return json.dumps(value)
    if kind is dict:
        members = [f"{encode_basestring_ascii(k)}: {_json(v, depth + 1)}" for k, v in value.items()]
    else:
        members = [_json(v, depth + 1) for v in value]
    pad = "\n" + "  " * depth
    ends = "{}" if kind is dict else "[]"
    return f"{ends[0]}{pad}  " + f",{pad}  ".join(members) + f"{pad}{ends[1]}"


def _cut(row):
    """The text of ``row``, an item of a top-level list, cut around its first
    two values: ``(before, between, after)``."""
    (first, _), (second, _), *rest = row.items()
    return (f'{{\n      {encode_basestring_ascii(first)}: ',
            f',\n      {encode_basestring_ascii(second)}: ',
            "," + _json(dict(rest), 2)[1:])


def _list(rows):
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def export_json(flat):
    """Serialize to the stable JSON interchange form (byte-identical across runs).

    The text is ``json.dumps(doc, indent=2) + "\\n"`` of
    ``{"states": [...], "init": ..., "transitions": [...]}``, whose state rows
    are :func:`state_json` between an ``id`` and a ``class`` and whose
    transition rows are :func:`edge_json`.  It is written directly: all of a
    state row but its id and ``q`` depends only on ``(r, pending, class)``,
    and all of a transition row but its ids only on the ``(r, pending)`` of
    its endpoints, so each such tail is rendered once.
    """
    sys, states, classes = flat.system, flat.states, flat.classes
    state_rows, cuts = [], {}
    for i, s in enumerate(states):
        q, r, pending = s
        key = r, pending, classes[i]
        cut = cuts.get(key)
        if cut is None:
            cut = cuts[key] = _cut({"id": i, **state_json(sys, s), "class": classes[i]})
        state_rows.append(f"{cut[0]}{i}{cut[1]}{encode_basestring_ascii(q)}{cut[2]}")
    edge_rows, cuts = [], {}
    for i, js in enumerate(flat.succ):
        _, r, pending = states[i]
        for j in js:
            _, r2, pending2 = states[j]
            key = r, pending, r2, pending2
            cut = cuts.get(key)
            if cut is None:
                cut = cuts[key] = _cut(edge_json(sys, states, i, j))
            edge_rows.append(f"{cut[0]}{i}{cut[1]}{j}{cut[2]}")
    return (f'{{\n  "states": {_list(state_rows)},\n  "init": {flat.init_index},\n'
            f'  "transitions": {_list(edge_rows)}\n}}\n')


def import_json(text, system):
    """Rebuild a FlatLTS of ``system`` from :func:`export_json` output.

    The document and each state row must have the keys :func:`export_json`
    writes and no other.  Every behaviour and structure state named must be
    one of ``system``'s, each pending object must equal the one
    :func:`state_json` writes for a structure transition out of its state's
    ``r``, and each transition row must equal the row :func:`export_json`
    writes for its two endpoint states (see :func:`edge_json`).  The
    transitions must be listed by ascending source id, as they are written.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ModelError(f"invalid flat JSON: {e}") from None
    names = {"behaviour": set(system.behaviour.states), "structure": set(system.structure.states)}
    pendings = {}  # r -> the pending objects of its options, in options order

    def known(value, what, where):
        if value not in names[what]:
            raise ModelError(f"invalid flat JSON: {where}: unknown {what} state {value!r}")
        return value

    def option(pending, r, where):
        if r not in pendings:
            pendings[r] = [state_json(system, (None, r, k))["pending"]
                           for k in range(len(system.options(r)))]
        if pending not in pendings[r]:
            raise ModelError(f"invalid flat JSON: {where}: pending {json.dumps(pending)} "
                             f"is no structure transition out of {r!r}")
        return pendings[r].index(pending)

    def index(value, what):
        if type(value) is not int or not 0 <= value < len(states):
            raise ModelError(f"invalid flat JSON: bad {what} index {value!r}")
        return value

    try:
        if type(doc["states"]) is not list or type(doc["transitions"]) is not list:
            raise ModelError("invalid flat JSON: 'states' and 'transitions' must be lists")
        if len(doc) != 3:  # each key is read, so only an extra one is left to find
            raise ModelError(f"invalid flat JSON: keys {sorted(doc)} are not "
                             "states, init, transitions")
        states = []
        seen = set()
        for i, row in enumerate(doc["states"]):
            where = f"state {i}"
            q, r = known(row["q"], "behaviour", where), known(row["r"], "structure", where)
            pending = row["pending"]
            if len(row) != 5:  # as for the document's keys
                raise ModelError(f"invalid flat JSON: {where}: keys {sorted(row)} are not "
                                 "id, q, r, pending, class")
            state = q, r, None if pending is None else option(pending, r, where)
            if state in seen:
                raise ModelError(f"invalid flat JSON: duplicate state {state_text(system, state)}")
            seen.add(state)
            states.append(state)
        if any(type(row["id"]) is not int or row["id"] != i for i, row in enumerate(doc["states"])):
            raise ModelError("invalid flat JSON: state ids must be 0..n-1 in order")
        succ = [[] for _ in states]
        source = 0
        for n, row in enumerate(doc["transitions"]):
            i, j = index(row["from"], "'from'"), index(row["to"], "'to'")
            if row != edge_json(system, states, i, j):
                raise ModelError(f"invalid flat JSON: transition {n} disagrees with its "
                                 f"endpoint states {i} -> {j}")
            if i < source:
                raise ModelError(f"invalid flat JSON: transition {n} is listed after "
                                 f"those of state {source}: sources must ascend")
            source = i
            succ[i].append(j)
        init = index(doc["init"], "init")
        declared = [row["class"] for row in doc["states"]]
    except (KeyError, IndexError, TypeError) as e:
        raise ModelError(f"invalid flat JSON: {e!r}") from None

    flat = FlatLTS(states, init, map(tuple, succ), system)
    if list(flat.classes) != declared:
        raise ModelError("invalid flat JSON: 'class' tags disagree with the transition structure")
    return flat


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(flat):
    """Graphviz rendering: adaptation-phase nodes shaded, stuck nodes double-bordered."""
    sys = flat.system
    lines = [
        "digraph flat {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
        "  __init [shape=point];",
    ]
    for i, s in enumerate(flat.states):
        pair = _written(sys, s)
        label = f"{s[0]},{s[1]}" + ("" if pair is None else f",({pair[0]},{pair[1]})")
        attrs = [f'label="{_dot_escape(label)}"']
        if pair is not None:
            attrs.append("style=filled")
            attrs.append('fillcolor="#f4cccc"')
        if flat.classes[i] == STUCK:
            attrs.append("peripheries=2")
        lines.append(f'  n{i} [{", ".join(attrs)}];')
    lines.append(f"  __init -> n{flat.init_index};")
    for i, j in flat.edges:
        label = _label(sys, flat.states[i], flat.states[j])
        text = label[1] if label[0] == STEADY else f"{label[1]},{label[2]},{label[3]}"
        lines.append(f'  n{i} -> n{j} [label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
