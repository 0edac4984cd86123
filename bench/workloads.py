"""Seeded generators for the benchmark's model families.

Each generator returns ``.sbs`` text for one model and imports nothing
from sbcheck, so a defect in the loader cannot shape its own input.  The
same arguments always give the same text.

* ``wide``: a random model on which the two decision methods agree.
  Behaviour states carry 6 boolean observables (each true with p=0.6)
  and have out-degree 3.  Structure states r1.. carry 2-literal
  disjunctions as labels (``r0`` is ``true``), and each has 2 outgoing
  transitions guarded by 2-literal invariants.
* ``chain``: k adaptation chains of L steps hanging off one steady hub.
  Every chain completes, so weak and strong adaptability both hold.
* ``discrepancy``: a small ``wide`` model in disjoint union with the
  livelock gadget of random corpus seed 395 (prefixed ``g``).  The gadget
  holds the initial pair and makes the methods disagree on the weak pair
  ``(gq0, gr0)``, so ``adapt`` runs its discrepancy search.
"""

import random

OBS = tuple(f"o{i}" for i in range(6))
P_TRUE = 0.6
OUT_DEGREE = 3
STRUCT_OUT = 2

# Sizes per family.  ``full`` is what the benchmark times; ``smoke`` is
# small enough for the independent oracles in tests/oracles.py.
SIZES = {
    "full": {
        "wide": {"q": 200, "r": 8},
        "chain": {"k": 1, "length": 800},
        "discrepancy": {"q": 16, "r": 8},
    },
    "smoke": {
        "wide": {"q": 10, "r": 3},
        "chain": {"k": 2, "length": 4},
        "discrepancy": {"q": 5, "r": 2},
    },
}


def _bool(v):
    return "true" if v else "false"


def _literal(rng):
    name = rng.choice(OBS)
    return name if rng.random() < 0.5 else "!" + name


def _clause(rng):
    return f"{_literal(rng)} || {_literal(rng)}"


def _holds(clause, valuation):
    return any(
        not valuation[lit[1:]] if lit.startswith("!") else valuation[lit]
        for lit in clause.split(" || ")
    )


def _random_part(rng, q, r):
    """States, transitions, labels and structure transitions of one wide model."""
    states = [f"q{i}" for i in range(q)]
    table = {s: {n: rng.random() < P_TRUE for n in OBS} for s in states}
    trans = []
    for s in states:
        for t in rng.sample(states, min(OUT_DEGREE, q)):
            trans.append((s, t))
    rs = [f"r{i}" for i in range(r)]
    labels = {"r0": "true"}
    for name in rs[1:]:
        clause = _clause(rng)
        # keep every constraint satisfiable, so the model is well formed
        if not any(_holds(clause, table[s]) for s in states):
            clause = "true"
        labels[name] = clause
    strans = [(src, _clause(rng), rng.choice(rs)) for src in rs for _ in range(STRUCT_OUT)]
    return states, table, trans, rs, labels, strans


def _render(name, observables, states, table, init_q, trans, rs, labels, init_r, strans):
    out = [f'system "{name}"', "", "observables {"]
    out += [f"  {n}: bool;" for n in observables]
    out += ["}", "", "behaviour {"]
    for s in states:
        body = ", ".join(f"{n} = {_bool(table[s][n])}" for n in observables)
        out.append(f"  state {s} {{{body}}}{' init' if s == init_q else ''};")
    out += [f"  {a} -> {b};" for a, b in trans]
    out += ["}", "", "structure {"]
    for r in rs:
        out.append(f'  state {r}: "{labels[r]}"{" init" if r == init_r else ""};')
    out += [f'  {a} -["{inv}"]-> {b};' for a, inv, b in strans]
    out += ["}"]
    return "\n".join(out) + "\n"


def wide(seed, q, r):
    rng = random.Random(f"wide-{seed}")
    states, table, trans, rs, labels, strans = _random_part(rng, q, r)
    return _render(f"wide-{seed}", OBS, states, table, "q0", trans, rs, labels, "r0", strans)


def chain(seed, k, length):
    """Hub ``h`` steps to ``a{i}``, whose only move leaves the ``s`` region,
    so adaptation r0 -> r1 starts and runs through ``c{i}_0 .. c{i}_{L-1}``
    to ``e{i}``, which satisfies r1's label ``d``.  From ``e{i}`` the only
    move goes back to ``h``, so adaptation r1 -> r0 ends there at once.

    The seed only shuffles the order of declarations in the text, which the
    loader sorts, so every model of the family costs the same.
    """
    rng = random.Random(f"chain-{seed}")
    table = {"h": (True, False, False)}
    trans = []
    for i in range(k):
        table[f"a{i}"] = (True, False, False)
        trans.append(("h", f"a{i}"))
        prev = f"a{i}"
        for j in range(length):
            table[f"c{i}_{j}"] = (False, True, False)
            trans.append((prev, f"c{i}_{j}"))
            prev = f"c{i}_{j}"
        table[f"e{i}"] = (False, False, True)
        trans += [(prev, f"e{i}"), (f"e{i}", "h")]
    observables = ("s", "c", "d")
    table = {name: dict(zip(observables, v)) for name, v in table.items()}
    states = list(table)
    rng.shuffle(states)
    rng.shuffle(trans)
    labels = {"r0": "s", "r1": "d"}
    strans = [("r0", "c || d", "r1"), ("r1", "s", "r0")]
    return _render(
        f"chain-{seed}", observables, states, table, "h", trans, ["r0", "r1"], labels, "r0", strans
    )


# Random corpus seed 395: every adaptation completes but lands in a state
# that must adapt again at once, so the flat system cycles without a
# steady state.  The relational method says weak yes, CTL says no.
_GADGET_STATES = {
    "gq0": (True, True),
    "gq2": (False, True),
    "gq3": (True, False),
    "gq4": (False, True),
    "gq5": (False, True),
}
_GADGET_TRANS = [("gq0", "gq4"), ("gq2", "gq5"), ("gq3", "gq5"), ("gq4", "gq3"), ("gq5", "gq0")]
_GADGET_LABELS = {"gr0": "x || (true -> false)", "gr1": "!(x && x)", "gr3": "!y && true || !y"}
_GADGET_STRANS = [("gr0", "true", "gr3"), ("gr1", "x", "gr0"), ("gr3", "true || x", "gr0")]


def discrepancy(seed, q, r):
    """Disjoint union of a wide model and the gadget, told apart by ``g``."""
    rng = random.Random(f"discrepancy-{seed}")
    states, table, trans, rs, labels, strans = _random_part(rng, q, r)
    observables = OBS + ("x", "y", "g")
    for s in states:
        table[s].update(x=False, y=False, g=False)
    labels = {name: f"({clause}) && !g" for name, clause in labels.items()}
    for s, (x, y) in _GADGET_STATES.items():
        table[s] = {**{n: False for n in OBS}, "x": x, "y": y, "g": True}
    labels.update({name: f"({clause}) && g" for name, clause in _GADGET_LABELS.items()})
    return _render(
        f"discrepancy-{seed}",
        observables,
        list(_GADGET_STATES) + states,
        table,
        "gq2",
        _GADGET_TRANS + trans,
        list(_GADGET_LABELS) + rs,
        labels,
        "gr1",
        _GADGET_STRANS + strans,
    )


GENERATORS = {"wide": wide, "chain": chain, "discrepancy": discrepancy}

# Model seeds of each workload's pool.  Every run visits the whole pool, so
# its medians do not depend on which models the run seed picked; the run
# seed sets the visiting order.  Sweep counts vary by model seed, so the
# random families use several.
POOL = {"wide": (1, 2, 3), "chain": (1, 2), "discrepancy": (1, 2, 3)}


def model_text(workload, seed, size="full"):
    return GENERATORS[workload](seed, **SIZES[size][workload])
