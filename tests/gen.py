"""Seeded random generators for property tests.

Everything is driven by explicit ``random.Random(seed)`` instances so a
failing case can be reproduced from its seed alone.
"""

import random

import sbcheck.ctl as C
import sbcheck.formula as F
from sbcheck.model import BehaviourMachine, ObservationMap, SBSystem, StructureMachine

_OBS_NAMES = ("x", "y", "z")


def random_bool_formula(rng, names, depth):
    """Formula over boolean observables ``names`` with nesting ≤ depth."""
    if depth == 0 or rng.random() < 0.3:
        c = rng.randrange(4)
        if c == 0:
            return F.BoolLit(rng.random() < 0.5)
        if c == 1:
            return F.Not(F.Name(rng.choice(names)))
        return F.Name(rng.choice(names))
    a = random_bool_formula(rng, names, depth - 1)
    b = random_bool_formula(rng, names, depth - 1)
    c = rng.randrange(4)
    if c == 0:
        return F.And(a, b)
    if c == 1:
        return F.Or(a, b)
    if c == 2:
        return F.Implies(a, b)
    return F.Not(a)


def random_system(seed, max_q=8, max_r=4, max_obs=3):
    """Well-formed random system over boolean observables.

    Unsatisfiable constraints and an initial-state violation are repaired
    by widening the offending constraint to true, so every result passes
    the well-formedness check by construction.
    """
    rng = random.Random(seed)
    names = _OBS_NAMES[: rng.randint(1, max_obs)]
    obs = F.Observables([F.ObservableDecl(n, F.BoolDomain()) for n in names])
    qs = [f"q{i}" for i in range(rng.randint(1, max_q))]
    table = {q: {n: rng.random() < 0.5 for n in names} for q in qs}
    btrans = set()
    for q in qs:
        for _ in range(rng.randint(0, 3)):
            btrans.add((q, rng.choice(qs)))
    rs = [f"r{i}" for i in range(rng.randint(1, max_r))]
    labels = {r: random_bool_formula(rng, names, 2) for r in rs}
    strans = set()
    for r in rs:
        for _ in range(rng.randint(0, 2)):
            strans.add((r, random_bool_formula(rng, names, 1), rng.choice(rs)))
    q0 = rng.choice(qs)
    r0 = rng.choice(rs)

    def region(phi):
        checked = F.typecheck(phi, obs)
        return {q for q in qs if F.evaluate(checked, table[q])}

    labels = {r: (phi if region(phi) else F.BoolLit(True)) for r, phi in labels.items()}
    if q0 not in region(labels[r0]):
        labels[r0] = F.BoolLit(True)
    return SBSystem(
        name=f"random-{seed}",
        observables=obs,
        behaviour=BehaviourMachine(tuple(qs), q0, frozenset(btrans)),
        structure=StructureMachine(tuple(rs), r0, labels, frozenset(strans)),
        observation=ObservationMap(table),
    )


def adaptation_chain(n):
    """h must adapt at once into an n-step run through !x states ending where y holds."""
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain()), F.ObservableDecl("y", F.BoolDomain())])
    run = tuple(f"a{i}" for i in range(n))
    beh = BehaviourMachine(("h",) + run, "h", frozenset(zip(("h",) + run, run)))
    labels = {"r0": F.parse_raw("x"), "r1": F.parse_raw("y")}  # SBSystem typechecks them
    st = StructureMachine(("r0", "r1"), "r0", labels, frozenset({("r0", F.parse_raw("!x"), "r1")}))
    table = {"h": {"x": True, "y": False}, **{a: {"x": False, "y": a == run[-1]} for a in run}}
    return SBSystem("chain", obs, beh, st, ObservationMap(table))


def random_ctl_formula(rng, structure_states, obs_names, depth):
    """CTL formula covering every operator; atoms fit the given system.

    Pass empty ``structure_states`` or ``obs_names`` to leave out the
    corresponding atom kind.
    """
    if depth == 0 or rng.random() < 0.25:
        kinds = ["bool", "adapting", "steady"]
        if structure_states:
            kinds.append("in")
        if obs_names:
            kinds += ["obs", "obs"]
        c = rng.choice(kinds)
        if c == "bool":
            return C.BoolLit(rng.random() < 0.5)
        if c == "adapting":
            return C.Atom("adapting")
        if c == "steady":
            return C.Atom("steady")
        if c == "in":
            return C.InState(rng.choice(structure_states))
        return C.ObsHolds(random_bool_formula(rng, obs_names, 1))
    c = rng.randrange(7)
    a = random_ctl_formula(rng, structure_states, obs_names, depth - 1)
    if c == 0:
        return C.Not(a)
    if c == 1:
        return C.Modal(rng.choice(("AX", "EX", "AF", "EF", "AG", "EG")), a)
    b = random_ctl_formula(rng, structure_states, obs_names, depth - 1)
    if c == 2:
        return C.And(a, b)
    if c == 3:
        return C.Or(a, b)
    if c == 4:
        return C.Implies(a, b)
    if c == 5:
        return C.Until("A", a, b)
    return C.Until("E", a, b)


_TYPED_DECLS = (
    F.ObservableDecl("p", F.IntRange(0, 2)),
    F.ObservableDecl("count", F.IntRange(-3, 5)),
    F.ObservableDecl("eat", F.BoolDomain()),
    F.ObservableDecl("mode", F.EnumDomain(("hunting", "resting", "gone"))),
)


def typed_observables():
    """Fixed mixed-domain declarations for formula-level tests."""
    return F.Observables(list(_TYPED_DECLS))


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < 0.5:
            return F.IntLit(rng.randint(-4, 6))
        return F.Name(rng.choice(("p", "count")))
    return F.Arith(
        rng.choice(("+", "-")), random_term(rng, depth - 1), random_term(rng, depth - 1)
    )


def random_typed_formula(rng, depth):
    """Formula over ``typed_observables`` exercising every construct."""
    if depth == 0 or rng.random() < 0.3:
        c = rng.randrange(5)
        if c == 0:
            return F.BoolLit(rng.random() < 0.5)
        if c == 1:
            return F.Name("eat")
        if c == 2:
            op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
            return F.Compare(op, random_term(rng, 1), random_term(rng, 1))
        if c == 3:
            op = rng.choice(("==", "!="))
            return F.Compare(
                op, F.Name("mode"), F.EnumLit(rng.choice(("hunting", "resting", "gone")))
            )
        return F.Not(F.Name("eat"))
    a = random_typed_formula(rng, depth - 1)
    b = random_typed_formula(rng, depth - 1)
    c = rng.randrange(4)
    if c == 0:
        return F.And(a, b)
    if c == 1:
        return F.Or(a, b)
    if c == 2:
        return F.Implies(a, b)
    return F.Not(a)


def random_valuation(rng):
    """Valuation for ``typed_observables``."""
    return {
        "p": rng.randint(0, 2),
        "count": rng.randint(-3, 5),
        "eat": rng.random() < 0.5,
        "mode": rng.choice(("hunting", "resting", "gone")),
    }
