"""What a command line call pays before its command runs, and the records
that keep it small: slotted immutable classes, compared by value."""

import copy
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import gen
import oracles
import sbcheck._lex as L
import sbcheck.adapt as A
import sbcheck.compare as K
import sbcheck.ctl as C
import sbcheck.formula as F
import sbcheck.model as M
from sbcheck._record import Record
from sbcheck.errors import ModelError
from sbcheck.ingest import loads, save

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_imports_none_of_dataclasses_inspect_or_typing():
    """``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis`` and writes code
    for each class at import, and ``typing`` is large; the package imports
    none of the first two or the last."""
    modules = "{'dataclasses', 'inspect', 'typing'}"
    code = f"import sys, sbcheck.cli; print(*sorted({modules} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


x, y, one = F.Name("x"), F.Name("y"), F.IntLit(1)
AT = (1, 2)  # a source position, which == ignores
ENUM = F.EnumDomain(("a", "b"))


def _system(name="t", init="a"):
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a", "b"), init, {("a", "b")})
    st = M.StructureMachine(("r",), "r", {"r": x}, ())
    return M.SBSystem(name, obs, beh, st, M.ObservationMap({"a": {"x": True}, "b": {"x": True}}))


# (a record, one equal to it built apart, one that differs in a field)
RECORDS = [
    (L.BoolLit(True, AT), L.BoolLit(True), L.BoolLit(False)),
    (L.Not(x, AT), L.Not(F.Name("x")), L.Not(y)),
    (L.And(x, y, pos=AT), L.And(x, y), L.And(y, x)),
    (L.Or(x, y, pos=AT), L.Or(x, y), L.Or(x, y, x)),
    (L.Implies(x, y, pos=AT), L.Implies(x, y), L.Implies(y, x)),
    (F.IntLit(1, AT), F.IntLit(1), F.IntLit(2)),
    (F.Name("x", AT), F.Name(name="x"), y),
    (F.EnumLit("red", AT), F.EnumLit("red"), F.EnumLit("blue")),
    (F.Arith("+", one, x, AT), F.Arith("+", one, x), F.Arith("-", one, x)),
    (F.Compare("==", x, y, AT), F.Compare("==", x, y), F.Compare("!=", x, y)),
    (F.BoolDomain(), F.BoolDomain(), F.IntRange(0, 1)),
    (F.IntRange(0, 3), F.IntRange(lo=0, hi=3), F.IntRange(0, 4)),
    (F.EnumDomain(("a", "b")), F.EnumDomain(("a", "b")), F.EnumDomain(("b", "a"))),
    (F.ObservableDecl("x", F.BoolDomain()), F.ObservableDecl("x", F.BoolDomain()),
     F.ObservableDecl("x", F.IntRange(0, 1))),
    (F.Observables([F.ObservableDecl("x", F.BoolDomain()), F.ObservableDecl("m", ENUM)]),
     F.Observables((F.ObservableDecl("x", F.BoolDomain()), F.ObservableDecl("m", ENUM))),
     F.Observables([F.ObservableDecl("m", ENUM), F.ObservableDecl("x", F.BoolDomain())])),
    (C.Atom("adapting", AT), C.Atom("adapting"), C.Atom("steady")),
    (C.InState("r0", AT), C.InState("r0"), C.InState("r1")),
    (C.ObsHolds(x, AT), C.ObsHolds(F.Name("x")), C.ObsHolds(y)),
    (C.Modal("EF", C.Atom("steady"), AT), C.Modal("EF", C.Atom("steady")),
     C.Modal("AF", C.Atom("steady"))),
    (C.Until("A", x, y, AT), C.Until("A", x, y), C.Until("E", x, y)),
    (C.CheckResult(frozenset({0}), True, None),
     C.CheckResult(satisfying=frozenset({0}), holds_at_init=True, witness=None),
     C.CheckResult(frozenset({0}), False, None)),
    (M.BehaviourMachine(("a", "b"), "a", {("a", "b")}),
     M.BehaviourMachine(("b", "a"), "a", [("a", "b")]),
     M.BehaviourMachine(("a", "b"), "b", {("a", "b")})),
    (M.StructureMachine(("r",), "r", {"r": x}, ()), M.StructureMachine(["r"], "r", {"r": x}, []),
     M.StructureMachine(("r",), "r", {"r": y}, ())),
    (M.ObservationMap({"a": {"x": True}}), M.ObservationMap({"a": {"x": True}}),
     M.ObservationMap({"a": {"x": False}})),
    (_system(), _system(), _system(init="b")),
    (M.Violation("unsatisfiable-label", "r", "m"), M.Violation("unsatisfiable-label", "r", "m"),
     M.Violation("initial-violation", "r", "m")),
    (M.WellFormedness(True, ()), M.WellFormedness(ok=True, violations=()),
     M.WellFormedness(False, ())),
    (A.AdaptRelation("weak", frozenset({("a", "r")})),
     A.AdaptRelation("weak", frozenset([("a", "r")])),
     A.AdaptRelation("strong", frozenset({("a", "r")}))),
    (A.EquivPartition("weak", ()), A.EquivPartition("weak", ()), A.EquivPartition("strong", ())),
    (K.MethodVerdicts("weak", True, True), K.MethodVerdicts(kind="weak", relational=True, ctl=True),
     K.MethodVerdicts("weak", True, False)),
]
UNHASHABLE = (M.StructureMachine, M.ObservationMap, M.SBSystem)  # fields hold dicts
IDS = [type(a).__name__ for a, _, _ in RECORDS]
# the records whose constructor does more than set the fields: splice
# operands, check the fields or derive tables from them
CONSTRUCTORS = {L._Chain, F.IntRange, F.EnumDomain, F.Observables,
                M.BehaviourMachine, M.StructureMachine, M.ObservationMap, M.SBSystem}
PLAIN = [a for a, _, _ in RECORDS if not isinstance(a, tuple(CONSTRUCTORS))]
NODES = [a for a in PLAIN if hasattr(a, "pos")]  # AST nodes, which take a position


def test_the_table_covers_every_record_class():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    public = {c for c in subclasses(Record) if c.__module__.startswith("sbcheck.")
              and not c.__name__.startswith("_")}
    assert public == {type(a) for a, _, _ in RECORDS}


@pytest.mark.parametrize("a, same, other", RECORDS, ids=IDS)
def test_records_compare_by_class_and_fields(a, same, other):
    assert a == same and not a != same
    assert a != other and not a == other
    assert a != object() and a != tuple(getattr(a, f) for f in a._fields)


def test_equal_fields_of_another_class_are_unequal():
    assert L.And(x, y) != L.Or(x, y)
    assert F.Arith("+", one, one) != F.Compare("+", one, one)
    assert F.IntLit(1) != F.EnumLit(1)


@pytest.mark.parametrize("a, same, other", RECORDS, ids=IDS)
def test_hash_agrees_with_equality(a, same, other):
    if isinstance(a, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(same)
    assert len({a, same, other}) == 2


@pytest.mark.parametrize("a, same, other", RECORDS, ids=IDS)
def test_records_are_immutable(a, same, other):
    for name in (*a._fields, *(("pos",) if hasattr(a, "pos") else ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == same


@pytest.mark.parametrize("a, same, other", RECORDS, ids=IDS)
def test_records_copy_and_pickle_with_their_position(a, same, other):
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a
        assert getattr(twin, "pos", None) == getattr(a, "pos", None)


@pytest.mark.parametrize("a, same, other", RECORDS, ids=IDS)
def test_constructors_take_the_fields_by_position_and_by_keyword(a, same, other):
    if isinstance(a, L.And | L.Or | L.Implies):
        assert type(a)(*a.args) == a  # a chain takes its operands
        return
    values = [getattr(a, f) for f in a._fields]
    assert type(a)(*values) == a
    assert type(a)(**dict(zip(a._fields, values))) == a


def test_only_records_that_do_more_than_set_fields_define_a_constructor():
    defining = {c for a, _, _ in RECORDS for c in type(a).__mro__ if "__init__" in vars(c)}
    assert defining == CONSTRUCTORS | {Record, object}


@pytest.mark.parametrize("a", PLAIN, ids=[type(a).__name__ for a in PLAIN])
def test_plain_constructors_refuse_bad_arguments(a):
    cls, values = type(a), [getattr(a, f) for f in a._fields]
    params = values + [AT] if hasattr(a, "pos") else values
    bad = [((*params, None), {}), (values, {"extra": None})]  # one too many; unknown
    if values:  # one field missing; the first given by position and by name
        bad += [(values[:-1], {}), (values, {a._fields[0]: values[0]})]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("a", NODES, ids=[type(a).__name__ for a in NODES])
def test_a_node_takes_its_position_by_position_and_by_keyword(a):
    values = [getattr(a, f) for f in a._fields]
    by_position, by_keyword = type(a)(*values, AT), type(a)(*values, pos=AT)
    assert by_position == by_keyword == a
    assert by_position.pos == by_keyword.pos == AT
    assert type(a)(*values).pos is None


@pytest.mark.parametrize(
    "record, text",
    [
        (F.Name("x", AT), "Name(name='x')"),
        (L.And(x, L.Not(y), pos=AT), "And(args=(Name(name='x'), Not(arg=Name(name='y'))))"),
        (F.IntRange(0, 3), "IntRange(lo=0, hi=3)"),
        (F.Observables([F.ObservableDecl("x", F.BoolDomain()),
                        F.ObservableDecl("m", F.EnumDomain(("red", "blue")))]),
         "Observables(decls=(ObservableDecl(name='x', domain=BoolDomain()), "
         "ObservableDecl(name='m', domain=EnumDomain(values=('red', 'blue')))))"),
        (F.Compare(">", F.Arith("-", x, one), F.IntLit(-2)),
         "Compare(op='>', left=Arith(op='-', left=Name(name='x'), right=IntLit(value=1)), "
         "right=IntLit(value=-2))"),
        (C.Until("E", C.InState("r"), C.ObsHolds(x)),
         "Until(quant='E', left=InState(r='r'), right=ObsHolds(phi=Name(name='x')))"),
        (M.Violation("initial-violation", "r0", "m"),
         "Violation(kind='initial-violation', subject='r0', message='m')"),
        (M.BehaviourMachine(("b", "a"), "a", [("a", "b")]),
         "BehaviourMachine(states=('a', 'b'), init='a', transitions=frozenset({('a', 'b')}))"),
    ],
)
def test_repr_prints_the_class_and_its_fields(record, text):
    assert repr(record) == text


def test_constructors_validate_their_fields():
    with pytest.raises(ModelError, match=r"empty integer range \[3\.\.1\]"):
        F.IntRange(3, 1)
    with pytest.raises(ModelError, match="duplicate behaviour state id"):
        M.BehaviourMachine(("a", "a"), "a", ())
    s = _system()
    table = {"a": {"x": True}, "b": {"x": True}, "z": {"x": True}}
    with pytest.raises(ModelError, match="observation recorded for undeclared state 'z'"):
        M.SBSystem("t", s.observables, s.behaviour, s.structure, M.ObservationMap(table))


def _respaced(text):
    """``text`` with more blanks, so the nodes read from it sit elsewhere."""
    return "  " + text.replace(" ", "   ")


def _record_corpus():
    """Generated formulas and systems, each with the records read back from
    its text and from that text re-spaced: equal, at other positions."""
    rng = random.Random(26)
    bools = F.Observables([F.ObservableDecl(n, F.BoolDomain()) for n in ("x", "y", "z")])
    typed = gen.typed_observables()
    values = []
    for depth in range(7):
        for _ in range(3):
            for f, read, write in (
                (gen.random_bool_formula(rng, ("x", "y", "z"), depth),
                 lambda t: F.typecheck(F.parse_raw(t), bools), F.unparse),
                (gen.random_typed_formula(rng, depth), lambda t: F.typecheck(F.parse_raw(t), typed), F.unparse),
                (gen.random_ctl_formula(rng, ("r0", "r1"), ("x", "y"), depth), C.parse_ctl,
                 C.unparse_ctl),
            ):
                values += [f, read(write(f)), read(_respaced(write(f)))]
    for seed in range(12):
        system = gen.random_system(seed)
        text = save(system)
        values += [system, loads(text), loads(text.replace(': "', ': "  ').replace('["', '["  '))]
    return values


def test_record_protocols_match_a_naive_reference():
    values = _record_corpus()
    keys = [oracles.record_key(v) for v in values]
    placed = [oracles.record_key(v, positions=True) for v in values]
    moved = 0  # pairs of equal records at different positions
    for a, key, at in zip(values, keys, placed):
        for b, other, elsewhere in zip(values, keys, placed):
            assert (a == b) == (key == other) and (a != b) == (key != other), (a, b)
            if key == other and not isinstance(a, UNHASHABLE):
                assert hash(a) == hash(b), (a, b)
            moved += key == other and at != elsewhere
        assert repr(a) == oracles.record_text(a)
        twin = pickle.loads(pickle.dumps(a))
        assert twin == a and oracles.record_key(twin, positions=True) == at
    assert moved >= 2 * len(values)
