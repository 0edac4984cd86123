"""Acceptance gate.

Eight criteria, one test each; ``pytest -v`` therefore prints exactly one
PASSED/FAILED line per criterion.  Tolerances and expected values are
pinned in the assertions themselves.  Criterion 6 additionally writes its
measurement report and any discrepancy witnesses to ``acceptance_artifacts/``
next to the package sources.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import gen
import oracles
import sbcheck.adapt as A
import sbcheck.ctl as C
import sbcheck.flat as FL
import sbcheck.ingest as ingest
import sbcheck.model as M
from sbcheck.compare import compare_methods, pair_disagreements
from sbcheck.model import BehaviourMachine, ObservationMap, SBSystem, StructureMachine

ARTIFACTS = Path(__file__).resolve().parent.parent / "acceptance_artifacts"

CORPUS_SIZE = 1000


@pytest.fixture(scope="module")
def corpus():
    """Seeded random systems: |Q| <= 8, |R| <= 4, <= 3 boolean observables."""
    return [(seed, gen.random_system(seed)) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus_flats(corpus):
    return [(seed, sys, FL.flatten(sys)) for seed, sys in corpus]


# ---------------------------------------------------------------------------
# criterion 1: bundled-model verdicts by both methods, under a time budget


def test_criterion_1_bundled_verdicts_by_both_methods():
    t0 = time.perf_counter()
    s0 = ingest.bundled_model("predator_s0")
    s1 = ingest.bundled_model("predator_s1")

    assert A.is_weak_adaptable(s0) is True
    assert A.adaptable(s0, A.STRONG) is False
    assert A.is_weak_adaptable(s1) is True
    assert A.adaptable(s1, A.STRONG) is True

    f0, f1 = FL.flatten(s0), FL.flatten(s1)
    assert C.check_ctl(f0, C.weak_formula()).holds_at_init is True
    assert C.strong_adaptable_ctl(f0) is False
    assert C.check_ctl(f1, C.weak_formula()).holds_at_init is True
    assert C.strong_adaptable_ctl(f1) is True

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"verdict reproduction took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# criterion 2: well-formedness validation on the bundled models and on
# ten scripted mutations, each rejected with the precisely named violation

S0_R0 = 'state r0: "p == 0 && (!eat -> a0 > 0) && !moved" init;'
S1_Q000F = "state q000f {p = 0, a0 = 0, a1 = 0, eat = false, moved = false}"
S0_Q111F = "state q111f {p = 1, a0 = 1, a1 = 1, eat = false, moved = false}"

MUTATIONS = [
    # (model, [(old, new), ...], expected sorted (kind, subject) pairs)
    (
        "predator_s0",
        [('state r2: "moved";', 'state r2: "moved && !moved";')],
        [("unsatisfiable-label", "r2")],
    ),
    (
        "predator_s0",
        [(S0_R0, 'state r0: "p == 2" init;')],
        [("initial-violation", "r0"), ("unsatisfiable-label", "r0")],
    ),
    (
        "predator_s0",
        [(" init;", ";"), (S0_Q111F + ";", S0_Q111F + " init;")],
        [("initial-violation", "r0")],
    ),
    (
        "predator_s0",
        [(S0_R0, S0_R0.replace(" init;", ";")), ('state r2: "moved";', 'state r2: "moved" init;')],
        [("initial-violation", "r2")],
    ),
    (
        "predator_s0",
        [('"p == 1 && (!eat -> a1 > 0) && !moved"', '"a1 > 1"')],
        [("unsatisfiable-label", "r1")],
    ),
    (
        "predator_s1",
        [('state r2: "moved";', 'state r2: "moved && eat";')],
        [("unsatisfiable-label", "r2")],
    ),
    (
        "predator_s1",
        [(S0_R0, 'state r0: "p == 0 && p == 1" init;')],
        [("initial-violation", "r0"), ("unsatisfiable-label", "r0")],
    ),
    (
        "predator_s1",
        [(" init;", ";"), (S1_Q000F + ";", S1_Q000F + " init;")],
        [("initial-violation", "r0")],
    ),
    (
        "predator_s1",
        [('state r2: "moved";', 'state r2: "false";')],
        [("unsatisfiable-label", "r2")],
    ),
    (
        "predator_s1",
        [(S0_R0, S0_R0.replace(" init;", ";")),
         ('state r1: "p == 1 && (!eat -> a1 > 0) && !moved";',
          'state r1: "p == 1 && (!eat -> a1 > 0) && !moved" init;')],
        [("initial-violation", "r1")],
    ),
]


def test_criterion_2_validation_accepts_bundled_and_rejects_mutations():
    for which in ("predator_s0", "predator_s1"):
        report = M.check_well_formed(ingest.bundled_model(which))
        assert report.ok, f"{which} must validate cleanly"

    assert len(MUTATIONS) == 10
    for n, (which, edits, expected) in enumerate(MUTATIONS, start=1):
        text = ingest.bundled_model_path(which).read_text(encoding="utf-8")
        for old, new in edits:
            assert old in text, f"mutation {n}: pattern not found"
            text = text.replace(old, new, 1)
        sys = ingest.loads(text)
        report = M.check_well_formed(sys)
        got = sorted((v.kind, v.subject) for v in report.violations)
        assert not report.ok, f"mutation {n} was not rejected"
        assert got == expected, f"mutation {n}: {got} != {expected}"


# ---------------------------------------------------------------------------
# criterion 3: flat-semantics invariants over the random corpus


def test_criterion_3_flat_semantics_invariants(corpus_flats):
    assert len(corpus_flats) >= 1000
    for seed, sys, flat in corpus_flats:
        tag = f"seed {seed}"
        for i, (q, r, pending) in enumerate(flat.states):
            if pending is None:
                # exclusivity: no state offers both a steady and an adaptation move
                assert len({flat.states[j][2] is None for j in flat.succ[i]}) <= 1, tag
                # region soundness: outside an adaptation the constraint holds
                assert q in sys.constraint_region(r), tag
            else:
                # invariant soundness: adaptation phases satisfy the invariant
                assert q in sys.options(r)[pending][2], tag
        for t in flat.transitions:
            (q, r, pending), (q2, r2, pending2) = t.source, t.target
            if pending is None and pending2 is None:
                # steady: the structure state is unchanged
                assert r == r2, tag
            elif pending is None:
                # adaptation starts along a declared structure transition
                assert r2 == r, tag
                assert (r, *sys.options(r2)[pending2][:2]) in sys.structure.transitions, tag
            elif pending2 is not None:
                # adaptation continues under the same pending pair
                assert (r2, pending2) == (r, pending), tag
            else:
                # adaptation ends: the behaviour is frozen, the structure switches
                assert (q2, r2) == (q, sys.options(r)[pending][1]), tag


# ---------------------------------------------------------------------------
# criterion 4: differential CTL checking on >= 1000 small LTSs


def _small_flats(count, max_states=6):
    out = []
    seed = 0
    while len(out) < count:
        assert seed < 10 * count, "generator failed to produce enough small systems"
        sys = gen.random_system(seed)
        flat = FL.flatten(sys)
        if 2 <= len(flat.states) <= max_states:
            out.append((sys, flat))
        seed += 1
    return out


def test_criterion_4_ctl_checker_differential_and_laws():
    rng = random.Random(2024)
    flats = _small_flats(1000)
    assert len(flats) == 1000
    for sys, flat in flats:
        rs = sys.structure.states
        names = sys.observables.names()
        for _ in range(3):
            f = gen.random_ctl_formula(rng, rs, names, 4)
            got = C.check_ctl(flat, f).satisfying
            want = C.ctl_oracle(flat, f)
            assert got == want, f"{sys.name}: {C.unparse_ctl(f)}"

        # duality and expansion laws, extensionally on this corpus, all
        # established through the reference evaluator (which computes the
        # universal operators directly rather than by duality)
        full = frozenset(range(len(flat.states)))
        f = gen.random_ctl_formula(rng, rs, names, 2)
        nf = C.Not(f)
        o = lambda node: C.ctl_oracle(flat, node)
        assert o(C.Modal("AX", f)) == full - o(C.Modal("EX", nf)), sys.name
        assert o(C.Modal("AF", f)) == full - o(C.Modal("EG", nf)), sys.name
        assert o(C.Modal("AG", f)) == full - o(C.Modal("EF", nf)), sys.name
        top = C.BoolLit(True)
        assert o(C.Modal("EF", f)) == o(C.Until("E", top, f)), sys.name
        assert o(C.Modal("AF", f)) == o(C.Until("A", top, f)), sys.name
        assert o(C.Modal("EG", f)) == o(C.And(f, C.Modal("EX", C.Modal("EG", f)))), sys.name
        assert o(C.Modal("AG", f)) == o(C.And(f, C.Modal("AX", C.Modal("AG", f)))), sys.name


# ---------------------------------------------------------------------------
# criterion 5: strong adaptability implies weak adaptability, both methods


def test_criterion_5_strong_implies_weak(corpus_flats):
    for seed, sys, flat in corpus_flats:
        tag = f"seed {seed}"
        strong = A.strong_relation(sys)
        weak = A.weak_relation(sys)
        assert strong.pairs <= weak.pairs, tag
        if strong.holds_for(sys.behaviour.init, sys.structure.init):
            assert weak.holds_for(sys.behaviour.init, sys.structure.init), tag
        if C.strong_adaptable_ctl(flat):
            assert C.check_ctl(flat, C.weak_formula()).holds_at_init, tag


# ---------------------------------------------------------------------------
# criterion 6: cross-method agreement, measured; disagreements shrunk and
# written out as DISCREPANCY artifacts rather than asserted away


def _rebuild(sys, qs=None, btrans=None, rs=None, strans=None):
    B, S = sys.behaviour, sys.structure
    qs = tuple(qs) if qs is not None else B.states
    rs = tuple(rs) if rs is not None else S.states
    bt = frozenset(
        t for t in (btrans if btrans is not None else B.transitions)
        if t[0] in qs and t[1] in qs
    )
    st = tuple(
        t for t in (strans if strans is not None else S.transitions)
        if t[0] in rs and t[2] in rs
    )
    return SBSystem(
        sys.name,
        sys.observables,
        BehaviourMachine(qs, B.init, bt),
        StructureMachine(rs, S.init, {r: S.labels[r] for r in rs}, st),
        ObservationMap({q: sys.observation.table[q] for q in qs}),
    )


def _still_disagrees(sys, kind):
    if not M.check_well_formed(sys).ok:
        return False
    mv = compare_methods(sys, kind)
    return mv.relational != mv.ctl


def _shrink(sys, kind):
    """Greedy minimization preserving well-formedness and the disagreement."""
    assert _still_disagrees(sys, kind)
    changed = True
    while changed:
        changed = False
        for t in sys.structure.transitions:
            cand = _rebuild(sys, strans=[u for u in sys.structure.transitions if u is not t])
            if _still_disagrees(cand, kind):
                sys, changed = cand, True
                break
        if changed:
            continue
        for t in sorted(sys.behaviour.transitions):
            cand = _rebuild(sys, btrans=sys.behaviour.transitions - {t})
            if _still_disagrees(cand, kind):
                sys, changed = cand, True
                break
        if changed:
            continue
        for r in sys.structure.states:
            if r == sys.structure.init:
                continue
            cand = _rebuild(sys, rs=[x for x in sys.structure.states if x != r])
            if _still_disagrees(cand, kind):
                sys, changed = cand, True
                break
        if changed:
            continue
        for q in sys.behaviour.states:
            if q == sys.behaviour.init:
                continue
            cand = _rebuild(sys, qs=[x for x in sys.behaviour.states if x != q])
            if _still_disagrees(cand, kind):
                sys, changed = cand, True
                break
    return sys


def test_criterion_6_method_agreement_measured_with_artifacts(corpus):
    for which in ("predator_s0", "predator_s1"):
        sys = ingest.bundled_model(which)
        for kind in (A.WEAK, A.STRONG):
            mv = compare_methods(sys, kind)
            assert mv.relational == mv.ctl, f"{which}/{kind}: methods must agree on the bundled models"
            assert pair_disagreements(sys, kind) == ()

    ARTIFACTS.mkdir(exist_ok=True)
    for stale in ARTIFACTS.glob("discrepancy_*.sbs"):
        stale.unlink()

    checked = 0
    disagreements = []
    for seed, sys in corpus:
        for kind in (A.WEAK, A.STRONG):
            mv = compare_methods(sys, kind)
            checked += 1
            if mv.relational == mv.ctl:
                continue
            small = _shrink(sys, kind)
            name = f"discrepancy_seed{seed}_{kind}.sbs"
            (ARTIFACTS / name).write_text(ingest.save(small), encoding="utf-8")
            disagreements.append(
                {
                    "seed": seed,
                    "kind": kind,
                    "relational": mv.relational,
                    "ctl": mv.ctl,
                    "artifact": name,
                    "witness_states": len(small.behaviour.states),
                }
            )

    report = {
        "systems": len(corpus),
        "verdicts_checked": checked,
        "agreements": checked - len(disagreements),
        "agreement_rate": (checked - len(disagreements)) / checked,
        "disagreements": disagreements,
    }
    (ARTIFACTS / "method_agreement.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    # every reported disagreement must be backed by a reloadable witness
    # that still splits the two methods
    for row in disagreements:
        path = ARTIFACTS / row["artifact"]
        assert path.is_file()
        again = ingest.load(path)
        mv = compare_methods(again, row["kind"])
        assert mv.relational != mv.ctl
        assert (mv.relational, mv.ctl) == (row["relational"], row["ctl"])


# ---------------------------------------------------------------------------
# criterion 7: byte-stable exports and counts matching the brute-force rules

EXPORT_SHA256 = {
    ("predator_s0", "json"): "134366073e8995dd62cd0af3ffd57562a995f7ffe54fcc8db41910f378176725",
    ("predator_s0", "dot"): "4fe115970dace1cf45e1eae1ba275d7ce1a0d6244c31d1ded933510c0e362ca8",
    ("predator_s1", "json"): "cdd38fcf824f498d2ca0cc7bab2ee814a5c5e18a04ea2b74d1294af724f9b409",
    ("predator_s1", "dot"): "e7fc7f6bdd956df794b08440f594820f6410369514911ee57169cb1d93fe3af1",
}

EXPECTED_COUNTS = {"predator_s0": (16, 19), "predator_s1": (10, 11)}


def test_criterion_7_snapshot_stability():
    for which in ("predator_s0", "predator_s1"):
        first = FL.flatten(ingest.bundled_model(which))
        second = FL.flatten(ingest.bundled_model(which))
        j1, j2 = FL.export_json(first), FL.export_json(second)
        d1, d2 = FL.export_dot(first), FL.export_dot(second)
        assert j1 == j2 and d1 == d2, f"{which}: exports differ across runs"
        assert hashlib.sha256(j1.encode()).hexdigest() == EXPORT_SHA256[(which, "json")]
        assert hashlib.sha256(d1.encode()).hexdigest() == EXPORT_SHA256[(which, "dot")]

        # counts recomputed by the independent brute-force rule applier
        reference = oracles.flat_oracle(oracles.predator_system(which))
        assert (len(first.states), len(first.transitions)) == EXPECTED_COUNTS[which]
        assert len(reference["states"]) == EXPECTED_COUNTS[which][0]
        assert len(reference["transitions"]) == EXPECTED_COUNTS[which][1]


# ---------------------------------------------------------------------------
# criterion 8: the adaptation equivalences are genuine partitions and the
# strong blocks respect the weak rows restricted to strong pairs


def test_criterion_8_equivalence_partition_sanity(corpus):
    for seed, sys in corpus:
        tag = f"seed {seed}"
        weak = A.weak_relation(sys)
        strong = A.strong_relation(sys)
        for kind in (A.WEAK, A.STRONG):
            part = A.equiv_partition(sys, kind)
            seen = set()
            for block in part.blocks:
                assert block, tag
                assert not (block & seen), tag
                seen |= block
            assert seen == set(sys.behaviour.states), tag

        def weak_row_on_strong_pairs(q):
            return frozenset(
                r for (q2, r) in weak.pairs if q2 == q and (q2, r) in strong.pairs
            )

        for block in A.equiv_partition(sys, A.STRONG).blocks:
            rows = {weak_row_on_strong_pairs(q) for q in block}
            assert len(rows) == 1, tag
