"""Cross-checking the relational and the CTL methods, pair by pair."""

import pathlib
import sys

import gen
import sbcheck.adapt as A
import sbcheck.compare as C
import sbcheck.ctl as CTL
from sbcheck import cli
from sbcheck.flat import flatten
from sbcheck.ingest import loads

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

# random systems whose initial pair the two methods answer differently
KNOWN_DISAGREEMENTS = {(304, A.WEAK), (395, A.STRONG), (586, A.WEAK)}


def per_pair_disagreements(sys, kind):
    """The definition: one flat system per candidate pair, grown from that pair."""
    rel = A.weak_relation(sys) if kind == A.WEAK else A.strong_relation(sys)
    phi = CTL.weak_formula() if kind == A.WEAK else CTL.strong_formula()
    out = []
    for q, r in sorted(A.candidate_pairs(sys)):
        ctl_holds = CTL.check_ctl(flatten(C.rerooted(sys, q, r)), phi).holds_at_init
        if rel.holds_for(q, r) != ctl_holds:
            out.append(((q, r), rel.holds_for(q, r), ctl_holds))
    return tuple(out)


def test_pair_disagreements_match_per_pair_definition():
    for seed in (*range(200), *sorted({s for s, _ in KNOWN_DISAGREEMENTS})):
        sys = gen.random_system(seed)
        for kind in (A.WEAK, A.STRONG):
            diffs = C.pair_disagreements(sys, kind)
            assert diffs == per_pair_disagreements(sys, kind), (seed, kind)
            init = (sys.behaviour.init, sys.structure.init)
            if (seed, kind) in KNOWN_DISAGREEMENTS:
                assert init in [pair for pair, _, _ in diffs], (seed, kind)


def test_verdicts_walk_no_branch_when_the_initial_pair_never_adapts(monkeypatch, tmp_path):
    # r0 is "true" in a wide model: every pair the initial pair depends on
    # has a steady move, while the whole relation walks adaptation branches
    text = workloads.model_text("wide", 1)
    path = tmp_path / "wide.sbs"
    path.write_text(text, encoding="utf-8")
    system = loads(text)
    walks = 0
    branch = A._branch

    def counted(*args):
        nonlocal walks
        walks += 1
        return branch(*args)

    monkeypatch.setattr(A, "_branch", counted)
    for kind in (A.WEAK, A.STRONG):
        assert C.compare_methods(system, kind).agree
    assert cli.main(["adapt", "--method", "relational", str(path)]) == cli.EXIT_OK
    assert walks == 0
    A.weak_relation(system)
    assert walks > 0
