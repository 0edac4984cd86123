"""Cross-checking the relational and the CTL methods, pair by pair."""

import gc
import pathlib
import sys
from collections import Counter

import gen
import sbcheck.adapt as A
import sbcheck.compare as C
import sbcheck.ctl as CTL
import sbcheck.flat as FL
from sbcheck import cli
from sbcheck._record import set_field
from sbcheck.flat import flatten
from sbcheck.ingest import bundled_model_path, loads, save

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


# random systems (seed, max_q, kind) whose least disagreeing pair sorts below
# every disagreement of the verdict's closure, so the search must solve more,
# and ones whose closure holds it and the least candidates
UNSETTLED = {(148, 24, A.WEAK), (1017, 24, A.WEAK), (1761, 24, A.WEAK), (217, 24, A.STRONG)}
SETTLED = {(377, 24, A.WEAK), (550, 24, A.WEAK)}


def test_the_verdicts_closure_answers_as_the_whole_relation_and_the_all_candidate_graph():
    # the rooted solve is exact at every pair of the initial pair's closure,
    # and a CTL label depends only on reachable states
    systems = [(seed, max_q) for max_q, n in ((8, 1500), (24, 600)) for seed in range(n)]
    systems += [(seed, max_q) for seed, max_q, _ in UNSETTLED | SETTLED]
    for seed, max_q in systems:
        sys = gen.random_system(seed, max_q=max_q)
        init = (sys.behaviour.init, sys.structure.init)
        flat = flatten(sys)
        roots = sorted(A.candidate_pairs(sys))
        whole, ids = flatten(sys, roots), {p: i for i, p in enumerate(roots)}
        for kind in (A.WEAK, A.STRONG):
            phi = CTL.adaptability_formula(kind)
            rel = A.weak_relation(sys) if kind == A.WEAK else A.strong_relation(sys)
            refuted = A._refuted(sys, kind, init)
            sat, whole_sat = CTL.check_ctl(flat, phi).satisfying, CTL.check_ctl(whole, phi).satisfying
            for i, (q, r, pending) in enumerate(flat.states):
                if pending is None:
                    assert ((q, r) not in refuted) == rel.holds_for(q, r), (seed, max_q, kind, q, r)
                    assert (i in sat) == (ids[q, r] in whole_sat), (seed, max_q, kind, q, r)


def test_find_discrepancy_is_the_least_disagreement_whether_or_not_the_closure_settles_it():
    cases = [(gen.random_system(seed, max_q=max_q), kind, (seed, max_q, kind))
             for seed, max_q, kind in sorted(UNSETTLED | SETTLED)]
    cases += [(gen.random_system(seed, max_q=max_q), kind, (seed, max_q, kind))
              for max_q, n in ((8, 2000), (24, 2000)) for seed in range(n) for kind in (A.WEAK, A.STRONG)]
    cases.append((loads(workloads.model_text("discrepancy", 1)), A.WEAK, "gadget"))
    settled = set()
    for sys, kind, case in cases:
        diffs = C.pair_disagreements(sys, kind)
        if not diffs:
            assert C.find_discrepancy(sys, kind) is None, case
            continue
        closure = {(q, r) for q, r, pending in flatten(sys).states if pending is None}
        if diffs[0][0] in closure and min(A.candidate_pairs(sys) - closure, default=diffs[0][0]) >= diffs[0][0]:
            settled.add(case)
        assert C.find_discrepancy(sys, kind) == diffs[0], case
        assert C.find_discrepancy(sys, kind, flatten(sys)) == diffs[0], case
    assert not settled & UNSETTLED
    assert settled >= SETTLED | {"gadget"}


def test_the_discrepancy_search_solves_only_what_the_closure_leaves(monkeypatch, tmp_path):
    # counts, not timings: the search reads the verdict's move table and flat
    # system, and roots a further solve only at the candidates that sort
    # below the closure's least disagreement and lie outside the closure
    roots, tables = [], []
    moves, pred, disagreements = A._moves, FL.FlatLTS.pred, C.pair_disagreements

    def counted_moves(sys, root=None):
        roots.append(root)
        return moves(sys, root)

    def counted_pred(flat):
        if flat._pred is None:
            tables.append(flat)
        return pred.fget(flat)

    monkeypatch.setattr(A, "_moves", counted_moves)
    monkeypatch.setattr(FL.FlatLTS, "pred", property(counted_pred))
    path = tmp_path / "discrepancy.sbs"
    path.write_text(workloads.discrepancy(1, 2000, 8), encoding="utf-8")
    assert cli.main(["adapt", "--json", str(path)]) == cli.EXIT_DISCREPANCY
    assert roots and None not in roots
    assert len(tables) == 1

    searched = []
    monkeypatch.setattr(C, "pair_disagreements", lambda sys, kind, roots=None: searched.append(roots)
                        or disagreements(sys, kind, roots))
    for seed, max_q, kind in sorted(UNSETTLED):
        sys = gen.random_system(seed, max_q=max_q)
        closure = {(q, r) for q, r, pending in flatten(sys).states if pending is None}
        bound = min(p for p, _, _ in disagreements(sys, kind) if p in closure)
        searched.clear()
        roots.clear()
        C.find_discrepancy(sys, kind)
        below = sorted(p for p in A.candidate_pairs(sys) if p < bound and p not in closure)
        assert searched == [below], (seed, max_q, kind)
        assert None not in roots


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
        mv = C.compare_methods(system, kind)
        assert mv.relational == mv.ctl
    assert cli.main(["adapt", "--method", "relational", str(path)]) == cli.EXIT_OK
    assert walks == 0
    A.weak_relation(system)
    assert walks > 0


def test_adapt_walks_each_branch_once_and_builds_one_graph_per_flat_system(monkeypatch, tmp_path):
    # the walks do not depend on the kind, nor a flat system's predecessor
    # table and atom sets on the formula: weak, strong, the discrepancy
    # search and --witness share them
    walks, tables = [], []
    branch = A._branch

    def counted_branch(sys, start, r, k):
        walks.append((start, r, k))
        return branch(sys, start, r, k)

    def counted(name):  # the table ``name`` of a flat system, noting each build
        build = getattr(FL.FlatLTS, name).fget

        def table(flat):
            if getattr(flat, "_" + name) is None:
                tables.append((name, flat))
            return build(flat)
        return property(table)

    monkeypatch.setattr(A, "_branch", counted_branch)
    for name in ("pred", "class_ids"):
        monkeypatch.setattr(FL.FlatLTS, name, counted(name))
    chain = tmp_path / "chain.sbs"
    chain.write_text(save(gen.adaptation_chain(50)))
    gadget = tmp_path / "discrepancy.sbs"
    gadget.write_text(workloads.model_text("discrepancy", 1, "smoke"))
    for path, code in ((chain, cli.EXIT_OK), (gadget, cli.EXIT_DISCREPANCY)):
        walks.clear()
        tables.clear()
        assert cli.main(["adapt", "--json", "--witness", str(path)]) == code
        assert walks and len(walks) == len(set(walks)), path.name
        # one table of each: the search reads the verdict's flat system, whose
        # closure holds the gadget's least pair
        assert sorted(name for name, _ in tables) == ["class_ids", "pred"], path.name
        assert len({id(f) for _, f in tables}) == 1, path.name
        tables.clear()
        assert cli.main(["flatten", "--json", str(path)]) == cli.EXIT_OK
        assert not tables  # built on the first check, not by flatten


def test_adapt_builds_one_move_table_and_reads_each_successor_list_once_per_structure_state(
        monkeypatch, tmp_path):
    # the weak and strong verdicts read one table of adapting pairs, found
    # per structure state: a behaviour state's successors are read once for
    # each structure state whose constraint it satisfies, whichever kind asks
    builds, reads, systems = [], Counter(), []
    walking = False
    moves, branch, load = A._moves, A._branch, cli.ingest.load

    class CountedSucc(dict):
        def __getitem__(self, q):
            if not walking:  # a branch walk reads the successors of its own states
                reads[q] += 1
            return dict.__getitem__(self, q)

    def counted_moves(sys, root=None):
        if root not in sys._moves:
            builds.append(root)
        return moves(sys, root)

    def quiet_branch(*args):
        nonlocal walking
        walking = True
        try:
            return branch(*args)
        finally:
            walking = False

    def counted_load(path):
        system = load(path)
        set_field(system.behaviour, "_succ", CountedSucc(system.behaviour._succ))
        systems.append(system)
        return system

    monkeypatch.setattr(A, "_moves", counted_moves)
    monkeypatch.setattr(A, "_branch", quiet_branch)
    monkeypatch.setattr(cli.ingest, "load", counted_load)
    chain = tmp_path / "chain.sbs"
    chain.write_text(save(gen.adaptation_chain(50)))
    gadget = tmp_path / "discrepancy.sbs"
    gadget.write_text(workloads.model_text("discrepancy", 1, "smoke"))
    wide = tmp_path / "wide.sbs"
    wide.write_text(workloads.model_text("wide", 1))
    for path in (chain, gadget, wide):
        for argv in (["adapt", "--method", "relational"], ["equiv"]):
            builds.clear()
            reads.clear()
            systems.clear()
            cli.main([*argv, str(path)])  # relational only: flatten reads successors too
            (system,) = systems
            root = (system.behaviour.init, system.structure.init) if argv[0] == "adapt" else None
            assert builds == [root], (path.name, argv)
            assert reads, (path.name, argv)
            for q, n in reads.items():
                assert n <= sum(q in region for region in system._admits.values()), (path.name, argv, q)


def test_library_calls_leave_no_cyclic_garbage():
    # a system and its walk table, a flat system and its CTL graph, are
    # freed by reference counting alone, so a command leaves no work for
    # the cyclic collector
    texts = [workloads.model_text(w, seed, "smoke") for w, seeds in workloads.POOL.items()
             for seed in seeds]
    texts += [bundled_model_path(name).read_text() for name in ("predator_s0", "predator_s1")]

    def run(text):
        sys = loads(text)
        flat = flatten(sys)
        results = [flat]
        for kind in (A.WEAK, A.STRONG):
            results += [C.compare_methods(sys, kind, flat), C.find_discrepancy(sys, kind),
                        A.equiv_partition(sys, kind)]
        results.append(CTL.strong_counterexample(flat))
        return results

    for text in texts:  # once first, so that one-time caches are filled
        run(text)
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            results = run(text)
            del results
        assert gc.collect() == 0
    finally:
        gc.enable()
