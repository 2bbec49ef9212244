"""Refinement search: verdicts, witnesses, completeness metadata."""

import itertools
import random

import pytest

from qsr import (
    BudgetExceededError,
    CalculusMismatchError,
    CalculusSpec,
    ConstraintNetwork,
    FiniteInterpretation,
    NetworkError,
    Verdict,
    a_closure,
    brute_force_solve,
    builtin,
    builtin_model,
    decide,
    derive_completeness,
    naive_closure,
    normalize,
    random_network,
)
from qsr.registry import BUILTIN_MODEL_NAMES

pc1 = builtin("pc1")
rcc5 = builtin("rcc5")
cycb = builtin("cycb")


def test_decide_trivially_inconsistent_after_normalization():
    net = normalize(
        pc1,
        [
            ("A", pc1.relation("<", "="), "B"),
            ("B", pc1.relation("<", "="), "A"),
            ("A", pc1.relation("<", ">"), "B"),
        ],
    )
    assert net["A", "B"].is_empty
    decision = decide(net)
    assert decision.verdict is Verdict.INCONSISTENT
    assert decision.witness is None


def test_decide_finds_witness_by_refinement():
    net = normalize(
        rcc5,
        [
            ("A", rcc5.relation("PP"), "B"),
            ("B", rcc5.relation("PP"), "C"),
            ("A", rcc5.relation("DC", "PP"), "C"),
        ],
    )
    decision = decide(net)
    assert decision.verdict is Verdict.CONSISTENT
    assert decision.witness["A", "C"].symbols == ("PP",)
    # matches the refinement-enumeration oracle: DC is impossible, PP works
    for sym, expect in (("DC", Verdict.INCONSISTENT), ("PP", Verdict.CONSISTENT)):
        forced = normalize(
            rcc5,
            [
                ("A", rcc5.relation("PP"), "B"),
                ("B", rcc5.relation("PP"), "C"),
                ("A", rcc5.relation(sym), "C"),
            ],
        )
        assert decide(forced).verdict is expect


def test_decide_cycb_left_chain():
    # composing l with l cannot yield e, so pinning the far pair to e clashes
    net = normalize(
        cycb,
        [("x", cycb.relation("l"), "y"), ("y", cycb.relation("l"), "z"), ("x", cycb.relation("e"), "z")],
    )
    assert decide(net).verdict is Verdict.INCONSISTENT
    opposite = normalize(
        cycb,
        [("x", cycb.relation("l"), "y"), ("y", cycb.relation("l"), "z"), ("x", cycb.relation("o"), "z")],
    )
    assert decide(opposite, acl_decides_atomic=True).verdict is Verdict.CONSISTENT


def test_closed_unknown_without_completeness():
    net = normalize(cycb, [("x", cycb.relation("l"), "y"), ("y", cycb.relation("l"), "z")])
    decision = decide(net, acl_decides_atomic=False)
    assert decision.verdict is Verdict.CLOSED_UNKNOWN
    assert decision.witness is None


def test_completeness_is_a_decide_argument_not_a_writable_flag():
    before = builtin("cycb").flags
    assert before.acl_decides_atomic is False
    with pytest.raises(AttributeError):
        setattr(builtin("cycb").flags, "acl_decides_atomic", True)
    net = normalize(cycb, [("x", cycb.relation("l"), "y"), ("y", cycb.relation("l"), "z")])
    assert decide(net, acl_decides_atomic=True).verdict is Verdict.CONSISTENT
    assert decide(net).verdict is Verdict.CLOSED_UNKNOWN
    assert builtin("cycb").flags == before
    assert builtin("pc1").flags.acl_decides_atomic is True
    assert builtin("rcc5").flags.acl_decides_atomic is True


def test_decide_copies_its_input_at_most_once_and_leaves_it_alone(monkeypatch):
    # the search splits and closes one working network and undoes it on
    # backtrack, so the copy count does not grow with the node count
    from qsr.network import ConstraintNetwork

    copies = 0
    orig = ConstraintNetwork.copy

    def counting_copy(self):
        nonlocal copies
        copies += 1
        return orig(self)

    monkeypatch.setattr(ConstraintNetwork, "copy", counting_copy)
    most_nodes = 0
    for seed in range(20):
        net = random_network(rcc5, 7, 0.5, seed=seed)
        before = list(net.cells)
        copies = 0
        decision = decide(net)
        assert copies <= 1
        assert net.cells == before
        most_nodes = max(most_nodes, decision.nodes_explored)
    assert most_nodes > 5


def test_atomic_network_explores_one_node():
    net = normalize(
        pc1,
        [("A", pc1.relation("<"), "B"), ("B", pc1.relation("<"), "C"), ("A", pc1.relation("<"), "C")],
    )
    decision = decide(net)
    assert decision.verdict is Verdict.CONSISTENT
    assert decision.nodes_explored == 1


def test_node_count_bounded_by_label_product():
    net = normalize(pc1, [("A", pc1.relation("<", "="), "B"), ("B", pc1.relation("<", ">"), "C")])
    decision = decide(net)
    leaves = 1
    for x in net.var_names:
        for y in net.var_names:
            if x < y:
                leaves *= len(net[x, y])
    assert decision.nodes_explored <= leaves + 1


def test_decide_invariant_under_closure():
    for seed in range(40):
        net = random_network(pc1, 5, 0.6, seed=seed)
        out = a_closure(net)
        if not out.closed:
            assert decide(net).verdict is Verdict.INCONSISTENT
            continue
        assert decide(net).verdict == decide(out.network).verdict


def test_derive_completeness_small_chain():
    chain3 = builtin_model("pc1-chain3")
    result = derive_completeness(pc1, chain3, n_vars=3)
    assert result.flag == "yes"
    assert result.networks_checked == 27
    assert result.counterexample is None


def test_derive_completeness_detects_finite_domain_failure():
    # four strictly ordered variables cannot be placed on three points, yet
    # the atomic chain is algebraically closed: closure is incomplete here
    chain3 = builtin_model("pc1-chain3")
    result = derive_completeness(pc1, chain3, n_vars=4)
    assert result.flag == "no"
    assert result.counterexample is not None
    assert a_closure(result.counterexample).closed
    assert brute_force_solve(result.counterexample, chain3) is None


def _reference_completeness(calculus, model, n_vars):
    """Close every atomic network from scratch, in product order, and
    brute-force each closed one."""
    n_syms = len(calculus.symbols)
    pairs = [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]
    names = [f"x{k}" for k in range(n_vars)]
    checked = 0
    for combo in itertools.product(range(n_syms), repeat=len(pairs)):
        net = ConstraintNetwork(calculus, names)
        for (i, j), sym_idx in zip(pairs, combo):
            net.cells[i * n_vars + j] = 1 << sym_idx
            net.cells[j * n_vars + i] = calculus.converse_mask(1 << sym_idx)
        checked += 1
        if a_closure(net).closed and brute_force_solve(net, model) is None:
            return "no", checked, net.cells
    return "yes", checked, None


def _check_against_reference(calc, model, n_vars):
    want = _reference_completeness(calc, model, n_vars)
    got = derive_completeness(calc, model, n_vars)
    cells = got.counterexample.cells if got.counterexample is not None else None
    assert (got.flag, got.networks_checked, cells) == want, (calc.name, n_vars)
    return want


def test_derive_completeness_matches_closing_every_network_from_scratch():
    # appendixB1 (converse not involutive) runs the mirror intersection;
    # cycb-compass4, cycb-compass8, rcc5-subsets4 and appendixB-remark find
    # counterexamples after 43 to 3,908 networks, so pruned counts precede them
    cases = counterexamples = 0
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        calc = model.calculus
        n_vars = 1
        while len(calc.symbols) ** (n_vars * (n_vars - 1) // 2) <= 2 ** 15:
            want = _check_against_reference(calc, model, n_vars)
            cases += 1
            counterexamples += want[0] == "no" and want[1] > 40
            n_vars += 1
    assert cases == 40
    assert counterexamples >= 4


def _random_model(rng, calc):
    # each element pair goes to a random base relation: JEPD, not
    # necessarily a model in which the tables are sound
    universe = [str(k) for k in range(rng.choice((2, 3)))]
    while True:
        phi = {sym: [] for sym in calc.symbols}
        for a in universe:
            for b in universe:
                phi[rng.choice(calc.symbols)].append((a, b))
        images = [frozenset(pairs) for pairs in phi.values()]
        if len(set(images)) == len(images):
            return FiniteInterpretation(calc, universe, phi)


def test_derive_completeness_matches_the_reference_on_random_calculi(random_calculus):
    # random tables mostly break converse involution, so the closure of a
    # consistent atomic network is often tighter than the network itself,
    # which is what brute force must get
    rng = random.Random(2005)
    outcomes = set()
    for t in range(40):
        calc = random_calculus(rng, rng.choice((2, 3)), f"rand{t}")
        model = _random_model(rng, calc)
        for n_vars in (3, 4):
            want = _check_against_reference(calc, model, n_vars)
            outcomes.add((want[0], want[1] > 1))
    assert outcomes == {("yes", True), ("no", True), ("no", False)}


def _node_closures(monkeypatch) -> list:
    """Make the search log each closure it makes, the root's ``a_closure``
    and each child's ``restrict`` through its closure session, as (split
    pair, its base relation, empty pair, revisions, queue pops); the root's
    pair and relation are None."""
    import qsr.search

    log = []
    orig_closure, orig_runner = qsr.search.a_closure, qsr.search.closure_runner

    def closure(*args, **kwargs):
        out = orig_closure(*args, **kwargs)
        log.append((None, None, out.empty_pair, out.revisions, out.queue_pops))
        return out

    def runner(net, *args, **kwargs):
        session = orig_runner(net, *args, **kwargs)

        def restrict(i, j, bit):
            result = session.restrict(i, j, bit)
            log.append(((i, j), bit, *result))
            return result

        return session._replace(restrict=restrict)

    monkeypatch.setattr(qsr.search, "a_closure", closure)
    monkeypatch.setattr(qsr.search, "closure_runner", runner)
    return log


def test_derive_completeness_prunes_inconsistent_prefixes(monkeypatch):
    # 59,049 atomic networks, 541 of them closed; closing every one of them
    # from scratch takes 59,049 closures
    import qsr.search

    brute_calls = 0
    orig_brute = qsr.search.brute_force_solve

    def counting_brute(*args, **kwargs):
        nonlocal brute_calls
        brute_calls += 1
        return orig_brute(*args, **kwargs)

    closures = _node_closures(monkeypatch)
    monkeypatch.setattr(qsr.search, "brute_force_solve", counting_brute)
    result = derive_completeness(pc1, builtin_model("pc1-chain5"), n_vars=5)
    assert (result.flag, result.networks_checked) == ("yes", 59_049)
    assert brute_calls == 541
    assert len(closures) == 2_035
    # 1,224 children split a cell that already is their base relation, and
    # each of them is its closed parent: restrict runs nothing
    assert sum(pops == 0 for *_, pops in closures[1:]) == 1_224
    # a split that the closed cell excludes is pruned, not closed
    assert all(bit != 0 for _, bit, *_ in closures[1:])


def test_derive_completeness_edge_cases(monkeypatch):
    chain3 = builtin_model("pc1-chain3")
    result = derive_completeness(pc1, chain3, n_vars=1)
    assert (result.flag, result.networks_checked, result.counterexample) == ("yes", 1, None)
    for n_vars in (0, -1):
        with pytest.raises(NetworkError):
            derive_completeness(pc1, chain3, n_vars=n_vars)

    closures = _node_closures(monkeypatch)
    with pytest.raises(ValueError):
        derive_completeness(pc1, chain3, n_vars=4, budget=728)
    # 3 networks but 5 ** 2 valuations: the valuation budget is checked up
    # front too, not first by brute force at the first closed network
    with pytest.raises(BudgetExceededError):
        derive_completeness(pc1, builtin_model("pc1-chain5"), n_vars=2, budget=10)
    # the model's calculus is checked before anything is closed too
    with pytest.raises(CalculusMismatchError):
        derive_completeness(rcc5, chain3, n_vars=3)
    assert closures == []


def test_decide_agrees_with_brute_force_on_small_networks():
    chain3 = builtin_model("pc1-chain3")
    derived = derive_completeness(pc1, chain3, n_vars=3)
    assert derived.flag == "yes"
    for seed in range(100):
        net = random_network(pc1, 3, 0.7, seed=seed)
        has_solution = brute_force_solve(net, chain3) is not None
        verdict = decide(net, acl_decides_atomic=derived.flag == "yes").verdict
        assert verdict in (Verdict.CONSISTENT, Verdict.INCONSISTENT)
        assert (verdict is Verdict.CONSISTENT) == has_solution


def _reference_decide(net, acl_decides_atomic):
    """Recursive search with decide's cell choice and bit order that closes
    every node from scratch with ``naive_closure``."""
    calc = net.calculus
    n = len(net.var_names)
    nodes = 0

    def search(current):
        nonlocal nodes
        nodes += 1
        out = naive_closure(current)
        if not out.closed:
            return None
        closed = out.network
        open_cells = [(closed.cells[i * n + j].bit_count(), i, j)
                      for i in range(n) for j in range(i + 1, n)
                      if closed.cells[i * n + j].bit_count() > 1]
        if not open_cells:
            return closed if acl_decides_atomic else "unknown"
        _, i, j = min(open_cells)
        mask = closed.cells[i * n + j]
        for b in range(mask.bit_length()):
            if mask >> b & 1:
                child = closed.copy()
                child.cells[i * n + j] = 1 << b
                child.cells[j * n + i] &= calc.converse_mask(1 << b)
                found = search(child)
                if found is not None:
                    return found
        return None

    found = search(net)
    if found is None:
        return Verdict.INCONSISTENT, None, nodes
    if found == "unknown":
        return Verdict.CLOSED_UNKNOWN, None, nodes
    return Verdict.CONSISTENT, found.cells, nodes


def test_decide_matches_a_search_that_closes_every_node_from_scratch(random_calculus):
    # appendixB1 (converse not involutive) repeats the cross-tightening to a
    # fixpoint, appendixB2 (R9 fails) takes the cross-tightening branch, the
    # random 9- and 10-relation calculi take the large path
    rng = random.Random(90125)
    calcs = [builtin(name) for name in
             ("pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark")]
    calcs += [random_calculus(rng, rng.choice((9, 10)), f"rand{t}") for t in range(16)]
    searched = 0
    for calc in calcs:
        # random tables make wide search trees: keep their networks small
        sizes = (4,) if calc.name.startswith("rand") else (5, 6, 7)
        for seed in range(12):
            net = random_network(calc, rng.choice(sizes), rng.choice((0.3, 0.6, 1.0)), seed=seed)
            for acl in (True, False):
                want = _reference_decide(net, acl)
                got = decide(net, acl_decides_atomic=acl)
                witness = got.witness.cells if got.witness is not None else None
                assert (got.verdict, witness, got.nodes_explored) == want, (calc.name, seed, acl)
                searched += want[2] > 1
    assert searched > 100


def test_child_closures_pop_only_what_the_split_propagates(monkeypatch):
    # each child closure starts from the split pair alone, so every pop past
    # that pair is paid for by a revision; re-seeding all O(n^2) pairs per
    # node breaks this bound
    closures = _node_closures(monkeypatch)
    children = 0
    for name in ("rcc5", "appendixB1"):
        calc = builtin(name)
        for seed in range(12):
            closures.clear()
            decide(random_network(calc, 8, 0.5, seed=seed))
            for *_, revisions, pops in closures[1:]:
                assert pops <= 1 + revisions, (name, seed)
            children += len(closures) - 1
    assert children > 50


def _random_r7_r9_calculus(rng, n_syms, name):
    # random tables on which R7 and R9 hold: the converse pairs symbols up
    # or fixes them, and each cell a.b sets its mirror conv(b).conv(a) to
    # conv(a.b), or is closed under converse where it is its own mirror
    syms = [f"s{i}" for i in range(n_syms)]
    rest = syms[:]
    rng.shuffle(rest)
    conv = {}
    while rest:
        a = rest.pop()
        b = rest.pop() if rest and rng.random() < 0.6 else a
        conv[a], conv[b] = [b], [a]
    comp = {}
    for a in syms:
        for b in syms:
            if (a, b) not in comp:
                cell = {s for s in syms if rng.random() < 0.4}
                mirror = (conv[b][0], conv[a][0])
                if mirror == (a, b):
                    cell |= {conv[s][0] for s in cell}
                comp[a, b] = sorted(cell)
                comp[mirror] = sorted(conv[s][0] for s in cell)
    return CalculusSpec(name, syms, None, conv, comp)


def test_child_runs_match_closing_each_child_with_a_closure(monkeypatch):
    # a child run that ends inconsistent stops with pairs still queued, and
    # the next run of the same set-up must start clean: each child that the
    # walk closes through its one session must equal the restrict of a
    # set-up of its own on a copy of the node, in cells and in result.
    # appendixB1 lacks R7, appendixB2 R9, and the random calculus takes the
    # chunked pass
    import qsr.search
    from qsr.closure import closure_runner

    def checked_runner(net, *args, **kwargs):
        session = closure_runner(net, *args, **kwargs)

        def restrict(i, j, bit):
            fresh = net.copy()
            want = closure_runner(fresh).restrict(i, j, bit)
            got = session.restrict(i, j, bit)
            assert (got, net.cells) == (want, fresh.cells)
            children.append(got)
            return got

        return session._replace(restrict=restrict)

    def labelled_network(calc, n, rng):
        # 70 % of the pairs labelled with three base relations (one fewer
        # than all on smaller calculi); without R7 the mirror cell is only cut
        net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
        width = min(3, len(calc) - 1)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    mask = sum(1 << b for b in rng.sample(range(len(calc)), width))
                    net.cells[i * n + j] = mask
                    net.cells[j * n + i] &= calc.converse_mask(mask)
        return net

    monkeypatch.setattr(qsr.search, "closure_runner", checked_runner)
    rng = random.Random(3003)
    rand = _random_r7_r9_calculus(rng, rng.randint(9, 12), "rand-r7-r9")
    assert rand.flags.ra7_holds and rand.flags.ra9_holds and rand.chunked_rows
    restarts = {}
    for calc in (rcc5, builtin("appendixB1"), builtin("appendixB2"), rand):
        restarts[calc.name] = 0
        for seed in range(40):
            net = labelled_network(calc, 10 if calc is rcc5 else rng.choice((5, 6, 8)), rng)
            children = []
            decide(net)
            # inconsistent child runs that another run follows
            restarts[calc.name] += sum(empty is not None for empty, _, _ in children[:-1])
    # the search on appendixB1 and appendixB2 refutes no child of these
    # networks; their runs differ from rcc5's in branch and bookkeeping
    assert restarts["rcc5"] > 0 and restarts[rand.name] > 100, restarts


def test_split_cuts_the_mirror_cell_before_the_child_run(monkeypatch):
    # restrict cuts C[j][i] by conv(bit) before it runs from (i, j).  The
    # run's prologue would make the same cut, so verdicts, nodes and
    # witnesses do not show it, but the child runs would count it: per
    # calculus (child runs, their revisions, their pops) on 60 A(n, d, l)
    # networks from bench/gen.py, each calculus from Random(5).  Without
    # the cut, rcc5 reads 8,037 revisions and appendixB2 52
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    closures = _node_closures(monkeypatch)
    totals = {}
    for name, n, degree, label in (("rcc5", 15, 2.5, 2.5), ("appendixB1", 8, 3, 1),
                                   ("appendixB2", 8, 3, 2)):
        calc = builtin(name)
        rng = random.Random(5)
        children = []
        for _ in range(60):
            net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
            for i, j, mask in gen.a_network(rng, len(calc), n, degree, label):
                net.set_mask(i, j, mask)
                net.set_mask(j, i, calc.converse_mask(mask))
            closures.clear()
            decide(net)
            children += closures[1:]
        totals[name] = (len(children), sum(r for *_, r, _ in children), sum(p for *_, p in children))
    assert totals == {"rcc5": (1645, 6392, 8027), "appendixB1": (994, 0, 994),
                      "appendixB2": (5, 47, 52)}


def test_cell_choice_refuses_to_split_an_atomic_cell():
    # a cell filed under a size above its own would be split into itself
    # forever; the choice raises instead of looping.  C[0][1] is filed
    # under size 2, then made atomic behind the session's back
    from qsr.closure import closure_runner
    from qsr.search import _smallest_cell

    net = a_closure(_complete_dc_po(4)).network
    choose = _smallest_cell(net, closure_runner(net))
    net.cells[0 * 4 + 1] = rcc5.mask_of(("DC",))
    with pytest.raises(RuntimeError, match=r"cell \(0, 1\) is filed under size 2"):
        choose(0, 0)


def _complete_dc_po(n):
    # every cell (DC PO): the search splits each of the n(n-1)/2 pairs once
    net = ConstraintNetwork(rcc5, [f"x{i}" for i in range(n)])
    label = rcc5.mask_of(("DC", "PO"))
    for i in range(n):
        for j in range(n):
            if i != j:
                net.cells[i * n + j] = label
    return net


def test_deep_search_has_no_recursion_limit():
    # 1,770 split levels on a complete 60-variable network
    decision = decide(_complete_dc_po(60))
    assert decision.verdict is Verdict.CONSISTENT
    assert decision.nodes_explored == 1771


def test_deep_search_memory_does_not_grow_with_the_depth():
    # 435 split levels: a closed network per open node would hold 435
    # copies of 900 cells, about 3 MB; one working network and its trail
    # hold 0.2 MB
    import tracemalloc

    net = _complete_dc_po(30)
    a_closure(net)  # build the calculus's tables outside the measurement
    tracemalloc.start()
    try:
        decision = decide(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decision.nodes_explored == 436
    assert peak < 500_000


def _two_way_network(calc, n, rng):
    # constraints on both directions of a pair are normalized independently:
    # without R7 the two cells of a pair need not be converses of each other
    names = [f"x{k}" for k in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                rel = calc.from_mask(rng.randrange(1, calc.universal + 1))
                edges.append((names[i], rel, names[j]))
    return normalize(calc, edges, var_names=names)


def test_witness_refines_the_input(random_calculus):
    # a split intersects the mirror cell with conv(b): without R7 conv(b)
    # alone can be looser than that cell, and a witness built from it would
    # drop a constraint of the input
    b1 = builtin("appendixB1")
    net = normalize(b1, [("b", b1.relation("r1"), "a")], var_names=["a", "b"])
    decision = decide(net, acl_decides_atomic=True)
    assert decision.verdict is Verdict.CONSISTENT
    assert decision.witness["b", "a"].symbols == ("r1",)

    rng = random.Random(417)
    calcs = [b1]
    while len(calcs) < 25:
        calc = random_calculus(rng, rng.choice((2, 3, 4)), f"rand{len(calcs)}")
        if not calc.flags.ra7_holds:
            calcs.append(calc)
    witnesses = 0
    for calc in calcs:
        for _ in range(20):
            n = rng.choice((3, 4, 5))
            net = _two_way_network(calc, n, rng)
            decision = decide(net, acl_decides_atomic=True)
            if decision.witness is None:
                continue
            witnesses += 1
            for got, given in zip(decision.witness.cells, net.cells):
                assert got & ~given == 0, calc.name
    assert witnesses > 100
