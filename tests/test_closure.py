"""Algebraic closure engine against the naive fixpoint reference."""

import pytest

from qsr import (
    ClosureOutcome,
    ClosureStatus,
    ConstraintNetwork,
    a_closure,
    builtin,
    builtin_model,
    brute_force_solve,
    naive_closure,
    normalize,
    random_network,
    satisfies,
)
from qsr.closure import closure_runner

pc1 = builtin("pc1")
rcc5 = builtin("rcc5")


def pc1_net(*edges):
    return normalize(pc1, [(x, pc1.relation(*s.split()), y) for x, s, y in edges])


def test_closure_detects_inconsistent_triangle():
    net = normalize(
        rcc5,
        [
            ("A", rcc5.relation("PP"), "B"),
            ("B", rcc5.relation("PP"), "C"),
            ("A", rcc5.relation("DC"), "C"),
        ],
    )
    out = a_closure(net)
    assert out.status is ClosureStatus.INCONSISTENT
    assert out.empty_pair == ("A", "C")


def test_closure_infers_the_missing_edge():
    net = pc1_net(("A", "<", "B"), ("B", "<", "C"))
    out = a_closure(net)
    assert out.closed
    expected = pc1_net(("A", "<", "B"), ("B", "<", "C"), ("A", "<", "C"))
    assert out.network == expected
    # and the input network was not touched
    assert net["A", "C"] == pc1.universal_relation


def test_closure_of_closed_network_does_nothing():
    net = pc1_net(("A", "<", "B"), ("B", "<", "C"), ("A", "<", "C"))
    out = a_closure(net)
    assert out.closed and out.revisions == 0


def test_closure_chain_derives_total_order():
    net = pc1_net(*((f"x{i}", "<", f"x{i+1}") for i in range(3)))
    out = a_closure(net)
    assert out.closed
    for i in range(4):
        for j in range(i + 1, 4):
            assert out.network[f"x{i}", f"x{j}"].symbols == ("<",)


def test_closure_detects_converse_clash():
    net = pc1_net(("A", "<", "B"), ("B", "<", "A"))
    out = a_closure(net)
    assert out.status is ClosureStatus.INCONSISTENT
    assert out.empty_pair == ("A", "B")


def test_closure_monotone():
    for seed in range(40):
        net = random_network(rcc5, 6, 0.6, seed=seed)
        out = a_closure(net)
        if out.closed:
            n = len(net.var_names)
            for i in range(n):
                for j in range(n):
                    assert out.network.cells[i * n + j] & ~net.cells[i * n + j] == 0


def test_closure_idempotent():
    for seed in range(40):
        net = random_network(rcc5, 6, 0.6, seed=seed)
        out = a_closure(net)
        if out.closed:
            assert a_closure(out.network).revisions == 0


# the four audit-grade calculi get their >=1000-network treatment in the
# acceptance suite; the two remaining fixtures (converse not involutive and
# the abstract-cell relation algebra) get it here
@pytest.mark.parametrize(
    "name,seeds",
    [("pc1", 60), ("rcc5", 60), ("cycb", 60), ("appendixB2", 60),
     ("appendixB1", 340), ("appendixB-remark", 340)],
)
def test_closure_matches_naive_reference(name, seeds):
    calc = builtin(name)
    for density in (0.3, 0.6, 1.0):
        for seed in range(seeds):
            net = random_network(calc, 6, density, seed=seed)
            ref = naive_closure(net)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=seed)
                assert got.status == ref.status, (name, seed, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (name, seed, order)


def test_closure_matches_reference_on_random_calculi(random_calculus):
    # arbitrary total tables, mostly violating converse involution and
    # distributivity: the engine must agree with the reference for all of
    # them, not just the curated builtins
    import random as _random

    from qsr.core import CalculusSpec

    rng = _random.Random(20240809)
    for trial in range(80):
        n_syms = rng.choice((2, 3, 4, 9, 10))
        syms = [f"s{i}" for i in range(n_syms)]
        u = (1 << n_syms) - 1
        conv = {
            s: [syms[b] for b in range(n_syms) if rng.randrange(1, u + 1) >> b & 1] or [rng.choice(syms)]
            for s in syms
        }
        comp = {}
        for a in syms:
            for b in syms:
                mask = rng.randrange(0, u + 1)
                comp[(a, b)] = [syms[k] for k in range(n_syms) if mask >> k & 1]
        ident = [rng.choice(syms)] if rng.random() < 0.7 else None
        spec = CalculusSpec(f"rand{trial}", syms, ident, conv, comp)
        for n_vars in (2, 4):
            net = random_network(spec, n_vars, rng.choice((0.4, 0.8, 1.0)), seed=trial)
            ref = naive_closure(net)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=trial)
                assert got.status == ref.status, (trial, n_vars, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (trial, n_vars, order)

    # 5 to 8 relations without R7 or R9: the safe loop behind its byte
    # filter up to the byte boundary, on networks of up to 12 variables,
    # closed in full and from the split pair of each level of a split chain
    rng = _random.Random(5808)
    statuses = set()
    levels = revisions = 0
    for trial in range(32):
        calc = random_calculus(rng, 5 + trial % 4, f"dense{trial}")
        assert calc.dense_rows and not (calc.flags.ra7_holds and calc.flags.ra9_holds), calc.name
        for n in (6, 9, 12):
            net = random_network(calc, n, rng.choice((0.3, 0.5, 0.8)), rng.choice(("uniform", "singletons")),
                                 seed=trial)
            out = naive_closure(net)
            statuses.add(out.status)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=trial)
                assert got.status == out.status, (calc.name, n, order)
                if got.closed:
                    assert got.network.cells == out.network.cells, (calc.name, n, order)
                revisions += got.revisions
            while out.closed:
                closed = out.network
                open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                              if closed.cells[i * n + j].bit_count() > 1]
                if not open_pairs:
                    break
                i, j = rng.choice(open_pairs)
                mask = closed.cells[i * n + j]
                bit = rng.choice([1 << b for b in range(mask.bit_length()) if mask >> b & 1])
                split = closed.copy()
                split.cells[i * n + j] = bit
                split.cells[j * n + i] &= calc.converse_mask(bit)
                out = naive_closure(split)
                statuses.add(out.status)
                for order in ("fifo", "lifo", "shuffled"):
                    got = _run(split.copy(), (i, j), order, trial)
                    assert got.status == out.status, (calc.name, n, order)
                    if got.closed:
                        assert got.network.cells == out.network.cells, (calc.name, n, order)
                    revisions += got.revisions
                levels += 1
    assert statuses == {ClosureStatus.CLOSED, ClosureStatus.INCONSISTENT}
    assert levels > 30 and revisions > 500, (levels, revisions)


def test_closure_two_variable_network_on_broken_converse():
    # conv(conv(r)) above r: even a 2-variable network needs the
    # 2-consistency rule iterated, not applied once
    b1 = builtin("appendixB1")
    net = normalize(b1, [("x", b1.relation("r1"), "y")])
    got = a_closure(net)
    ref = naive_closure(net)
    assert got.status == ref.status
    if got.closed:
        assert got.network.cells == ref.network.cells


def test_directly_built_calculus_does_the_same_work_as_the_builtin():
    # the branch follows from the tables, not from how the calculus was made
    from qsr.core import CalculusSpec
    from qsr.network import ConstraintNetwork

    rcc5 = builtin("rcc5")
    state = rcc5.__getstate__()
    twin = CalculusSpec(state["name"], state["symbols"], state["identity"],
                        state["converse"], state["composition"])
    closed = 0
    for seed in range(12):
        net = random_network(rcc5, 10, 0.4, seed=seed)
        want = a_closure(net)
        same = ConstraintNetwork(twin, net.var_names)
        same.cells[:] = net.cells
        got = a_closure(same)
        assert got.status == want.status, seed
        assert got.network.cells == want.network.cells, seed
        assert (got.queue_pops, got.revisions) == (want.queue_pops, want.revisions), seed
        closed += want.closed
    assert closed > 0


def test_closure_sound_on_finite_model():
    chain4 = builtin_model("pc1-chain4")
    checked = 0
    for seed in range(120):
        net = random_network(pc1, 4, 0.6, seed=seed)
        solution = brute_force_solve(net, chain4)
        if solution is None:
            continue
        out = a_closure(net)
        assert out.closed
        assert satisfies(out.network, solution, chain4)
        checked += 1
    assert checked > 30


def test_closure_counts_pops_and_revisions():
    net = pc1_net(("A", "<", "B"), ("B", "<", "C"))
    out = a_closure(net)
    assert out.queue_pops >= 3
    assert out.revisions == 1


def _outcome(work, result):
    # a run's result wrapped as a_closure wraps it
    empty, revisions, pops = result
    if empty is None:
        return ClosureOutcome(ClosureStatus.CLOSED, work, revisions, pops)
    names = (work.var_names[empty[0]], work.var_names[empty[1]])
    return ClosureOutcome(ClosureStatus.INCONSISTENT, work, revisions, pops, names)


def _run(work, changed=None, queue_order="fifo", seed=None):
    # one run of a closure_runner session on ``work`` in place, in full or
    # from the pair ``changed``, as the search closes a child after a split
    return _outcome(work, closure_runner(work, queue_order, seed).run(changed))


def test_unknown_queue_order_is_refused_by_the_set_up():
    # a_closure and the search's closure_runner share one check
    net = pc1_net(("A", "<", "B"), ("B", "<", "C"))
    with pytest.raises(ValueError, match="unknown queue order 'random'"):
        a_closure(net, queue_order="random")
    with pytest.raises(ValueError, match="unknown queue order 'random'"):
        closure_runner(net, "random")


def test_trail_closes_in_place_like_the_pure_call_and_undoes_exactly(random_calculus, cyclic_group):
    # pc1 to appendixB-remark take the dense fused pass and the safe loop
    # behind its byte filter, Z10 the chunked fused pass, the random 9- and
    # 10-relation calculi the safe loop over every third variable and the
    # random 17-relation calculus the same loop above 16 relations.  Each
    # network is closed in full by run(), where the pure call is a_closure,
    # and each child of a split of its closure by restrict, where the pure
    # call is a run from the split pair on a copy split by hand
    import random as _random

    rng = _random.Random(2617)
    calcs = [builtin(name) for name in
             ("pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark")]
    calcs += [random_calculus(rng, rng.choice((9, 10)), f"rand{t}") for t in range(6)]
    calcs += [cyclic_group(10), random_calculus(rng, 17, "wide")]
    seen = set()
    for calc in calcs:
        for seed in range(8):
            n = rng.choice((3, 4, 5, 6))
            net = random_network(calc, n, rng.choice((0.4, 0.8, 1.0)), seed=seed)
            cases = [(net, None, None)]
            ref = a_closure(net)
            open_pairs = [(i, j) for i in range(n) for j in range(n)
                          if i != j and ref.network.cells[i * n + j].bit_count() > 1]
            if ref.closed and open_pairs:
                # every child of a split
                i, j = rng.choice(open_pairs)
                mask = ref.network.cells[i * n + j]
                for bit in (1 << b for b in range(mask.bit_length()) if mask >> b & 1):
                    cases.append((ref.network, (i, j), bit))
            for start, changed, bit in cases:
                for order in ("fifo", "lifo", "shuffled"):
                    work = start.copy()
                    session = closure_runner(work, order, seed)
                    mark = session.mark()
                    if changed is None:
                        pure = a_closure(start, order, seed)
                        got = _outcome(work, session.run())
                    else:
                        split = start.copy()
                        split.cells[changed[0] * n + changed[1]] = bit
                        split.cells[changed[1] * n + changed[0]] &= calc.converse_mask(bit)
                        pure = _run(split, changed, order, seed)
                        got = _outcome(work, session.restrict(*changed, bit))
                    assert got.network is work
                    assert ((got.status, got.network.cells, got.revisions, got.queue_pops, got.empty_pair)
                            == (pure.status, pure.network.cells, pure.revisions, pure.queue_pops,
                                pure.empty_pair)), (calc.name, seed, changed, order)
                    # the session names every cell that changed, and besides
                    # them only the split pair, which restrict records whole;
                    # each only tightened
                    written = session.written(mark)
                    moved = {k for k, (a, b) in enumerate(zip(start.cells, work.cells)) if a != b}
                    split_pair = set() if changed is None else {changed[0] * n + changed[1],
                                                                changed[1] * n + changed[0]}
                    assert moved <= set(written) <= moved | split_pair, (calc.name, seed, changed, order)
                    assert all(work.cells[k] & start.cells[k] == work.cells[k] for k in written)
                    seen.add((got.status, changed is None, bool(written)))
                    session.undo(mark)
                    assert work.cells == start.cells, (calc.name, seed, changed, order)
                    assert session.written(mark) == [] and session.mark() == mark
    assert {(status, full, True) for status in ClosureStatus for full in (True, False)} <= seen


def test_restrict_to_the_cells_own_relation_runs_nothing(cyclic_group):
    # every pair of a closed network is 2-consistent, so a split of an
    # atomic cell to its one relation leaves the network as it is: restrict
    # trails, writes, revises and pops nothing, in either direction of the
    # pair and with or without R7
    from qsr import BUILTIN_NAMES

    for calc in [builtin(name) for name in BUILTIN_NAMES] + [cyclic_group(10)]:
        checked = 0
        for seed in range(20):
            out = a_closure(random_network(calc, 5, 0.8, seed=seed))
            if not out.closed:
                continue
            work = out.network
            before = list(work.cells)
            session = closure_runner(work)
            for i in range(5):
                for j in range(5):
                    cell = work.cells[i * 5 + j]
                    if i == j or cell.bit_count() != 1:
                        continue
                    mark = session.mark()
                    assert session.restrict(i, j, cell) == (None, 0, 0), (calc.name, seed, i, j)
                    assert session.mark() == mark and session.written(mark) == []
                    assert work.cells == before
                    checked += 1
        assert checked, calc.name


def test_settle_reports_an_empty_cell_outside_the_changed_pair():
    # run((x, y)) presumes that every other cell is closed, but C[z][x]
    # is empty.  The pop of (x, y) empties C[x][z]; settle finds C[z][x]
    # already empty and must report the pair rather than write it and let
    # the closure end "closed"
    b2 = builtin("appendixB2")
    net = ConstraintNetwork(b2, ["x", "y", "z"])
    for x, label, y in (("x", "r1", "y"), ("y", "r1 r2", "x"), ("x", "r1", "z"),
                        ("y", "r2", "z"), ("z", "r2", "y"), ("z", "", "x")):
        net[x, y] = b2.relation(*label.split())
    before = list(net.cells)
    pure = _run(net.copy(), (0, 1))
    session = closure_runner(net)
    out = _outcome(net, session.run((0, 1)))
    assert (out.status, out.empty_pair) == (ClosureStatus.INCONSISTENT, ("x", "z"))
    assert (pure.status, pure.empty_pair) == (out.status, out.empty_pair)
    # the prologue tightened C[y][x] to the converse of C[x][y] just before
    yx = net.var_index("y") * 3 + net.var_index("x")
    assert session.written(0) == [yx]
    assert net.cells[yx] == b2.mask_of(["r1"])
    session.undo(0)
    assert net.cells == before


def test_incremental_closure_matches_reference_on_split_networks(random_calculus):
    # split a closed network down to a leaf, closing each level with a run
    # from its split pair on the level above; every level must equal the naive
    # closure of the split network from scratch.  Random calculi add more
    # calculi without R7 or R9.
    import random as _random

    rng = _random.Random(4242)
    calcs = [builtin(name) for name in
             ("pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark")]
    calcs += [random_calculus(rng, rng.choice((3, 4, 9, 10)), f"rand{t}") for t in range(40)]
    levels = 0
    for calc in calcs:
        for seed in range(8):
            n = rng.choice((4, 5, 6))
            out = a_closure(random_network(calc, n, rng.choice((0.4, 0.8, 1.0)), seed=seed))
            while out.closed:
                closed = out.network
                # split as decide does: pairs i < j, each split makes one atomic
                open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                              if closed.cells[i * n + j].bit_count() > 1]
                if not open_pairs:
                    break
                i, j = rng.choice(open_pairs)
                mask = closed.cells[i * n + j]
                bit = rng.choice([1 << b for b in range(mask.bit_length()) if mask >> b & 1])
                split = closed.copy()
                split.cells[i * n + j] = bit
                split.cells[j * n + i] &= calc.converse_mask(bit)
                ref = naive_closure(split)
                for order in ("fifo", "lifo", "shuffled"):
                    got = _run(split.copy(), (i, j), order, seed)
                    assert got.status == ref.status, (calc.name, seed, order)
                    if got.closed:
                        assert got.network.cells == ref.network.cells, (calc.name, seed, order)
                levels += 1
                out = got
    assert levels > 500


def test_revised_pair_is_left_2_consistent_without_involutive_converse():
    # conv(conv(s0)) = {s0, s1, s2}: one exchange of converses between C[i][j]
    # and C[j][i] after a revision can leave the pair not 2-consistent.  The
    # incremental closure has no later pops that would repair it, so it must
    # settle the pair in place; the split below is inconsistent, closed in
    # full and from its split pair.
    from qsr.core import CalculusSpec
    from qsr.network import ConstraintNetwork

    s = ("s0", "s1", "s2")
    calc = CalculusSpec(
        "conv-not-involutive", s, None,
        {"s0": ["s0", "s1"], "s1": ["s2"], "s2": ["s0"]},
        {("s0", "s0"): ["s1"], ("s0", "s1"): ["s0", "s1"], ("s0", "s2"): ["s0", "s2"],
         ("s1", "s0"): ["s0", "s1"], ("s1", "s1"): ["s2"], ("s1", "s2"): ["s0", "s2"],
         ("s2", "s0"): ["s1", "s2"], ("s2", "s1"): ["s1"], ("s2", "s2"): ["s2"]},
    )
    closed = ConstraintNetwork(calc, ["x", "y", "z"])
    closed.cells[:] = [7, 5, 7, 3, 7, 7, 7, 7, 7]
    assert naive_closure(closed).network.cells == closed.cells
    split = closed.copy()
    split.cells[1 * 3 + 2] = 1
    split.cells[2 * 3 + 1] = calc.converse_mask(1)
    ref = naive_closure(split)
    assert ref.status is ClosureStatus.INCONSISTENT
    for order in ("fifo", "lifo", "shuffled"):
        for changed in ((1, 2), None):
            got = _run(split.copy(), changed, order, 0)
            assert got.status is ClosureStatus.INCONSISTENT, (order, changed)


def test_fused_pass_matches_reference_on_large_relation_algebras(cyclic_group, dihedral_group):
    # Z9, Z10, D5 and D8 satisfy R7 and R9 with 9 to 16 base relations, so
    # the fused pass reads two-byte chunk rows, from a high-byte table of 2
    # (Z9) up to 256 (D8) rows; Z17 has no rows above 16 and takes the
    # call-based safe loop (test_closure_reads_no_rows_above_16).  D5
    # and D8 are not commutative, so argument order matters there.  Every
    # network and every level of a split chain closed by a run from its
    # split pair must equal the naive closure, in all three queue orders.
    import random as _random

    from qsr.network import ConstraintNetwork

    rng = _random.Random(9090)
    levels = 0
    for calc in (cyclic_group(9), cyclic_group(10), dihedral_group(5), dihedral_group(8), cyclic_group(17)):
        assert calc.flags.ra7_holds and calc.flags.ra9_holds
        assert calc.chunked_rows is (len(calc) <= 16)
        statuses = set()
        for seed in range(100):
            n = rng.randint(3, 8)
            net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        mask = 0
                        for _ in range(rng.randint(1, 4)):
                            mask |= 1 << rng.randrange(len(calc))
                        net.cells[i * n + j] = mask
                        net.cells[j * n + i] = calc.converse_mask(mask)
            ref = naive_closure(net)
            statuses.add(ref.status)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=seed)
                assert got.status == ref.status, (calc.name, seed, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, seed, order)
            out = ref
            while out.closed:
                closed = out.network
                open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                              if closed.cells[i * n + j].bit_count() > 1]
                if not open_pairs:
                    break
                i, j = rng.choice(open_pairs)
                mask = closed.cells[i * n + j]
                bit = rng.choice([1 << b for b in range(mask.bit_length()) if mask >> b & 1])
                split = closed.copy()
                split.cells[i * n + j] = bit
                split.cells[j * n + i] = calc.converse_mask(bit)
                out = naive_closure(split)
                statuses.add(out.status)
                for order in ("fifo", "lifo", "shuffled"):
                    got = _run(split.copy(), (i, j), order, seed)
                    assert got.status == out.status, (calc.name, seed, order)
                    if got.closed:
                        assert got.network.cells == out.network.cells, (calc.name, seed, order)
                levels += 1
        assert statuses == {ClosureStatus.CLOSED, ClosureStatus.INCONSISTENT}, calc.name
    assert levels > 100


def test_safe_branches_match_reference_above_16_relations(random_calculus):
    # random calculi of 17 and 20 symbols lack R7 or R9, so they take the
    # safe branches with compositions of the large path, which the random
    # calculi of at most 10 symbols above never reach.  Full closures and
    # runs from the split pair of a split must equal the naive closure.
    import itertools
    import random as _random

    rng = _random.Random(1720)
    statuses = set()
    splits = 0
    for t in range(24):
        calc = random_calculus(rng, (17, 20)[t % 2], f"wide{t}")
        assert not (calc.flags.ra7_holds and calc.flags.ra9_holds), calc.name
        for n, labels in itertools.product((3, 5), ("uniform", "singletons")):
            net = random_network(calc, n, rng.choice((0.4, 0.8, 1.0)), labels, seed=t)
            ref = naive_closure(net)
            statuses.add(ref.status)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=t)
                assert got.status == ref.status, (calc.name, n, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, n, order)
            if not ref.closed:
                continue
            closed = ref.network
            open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                          if closed.cells[i * n + j].bit_count() > 1]
            if not open_pairs:
                continue
            i, j = rng.choice(open_pairs)
            mask = closed.cells[i * n + j]
            bit = rng.choice([1 << b for b in range(mask.bit_length()) if mask >> b & 1])
            split = closed.copy()
            split.cells[i * n + j] = bit
            split.cells[j * n + i] &= calc.converse_mask(bit)
            ref = naive_closure(split)
            for order in ("fifo", "lifo", "shuffled"):
                got = _run(split.copy(), (i, j), order, t)
                assert got.status == ref.status, (calc.name, n, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, n, order)
            splits += 1
    assert statuses == {ClosureStatus.CLOSED, ClosureStatus.INCONSISTENT}
    assert splits > 5


def test_closure_reads_no_rows_above_16(monkeypatch, cyclic_group, dihedral_group):
    # Z17 and D9 satisfy R7 and R9 but have no row tables, so they close
    # through the call-based safe loop and never ask for a row.  Every
    # network must equal the naive closure, in all three queue orders.
    from qsr.core import CalculusSpec

    def no_rows(self, a):
        raise AssertionError("compose_row called")

    monkeypatch.setattr(CalculusSpec, "compose_row", no_rows)
    statuses = set()
    for calc in (cyclic_group(17), dihedral_group(9)):
        assert calc.flags.ra7_holds and calc.flags.ra9_holds
        assert not (calc.dense_rows or calc.chunked_rows)
        for seed in range(10):
            labels = "singletons" if seed % 2 else "uniform"
            net = random_network(calc, 6 + seed % 4, 0.5, labels, seed=seed)
            ref = naive_closure(net)
            statuses.add(ref.status)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=seed)
                assert got.status == ref.status, (calc.name, seed, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, seed, order)
    assert statuses == {ClosureStatus.CLOSED, ClosureStatus.INCONSISTENT}


def test_safe_branches_match_reference_at_11_to_16_relations(random_calculus):
    # random calculi of 11 to 16 symbols lacking R7 or R9 take the safe
    # branches at the widths where compose_row reads byte chunks, on
    # networks of 5 and 6 variables.  Singleton labels on part of the pairs
    # leave the rest to be refined.  Every network and every level of a
    # split chain closed by a run from its split pair must equal the naive
    # closure, in all three queue orders.
    import random as _random

    rng = _random.Random(1116)
    statuses = set()
    levels = revisions = 0
    for t in range(24):
        calc = random_calculus(rng, 11 + t % 6, f"mid{t}")
        assert calc.chunked_rows and not (calc.flags.ra7_holds and calc.flags.ra9_holds), calc.name
        for n in (5, 6):
            net = random_network(calc, n, rng.choice((0.3, 0.4, 0.5)), "singletons", seed=t)
            out = naive_closure(net)
            statuses.add(out.status)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=t)
                assert got.status == out.status, (calc.name, n, order)
                if got.closed:
                    assert got.network.cells == out.network.cells, (calc.name, n, order)
                revisions += got.revisions
            while out.closed:
                closed = out.network
                open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                              if closed.cells[i * n + j].bit_count() > 1]
                if not open_pairs:
                    break
                i, j = rng.choice(open_pairs)
                mask = closed.cells[i * n + j]
                bit = rng.choice([1 << b for b in range(mask.bit_length()) if mask >> b & 1])
                split = closed.copy()
                split.cells[i * n + j] = bit
                split.cells[j * n + i] &= calc.converse_mask(bit)
                out = naive_closure(split)
                statuses.add(out.status)
                for order in ("fifo", "lifo", "shuffled"):
                    got = _run(split.copy(), (i, j), order, t)
                    assert got.status == out.status, (calc.name, n, order)
                    if got.closed:
                        assert got.network.cells == out.network.cells, (calc.name, n, order)
                    revisions += got.revisions
                levels += 1
    assert statuses == {ClosureStatus.CLOSED, ClosureStatus.INCONSISTENT}
    assert levels > 50 and revisions > 500


def test_closure_makes_no_call_that_changes_nothing(monkeypatch, dihedral_group):
    # Closing a closed appendixB1 network revises nothing.  The safe
    # branches then take the converse only in the prologue, twice for each
    # seeded pair, not once more per triangle; one more call tests whether U
    # is its own converse.  On 9 to 16
    # relations the fused pass fetches the rows of single bytes only and
    # builds no merged row, even where the labels have both bytes set.
    from qsr.core import CalculusSpec

    b1 = builtin("appendixB1")
    closed = a_closure(random_network(b1, 10, 0.5, "singletons", seed=3))
    assert closed.closed and closed.queue_pops > 0
    universal = b1.universal
    assert b1.flags.universal_absorbs and b1.converse_mask(universal) == universal
    cells = closed.network.cells
    seeded = sum(universal != cells[i * 10 + j] or universal != cells[j * 10 + i]
                 for i in range(10) for j in range(i + 1, 10))
    assert 0 < seeded < 10 * 9 // 2
    converses = 0
    orig_conv = CalculusSpec.converse_mask

    def counting(self, mask):
        nonlocal converses
        converses += 1
        return orig_conv(self, mask)

    monkeypatch.setattr(CalculusSpec, "converse_mask", counting)
    again = a_closure(closed.network)
    assert again.closed and again.revisions == 0
    assert again.network.cells == closed.network.cells
    assert converses == 2 * seeded + 1

    d8 = dihedral_group(8)
    net = random_network(d8, 8, 1.0, seed=5)
    assert any(m & 255 and m >> 8 for m in net.cells)
    asked = []
    orig_row = CalculusSpec.compose_row

    def recording(self, a):
        asked.append(a)
        return orig_row(self, a)

    monkeypatch.setattr(CalculusSpec, "compose_row", recording)
    got = a_closure(net)
    assert asked and all(not (a & 255 and a >> 8) for a in asked)
    ref = naive_closure(net)
    assert got.status == ref.status
    assert got.network.cells == ref.network.cells


def _tally(closures):
    return (
        sum(out.queue_pops for out in closures),
        sum(out.revisions for out in closures),
        " ".join("-".join(out.empty_pair) if out.empty_pair else "." for out in closures),
    )


def test_closure_work_counts_are_pinned(random_calculus):
    # queue pops, revisions and the reported empty pair of a seeded batch: a
    # kernel change must not silently change the work done or the pair named.
    # sym3 has R7 and R9 but is no relation algebra (the cycle law fails),
    # so there the second revision of a triangle can be the one that empties
    # a cell; in rcc5 and pc1 the first one always does.
    import random as _random

    from qsr.core import CalculusSpec

    syms = ("a", "b", "c")
    comp = {("a", "a"): ["b"], ("a", "b"): ["a", "c"], ("a", "c"): syms,
            ("b", "b"): syms, ("b", "c"): syms, ("c", "c"): ["a"]}
    comp.update({(y, x): v for (x, y), v in list(comp.items())})
    sym3 = CalculusSpec("sym3", syms, None, {s: [s] for s in syms}, comp)
    assert sym3.flags.ra7_holds and sym3.flags.ra9_holds
    orders = ("fifo", "lifo", "shuffled")

    def full_closures(calc):
        return [
            a_closure(random_network(calc, 6 + seed % 8, (0.3, 0.6, 0.9)[seed % 3], seed=seed),
                      queue_order=order, seed=seed)
            for seed in range(12) for order in orders
        ]

    pops, revisions, empties = _tally(full_closures(builtin("rcc5")) + full_closures(builtin("pc1"))
                                      + full_closures(sym3))
    assert (pops, revisions) == (807, 470)
    assert empties == (
        # rcc5
        ". . . x0-x5 x2-x0 x2-x0 x1-x5 x5-x2 x1-x2 . . . x3-x8 x4-x3 x3-x8 x1-x7 x8-x2 "
        "x2-x8 . . . x0-x7 x9-x5 x3-x0 x2-x4 x3-x2 x4-x2 . . . . . . x0-x3 x6-x1 x6-x1 "
        # pc1
        ". . . x0-x4 x4-x2 x0-x3 x0-x2 x6-x1 x0-x1 . . . x0-x9 x6-x2 x6-x0 x0-x4 x8-x2 "
        "x5-x1 x2-x0 x10-x0 x5-x0 x0-x5 x10-x0 x3-x6 x1-x2 x3-x2 x1-x4 . . . x0-x4 "
        "x6-x2 x0-x4 x0-x3 x7-x2 x5-x0 "
        # sym3
        ". . . x5-x2 x0-x3 x1-x0 x5-x2 x6-x5 x5-x2 . . . x1-x7 x7-x1 x1-x7 x0-x4 x8-x5 "
        "x4-x9 . . . x0-x10 x6-x3 x0-x12 x3-x1 x2-x1 x0-x1 . . . . . . x3-x1 x6-x8 "
        "x6-x8"
    )

    # The safe branches, which take every calculus without R7 or without R9,
    # recorded before the full and incremental prologues were merged: full
    # closures on appendixB1 (converse not involutive), on appendixB2 (R7
    # without R9) and on a random calculus with neither, and runs from the
    # split pair of every split of the first open pair of closed appendixB2
    # networks.  The appendixB1 and rand4 counts were recorded again when
    # calculi without R7 moved to the unordered-pair worklist, and the
    # appendixB2 and rand4 counts when a pair that is U both ways stopped
    # being seeded wherever U.U == U, not only where U absorbs.
    rand4 = random_calculus(_random.Random(6), 4, "rand4")
    assert not (rand4.flags.ra7_holds or rand4.flags.ra9_holds)
    full = {calc.name: _tally(full_closures(calc))
            for calc in (builtin("appendixB1"), builtin("appendixB2"), rand4)}
    b2 = builtin("appendixB2")
    split_closures = []
    for seed in range(40):
        n = 5 + seed % 4
        out = a_closure(random_network(b2, n, 0.3, seed=seed))
        if not out.closed:
            continue
        closed = out.network
        open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if closed.cells[i * n + j].bit_count() > 1]
        if not open_pairs:
            continue
        i, j = open_pairs[0]
        mask = closed.cells[i * n + j]
        for bit in (1 << b for b in range(mask.bit_length()) if mask >> b & 1):
            split = closed.copy()
            split.cells[i * n + j] = bit
            split.cells[j * n + i] &= b2.converse_mask(bit)
            split_closures += [_run(split.copy(), (i, j), order, seed) for order in orders]
    assert full["appendixB1"] == (798, 0, " ".join(["."] * 36))
    assert full["appendixB2"] == (96, 198, (
        ". . . x3-x0 x3-x4 x3-x0 x2-x0 x1-x3 x1-x0 x2-x0 x2-x6 x0-x2 x9-x0 x1-x7 "
        "x7-x1 x6-x0 x2-x8 x0-x5 x3-x0 x1-x8 x1-x0 x2-x0 x0-x10 x0-x4 x2-x0 x0-x4 "
        "x2-x0 x0-x1 x1-x4 x0-x1 x7-x0 x1-x6 x4-x3 x2-x0 x4-x7 x7-x5"
    ))
    assert full["rand4"] == (168, 274, (
        "x1-x3 x5-x3 x1-x3 x2-x4 x4-x2 x5-x0 x2-x3 x1-x5 x2-x3 x7-x1 x8-x1 x7-x1 "
        "x7-x1 x7-x8 x5-x3 x5-x0 x9-x0 x5-x2 x10-x1 x11-x0 x10-x0 x3-x2 x7-x10 x12-x0 "
        "x1-x2 x5-x2 x2-x3 . . . x2-x0 x7-x5 x5-x2 x3-x0 x7-x0 x6-x3"
    ))
    # no split of a closed appendixB2 network in this batch is inconsistent
    assert _tally(split_closures) == (1212, 1050, " ".join(["."] * 162))


def test_prologue_settles_pairs_whose_mirrors_disagree(random_calculus):
    # random_network and normalize write the converse of each label into its
    # mirror, so under R7 their prologue has nothing to tighten.  Here both
    # cells of a pair are drawn on their own, so the prologue must settle
    # each pair, on every builtin and on random calculi without R7; status
    # and cells must match the reference.  The queue pops, and under R7 the
    # reported pairs, are pinned; they were recorded again when a pair that
    # is U both ways stopped being seeded wherever U.U == U.
    import random as _random

    from qsr import BUILTIN_NAMES
    from qsr.network import ConstraintNetwork

    rng = _random.Random(1407)
    calcs = [builtin(name) for name in BUILTIN_NAMES]
    while len(calcs) < len(BUILTIN_NAMES) + 4:
        calc = random_calculus(rng, rng.choice((3, 4, 9)), f"rand{len(calcs)}")
        if not calc.flags.ra7_holds:
            calcs.append(calc)
    with_ra7, without = [], []
    for calc in calcs:
        for t in range(12):
            n = 3 + t % 6
            net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < (0.2, 0.5)[t % 2]:
                        net.set_mask(i, j, rng.randrange(1, calc.universal + 1))
                        net.set_mask(j, i, rng.randrange(1, calc.universal + 1))
            ref = naive_closure(net)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=t)
                assert got.status == ref.status, (calc.name, t, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, t, order)
                (with_ra7 if calc.flags.ra7_holds else without).append(got)
    assert sum(out.closed for out in with_ra7) == 75
    assert sum(out.closed for out in without) == 63
    assert _tally(without)[0] == 296
    pops, _, empties = _tally(with_ra7)
    assert pops == 209
    assert empties == (
        '. . . x0-x1 x0-x1 x0-x1 . . . x1-x4 x2-x1 x1-x4 . . . x0-x5 x5-x0 x4-x3 . . . x0-x3 '
        'x0-x3 x0-x3 . . . x0-x3 x0-x3 x0-x3 . . . x0-x3 x0-x3 x0-x3 . . . x0-x2 x0-x2 x0-x2 '
        'x2-x4 x2-x4 x2-x4 x1-x3 x1-x3 x1-x3 x3-x4 x3-x4 x3-x4 x2-x4 x2-x4 x2-x4 . . . . . . . '
        '. . x0-x4 x0-x4 x0-x4 . . . x0-x1 x0-x1 x0-x1 . . . . . . . . . x0-x4 x4-x3 x3-x4 '
        'x0-x6 x0-x6 x0-x6 x2-x7 x2-x7 x2-x7 . . . . . . . . . x1-x2 x1-x2 x1-x2 x0-x3 x0-x3 '
        'x0-x3 x0-x2 x0-x2 x0-x2 x0-x2 x0-x2 x0-x2 x0-x3 x0-x3 x0-x3 x2-x4 x2-x4 x2-x4 x1-x2 '
        'x1-x2 x1-x2 x5-x0 x0-x4 x5-x0 x1-x7 x1-x7 x1-x7 . . . x2-x3 x2-x3 x2-x3 x1-x4 x1-x4 '
        'x1-x4 x0-x1 x0-x1 x0-x1 x5-x1 x1-x2 x1-x2 x0-x3 x0-x3 x0-x3 . . . . . . . . . x1-x2 '
        'x1-x2 x1-x2 . . . x4-x6 x4-x6 x4-x6 . . . . . . . . . x2-x4 x2-x4 x2-x4 x0-x2 x0-x2 '
        'x0-x2 x1-x5 x1-x5 x1-x5'
    )


def _void1():
    # one symbol, conv(a) = a, a.a = {}, no identity: R7 and R9 hold, but
    # U.U is empty, so the universal relation does not absorb composition
    from qsr.core import CalculusSpec

    return CalculusSpec("void1", ("a",), None, {"a": ["a"]}, {("a", "a"): []})


def _void2():
    # two symbols, each converse {a, b}, every composition empty: R7 fails
    from qsr.core import CalculusSpec

    syms = ("a", "b")
    return CalculusSpec("void2", syms, None, {s: syms for s in syms},
                        {(x, y): [] for x in syms for y in syms})


def _tight2():
    # two symbols, each its own converse, every composition {a}: R7 and R9
    # hold and U is its own converse, but U.U == {a}, so the all-universal
    # network closes to {a} off the diagonal
    from qsr.core import CalculusSpec

    syms = ("a", "b")
    return CalculusSpec("tight2", syms, None, {s: [s] for s in syms},
                        {(x, y): ["a"] for x in syms for y in syms})


@pytest.mark.parametrize("make,ra7,ra9", [(_void1, True, True), (_void2, False, True),
                                          (_tight2, True, True)])
def test_universal_pairs_are_revised_when_the_universal_relation_does_not_absorb(make, ra7, ra9):
    # every pair of the all-universal network is universal, yet the pops
    # empty or tighten its cells: skipping them where U.U != U would report
    # this network closed and unchanged
    from qsr.network import ConstraintNetwork

    calc = make()
    flags = calc.flags
    assert (flags.ra7_holds, flags.ra9_holds, flags.universal_absorbs, flags.universal_idempotent) == (
        ra7, ra9, False, False)
    net = ConstraintNetwork(calc, ["x", "y", "z"])
    ref = naive_closure(net)
    assert ref.closed is (make is _tight2)
    if ref.closed:
        assert [c for k, c in enumerate(ref.network.cells) if k % 4] == [calc.mask_of(["a"])] * 6
    for order in ("fifo", "lifo", "shuffled"):
        got = a_closure(net, queue_order=order, seed=3)
        assert got.status is ref.status, order
        if got.closed:
            assert got.network.cells == ref.network.cells, order
        assert got.queue_pops >= 1, order


def test_universal_pairs_are_not_queued_and_keep_the_fixpoint(cyclic_group, random_calculus):
    # sparse networks on one calculus per closure branch whose universal
    # relation absorbs composition: fused (rcc5), R7 without R9 (nc2: conv is the identity and
    # a.b != b.a), without R7 (appendixB1) and the large path (Z9); and on
    # appendixB2 (R7 without R9), whose U does not absorb but has U.U == U.
    # A pair universal both ways is queued only once a revision tightens
    # it, so the all-universal network closes without a pop, and a network
    # with one constraint pops that pair alone.  A run from a changed pair
    # seeds that pair even if it is universal both ways: one pop that
    # revises nothing, as the precondition makes the network closed.
    import random as _random

    from qsr.core import CalculusSpec
    from qsr.network import ConstraintNetwork

    nc2 = CalculusSpec("nc2", ("a", "b"), None, {"a": ["a"], "b": ["b"]},
                       {("a", "a"): ["a", "b"], ("a", "b"): ["a"],
                        ("b", "a"): ["b"], ("b", "b"): ["a", "b"]})
    calcs = [builtin("rcc5"), nc2, builtin("appendixB1"), cyclic_group(9), builtin("appendixB2")]
    assert [(c.flags.ra7_holds, c.flags.ra9_holds, c.flags.universal_absorbs) for c in calcs] == [
        (True, True, True), (True, False, True), (False, True, True), (True, True, True),
        (True, False, False)]
    for calc in calcs:
        assert calc.flags.universal_idempotent is True
        assert calc.converse_mask(calc.universal) == calc.universal
        universal_net = ConstraintNetwork(calc, [f"x{k}" for k in range(8)])
        for order in ("fifo", "lifo", "shuffled"):
            for changed in (None, (5, 2)):
                got = _run(universal_net.copy(), changed, order, 1)
                assert got.closed and (got.queue_pops, got.revisions) == (changed is not None, 0), (calc.name, order)
                assert got.network.cells == universal_net.cells, (calc.name, order)
        for seed in range(20):
            net = random_network(calc, 7, (0.2, 0.4)[seed % 2], seed=seed)
            ref = naive_closure(net)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=seed)
                assert got.status == ref.status, (calc.name, seed, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, seed, order)

    net = ConstraintNetwork(rcc5, ["x", "y", "z", "w"])
    net.set_mask(1, 3, rcc5.mask_of(["PP"]))
    net.set_mask(3, 1, rcc5.mask_of(["PPi"]))
    got = a_closure(net)
    assert got.closed and got.queue_pops == 1 and got.revisions == 0

    # U.U == U under R7 and R9 without absorption, on the dense (2
    # relations) and the chunked (9) fused pass: s_p.s_q = {s_max(p, q)},
    # so s0 is the identity and s_top.U == {s_top}.  The support sets need
    # absorption: one constraint s_top tightens every cell
    for m in (2, 9):
        syms = [f"s{p}" for p in range(m)]
        chain = CalculusSpec(f"chain{m}", syms, ["s0"], {s: [s] for s in syms},
                             {(x, y): [syms[max(p, q)]] for p, x in enumerate(syms)
                              for q, y in enumerate(syms)})
        assert (chain.flags.ra7_holds, chain.flags.ra9_holds) == (True, True)
        assert (chain.flags.universal_absorbs, chain.flags.universal_idempotent) == (False, True)
        net = ConstraintNetwork(chain, [f"x{k}" for k in range(8)])
        net.set_mask(1, 3, chain.mask_of([syms[-1]]))
        ref = naive_closure(net)
        got = a_closure(net)
        assert got.closed and got.network.cells == ref.network.cells, m
        assert [c for k, c in enumerate(got.network.cells) if k % 9] == [chain.mask_of([syms[-1]])] * 56

    # U absorbs but is not its own converse: every pair is seeded, as the
    # prologue tightens each pair that is universal both ways; the
    # all-universal network would otherwise come back unchanged as closed
    rng = _random.Random(5)
    odd = []
    while len(odd) < 3:
        calc = random_calculus(rng, 3, f"odd{len(odd)}")
        if calc.flags.universal_absorbs and calc.converse_mask(calc.universal) != calc.universal:
            odd.append(calc)
    closed = 0
    for calc in odd:
        nets = [ConstraintNetwork(calc, [f"x{k}" for k in range(6)])]
        nets += [random_network(calc, 6, 0.3, seed=seed) for seed in range(12)]
        for seed, net in enumerate(nets):
            ref = naive_closure(net)
            closed += ref.closed
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=seed)
                assert got.status == ref.status, (calc.name, seed, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, seed, order)
                    assert got.queue_pops >= 6 * 5 // 2, (calc.name, seed, order)
    assert closed > 0


def _sparse_network(calc, n, density, rng):
    # each constrained pair is stated both ways, in its upper cell only or
    # in its lower cell only: the prologue fills in a missing direction
    net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                mask = rng.randrange(1, calc.universal)
                side = rng.randrange(3)
                if side != 2:
                    net.cells[i * n + j] = mask
                if side != 1:
                    net.cells[j * n + i] = calc.converse_mask(mask) if side == 0 else mask
    return net


def test_sparse_closure_work_counts_are_pinned():
    # rcc5 and pc1 networks of 40 to 60 variables where a pop meets few
    # third variables with a cell other than U: full closures visit only
    # those, and must still equal the naive closure and do the work of a
    # pass over every third variable, whose counts are pinned here
    import random as _random

    rng = _random.Random(4060)
    closures = []
    statuses = set()
    for calc, densities in ((rcc5, (0.05, 0.08, 0.12)), (pc1, (0.03, 0.05, 0.08))):
        for t in range(6):
            net = _sparse_network(calc, rng.randint(40, 60), rng.choice(densities), rng)
            ref = naive_closure(net)
            statuses.add(ref.status)
            for order in ("fifo", "lifo", "shuffled"):
                got = a_closure(net, queue_order=order, seed=t)
                assert got.status == ref.status, (calc.name, t, order)
                if got.closed:
                    assert got.network.cells == ref.network.cells, (calc.name, t, order)
                closures.append(got)
    assert statuses == {ClosureStatus.CLOSED, ClosureStatus.INCONSISTENT}
    pops, revisions, empties = _tally(closures)
    assert (pops, revisions) == (5905, 7186)
    assert empties == (
        # rcc5
        ". . . x10-x21 x25-x22 x17-x19 . . . x11-x34 x18-x11 x11-x34 . . . . . . "
        # pc1
        ". . . x5-x3 x31-x5 x8-x41 x4-x53 x38-x4 x4-x53 x17-x7 x29-x21 x21-x29 . . . "
        "x0-x10 x27-x24 x29-x11"
    )


def _padded_sym3(width):
    # sym3 of test_closure_work_counts_are_pinned (R7 and R9, no relation
    # algebra) with width - 3 more symbols, each composing to U: the same
    # triangles, read by the dense pass up to 8 symbols, in chunks above
    from qsr.core import CalculusSpec

    syms = ["a", "b", "c"] + [f"p{k}" for k in range(3, width)]
    comp = {(x, y): syms for x in syms for y in syms}
    abc = ["a", "b", "c"]
    cells = {("a", "a"): ["b"], ("a", "b"): ["a", "c"], ("a", "c"): abc,
             ("b", "b"): abc, ("b", "c"): abc, ("c", "c"): ["a"]}
    for (x, y), cell in cells.items():
        comp[(x, y)] = comp[(y, x)] = cell
    return CalculusSpec(f"sym3+{width - 3}", syms, None, {s: [s] for s in syms}, comp)


@pytest.mark.parametrize("width", [3, 9])
@pytest.mark.parametrize("third, empty_pair", [("a", ("x5", "x33")), ("c", ("x33", "x17"))])
def test_fused_passes_reach_both_inconsistent_returns(width, third, empty_pair):
    # a sparse network with one triangle x5 (a) x17, x5 (a) x33, x17 (third)
    # x33 and two lone edges.  The closure stops at its second pop, (x5,
    # x17), the first of the triangle, whose only third variable with a cell
    # other than U is x33: C[5][33] & a.third is empty if third is a, and the
    # first half's return names (i, k); if third is c, C[5][33] stays a and
    # C[17][33] & a.a = c & b is empty, and the second half's names (k, j)
    calc = _padded_sym3(width)
    flags = calc.flags
    assert flags.ra7_holds and flags.ra9_holds and flags.universal_absorbs
    assert calc.chunked_rows is (width > 8)
    n = 40
    net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
    for i, j, sym in ((0, 1, "a"), (5, 17, "a"), (5, 33, "a"), (17, 33, third), (38, 39, "b")):
        net.cells[i * n + j] = net.cells[j * n + i] = calc.mask_of([sym])
    assert naive_closure(net).status is ClosureStatus.INCONSISTENT
    got = a_closure(net)
    assert got.status is ClosureStatus.INCONSISTENT
    assert got.empty_pair == empty_pair
    assert (got.queue_pops, got.revisions) == (2, 0)


def _a_network(calc, n, degree, label, rng):
    # Renz & Nebel's A(n, d, l): each pair is constrained with probability
    # d / (n - 1) by a label holding each base relation with probability
    # l / |Rel|, drawn again while empty or U; the mirror is its converse
    net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
    width = len(calc)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < degree / (n - 1):
                mask = 0
                while mask in (0, calc.universal):
                    mask = sum(1 << b for b in range(width) if rng.random() < label / width)
                net.cells[i * n + j] = mask
                net.cells[j * n + i] = calc.converse_mask(mask)
    return net


def _pinned_batch(nets):
    # full closures of each network in all three queue orders, and runs from
    # the split pair of every split of the first open pair of its closure
    orders = ("fifo", "lifo", "shuffled")
    full, splits = [], []
    for seed, net in enumerate(nets):
        calc, n = net.calculus, len(net.var_names)
        full += [a_closure(net, queue_order=order, seed=seed) for order in orders]
        if not full[-3].closed:
            continue
        closed = full[-3].network
        open_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if closed.cells[i * n + j].bit_count() > 1]
        if not open_pairs:
            continue
        i, j = open_pairs[0]
        mask = closed.cells[i * n + j]
        for bit in (1 << b for b in range(mask.bit_length()) if mask >> b & 1):
            split = closed.copy()
            split.cells[i * n + j] = bit
            split.cells[j * n + i] &= calc.converse_mask(bit)
            splits += [_run(split.copy(), (i, j), order, seed) for order in orders]
    return _tally(full), _tally(splits)


def test_chunked_and_wide_safe_work_counts_are_pinned(cyclic_group, dihedral_group):
    # The chunked fused pass (R7 and R9, 9 to 16 relations) on group
    # relation algebras and on sym3 padded to 12 symbols, and the filtered
    # safe loop on appendixB1 (no R7) and appendixB2 (R7 without R9) networks of
    # 30 to 40 variables, where most third variables of a pop tighten
    # nothing: queue pops, revisions and reported pairs, of full closures
    # and of runs from split pairs, must not move with a kernel change
    import random as _random

    rng = _random.Random(3316)
    got = {}
    for calc in (cyclic_group(9), dihedral_group(5), cyclic_group(16), dihedral_group(8), _padded_sym3(12)):
        assert calc.chunked_rows and calc.flags.ra7_holds and calc.flags.ra9_holds
        nets = []
        for t in range(6):
            n = rng.randint(12, 24)
            density = (0.1, 0.2, 0.3)[t % 3]
            net = ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        mask = 0
                        for _ in range(rng.randint(1, 5)):
                            mask |= 1 << rng.randrange(len(calc))
                        net.cells[i * n + j] = mask
                        net.cells[j * n + i] = calc.converse_mask(mask)
            nets.append(net)
        got[calc.name] = _pinned_batch(nets)
    b1, b2 = builtin("appendixB1"), builtin("appendixB2")
    got[b1.name] = _pinned_batch([random_network(b1, rng.randint(30, 40), (1.0, 0.5)[t % 2],
                                                 "singletons", seed=t) for t in range(4)])
    rng = _random.Random(4012)
    got[b2.name] = _pinned_batch([_a_network(b2, rng.randint(30, 40), 1.0, 2.0, rng) for _ in range(10)])
    assert got == {
        # full closures, then split runs (none of which is inconsistent)
        "Z9": ((458, 642, ". . . x1-x5 x8-x2 x1-x2 x0-x8 x14-x4 x1-x11 x1-x5 x6-x5 x1-x3 . . . "
                          "x0-x6 x21-x14 x13-x16"),
               (333, 294, " ".join(["."] * 39))),
        "D5": ((293, 573, ". . . x0-x6 x15-x6 x15-x6 x1-x7 x18-x12 x1-x2 x0-x19 x0-x9 x11-x19 "
                          "x0-x9 x4-x3 x8-x11 x0-x3 x13-x2 x3-x11"),
               (240, 210, " ".join(["."] * 30))),
        "Z16": ((1383, 2403, ". . . x1-x2 x17-x2 x11-x2 x0-x10 x0-x10 x0-x3 x7-x21 x7-x10 x7-x10 "
                             "x0-x13 x0-x11 x3-x1 x0-x18 x13-x16 x7-x18"),
                (192, 144, " ".join(["."] * 48))),
        "D8": ((1361, 2091, ". . . x3-x11 x11-x4 x4-x3 x1-x6 x13-x6 x6-x1 . . . x3-x1 x6-x8 x1-x3 "
                            "x0-x13 x21-x2 x21-x2"),
               (1233, 1176, " ".join(["."] * 57))),
        "sym3+9": ((526, 9, ". . . . . . x3-x7 x3-x7 x3-x7 . . . x10-x9 x9-x10 x9-x10 . . ."),
                   (156, 36, " ".join(["."] * 120))),
        "appendixB1": ((5796, 0, " ".join(["."] * 12)), (12, 0, " ".join(["."] * 12))),
        "appendixB2": ((2161, 5194, "x20-x10 x8-x10 x10-x8 x28-x1 x25-x31 x1-x25 x11-x8 x11-x9 "
                                    "x11-x8 x31-x2 x5-x2 x5-x2 x5-x6 x12-x5 x5-x1 x10-x4 x11-x17 "
                                    "x29-x11 x7-x4 x29-x16 x14-x7 . . . x2-x1 x1-x27 x1-x2 . . ."),
                       (408, 396, " ".join(["."] * 12))),
    }


def test_filter_visits_no_third_variable_that_revises_nothing(monkeypatch, cyclic_group, dihedral_group):
    # The byte filter hands the per-k loop only the third variables whose
    # compositions, read from the cells at the start of the pop, tighten a
    # cell.  In a group each such k revises at least one pair (C[i][j].C[j][i]
    # holds the identity, so k = i and k = j never pass), and the empty cell
    # of an inconsistent outcome is met by one more: the chunked pass visits
    # at most revisions + 1 third variables per closure.  appendixB1
    # composes every pair to U, so there no third variable passes at all.
    import itertools

    import qsr.closure

    visited = 0

    def counting(data, selectors):
        # the third variables the loop takes, counted as it takes them
        nonlocal visited
        for k in itertools.compress(data, selectors):
            visited += 1
            yield k

    monkeypatch.setattr(qsr.closure, "compress", counting)
    total = revisions = 0
    for calc in (cyclic_group(9), dihedral_group(5), cyclic_group(16), dihedral_group(8)):
        for seed in range(12):
            net = random_network(calc, 8 + seed, 0.3, "singletons" if seed % 3 else "uniform", seed=seed)
            for order in ("fifo", "lifo", "shuffled"):
                visited = 0
                got = a_closure(net, queue_order=order, seed=seed)
                assert visited <= got.revisions + (not got.closed), (calc.name, seed, order)
                total += visited
                revisions += got.revisions
    assert total > 100 and revisions > 100
    b1 = builtin("appendixB1")
    visited = 0
    for seed in range(4):
        got = a_closure(random_network(b1, 20, 1.0, "singletons", seed=seed))
        assert got.queue_pops > 0 and got.revisions == visited == 0
