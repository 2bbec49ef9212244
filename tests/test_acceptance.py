"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; each test prints its verdict line when its assertions hold.
"""

import time

from qsr import (
    CellStrength,
    Classification,
    Verdict,
    a_closure,
    brute_force_solve,
    builtin,
    builtin_model,
    classify,
    classify_operation,
    decide,
    derive_completeness,
    domain_compose,
    domain_converse,
    naive_closure,
    normalize,
    random_network,
    satisfies,
)
from qsr.axioms import MAIN_AXIOMS, SUB, SUP

RELATION_ALGEBRAS = ("pc1", "rcc5", "cycb")
FIXTURE_MODELS = ("pc1-chain3", "cycb-compass4", "appendixB1", "appendixB2", "appendixB-remark")


def _passed(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_axiom_audit_reproduction():
    for name in RELATION_ALGEBRAS:
        start = time.perf_counter()
        report = classify(builtin(name))
        elapsed = time.perf_counter() - start
        assert report.classification is Classification.RA, name
        for aid in MAIN_AXIOMS:
            rec = report.records[aid]
            assert rec.holds is True, (name, aid)
            assert rec.violations == 0, (name, aid)
        assert report.violated_sides() == frozenset(), name
        assert elapsed < 1.0, (name, elapsed)
    _passed(1, "pc1, rcc5, cycb audit as relation algebras, zero violations, <1s each")


def test_criterion_2_appendix_fixture_reproduction():
    b1 = classify(builtin("appendixB1"))
    assert b1.violated_sides() == frozenset({"R6" + SUB, "R6l" + SUB, "R7" + SUB})

    b2 = classify(builtin("appendixB2"))
    expected = frozenset(
        {
            "WA" + SUB, "SA" + SUB,
            "R4" + SUB, "R4" + SUP,
            "R6" + SUP, "R6l" + SUP,
            "R9" + SUB, "R9" + SUP,
            "R10" + SUB, "R10" + SUP,
            "PL-right", "PL-left",
        }
    )
    assert b2.violated_sides() == expected

    r4 = b2.records["R4"]
    witnesses = [e for e in r4.examples if e.operands == ("r1", "r3", "r4")]
    assert witnesses
    assert witnesses[0].lhs == ("r1", "r4")
    assert witnesses[0].rhs == ("r1",)
    _passed(2, "appendixB1/appendixB2 violate exactly the expected axiom sides, "
               "R4 counterexample (r1,r3,r4) = (r1 r4) vs (r1)")


def test_criterion_3_closure_examples():
    pc1 = builtin("pc1")
    lt = pc1.relation("<")
    incomplete = normalize(pc1, [("A", lt, "B"), ("B", lt, "C")])
    complete = normalize(pc1, [("A", lt, "B"), ("B", lt, "C"), ("A", lt, "C")])
    out = a_closure(incomplete)
    assert out.closed
    assert out.network == complete

    chain = normalize(pc1, [(f"x{i}", lt, f"x{i+1}") for i in range(3)])
    expected = normalize(
        pc1,
        [(f"x{i}", lt, f"x{j}") for i in range(4) for j in range(i + 1, 4)],
        var_names=chain.var_names,
    )
    cout = a_closure(chain)
    assert cout.closed
    assert cout.network == expected
    _passed(3, "closure infers A (<) C exactly; 4-chain closes to the total order")


def test_criterion_4_incompleteness_demonstration():
    pc1 = builtin("pc1")
    lt = pc1.relation("<")
    chain = normalize(pc1, [(f"x{i}", lt, f"x{i+1}") for i in range(3)])
    out = a_closure(chain)
    assert out.closed
    assert not out.network.has_empty_cell()
    assert brute_force_solve(out.network, builtin_model("pc1-chain3")) is None
    _passed(4, "4-chain is algebraically closed yet has no solution on 3 points")


def test_criterion_5_closure_equals_oracle_universally():
    densities = (0.3, 0.6, 1.0)
    per_density = 334  # 3 * 334 = 1002 networks per calculus
    mismatches = 0
    runs = 0
    start = time.perf_counter()
    for name in ("pc1", "rcc5", "cycb", "appendixB2"):
        calc = builtin(name)
        for density in densities:
            for seed in range(per_density):
                net = random_network(calc, 8, density, seed=seed)
                ref = naive_closure(net)
                for order in ("fifo", "lifo", "shuffled"):
                    runs += 1
                    got = a_closure(net, queue_order=order, seed=seed)
                    same = got.status == ref.status and (
                        not got.closed
                        or got.network.cells == ref.network.cells
                    )
                    if not same:
                        mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert runs == 4 * 3 * per_density * 3
    assert elapsed < 60.0, elapsed
    _passed(5, f"a-closure bit-identical to the naive fixpoint on {4 * 3 * per_density} "
               f"networks x 3 queue orders in {elapsed:.1f}s")


def test_criterion_6_weak_strong_classification():
    pc1 = builtin("pc1")
    chain3 = builtin_model("pc1-chain3")
    comp = classify_operation(chain3, pc1, "composition")
    assert comp.strength_of("<", "<") is CellStrength.WEAK
    conv = classify_operation(chain3, pc1, "converse")
    assert conv.strong

    b2 = builtin("appendixB2")
    b2_model = builtin_model("appendixB2")
    comp2 = classify_operation(b2_model, b2, "composition")
    assert comp2.strength_of("r3", "r4") is CellStrength.ABSTRACT_ONLY
    assert classify_operation(b2_model, b2, "converse").strong

    # hierarchy: every graded cell obeys strong => weak => sound, re-derived
    # from the domain enumeration
    for model_name in FIXTURE_MODELS:
        model = builtin_model(model_name)
        calc = model.calculus
        for which in ("converse", "composition"):
            grading = classify_operation(model, calc, which)
            for key, strength in grading.cells.items():
                if which == "converse":
                    domain = domain_converse(model, key[0])
                    table = calc.converse_row[calc.symbol_index(key[0])]
                else:
                    domain = domain_compose(model, *key)
                    table = calc.composition_row[calc.symbol_index(key[0])][calc.symbol_index(key[1])]
                interp = model.phi_mask(table)
                hull = calc.mask_of(
                    s for s in calc.symbols if model.phi[s] & domain
                )
                if strength is CellStrength.STRONG:
                    assert interp == domain and table == hull
                elif strength is CellStrength.WEAK:
                    assert table == hull and interp >= domain
                elif strength is CellStrength.ABSTRACT_ONLY:
                    assert table != hull and table & ~hull and interp >= domain
                else:
                    assert not interp >= domain
    _passed(6, "pc1 weak-not-strong at (<,<), appendixB2 abstract at (r3,r4), "
               "hierarchy intact on all cells of all fixtures")


def test_criterion_7_converse_strength_matches_involution_verdict():
    for model_name in FIXTURE_MODELS:
        model = builtin_model(model_name)
        calc = model.calculus
        r7 = classify(calc).records["R7"].holds
        strong = classify_operation(model, calc, "converse").strong
        assert r7 == strong, model_name
    _passed(7, "R7 verdict equals the strong-converse grading on all five fixtures")


def test_criterion_8_closure_preserves_solutions():
    pc1 = builtin("pc1")
    chain4 = builtin_model("pc1-chain4")
    found = 0
    seed = 0
    while found < 500:
        density = (0.3, 0.6, 1.0)[seed % 3]
        net = random_network(pc1, 5, density, seed=seed)
        seed += 1
        solution = brute_force_solve(net, chain4)
        if solution is None:
            continue
        found += 1
        out = a_closure(net)
        assert out.closed, seed
        assert satisfies(out.network, solution, chain4), seed
    _passed(8, f"the brute-force valuation satisfies the closed network in "
               f"500/500 cases ({seed} networks generated)")


def test_criterion_9_search_agrees_with_brute_force():
    pc1 = builtin("pc1")
    chain3 = builtin_model("pc1-chain3")
    derived = derive_completeness(pc1, chain3, n_vars=3)
    assert derived.flag == "yes"

    agree = 0
    for seed in range(200):
        density = (0.4, 0.7, 1.0)[seed % 3]
        net = random_network(pc1, 3, density, seed=seed)
        verdict = decide(net, acl_decides_atomic=derived.flag == "yes").verdict
        has_solution = brute_force_solve(net, chain3) is not None
        assert verdict in (Verdict.CONSISTENT, Verdict.INCONSISTENT)
        if (verdict is Verdict.CONSISTENT) == has_solution:
            agree += 1
    assert agree == 200
    _passed(9, "decide matches brute-force existence on 200/200 networks "
               "(completeness derived from the 3-element model)")
