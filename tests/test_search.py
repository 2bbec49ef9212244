"""Refinement search: verdicts, witnesses, completeness metadata."""

import pytest

from qsr import (
    Verdict,
    a_closure,
    brute_force_solve,
    builtin,
    builtin_model,
    decide,
    derive_completeness,
    normalize,
    random_network,
)

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


def test_decide_copies_each_node_once_and_leaves_the_input_alone(monkeypatch):
    from qsr.network import ConstraintNetwork

    copies = 0
    orig = ConstraintNetwork.copy

    def counting_copy(self):
        nonlocal copies
        copies += 1
        return orig(self)

    monkeypatch.setattr(ConstraintNetwork, "copy", counting_copy)
    for seed in range(20):
        net = random_network(rcc5, 7, 0.5, seed=seed)
        before = list(net.cells)
        copies = 0
        decision = decide(net)
        assert copies == decision.nodes_explored
        assert net.cells == before


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
