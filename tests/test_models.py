"""Finite interpretations: JEPD, partition schemes, operation strength, brute force."""

import itertools
import random
from collections import Counter

import pytest

from qsr import (
    BudgetExceededError,
    CalculusError,
    CalculusMismatchError,
    CalculusSpec,
    CellStrength,
    ConstraintNetwork,
    FiniteInterpretation,
    brute_force_solve,
    builtin,
    builtin_model,
    check_jepd,
    check_partition_scheme,
    classify_operation,
    derive_completeness,
    domain_compose,
    domain_converse,
    normalize,
    parse_model,
    random_network,
    satisfies,
)
from qsr.registry import BUILTIN_MODEL_NAMES

pc1 = builtin("pc1")
b2 = builtin("appendixB2")


def test_appendix_b2_model_is_jepd():
    report = check_jepd(builtin_model("appendixB2"))
    assert report.jointly_exhaustive and report.pairwise_disjoint


def overlap_calculus():
    # two symbols interpreted as <= and >= over {0,1}: exhaustive but not disjoint
    syms = ["le", "ge"]
    return CalculusSpec(
        "overlap",
        syms,
        None,
        {s: syms for s in syms},
        {(a, b): syms for a in syms for b in syms},
    )


def test_non_disjoint_model_witness():
    calc = overlap_calculus()
    model = FiniteInterpretation(
        calc,
        ["0", "1"],
        {"le": [("0", "0"), ("0", "1"), ("1", "1")], "ge": [("0", "0"), ("1", "0"), ("1", "1")]},
    )
    report = check_jepd(model)
    assert report.jointly_exhaustive
    assert not report.pairwise_disjoint
    assert ("0", "0") in report.multiply_covered


def test_dropping_a_relation_breaks_exhaustiveness():
    model = builtin_model("appendixB2")
    partial = FiniteInterpretation(
        b2,
        model.universe,
        {"r1": model.phi["r1"], "r2": [], "r3": model.phi["r3"], "r4": model.phi["r4"]},
    )
    report = check_jepd(partial)
    assert not report.jointly_exhaustive
    assert ("1", "1") in report.uncovered


def test_partition_scheme_identity_as_composite():
    report = check_partition_scheme(builtin_model("appendixB2"))
    assert report.has_identity and report.converse_closed
    assert not report.has_identity_base
    assert report.identity_composite == ("r1", "r2")
    # the designated identity of the fixture covers only part of the diagonal
    assert report.declared_identity_matches is False


def test_partition_scheme_chain():
    report = check_partition_scheme(builtin_model("pc1-chain3"))
    assert report.has_identity and report.has_identity_base
    assert report.converse_closed
    assert report.declared_identity_matches is True


def test_partition_scheme_violated_by_le_gt():
    syms = ["le", "gt"]
    calc = CalculusSpec(
        "legt", syms, None, {s: syms for s in syms}, {(a, b): syms for a in syms for b in syms}
    )
    elems = ["0", "1", "2"]
    le = [(a, b) for a in elems for b in elems if int(a) <= int(b)]
    gt = [(a, b) for a in elems for b in elems if int(a) > int(b)]
    model = FiniteInterpretation(calc, elems, {"le": le, "gt": gt})
    assert check_jepd(model).certified
    report = check_partition_scheme(model)
    assert not report.has_identity
    assert not report.converse_closed
    assert "le" in report.converse_witnesses


def test_domain_compose_examples():
    assert domain_compose(builtin_model("appendixB2"), "r3", "r4") == {("0", "0")}
    assert domain_compose(builtin_model("pc1-chain3"), "<", "<") == {("0", "2")}


def test_domain_converse_is_involutive():
    model = builtin_model("pc1-chain3")
    for sym in pc1.symbols:
        twice = frozenset((b, a) for a, b in domain_converse(model, sym))
        assert twice == model.phi[sym]


def test_pc1_composition_weak_not_strong_on_chain():
    for size in (3, 5):
        grading = classify_operation(builtin_model(f"pc1-chain{size}"), pc1, "composition")
        assert grading.strength_of("<", "<") is CellStrength.WEAK
        assert grading.weak and not grading.strong


def test_pc1_converse_strong_on_chain():
    grading = classify_operation(builtin_model("pc1-chain3"), pc1, "converse")
    assert grading.strong


def test_appendix_b2_composition_abstract_at_r3_r4():
    # the two coarse cells: r3.r4 widens {(0,0)}, r4.r2 widens the empty set
    grading = classify_operation(builtin_model("appendixB2"), b2, "composition")
    assert grading.strength_of("r3", "r4") is CellStrength.ABSTRACT_ONLY
    assert domain_compose(builtin_model("appendixB2"), "r4", "r2") == set()
    not_weak = {cell for cell, strength in grading.cells.items()
                if strength not in (CellStrength.STRONG, CellStrength.WEAK)}
    assert not_weak == {("r3", "r4"), ("r4", "r2")}
    assert grading.is_calculus_under_model
    assert not grading.weak
    conv = classify_operation(builtin_model("appendixB2"), b2, "converse")
    assert conv.strong


def _compose_pairs(r, s):
    """Set-theoretic composition of two pair sets, by pairs, not bit lines."""
    by_first = {}
    for v, w in s:
        by_first.setdefault(v, set()).add(w)
    return frozenset((u, w) for u, v in r for w in by_first.get(v, ()))


def _pair_set_cells(model, which):
    """(key, table mask, domain pair set) per cell of ``which``, from pair sets only."""
    calc = model.calculus
    if which == "converse":
        return [((a,), calc.converse_row[i], frozenset((y, x) for x, y in model.phi[a]))
                for i, a in enumerate(calc.symbols)]
    return [((a, b), calc.composition_row[i][j], _compose_pairs(model.phi[a], model.phi[b]))
            for i, a in enumerate(calc.symbols) for j, b in enumerate(calc.symbols)]


def _pair_set_grade(model, table, domain):
    interp = model.phi_mask(table)
    if not interp >= domain:
        return CellStrength.UNSOUND
    if interp == domain:
        return CellStrength.STRONG
    hull = sum(1 << i for i, sym in enumerate(model.calculus.symbols) if model.phi[sym] & domain)
    return CellStrength.WEAK if table == hull else CellStrength.ABSTRACT_ONLY


def _broken_pc1_model():
    # drop a needed symbol from one cell: the table now denies a real
    # configuration and stops being a calculus under the model
    rows = {
        (a, b): pc1.symbols_of(pc1.composition_row[i][j])
        for i, a in enumerate(pc1.symbols)
        for j, b in enumerate(pc1.symbols)
    }
    rows[("<", ">")] = ("<",)
    broken = CalculusSpec(
        "pc1-broken",
        pc1.symbols,
        ["="],
        {s: pc1.symbols_of(m) for s, m in zip(pc1.symbols, pc1.converse_row)},
        rows,
    )
    elems = ["0", "1", "2"]
    return FiniteInterpretation(
        broken,
        elems,
        {
            "<": [(a, b) for a in elems for b in elems if int(a) < int(b)],
            "=": [(a, a) for a in elems],
            ">": [(a, b) for a in elems for b in elems if int(a) > int(b)],
        },
    )


def test_strength_hierarchy_never_violated():
    # strong implies the weak criterion, weak implies soundness, across all
    # cells of every bundled model, against domains composed from pair sets
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        calc = model.calculus
        for which in ("converse", "composition"):
            grading = classify_operation(model, calc, which)
            for key, table, domain in _pair_set_cells(model, which):
                strength = grading.cells[key]
                interp = model.phi_mask(table)
                if strength is CellStrength.STRONG:
                    assert interp == domain
                if strength in (CellStrength.STRONG, CellStrength.WEAK):
                    assert all(model.phi[s] & domain for s in calc.symbols_of(table))
                if strength is not CellStrength.UNSOUND:
                    assert interp >= domain


def test_grading_on_bit_lines_equals_a_pair_set_grading():
    seen = set()
    for model in [builtin_model(name) for name in BUILTIN_MODEL_NAMES] + [_broken_pc1_model()]:
        for which in ("converse", "composition"):
            grading = classify_operation(model, model.calculus, which)
            cells = _pair_set_cells(model, which)
            assert list(grading.cells) == [key for key, _, _ in cells]
            for key, table, domain in cells:
                assert grading.cells[key] is _pair_set_grade(model, table, domain), (model.name, key)
                if which == "converse":
                    assert domain_converse(model, *key) == domain
                else:
                    assert domain_compose(model, *key) == domain
                seen.add(grading.cells[key])
    assert seen == set(CellStrength)


def test_unsound_cell_detected():
    model = _broken_pc1_model()
    grading = classify_operation(model, model.calculus, "composition")
    assert grading.strength_of("<", ">") is CellStrength.UNSOUND
    assert not grading.is_calculus_under_model


def test_brute_force_examples():
    chain3 = builtin_model("pc1-chain3")
    lt = pc1.relation("<")
    four_chain = normalize(pc1, [(f"x{i}", lt, f"x{i+1}") for i in range(3)])
    assert brute_force_solve(four_chain, chain3) is None

    three = normalize(pc1, [("A", lt, "B"), ("B", lt, "C")])
    assert brute_force_solve(three, chain3) == {"A": "0", "B": "1", "C": "2"}

    empty = normalize(pc1, [], var_names=["A", "B"])
    assert brute_force_solve(empty, chain3) == {"A": "0", "B": "0"}


def test_brute_force_budget():
    chain3 = builtin_model("pc1-chain3")
    net = normalize(pc1, [], var_names=[f"v{i}" for i in range(8)])
    with pytest.raises(BudgetExceededError):
        brute_force_solve(net, chain3, budget=100)
    # the budget bounds the space, not the nodes visited: an empty first
    # pair refutes every valuation at the second variable
    net.cells[1] = net.cells[8] = 0
    assert brute_force_solve(net, chain3, budget=3**8) is None
    with pytest.raises(BudgetExceededError):
        brute_force_solve(net, chain3, budget=3**8 - 1)
    chain5 = builtin_model("pc1-chain5")
    lt = pc1.relation("<")
    for n, want in ((7, None), (5, {f"x{k}": str(k) for k in range(5)})):
        chain = normalize(pc1, [(f"x{k}", lt, f"x{k + 1}") for k in range(n - 1)])
        assert brute_force_solve(chain, chain5, budget=5**n) == want
        with pytest.raises(BudgetExceededError):
            brute_force_solve(chain, chain5, budget=5**n - 1)


def _loose_model():
    # a model that leaves pairs uncovered and covers others twice, besides
    # the bundled ones
    return FiniteInterpretation(
        b2,
        ["0", "1", "2"],
        {
            "r1": [("0", "0"), ("0", "1"), ("1", "2")],
            "r2": [("1", "1"), ("0", "1")],
            "r3": [("2", "0"), ("2", "2")],
            "r4": [("1", "0")],
        },
    )


def _reference_solve(net, model):
    for combo in itertools.product(model.universe, repeat=len(net.var_names)):
        valuation = dict(zip(net.var_names, combo))
        if satisfies(net, valuation, model):
            return valuation
    return None


def test_brute_force_returns_the_first_satisfying_valuation():
    models = [builtin_model(name) for name in BUILTIN_MODEL_NAMES] + [_loose_model()]
    found = missing = 0
    for m_idx, model in enumerate(models):
        # the reference tries every valuation: stop where pc1-chain5 does at 6 variables
        for n_vars in (n for n in range(2, 7) if len(model.universe) ** n <= 5**6):
            for d_idx, density in enumerate((0.3, 0.6, 1.0)):
                labels = "singletons" if d_idx == 2 else "uniform"
                seed = 100 * m_idx + 10 * n_vars + d_idx
                net = random_network(model.calculus, n_vars, density, labels, seed=seed)
                want = _reference_solve(net, model)
                assert brute_force_solve(net, model) == want, (model.name, n_vars, density)
                found += want is not None
                missing += want is None
    assert found > 20 and missing > 20


def test_brute_force_edge_cases_equal_the_reference():
    loose = _loose_model()
    for model in [builtin_model(name) for name in BUILTIN_MODEL_NAMES] + [loose]:
        single = ConstraintNetwork(model.calculus, ["x"])
        assert brute_force_solve(single, model) == _reference_solve(single, model) == {
            "x": model.universe[0]
        }
    # a diagonal cell without the identity constrains nothing
    chain3 = builtin_model("pc1-chain3")
    net = normalize(pc1, [("A", pc1.relation("<"), "B")])
    net.cells[0] = net.cells[3] = pc1.mask_of(">")
    assert brute_force_solve(net, chain3) == _reference_solve(net, chain3) == {"A": "0", "B": "1"}
    single = ConstraintNetwork(pc1, ["x"])
    single.cells[0] = 0
    assert brute_force_solve(single, chain3) == _reference_solve(single, chain3) == {"x": "0"}
    # only C[k][i] constrains each pair i < k, so the check reads column lines
    found = missing = 0
    for seed in range(40):
        net = ConstraintNetwork(b2, ["a", "b", "c", "d"])
        rng = random.Random(seed)
        for i, k in itertools.combinations(range(4), 2):
            net.cells[k * 4 + i] = rng.randrange(1, 16)
        want = _reference_solve(net, loose)
        assert brute_force_solve(net, loose) == want, seed
        found += want is not None
        missing += want is None
    assert found > 5 and missing > 5
    # C[i][k] stays U for i < k: every pair has a composite cell, and none
    # enters the model's pair table
    assert loose._pair_lines == {}


def test_bit_lines_read_as_the_cover():
    for model in [builtin_model(name) for name in BUILTIN_MODEL_NAMES] + [_loose_model()]:
        universe = model.universe
        assert len(model._lines) == len(model.calculus.symbols)
        for r, (row, col) in enumerate(model._lines):
            for (a, u), (b, v) in itertools.product(enumerate(universe), repeat=2):
                covered = model._cover.get((u, v), 0) >> r & 1
                assert row[a] >> b & 1 == covered, (model.name, r, u, v)
                assert col[b] >> a & 1 == covered, (model.name, r, u, v)
            assert all(0 <= line < 1 << len(universe) for line in row + col)


def test_pair_table_is_filled_on_first_use_with_atomic_pairs_only():
    chain5 = builtin_model("pc1-chain5")
    fresh = FiniteInterpretation(pc1, chain5.universe, chain5.phi)
    assert fresh._pair_lines == {}
    assert parse_model(MODEL_TEXT, b2)._pair_lines == {}
    assert derive_completeness(pc1, fresh, 5).flag == "yes"
    assert 0 < len(fresh._pair_lines) <= len(pc1.symbols) ** 2
    assert all(a.bit_count() == b.bit_count() == 1 for a, b in fresh._pair_lines)


def test_brute_force_rejects_a_model_of_another_calculus():
    net = normalize(builtin("rcc5"), [], var_names=["A", "B"])
    with pytest.raises(CalculusMismatchError):
        brute_force_solve(net, builtin_model("pc1-chain3"))


MODEL_TEXT = """\
model "tiny"
calculus appendixB2
universe 0 1
r1: (0,0)
r2: (1,1)
r3: (0,1)
r4: (1,0)
"""


def test_model_file_round_trip():
    model = parse_model(MODEL_TEXT, b2)
    assert model.universe == ("0", "1")
    assert model.phi["r3"] == {("0", "1")}
    again = parse_model(model.to_text(), b2)
    assert again.phi == model.phi


@pytest.mark.parametrize("clause", ['model "other"', "calculus appendixB2", "universe 5 6"])
def test_model_duplicate_header_rejected(clause):
    # a second header line would silently win over the first
    from qsr import NetworkError

    text = MODEL_TEXT.replace("r1: (0,0)", clause + "\nr1: (0,0)")
    head = clause.split()[0]
    with pytest.raises(NetworkError, match=f"line 4: duplicate {head} clause"):
        parse_model(text, b2)


def test_model_requires_injective_phi():
    text = MODEL_TEXT.replace("r4: (1,0)", "r4: (0,1)")
    from qsr import NetworkError

    with pytest.raises(NetworkError, match="injective"):
        parse_model(text, b2)


def test_builtin_models_are_valid():
    for name in BUILTIN_MODEL_NAMES:
        model = builtin_model(name)
        assert check_jepd(model).certified, name
        assert model.calculus is builtin(model.calculus.name), name


@pytest.mark.parametrize("name, composition, converse", [
    ("pc1-chain3", {"strong": 5, "weak": 4}, {"strong": 3}),
    ("rcc5-subsets4", {"strong": 9, "weak": 16}, {"strong": 5}),
    ("cycb-compass8", {"strong": 12, "weak": 4}, {"strong": 4}),
    # four directions are too few: l.l is (o) there, the table's (l o r) is abstract
    ("cycb-compass4", {"strong": 12, "abstract": 4}, {"strong": 4}),
])
def test_derived_builtins_grade_over_their_domains(name, composition, converse):
    model = builtin_model(name)
    for which, want in (("composition", composition), ("converse", converse)):
        grading = classify_operation(model, model.calculus, which)
        assert Counter(v.value for v in grading.cells.values()) == want, which


def test_seriality_is_a_model_property():
    from qsr import check_seriality

    # a finite cut of the line loses seriality for the strict orders
    assert check_seriality(builtin_model("pc1-chain3")) == {"<": False, "=": True, ">": False}
    # rotations are serial everywhere
    assert all(check_seriality(builtin_model("cycb-compass4")).values())


def test_builtin_model_rejects_unknown_names():
    for name in ("pc1-chainx", "pc1-chain", "pc1-chain0", "pc1-chain7", "nope"):
        with pytest.raises(KeyError, match="available"):
            builtin_model(name)
