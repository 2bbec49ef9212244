"""Constraint networks: normalization, file I/O, generation."""

import json

import pytest

from qsr import (
    NetworkError,
    builtin,
    builtin_model,
    normalize,
    parse_network,
    random_network,
    satisfies,
)
from qsr.network import ConstraintNetwork

pc1 = builtin("pc1")


def edge(x, syms, y):
    return (x, pc1.relation(*syms.split()), y)


def test_normalize_converse_consistent_pair():
    net = normalize(pc1, [edge("A", "<", "B"), edge("B", ">", "A")])
    assert net["A", "B"].symbols == ("<",)
    assert net["B", "A"].symbols == (">",)


def test_normalize_contradictory_pair_is_trivially_inconsistent():
    net = normalize(pc1, [edge("A", "<", "B"), edge("B", "<", "A")])
    assert net["A", "B"].is_empty
    assert net.has_empty_cell()


def test_normalize_leaves_unmentioned_pairs_universal():
    net = normalize(pc1, [edge("A", "<", "B"), edge("B", "< =", "C")])
    assert net["A", "C"] == pc1.universal_relation


def test_normalize_intersects_duplicates():
    net = normalize(pc1, [edge("A", "< =", "B"), edge("A", "= >", "B")])
    assert net["A", "B"].symbols == ("=",)


def test_normalize_is_idempotent():
    net = normalize(pc1, [edge("A", "<", "B"), edge("B", "< =", "C")])
    again = normalize(
        pc1,
        [
            (x, net[x, y], y)
            for x in net.var_names
            for y in net.var_names
            if x != y
        ],
        var_names=net.var_names,
    )
    assert again == net


def test_normalize_rejects_undeclared_variables():
    with pytest.raises(NetworkError, match="unknown variable"):
        normalize(pc1, [edge("A", "<", "Z")], var_names=["A", "B"])


def test_diagonal_is_identity_and_protected():
    net = normalize(pc1, [edge("A", "<", "B")])
    assert net["A", "A"].symbols == ("=",)
    with pytest.raises(NetworkError):
        net["A", "A"] = pc1.universal_relation


def test_diagonal_universal_without_identity():
    nid = builtin("pc1")
    anon = ConstraintNetwork(nid, ["x", "y"])
    assert anon["x", "x"].symbols == ("=",)
    # a calculus without identity gets a universal diagonal
    from qsr import parse_spec
    from qsr.registry import serialize

    text = serialize(nid).replace("identity =", "identity")
    free = parse_spec(text)
    net = ConstraintNetwork(free, ["x", "y"])
    assert net["x", "x"] == free.universal_relation


def test_cell_indices_outside_the_network_are_refused():
    # row-major storage would read (0, -1) as the diagonal (2, 2), write
    # (0, 3) into (1, 0) and (0, 4) over the diagonal (1, 1)
    net = ConstraintNetwork(pc1, ["A", "B", "C"])
    before = list(net.cells)
    for i, j in [(0, 3), (0, 4), (3, 0), (0, -1), (-1, 2)]:
        with pytest.raises(NetworkError, match=rf"cell \({i}, {j}\) is outside a network of 3"):
            net.get_mask(i, j)
        with pytest.raises(NetworkError, match=rf"cell \({i}, {j}\) is outside a network of 3"):
            net.set_mask(i, j, pc1.relation("<").bits)
    assert net.cells == before


def test_masks_outside_the_calculus_width_are_refused():
    # stored, -1 reads as a label through negative indexing, so closure and
    # search would give a verdict on a cell no relation set names; U + 1
    # raises an IndexError deep in converse_mask
    net = ConstraintNetwork(pc1, ["A", "B", "C"])
    net.set_mask(0, 1, pc1.relation("<").bits)
    before = list(net.cells)
    for mask in (-1, pc1.universal + 1):
        with pytest.raises(NetworkError, match=f"mask {mask} has bits outside the calculus width"):
            net.set_mask(0, 1, mask)
    assert net.cells == before


def test_satisfies_examples():
    chain3 = builtin_model("pc1-chain3")
    net = normalize(pc1, [edge("A", "<", "B"), edge("B", "<", "C")])
    assert satisfies(net, {"A": "0", "B": "1", "C": "2"}, chain3)
    assert not satisfies(net, {"A": "2", "B": "1", "C": "0"}, chain3)
    with pytest.raises(NetworkError, match="not total"):
        satisfies(net, {"A": "0", "B": "1"}, chain3)


def test_satisfies_agrees_with_direct_membership():
    # the verdict must coincide with literally checking every assigned pair
    # against the interpretation of its constraint
    import itertools

    chain3 = builtin_model("pc1-chain3")
    for seed in range(10):
        net = random_network(pc1, 3, 0.7, seed=seed)
        for combo in itertools.product(chain3.universe, repeat=3):
            valuation = dict(zip(net.var_names, combo))
            direct = all(
                (valuation[x], valuation[y]) in chain3.phi_mask(net[x, y].bits)
                for x in net.var_names
                for y in net.var_names
                if x != y
            )
            assert satisfies(net, valuation, chain3) == direct


NETWORK_TEXT = """\
# the classic three-point example
network "incomplete"
calculus pc1
vars A B C
A (<) B
B (<) C
"""


def test_parse_network():
    net = parse_network(NETWORK_TEXT, pc1)
    assert net.name == "incomplete"
    assert net.var_names == ("A", "B", "C")
    assert net["A", "B"].symbols == ("<",)
    assert net["A", "C"] == pc1.universal_relation


def test_parse_network_duplicate_lines_intersect():
    net = parse_network(NETWORK_TEXT + "A (= <) B\n", pc1)
    assert net["A", "B"].symbols == ("<",)


@pytest.mark.parametrize("clause", ['network "other"', "calculus pc1", "vars A B C"])
def test_parse_network_duplicate_header_rejected(clause):
    # a second header line would silently win over the first
    text = NETWORK_TEXT.replace("A (<) B\n", clause + "\nA (<) B\n")
    head = clause.split()[0]
    with pytest.raises(NetworkError, match=f"line 5: duplicate {head} clause"):
        parse_network(text, pc1)


def test_parse_network_calculus_mismatch():
    with pytest.raises(NetworkError, match="declares calculus"):
        parse_network(NETWORK_TEXT, builtin("rcc5"))


def test_network_text_round_trip(random_calculus):
    # closed networks over random calculi without R7 hold mirror cells that
    # are not the converse of their cell: those must survive the trip too
    import random as _random

    from qsr import a_closure

    rng = _random.Random(1789)
    nets = [parse_network(NETWORK_TEXT, pc1)]
    for t in range(200):
        calc = random_calculus(rng, rng.choice((2, 3, 4, 9)), f"rand{t}")
        if calc.flags.ra7_holds:
            continue
        out = a_closure(random_network(calc, rng.choice((3, 4, 5)), rng.choice((0.3, 0.6, 1.0)), seed=t))
        if out.closed:
            nets.append(out.network)
    asymmetric = 0
    for net in nets:
        assert parse_network(net.to_text(), net.calculus) == net, net.calculus.name
        n = len(net)
        conv = net.calculus.converse_mask
        asymmetric += any(net.cells[j * n + i] != conv(net.cells[i * n + j])
                          for i in range(n) for j in range(i + 1, n))
    assert asymmetric > 10


def test_network_json_export():
    net = parse_network(NETWORK_TEXT, pc1)
    doc = json.loads(json.dumps(net.to_json_dict()))
    assert doc["vars"] == ["A", "B", "C"]
    assert doc["matrix"][0][1] == ["<"]
    assert doc["matrix"][0][2] == ["<", "=", ">"]


def test_random_network_zero_density_all_universal():
    net = random_network(pc1, 5, 0.0, seed=42)
    for i, x in enumerate(net.var_names):
        for y in net.var_names[i + 1 :]:
            assert net[x, y] == pc1.universal_relation


def test_random_network_full_density_singletons():
    net = random_network(pc1, 5, 1.0, label_size="singletons", seed=42)
    for i, x in enumerate(net.var_names):
        for y in net.var_names[i + 1 :]:
            assert len(net[x, y]) == 1


def test_random_network_deterministic():
    a = random_network(builtin("rcc5"), 8, 0.5, seed=7)
    b = random_network(builtin("rcc5"), 8, 0.5, seed=7)
    assert a == b
    assert a != random_network(builtin("rcc5"), 8, 0.5, seed=8)


def test_random_network_labels_are_proper_and_converse_consistent():
    net = random_network(builtin("rcc5"), 6, 1.0, seed=1)
    rcc5 = builtin("rcc5")
    for x in net.var_names:
        for y in net.var_names:
            if x == y:
                continue
            rel = net[x, y]
            assert not rel.is_empty and not rel.is_universal
            assert net[y, x] == rel.converse()


def test_random_network_parameter_validation():
    with pytest.raises(NetworkError):
        random_network(pc1, 1, 0.5)
    with pytest.raises(NetworkError):
        random_network(pc1, 4, 1.5)
    with pytest.raises(NetworkError):
        random_network(pc1, 4, 0.5, label_size="gaussian")


def test_random_network_rejects_uniform_labels_on_one_relation_calculus():
    from qsr.core import CalculusSpec

    one = CalculusSpec("one", ["e"], ["e"], {"e": ["e"]}, {("e", "e"): ["e"]})
    with pytest.raises(NetworkError, match="single base relation"):
        random_network(one, 3, 1.0, seed=1)
    # nothing to draw: no constrained pair, or singleton labels
    assert random_network(one, 3, 0.0, seed=1).cells == [1] * 9
    assert random_network(one, 3, 1.0, label_size="singletons", seed=1).cells == [1] * 9
