"""Re-derive the builtin operation tables from reference interpretations.

Each builtin's converse and composition tables must equal the weak (tightest
sound) operations computed over a reference model rich enough to realize
every qualitative configuration: non-empty subsets of a 4-element set for
the containment calculus, 45-degree rotations for the orientation calculus,
a 5-point chain for the point calculus.  This pins every table cell to an
independent semantic derivation, not to a transcription.  The appendix
fixtures are pinned the same way over their two-element models, but for the
composition cells each of them breaks on purpose.
"""

from itertools import combinations

import pytest

from qsr import builtin


def weak_composition(phi, syms):
    out = {}
    for b in syms:
        by_first = {}
        for v, w in phi[b]:
            by_first.setdefault(v, set()).add(w)
        for a in syms:
            comp = {(u, w) for u, v in phi[a] for w in by_first.get(v, ())}
            out[(a, b)] = frozenset(s for s in syms if set(phi[s]) & comp)
    return out


def weak_converse(phi, syms):
    return {
        a: frozenset(s for s in syms if set(phi[s]) & {(v, u) for u, v in phi[a]})
        for a in syms
    }


def containment_model():
    ground = "wxyz"
    regions = [frozenset(c) for r in range(1, 5) for c in combinations(ground, r)]

    def rel(x, y):
        if x == y:
            return "EQ"
        if not (x & y):
            return "DC"
        if x < y:
            return "PP"
        if y < x:
            return "PPi"
        return "PO"

    phi = {s: [] for s in ("EQ", "DC", "PO", "PP", "PPi")}
    for x in regions:
        for y in regions:
            phi[rel(x, y)].append((x, y))
    return phi


def rotation_model():
    degs = range(0, 360, 45)

    def rel(a, b):
        d = (b - a) % 360
        if d == 0:
            return "e"
        if d == 180:
            return "o"
        return "l" if d < 180 else "r"

    phi = {s: [] for s in ("e", "o", "l", "r")}
    for a in degs:
        for b in degs:
            phi[rel(a, b)].append((a, b))
    return phi


def chain_model():
    phi = {"<": [], "=": [], ">": []}
    for a in range(5):
        for b in range(5):
            phi["<" if a < b else ("=" if a == b else ">")].append((a, b))
    return phi


# the composition cells that the appendix fixtures break on purpose, with
# the values they take instead of the weak ones over their two-element models
BROKEN = {
    "appendixB1": {(a, b): {"r1", "r2"} for a in ("r1", "r2") for b in ("r1", "r2")},
    "appendixB2": {("r3", "r4"): {"r1", "r4"}, ("r4", "r2"): {"r4"}},
    "appendixB-remark": {("r2", "r2"): {"r1", "r2"}},
}


@pytest.mark.parametrize(
    "name,phi",
    [
        ("rcc5", containment_model()),
        ("cycb", rotation_model()),
        ("pc1", chain_model()),
        ("appendixB1", {"r1": [(0, 0), (0, 1)], "r2": [(1, 0), (1, 1)]}),
        ("appendixB2", {"r1": [(0, 0)], "r2": [(1, 1)], "r3": [(0, 1)], "r4": [(1, 0)]}),
        # identity and diversity
        ("appendixB-remark", {"r1": [(0, 0), (1, 1)], "r2": [(0, 1), (1, 0)]}),
    ],
)
def test_builtin_tables_equal_weak_operations(name, phi):
    # every cell is weak but for exactly the cells the calculus breaks
    calc = builtin(name)
    syms = list(calc.symbols)
    comp = weak_composition(phi, syms)
    off = {}
    for a in syms:
        assert frozenset(calc.relation(a).converse().symbols) == weak_converse(phi, syms)[a]
        for b in syms:
            cell = frozenset(calc.relation(a).compose(calc.relation(b)).symbols)
            if cell != comp[(a, b)]:
                off[(a, b)] = cell
    assert off == BROKEN.get(name, {})
