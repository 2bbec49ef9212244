"""Calculi and models for the benchmark, derived here by enumeration.

Nothing in this module reads the tables that ship with ``qsr``.  Each calculus
is computed from a concrete domain and emitted as spec-file text, and each
model as model-file text.  The runner loads the text through ``parse_spec`` and
``parse_model``, so parsing is part of the measured set-up.

* ``pc1``: the three point relations over a 3-element chain.
* ``IA13``: Allen's interval algebra over all 21 intervals of 7 points.  Three
  intervals use at most 6 distinct endpoints, so every composition member is
  realised.  The same 21 intervals are the finite model ``IA13-21``.
* ``cycb``: four orientation relations over 8 directions, 45 degrees apart.
* ``appendixB2``: the four relations of the two-element fixture.  It is the
  domain composition with two cells widened on purpose, ``r3.r4`` and
  ``r4.r2``, which makes the tables broken.
* Products ``A x B``: base relations are the pairs (a, b), converse and
  composition work per component.  A product of relation algebras is a
  relation algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Tables:
    """A calculus as plain tables over symbol names."""

    name: str
    symbols: tuple[str, ...]
    identity: tuple[str, ...]
    converse: dict[str, frozenset[str]]
    composition: dict[tuple[str, str], frozenset[str]]


def _from_domain(name, elements, rel, symbols, identity, widen=None):
    """Converse and composition of the base relations that ``rel`` induces on ``elements``."""
    by_rel: dict[str, list] = {s: [] for s in symbols}
    for x in elements:
        for y in elements:
            by_rel[rel(x, y)].append((x, y))
    converse = {s: frozenset(rel(y, x) for x, y in by_rel[s]) for s in symbols}
    composition = {(a, b): set() for a in symbols for b in symbols}
    for x, y in itertools.product(elements, repeat=2):
        rxy = rel(x, y)
        for z in elements:
            composition[(rxy, rel(y, z))].add(rel(x, z))
    for cell, extra in (widen or {}).items():
        composition[cell] |= set(extra)
    return Tables(name, tuple(symbols), tuple(identity), converse,
                  {k: frozenset(v) for k, v in composition.items()})


def _point_rel(x, y):
    return "<" if x < y else "=" if x == y else ">"


def pc1() -> Tables:
    return _from_domain("pc1", range(3), _point_rel, ("<", "=", ">"), ("=",))


IA_SYMBOLS = ("eq", "b", "bi", "m", "mi", "o", "oi", "s", "si", "d", "di", "f", "fi")

# intervals (a, b) with 0 <= a < b <= 6
INTERVALS = tuple((a, b) for a in range(7) for b in range(a + 1, 7))


def _interval_rel(x, y):
    (a, b), (c, d) = x, y
    if (a, b) == (c, d):
        return "eq"
    if b < c:
        return "b"
    if d < a:
        return "bi"
    if b == c:
        return "m"
    if d == a:
        return "mi"
    if a == c:
        return "s" if b < d else "si"
    if b == d:
        return "f" if a > c else "fi"
    if c < a and b < d:
        return "d"
    if a < c and d < b:
        return "di"
    return "o" if a < c else "oi"


def ia13() -> Tables:
    return _from_domain("IA13", INTERVALS, _interval_rel, IA_SYMBOLS, ("eq",))


def _direction_rel(x, y):
    delta = (y - x) % 360
    if delta == 0:
        return "e"
    if delta == 180:
        return "o"
    return "l" if delta < 180 else "r"


def cycb() -> Tables:
    return _from_domain("cycb", range(0, 360, 45), _direction_rel, ("e", "o", "l", "r"), ("e",))


_B2_PHI = {(0, 0): "r1", (1, 1): "r2", (0, 1): "r3", (1, 0): "r4"}


def appendix_b2() -> Tables:
    # the elements are the points 0 and 1; a pair of them is its own relation
    return _from_domain(
        "appendixB2", (0, 1), lambda x, y: _B2_PHI[(x, y)], ("r1", "r2", "r3", "r4"), ("r1",),
        widen={("r3", "r4"): ("r4",), ("r4", "r2"): ("r4",)},
    )


def product(left: Tables, right: Tables) -> Tables:
    def sym(a, b):
        return f"{a}:{b}"

    symbols = tuple(sym(a, b) for a in left.symbols for b in right.symbols)
    identity = tuple(sym(a, b) for a in left.identity for b in right.identity)
    converse = {
        sym(a, b): frozenset(sym(x, y) for x in left.converse[a] for y in right.converse[b])
        for a in left.symbols for b in right.symbols
    }
    composition = {}
    for a1, b1 in itertools.product(left.symbols, right.symbols):
        for a2, b2 in itertools.product(left.symbols, right.symbols):
            composition[(sym(a1, b1), sym(a2, b2))] = frozenset(
                sym(x, y)
                for x in left.composition[(a1, a2)]
                for y in right.composition[(b1, b2)]
            )
    return Tables(f"{left.name}x{right.name}", symbols, identity, converse, composition)


def spec_text(t: Tables) -> str:
    lines = [f'calculus "{t.name}"', "relations " + " ".join(t.symbols),
             "identity " + " ".join(t.identity), "converse"]
    order = {s: i for i, s in enumerate(t.symbols)}

    def group(syms):
        return "(" + " ".join(sorted(syms, key=order.__getitem__)) + ")"

    lines += [f"{s} {group(t.converse[s])}" for s in t.symbols]
    lines.append("composition")
    lines += [f"{a} {b} {group(t.composition[(a, b)])}" for a in t.symbols for b in t.symbols]
    return "\n".join(lines) + "\n"


def _model_text(name, calculus, elements, label, rel, symbols):
    lines = [f'model "{name}"', f"calculus {calculus}",
             "universe " + " ".join(label(x) for x in elements)]
    pairs: dict[str, list[str]] = {s: [] for s in symbols}
    for x in elements:
        for y in elements:
            pairs[rel(x, y)].append(f"({label(x)},{label(y)})")
    lines += [f"{s}: {' '.join(pairs[s])}" for s in symbols]
    return "\n".join(lines) + "\n"


def ia13_model_text() -> str:
    return _model_text("IA13-21", "IA13", INTERVALS, lambda iv: f"{iv[0]}{iv[1]}",
                       _interval_rel, IA_SYMBOLS)


def chain_model_text(size: int) -> str:
    return _model_text(f"pc1-chain{size}", "pc1", range(size), str, _point_rel, ("<", "=", ">"))


def permuted(t: Tables, rng) -> Tables:
    """The same calculus with its base relations declared in a shuffled order."""
    symbols = list(t.symbols)
    rng.shuffle(symbols)
    return Tables(t.name, tuple(symbols), t.identity, t.converse, t.composition)


def texts(rng) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Spec texts by calculus name, and (model text, calculus name) by model name.

    The symbol order of each spec is drawn from ``rng``: the bit layout of the
    masks changes with the seed while every result stays the same.
    """
    ia = ia13()
    specs = {
        "IA13": spec_text(permuted(ia, rng)),
        "pc1xIA13": spec_text(permuted(product(pc1(), ia), rng)),
        "appendixB2xcycb": spec_text(permuted(product(appendix_b2(), cycb()), rng)),
    }
    models = {"IA13-21": (ia13_model_text(), "IA13"), "pc1-chain5": (chain_model_text(5), "pc1")}
    return specs, models
