"""Finite interpretations of a calculus: explicit universes and pair sets.

A finite interpretation grounds the symbols of a calculus in a finite
universe, mapping each base relation to a set of ordered element pairs.
That makes the semantic side of the calculus computable by enumeration:
JEPD and partition-scheme conditions, domain-level converse/composition,
the strength of the symbolic operations (strong / weak / abstract-only /
unsound per table cell), and brute-force solving of constraint networks.

Model files follow the rules shared with network and spec files; their
header is read by :func:`qsr.network.read_header`, and :func:`parse_model`
reads only the interpretation lines:

    model "chain3"
    calculus pc1
    universe 0 1 2
    <: (0,1) (0,2) (1,2)
    =: (0,0) (1,1) (2,2)
    >: (1,0) (2,0) (2,1)

Symbols without pairs use an empty pair list; every base relation of the
calculus must have a line (relations are non-empty in a well-formed model,
but probing broken tables is allowed).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .core import CalculusError, CalculusMismatchError, CalculusSpec
from .network import ConstraintNetwork, NetworkError, name_line, read_header

Pair = tuple[str, str]


class BudgetExceededError(Exception):
    """Brute-force enumeration would exceed the configured budget."""


class FiniteInterpretation:
    """A finite universe plus an interpretation map from symbols to pair sets."""

    __slots__ = ("name", "calculus", "universe", "phi", "_cover")

    def __init__(
        self,
        calculus: CalculusSpec,
        universe: Iterable[str],
        phi: dict[str, Iterable[Pair]],
        name: str = "",
    ) -> None:
        self.name = name
        self.calculus = calculus
        self.universe: tuple[str, ...] = tuple(universe)
        if len(set(self.universe)) != len(self.universe):
            raise CalculusError("universe elements must be distinct")
        if not self.universe:
            raise CalculusError("universe must be non-empty")
        elems = set(self.universe)
        interp: dict[str, frozenset[Pair]] = {}
        for sym in calculus.symbols:
            if sym not in phi:
                raise CalculusError(f"interpretation missing for symbol {sym!r}")
            pairs = frozenset((str(a), str(b)) for a, b in phi[sym])
            for a, b in pairs:
                if a not in elems or b not in elems:
                    raise CalculusError(f"pair ({a},{b}) uses elements outside the universe")
            interp[sym] = pairs
        extra = set(phi) - set(calculus.symbols)
        if extra:
            raise CalculusError(f"interpretation names unknown symbols: {sorted(extra)}")
        images = list(interp.values())
        if len(set(images)) != len(images):
            raise CalculusError("interpretation map must be injective on symbols")
        self.phi = interp
        # pair -> mask of the base relations covering it (one bit under JEPD)
        cover: dict[Pair, int] = {}
        for sym, pairs in interp.items():
            bit = 1 << calculus.symbol_index(sym)
            for p in pairs:
                cover[p] = cover.get(p, 0) | bit
        self._cover = cover

    def phi_mask(self, mask: int) -> frozenset[Pair]:
        """Interpretation of a composite relation given as a bitmask."""
        out: set[Pair] = set()
        for sym in self.calculus.symbols_of(mask):
            out |= self.phi[sym]
        return frozenset(out)

    def mask_contains(self, mask: int, pair: Pair) -> bool:
        return mask & self._cover.get(pair, 0) != 0

    def __repr__(self) -> str:
        return (
            f"FiniteInterpretation({self.name or '<anon>'}, {self.calculus.name}, "
            f"|universe|={len(self.universe)})"
        )

    def to_text(self) -> str:
        lines = [name_line("model", self.name or "model"), f"calculus {self.calculus.name}",
                 "universe " + " ".join(self.universe)]
        for sym in self.calculus.symbols:
            pairs = " ".join(f"({a},{b})" for a, b in sorted(self.phi[sym]))
            lines.append(f"{sym}: {pairs}".rstrip())
        return "\n".join(lines) + "\n"


@dataclass
class JepdReport:
    jointly_exhaustive: bool
    pairwise_disjoint: bool
    uncovered: list[Pair] = field(default_factory=list)
    multiply_covered: list[Pair] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.jointly_exhaustive and self.pairwise_disjoint


def check_jepd(model: FiniteInterpretation) -> JepdReport:
    """Exhaustive JEPD check over universe x universe, with witnesses."""
    uncovered = []
    multiple = []
    for a in model.universe:
        for b in model.universe:
            covering = model._cover.get((a, b), 0)
            if not covering:
                uncovered.append((a, b))
            elif covering.bit_count() > 1:
                multiple.append((a, b))
    return JepdReport(
        jointly_exhaustive=not uncovered,
        pairwise_disjoint=not multiple,
        uncovered=uncovered,
        multiply_covered=multiple,
    )


@dataclass
class PartitionSchemeReport:
    """Partition-scheme conditions on a JEPD model.

    ``has_identity_base`` asks for a base relation interpreted exactly as the
    identity; ``has_identity`` relaxes that to some composite relation (under
    JEPD this is equivalent to no base relation straddling the diagonal).
    ``declared_identity_matches`` compares the calculus's designated identity
    against the domain identity, when one is designated.
    """

    has_identity: bool
    converse_closed: bool
    has_identity_base: bool
    identity_composite: Optional[tuple[str, ...]]
    declared_identity_matches: Optional[bool]
    converse_witnesses: list[str] = field(default_factory=list)


def check_partition_scheme(model: FiniteInterpretation) -> PartitionSchemeReport:
    if not check_jepd(model).certified:
        raise CalculusError("partition-scheme check requires a JEPD-certified model")
    identity = frozenset((u, u) for u in model.universe)

    base_hit = any(model.phi[s] == identity for s in model.calculus.symbols)
    inside = tuple(
        s for s in model.calculus.symbols if model.phi[s] and model.phi[s] <= identity
    )
    composite_hit = frozenset().union(*(model.phi[s] for s in inside)) == identity if inside else False

    declared = None
    if model.calculus.identity_mask is not None:
        declared = model.phi_mask(model.calculus.identity_mask) == identity

    witnesses = []
    images = {model.phi[s] for s in model.calculus.symbols}
    for s in model.calculus.symbols:
        conv = frozenset((b, a) for a, b in model.phi[s])
        if conv not in images:
            witnesses.append(s)

    return PartitionSchemeReport(
        has_identity=base_hit or composite_hit,
        converse_closed=not witnesses,
        has_identity_base=base_hit,
        identity_composite=inside if composite_hit else None,
        declared_identity_matches=declared,
        converse_witnesses=witnesses,
    )


def check_seriality(model: FiniteInterpretation) -> dict[str, bool]:
    """Which base relations are serial: every element has some successor.

    Reported as a model property only; no axiom verdict is derived from it
    (a finite cut of an unbounded domain routinely loses seriality).
    """
    out = {}
    for sym in model.calculus.symbols:
        firsts = {a for a, _ in model.phi[sym]}
        out[sym] = all(u in firsts for u in model.universe)
    return out


def _compose_pairs(r: frozenset[Pair], s: frozenset[Pair]) -> frozenset[Pair]:
    by_first: dict[str, set[str]] = {}
    for v, w in s:
        by_first.setdefault(v, set()).add(w)
    out = set()
    for u, v in r:
        for w in by_first.get(v, ()):
            out.add((u, w))
    return frozenset(out)


def domain_compose(model: FiniteInterpretation, r: str, s: str) -> frozenset[Pair]:
    """Set-theoretic composition of two base relations over the universe."""
    if r not in model.phi or s not in model.phi:
        raise CalculusError(f"symbols {r!r}, {s!r} must be interpreted by the model")
    return _compose_pairs(model.phi[r], model.phi[s])


def domain_converse(model: FiniteInterpretation, r: str) -> frozenset[Pair]:
    if r not in model.phi:
        raise CalculusError(f"symbol {r!r} must be interpreted by the model")
    return frozenset((b, a) for a, b in model.phi[r])


class CellStrength(Enum):
    STRONG = "strong"
    WEAK = "weak"
    ABSTRACT_ONLY = "abstract"
    UNSOUND = "UNSOUND"


@dataclass
class OperationClassification:
    operation: str  # "converse" or "composition"
    cells: dict[tuple, CellStrength]

    @property
    def unsound_cells(self) -> list[tuple]:
        return [c for c, v in self.cells.items() if v is CellStrength.UNSOUND]

    @property
    def is_calculus_under_model(self) -> bool:
        """False when some table cell drops domain-level possibilities."""
        return not self.unsound_cells

    @property
    def strong(self) -> bool:
        return all(v is CellStrength.STRONG for v in self.cells.values())

    @property
    def weak(self) -> bool:
        """Every cell is the tightest sound value (strong cells qualify)."""
        return all(
            v in (CellStrength.STRONG, CellStrength.WEAK) for v in self.cells.values()
        ) and self.is_calculus_under_model

    def strength_of(self, *key: str) -> CellStrength:
        return self.cells[key]


def classify_operation(
    model: FiniteInterpretation, spec: CalculusSpec, which: str
) -> OperationClassification:
    """Grade each table cell of ``which`` against the domain-level operation.

    For a cell with table value T, domain result D and weak hull W (the
    symbols whose interpretation meets D): strong iff phi(T) = D, weak iff
    T = W, abstract-only iff T is a strict sound superset of W, UNSOUND iff
    phi(T) misses part of D.  Requires a JEPD-certified model, which makes
    the hull well defined.
    """
    if spec is not model.calculus:
        raise CalculusError("classify_operation needs the model's own calculus")
    if which not in ("converse", "composition"):
        raise CalculusError(f"unknown operation {which!r}")
    if not check_jepd(model).certified:
        raise CalculusError("operation classification requires a JEPD-certified model")

    def hull(domain: frozenset[Pair]) -> int:
        mask = 0
        for idx, sym in enumerate(spec.symbols):
            if model.phi[sym] & domain:
                mask |= 1 << idx
        return mask

    def grade(table_mask: int, domain: frozenset[Pair]) -> CellStrength:
        interp = model.phi_mask(table_mask)
        if not interp >= domain:
            return CellStrength.UNSOUND
        if interp == domain:
            return CellStrength.STRONG
        if table_mask == hull(domain):
            return CellStrength.WEAK
        return CellStrength.ABSTRACT_ONLY

    cells: dict[tuple, CellStrength] = {}
    if which == "converse":
        for idx, sym in enumerate(spec.symbols):
            cells[(sym,)] = grade(spec.converse_row[idx], domain_converse(model, sym))
    else:
        for i, a in enumerate(spec.symbols):
            for j, b in enumerate(spec.symbols):
                cells[(a, b)] = grade(
                    spec.composition_row[i][j], domain_compose(model, a, b)
                )
    return OperationClassification(which, cells)


def brute_force_solve(
    net: ConstraintNetwork,
    model: FiniteInterpretation,
    budget: int = 2_000_000,
) -> Optional[dict[str, str]]:
    """Enumerate all valuations; return the first satisfying one, or None.

    Valuations are tried in ``itertools.product(model.universe, repeat=n)``
    order, pairs (i, j) with i != j in row order, each valuation up to its
    first violated pair.  A pair is checked in a bit table over universe
    indices, built once per distinct cell mask: bit b of ``table[a]`` says
    whether the mask covers the pair of elements a and b.

    Raises :class:`BudgetExceededError` when |universe| ** |vars| exceeds
    ``budget``.
    """
    if model.calculus is not net.calculus:
        raise CalculusMismatchError("model interprets a different calculus")
    n = len(net.var_names)
    universe = model.universe
    total = len(universe) ** n
    if total > budget:
        raise BudgetExceededError(
            f"{total} valuations exceed the budget of {budget}"
        )
    cover = model._cover
    tables: dict[int, list[int]] = {}
    checks = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mask = net.cells[i * n + j]
            table = tables.get(mask)
            if table is None:
                table = tables[mask] = [
                    sum(1 << b for b, v in enumerate(universe) if mask & cover.get((u, v), 0))
                    for u in universe
                ]
            checks.append((i, j, table))
    for combo in itertools.product(range(len(universe)), repeat=n):
        for i, j, table in checks:
            if not table[combo[i]] >> combo[j] & 1:
                break
        else:
            return dict(zip(net.var_names, [universe[k] for k in combo]))
    return None


def parse_model(text: str, calculus: Optional[CalculusSpec] = None) -> FiniteInterpretation:
    """Parse model-file text; the calculus is resolved like in network files."""
    raw_phi: dict[str, list[Pair]] = {}

    def interpretation(lineno: int, line: str, tokens: list[str]) -> None:
        if ":" not in line:
            raise NetworkError(f"unexpected directive {tokens[0]!r}", lineno)
        sym, _, rest = line.partition(":")
        sym = sym.strip()
        pairs: list[Pair] = []
        for chunk in rest.split():
            if not (chunk.startswith("(") and chunk.endswith(")")) or chunk.count(",") != 1:
                raise NetworkError(f"malformed pair {chunk!r}", lineno)
            a, b = chunk[1:-1].split(",")
            pairs.append((a.strip(), b.strip()))
        if sym in raw_phi:
            raise NetworkError(f"duplicate interpretation for {sym!r}", lineno)
        raw_phi[sym] = pairs

    name, calculus, universe = read_header(text, "model", calculus, interpretation)
    try:
        return FiniteInterpretation(calculus, universe, raw_phi, name=name)
    except CalculusError as exc:
        raise NetworkError(str(exc)) from None


def load_model(path: str, calculus: Optional[CalculusSpec] = None) -> FiniteInterpretation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), calculus)


def _chain_model(size: int) -> FiniteInterpretation:
    from . import registry

    elems = [str(i) for i in range(size)]
    lt = [(a, b) for i, a in enumerate(elems) for b in elems[i + 1 :]]
    return FiniteInterpretation(
        registry.builtin("pc1"),
        elems,
        {
            "<": lt,
            "=": [(a, a) for a in elems],
            ">": [(b, a) for a, b in lt],
        },
        name=f"pc1-chain{size}",
    )


def _compass_model() -> FiniteInterpretation:
    # four discrete 2D orientations, 90 degrees apart; the counterclockwise
    # angle from x to y picks the relation: 0 equal, 180 opposite,
    # (0,180) left, (180,360) right
    from . import registry

    degs = ["0", "90", "180", "270"]

    def rel(a: str, b: str) -> str:
        d = (int(b) - int(a)) % 360
        if d == 0:
            return "e"
        if d == 180:
            return "o"
        return "l" if d < 180 else "r"

    phi: dict[str, list[Pair]] = {"e": [], "o": [], "l": [], "r": []}
    for a in degs:
        for b in degs:
            phi[rel(a, b)].append((a, b))
    return FiniteInterpretation(registry.builtin("cycb"), degs, phi, name="cycb-compass4")


def _fixture_model(which: str) -> FiniteInterpretation:
    from . import registry

    if which == "appendixB1":
        phi = {"r1": [("0", "0"), ("0", "1")], "r2": [("1", "0"), ("1", "1")]}
    elif which == "appendixB2":
        phi = {
            "r1": [("0", "0")],
            "r2": [("1", "1")],
            "r3": [("0", "1")],
            "r4": [("1", "0")],
        }
    else:  # appendixB-remark: identity and diversity on two elements
        phi = {"r1": [("0", "0"), ("1", "1")], "r2": [("0", "1"), ("1", "0")]}
    return FiniteInterpretation(registry.builtin(which), ["0", "1"], phi, name=which)


BUILTIN_MODEL_NAMES = (
    "pc1-chain3",
    "pc1-chain4",
    "pc1-chain5",
    "cycb-compass4",
    "appendixB1",
    "appendixB2",
    "appendixB-remark",
)

@functools.cache
def builtin_model(name: str) -> FiniteInterpretation:
    """Bundled finite interpretations for the built-in calculi (cached)."""
    if name not in BUILTIN_MODEL_NAMES:
        raise KeyError(
            f"unknown builtin model {name!r}; available: {', '.join(BUILTIN_MODEL_NAMES)}"
        )
    if name.startswith("pc1-chain"):
        return _chain_model(int(name.removeprefix("pc1-chain")))
    if name == "cycb-compass4":
        return _compass_model()
    return _fixture_model(name)
