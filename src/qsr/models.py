"""Finite interpretations of a calculus: explicit universes and pair sets.

A finite interpretation grounds the symbols of a calculus in a finite
universe, mapping each base relation to a set of ordered element pairs.
That makes the semantic side of the calculus computable by enumeration:
JEPD and partition-scheme conditions, domain-level converse/composition,
the strength of the symbolic operations (strong / weak / abstract-only /
unsound per table cell), and brute-force solving of constraint networks.

Model files follow the rules shared with network and spec files, read by
:func:`qsr.network.read_clauses`: the header clauses come first, then one
interpretation line per base relation, each checked at its line:

    model "chain3"
    calculus pc1
    universe 0 1 2
    <: (0,1) (0,2) (1,2)
    =: (0,0) (1,1) (2,2)
    >: (1,0) (2,0) (2,1)

Symbols without pairs use an empty pair list; every base relation of the
calculus must have a line (relations are non-empty in a well-formed model,
but probing broken tables is allowed).

The builtin calculi and their models are defined together, by their
domains, in :mod:`qsr.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .core import CalculusError, CalculusMismatchError, CalculusSpec
from .network import (ConstraintNetwork, NetworkError, calculus_clause, check_token, name_line,
                      quoted_name, read_clauses)

Pair = tuple[str, str]
# a valuation assigns one universe element to every variable
Valuation = dict[str, str]


class BudgetExceededError(Exception):
    """Brute-force enumeration would exceed the configured budget."""


def _universe(elements: Iterable[str]) -> tuple[str, ...]:
    universe = tuple(elements)
    if len(set(universe)) != len(universe):
        raise CalculusError("universe elements must be distinct")
    if not universe:
        raise CalculusError("universe must be non-empty")
    for u in universe:
        check_token("universe element", u, CalculusError, "#,()")
    return universe


def _pairs(pairs: Iterable[Pair], elems: set[str]) -> list[Pair]:
    out = [(str(a), str(b)) for a, b in pairs]
    for a, b in out:
        if a not in elems or b not in elems:
            raise CalculusError(f"pair ({a},{b}) uses elements outside the universe")
    return out


class FiniteInterpretation:
    """A finite universe plus an interpretation map from symbols to pair sets."""

    __slots__ = ("name", "calculus", "universe", "phi", "_cover", "_lines", "_pair_lines")

    def __init__(
        self,
        calculus: CalculusSpec,
        universe: Iterable[str],
        phi: dict[str, Iterable[Pair]],
        name: str = "",
    ) -> None:
        self.name = name
        self.calculus = calculus
        self.universe = _universe(universe)
        elems = set(self.universe)
        interp: dict[str, frozenset[Pair]] = {}
        for sym in calculus.symbols:
            if sym not in phi:
                raise CalculusError(f"interpretation missing for symbol {sym!r}")
            interp[sym] = frozenset(_pairs(phi[sym], elems))
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
        # per base relation, bit lines over universe indices: bit b of
        # row[a] and bit a of col[b] both say (u_a, u_b) is in phi(r)
        index = {u: a for a, u in enumerate(self.universe)}
        self._lines = []
        for sym in calculus.symbols:
            row = [0] * len(self.universe)
            col = [0] * len(self.universe)
            for u, v in interp[sym]:
                row[index[u]] |= 1 << index[v]
                col[index[v]] |= 1 << index[u]
            self._lines.append((row, col))
        # (C[i][k], C[k][i]) of base relations -> brute force's allowed lines
        # for that pair, or None where it allows every value: filled on first
        # use, at most |Rel|^2 entries
        self._pair_lines: dict[tuple[int, int], Optional[list[int]]] = {}

    def _mask_lines(self, mask: int, side: int) -> list[int]:
        """The row (side 0) or column (side 1) lines of ``mask``: the OR of its
        base relations' lines."""
        out = [0] * len(self.universe)
        while mask:
            low = mask & -mask
            mask ^= low
            out = list(map(int.__or__, out, self._lines[low.bit_length() - 1][side]))
        return out

    def phi_mask(self, mask: int) -> frozenset[Pair]:
        """Interpretation of a composite relation given as a bitmask."""
        out: set[Pair] = set()
        for sym in self.calculus.symbols_of(mask):
            out |= self.phi[sym]
        return frozenset(out)

    def __repr__(self) -> str:
        return (
            f"FiniteInterpretation({self.name or '<anon>'}, {self.calculus.name}, "
            f"|universe|={len(self.universe)})"
        )

    def to_text(self) -> str:
        """Model-file text; a symbol that ``parse_model`` would not read back raises ``NetworkError``."""
        lines = [name_line("model", self.name or "model"),
                 f"calculus {check_token('calculus name', self.calculus.name)}",
                 "universe " + " ".join(self.universe)]
        for sym in self.calculus.symbols:
            check_token("relation symbol", sym, forbidden="#:")
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

    images = {model.phi[s] for s in model.calculus.symbols}
    witnesses = [s for s in model.calculus.symbols if domain_converse(model, s) not in images]

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


def _line_pairs(model: FiniteInterpretation, rows: list[int]) -> frozenset[Pair]:
    """The pair set whose row lines are ``rows``."""
    u = model.universe
    return frozenset((u[a], v) for a, row in enumerate(rows) for b, v in enumerate(u) if row >> b & 1)


def _compose_lines(model: FiniteInterpretation, r: int, s: int) -> list[int]:
    """Row lines of phi(r) ; phi(s): row a ORs the rows of s named by row a of r."""
    rows = model._lines[s][0]
    out = []
    for line in model._lines[r][0]:
        acc = 0
        while line:
            low = line & -line
            line ^= low
            acc |= rows[low.bit_length() - 1]
        out.append(acc)
    return out


def domain_compose(model: FiniteInterpretation, r: str, s: str) -> frozenset[Pair]:
    """Set-theoretic composition of two base relations over the universe."""
    if r not in model.phi or s not in model.phi:
        raise CalculusError(f"symbols {r!r}, {s!r} must be interpreted by the model")
    index = model.calculus.symbol_index
    return _line_pairs(model, _compose_lines(model, index(r), index(s)))


def domain_converse(model: FiniteInterpretation, r: str) -> frozenset[Pair]:
    if r not in model.phi:
        raise CalculusError(f"symbol {r!r} must be interpreted by the model")
    # the rows of the converse are the columns of r
    return _line_pairs(model, model._lines[model.calculus.symbol_index(r)][1])


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

    # every relation and domain result as its row lines packed into one
    # integer, row a at bit a * |universe|: phi(T) >= D iff D & ~T is 0
    width = len(model.universe)

    def packed(rows: list[int]) -> int:
        return sum(row << a * width for a, row in enumerate(rows))

    base = [packed(row) for row, _ in model._lines]
    interps: dict[int, int] = {}

    def grade(table_mask: int, domain_rows: list[int]) -> CellStrength:
        domain = packed(domain_rows)
        if table_mask not in interps:
            # a sum is the union here: JEPD makes the relations disjoint
            interps[table_mask] = sum(p for r, p in enumerate(base) if table_mask >> r & 1)
        interp = interps[table_mask]
        if domain & ~interp:
            return CellStrength.UNSOUND
        if interp == domain:
            return CellStrength.STRONG
        # the weak hull: the relations that meet D
        if table_mask == sum(1 << r for r, p in enumerate(base) if p & domain):
            return CellStrength.WEAK
        return CellStrength.ABSTRACT_ONLY

    cells: dict[tuple, CellStrength] = {}
    if which == "converse":
        for idx, sym in enumerate(spec.symbols):
            cells[(sym,)] = grade(spec.converse_row[idx], model._lines[idx][1])
    else:
        for i, a in enumerate(spec.symbols):
            for j, b in enumerate(spec.symbols):
                cells[(a, b)] = grade(spec.composition_row[i][j], _compose_lines(model, i, j))
    return OperationClassification(which, cells)


def satisfies(net: ConstraintNetwork, valuation: Valuation, model: FiniteInterpretation) -> bool:
    """Does ``valuation`` (variable -> universe element) solve ``net`` in ``model``?

    True iff for every ordered pair of variables the assigned element pair
    lies in the interpretation of the pair's constraint.
    """
    if model.calculus is not net.calculus:
        raise CalculusMismatchError("model interprets a different calculus")
    missing = [v for v in net.var_names if v not in valuation]
    if missing:
        raise NetworkError(f"valuation is not total, missing: {', '.join(missing)}")
    n = len(net.var_names)
    values = [valuation[v] for v in net.var_names]
    cover = model._cover
    return all(net.cells[i * n + j] & cover.get((values[i], values[j]), 0)
               for i in range(n) for j in range(n) if i != j)


def brute_force_solve(
    net: ConstraintNetwork,
    model: FiniteInterpretation,
    budget: int = 2_000_000,
) -> Optional[Valuation]:
    """Search the valuations by backtracking; return the first satisfying one, or None.

    Variables 0..n-1 are assigned in order, each trying the universe in
    index order, so the answer is the first solution in
    ``itertools.product(model.universe, repeat=n)`` order.  Variable k
    tries only values that satisfy both C[i][k] and C[k][i] against every
    earlier variable i (diagonal cells are not checked), and the search
    backs up when none is left.  The checks read bit lines over universe
    indices: a pair of two base relations from the model's pair table, any
    other pair from lines this call ORs from the model's own.

    Raises :class:`BudgetExceededError` when |universe| ** |vars| exceeds
    ``budget``: the budget bounds the space searched, not the values tried.
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
    full = (1 << len(universe)) - 1

    def allowed(a: int, b: int) -> Optional[list[int]]:
        # bit v of allowed[v_i] is set when v_k = v satisfies a = C[i][k] and
        # b = C[k][i]; None when every value does
        both = list(map(int.__and__, model._mask_lines(a, 0), model._mask_lines(b, 1)))
        return None if both.count(full) == len(both) else both

    # checks[k]: (i, allowed) for earlier i, pairs allowing all left out
    table, composite = model._pair_lines, {}
    cells = net.cells
    checks: list[list[tuple[int, list[int]]]] = []
    for k in range(n):
        checks.append([])
        for i in range(k):
            key = a, b = cells[i * n + k], cells[k * n + i]
            store = table if a and b and not (a & (a - 1) or b & (b - 1)) else composite
            lines = store[key] if key in store else store.setdefault(key, allowed(a, b))
            if lines is not None:
                checks[k].append((i, lines))
    values = [0] * n
    untried = [full] * n
    k = 0
    while k >= 0:
        left = untried[k]
        if not left:
            k -= 1
            continue
        low = left & -left
        untried[k] = left ^ low
        values[k] = low.bit_length() - 1
        k += 1
        if k == n:
            return dict(zip(net.var_names, [universe[v] for v in values]))
        left = full
        for i, allowed in checks[k]:
            left &= allowed[values[i]]
        untried[k] = left
    return None


def parse_model(text: str, calculus: CalculusSpec) -> FiniteInterpretation:
    """Parse model-file text over ``calculus``, whose name the file's ``calculus``
    line must give, as in network files; each interpretation line is checked
    against the universe at its line."""
    name = ""
    universe: tuple[str, ...]
    elems: set[str]
    raw_phi: dict[str, list[Pair]] = {}

    def model(lineno: int, line: str, tokens: list[str]) -> None:
        nonlocal name
        name = quoted_name(line, lineno)

    def elements(lineno: int, line: str, tokens: list[str]) -> None:
        nonlocal universe, elems
        if len(tokens) < 2:
            raise NetworkError("universe needs at least one element", lineno)
        universe = _universe(tokens[1:])
        elems = set(universe)

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
        # an unknown symbol or element raises a CalculusError, reported at this line
        calculus.symbol_index(sym)
        raw_phi[sym] = _pairs(pairs, elems)

    read_clauses(text, {"model": model, "calculus": calculus_clause("model", calculus),
                        "universe": elements}, ("calculus", "universe"), interpretation, NetworkError)
    try:
        return FiniteInterpretation(calculus, universe, raw_phi, name=name)
    except CalculusError as exc:  # about the whole file: no line
        raise NetworkError(str(exc)) from None


def load_model(path: str, calculus: CalculusSpec) -> FiniteInterpretation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), calculus)
