"""Built-in calculi and their models, the calculus spec-file grammar, and structural validation.

Every builtin calculus is defined by its domain (``_DOMAINS``): elements
named as in model files and a function giving each pair's base relation.
:func:`weak_operations` derives from one domain the tables of :func:`builtin`
(its weak converse and composition); :func:`builtin_model` takes the pairs
of each relation straight from the relation function.  The appendix
fixtures are two-element domains whose tables then take a few composition
cells that are broken on purpose (``_BROKEN_CELLS``).

Spec files follow the rules shared with network and model files, read by
:func:`qsr.network.read_clauses`: the header clauses ``calculus``,
``relations`` and ``identity`` come first, then the sections.  The
``calculus`` clause is read by :func:`qsr.network.quoted_name` and written
by :func:`qsr.network.name_line`.

    calculus "pc1"
    relations < = >
    identity =
    converse
    < (>)
    = (=)
    > (<)
    composition
    < < (<)
    < = (<)
    < > (< = >)
    ...

``identity`` with no symbols declares that the calculus has no identity
relation.  ``()`` denotes the empty set.  The composition section must list
every ordered pair of base relations exactly once (totality); so must the
converse section for every base relation.  ``serialize`` emits the canonical
form: symbols in declaration order, composition cells in row-major order.

Relation symbols are whitespace-delimited tokens; the directive keywords
(``calculus``, ``relations``, ``identity``, ``converse``, ``composition``)
and ``flags`` are reserved.  Properties are derived from the tables, so the
retired ``flags`` directive of older files is an error.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .core import CalculusError, CalculusSpec, _r7_rows, _union_rows
from .models import FiniteInterpretation, Pair
from .network import check_token, name_line, quoted_name, read_clauses, symbol_group


def _point(x: str, y: str) -> str:
    # pc1: points of a line, named by their position
    a, b = int(x), int(y)
    return "<" if a < b else "=" if a == b else ">"


def _containment(x: str, y: str) -> str:
    # rcc5: regions as non-empty sets of points, named by their points
    a, b = set(x), set(y)
    return "EQ" if a == b else "DC" if not a & b else "PP" if a < b else "PPi" if b < a else "PO"


def _direction(x: str, y: str) -> str:
    # cycb: orientations in degrees; the counterclockwise angle from x to y
    # picks the relation: 0 equal, 180 opposite, (0,180) left, (180,360) right
    d = (int(y) - int(x)) % 360
    return "e" if d == 0 else "o" if d == 180 else "l" if d < 180 else "r"


def _first(x: str, y: str) -> str:
    # appendixB1: the relation of a pair is set by its first element
    return "r1" if x == "0" else "r2"


def _pair(x: str, y: str) -> str:
    # appendixB2: one relation per pair of the two elements
    return {"00": "r1", "11": "r2", "01": "r3", "10": "r4"}[x + y]


def _diversity(x: str, y: str) -> str:
    # appendixB-remark: identity and diversity
    return "r1" if x == y else "r2"


_RCC5_NOTE = (
    "composition cell EQ.PP is sometimes printed as (PO); that value breaks the "
    "identity law id.r = r, and the builtin's table, derived over the non-empty "
    "subsets of 4 points, has (PP)"
)

# the builtins: calculus -> (symbols, identity, relation function, the model
# whose weak operations are the calculus's tables, the literature's facts:
# flags and notes set here, not derived)
_DOMAINS = {
    "pc1": (("<", "=", ">"), "=", _point, "pc1-chain3", {"acl_decides_atomic": True}),
    "rcc5": (("EQ", "DC", "PO", "PP", "PPi"), "EQ", _containment, "rcc5-subsets4",
             {"notes": (_RCC5_NOTE,), "acl_decides_atomic": True}),
    "cycb": (("e", "o", "l", "r"), "e", _direction, "cycb-compass8", {}),
    "appendixB1": (("r1", "r2"), "r1", _first, "appendixB1", {}),
    "appendixB2": (("r1", "r2", "r3", "r4"), "r1", _pair, "appendixB2", {}),
    "appendixB-remark": (("r1", "r2"), "r1", _diversity, "appendixB-remark", {}),
}

BUILTIN_NAMES = tuple(_DOMAINS)

# the models of the builtins: name -> (calculus, elements); each appendix
# fixture has one, on the elements 0 and 1, named after it
_UNIVERSES = {
    **{f"pc1-chain{n}": ("pc1", [str(i) for i in range(n)]) for n in (3, 4, 5)},
    "rcc5-subsets4": ("rcc5", ["".join(c) for k in range(1, 5)
                               for c in itertools.combinations("0123", k)]),
    "cycb-compass4": ("cycb", [str(d) for d in range(0, 360, 90)]),
    "cycb-compass8": ("cycb", [str(d) for d in range(0, 360, 45)]),
    **{name: (name, ["0", "1"]) for name in ("appendixB1", "appendixB2", "appendixB-remark")},
}

BUILTIN_MODEL_NAMES = tuple(_UNIVERSES)

# the composition cells that the appendix fixtures break on purpose, in place
# of the weak cells over their models; every other cell is weak
_BROKEN_CELLS = {
    # The weak converse is not involutive: both converses are the universal
    # relation, so conv(conv(r)) = 1 strictly above r.  All composition
    # cells are the universal relation; anything tighter re-introduces
    # violations beyond the intended identity-law and involution failures.
    "appendixB1": {(a, b): ("r1", "r2") for a in ("r1", "r2") for b in ("r1", "r2")},
    # Two cells over-approximate the domain result: r3.r4, where it is
    # {(0,0)}, and r4.r2, where it is empty.  These coarse cells break
    # associativity, converse-composition distributivity, the Tarski/De
    # Morgan axiom and the Peircean law, while the empty identity
    # row/column cells break the identity laws upward.
    "appendixB2": {("r3", "r4"): ("r1", "r4"), ("r4", "r2"): ("r4",)},
    # r2.r2 is a strict over-approximation of the domain result phi(r1), so
    # the composition is merely abstract there, yet the symbolic algebra
    # satisfies the whole relation-algebra axiom battery.
    "appendixB-remark": {("r2", "r2"): ("r1", "r2")},
}


def weak_operations(elements: list[str], rel: Callable[[str, str], str],
                    symbols: tuple[str, ...]) -> tuple[dict, dict, dict]:
    """The relations that ``rel(x, y) -> symbol`` induces on ``elements``: the pairs
    of each symbol, and the weak converse and composition, whose cells hold every
    base relation that meets the set-theoretic result.  ``rel`` is called once per
    ordered pair of elements."""
    rels = [[rel(x, y) for y in elements] for x in elements]
    phi: dict[str, list[Pair]] = {s: [] for s in symbols}
    converse: dict[str, set[str]] = {s: set() for s in symbols}
    # a -> every (rel(y, z), rel(x, z)) over x, y, z with rel(x, y) = a
    met: dict[str, set[tuple[str, str]]] = {s: set() for s in symbols}
    for x, row in enumerate(rels):
        for y, a in enumerate(row):
            phi[a].append((elements[x], elements[y]))
            converse[a].add(rels[y][x])
            met[a].update(zip(rels[y], row))
    composition: dict[tuple[str, str], set[str]] = {(a, b): set() for a in symbols for b in symbols}
    for a, pairs in met.items():
        for b, c in pairs:
            composition[a, b].add(c)
    return phi, converse, composition


@functools.cache
def builtin(name: str) -> CalculusSpec:
    """The built-in calculus ``name``: the weak operations over its defining model,
    but for the cells it breaks on purpose.

    Instances are cached: repeated calls return the same object, whose
    derived ``flags`` are then computed only once.
    """
    if name not in _DOMAINS:
        raise KeyError(
            f"unknown builtin calculus {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    symbols, identity, rel, model, facts = _DOMAINS[name]
    _, converse, composition = weak_operations(_UNIVERSES[model][1], rel, symbols)
    composition.update(_BROKEN_CELLS.get(name, {}))
    return CalculusSpec(name, symbols, [identity], converse, composition, **facts)


@functools.cache
def builtin_model(name: str) -> FiniteInterpretation:
    """Bundled finite interpretations for the built-in calculi (cached)."""
    if name not in _UNIVERSES:
        raise KeyError(
            f"unknown builtin model {name!r}; available: {', '.join(BUILTIN_MODEL_NAMES)}"
        )
    calculus, elements = _UNIVERSES[name]
    symbols, _, rel, _, _ = _DOMAINS[calculus]
    phi: dict[str, list[Pair]] = {s: [] for s in symbols}
    for x, y in itertools.product(elements, repeat=2):
        phi[rel(x, y)].append((x, y))
    return FiniteInterpretation(builtin(calculus), elements, phi, name=name)


_RESERVED = frozenset(
    {"calculus", "relations", "identity", "flags", "converse", "composition"}
)


class SpecParseError(Exception):
    """Syntax or semantic error in a calculus spec file."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_spec(source: str) -> CalculusSpec:
    """Parse a calculus spec file into a validated :class:`CalculusSpec`."""
    name = ""
    symbols: dict[str, None] = {}  # in declaration order
    identity: list[str] = []
    converse: dict[str, tuple[str, ...]] = {}
    composition: dict[tuple[str, str], tuple[str, ...]] = {}
    section: Optional[str] = None

    def known(sym: str, lineno: int) -> str:
        if sym not in symbols:
            raise SpecParseError(f"unknown symbol {sym!r}", lineno)
        return sym

    def calculus(lineno: int, line: str, tokens: list[str]) -> None:
        nonlocal name
        name = quoted_name(line, lineno, SpecParseError)

    def relations(lineno: int, line: str, tokens: list[str]) -> None:
        if len(tokens) < 2:
            raise SpecParseError("relations clause needs at least one symbol", lineno)
        for s in tokens[1:]:
            if s in _RESERVED:
                raise SpecParseError(f"symbol {s!r} collides with a directive keyword", lineno)
            if s in symbols:
                raise SpecParseError(f"duplicate symbol {s!r}", lineno)
            symbols[s] = None

    def identity_clause(lineno: int, line: str, tokens: list[str]) -> None:
        if not symbols:
            raise SpecParseError("identity clause before relations clause", lineno)
        identity.extend(known(s, lineno) for s in tokens[1:])

    def body(lineno: int, line: str, tokens: list[str]) -> None:
        nonlocal section
        head = tokens[0]
        if head in ("converse", "composition"):
            if len(tokens) != 1:
                raise SpecParseError(f"{head} section header takes no arguments", lineno)
            section = head
        elif section is None or head in _RESERVED:
            # a leftover ``flags`` line, or a line outside the sections
            raise SpecParseError(f"unexpected directive {head!r}", lineno)
        elif section == "converse":
            sym = known(head, lineno)
            if sym in converse:
                raise SpecParseError(f"duplicate converse entry for {sym!r}", lineno)
            group = symbol_group(tokens[1:], lineno, SpecParseError, empty_ok=False)
            converse[sym] = tuple(known(s, lineno) for s in group)
        else:
            if len(tokens) < 3:
                raise SpecParseError("expected: <sym> <sym> (<sym>*)", lineno)
            a, b = known(head, lineno), known(tokens[1], lineno)
            if (a, b) in composition:
                raise SpecParseError(f"duplicate composition cell ({a!r}, {b!r})", lineno)
            group = symbol_group(tokens[2:], lineno, SpecParseError)
            composition[(a, b)] = tuple(known(s, lineno) for s in group)

    end = read_clauses(source, {"calculus": calculus, "relations": relations,
                                "identity": identity_clause},
                       ("calculus", "relations"), body, SpecParseError)
    try:
        # an `identity` clause with zero symbols, like no clause at all,
        # declares that the calculus has no identity relation
        return CalculusSpec(name, list(symbols), identity or None, converse, composition)
    except CalculusError as exc:  # a table that is not total: about the whole file
        raise SpecParseError(str(exc), end) from None


def serialize(spec: CalculusSpec) -> str:
    """Canonical spec-file text for ``spec`` (symbols and cells in declaration order).

    A symbol that ``parse_spec`` would not read back as itself raises
    ``CalculusError``, as do an unwritable calculus name and an empty
    converse entry.
    """
    lines = [name_line("calculus", spec.name, CalculusError)]
    for s in spec.symbols:
        check_token("relation symbol", s, CalculusError)
        if s in _RESERVED:
            raise CalculusError(f"relation symbol {s!r} collides with a directive keyword")
    lines.append("relations " + " ".join(spec.symbols))
    if spec.identity_mask is not None:
        lines.append("identity " + " ".join(spec.symbols_of(spec.identity_mask)))
    else:
        lines.append("identity")
    lines.append("converse")
    for s, conv in zip(spec.symbols, spec.converse_row):
        if not conv:
            raise CalculusError(f"the converse of {s!r} is empty, which a spec file cannot state")
        lines.append(f"{s} {spec.format_mask(conv)}")
    lines.append("composition")
    for i, a in enumerate(spec.symbols):
        for j, b in enumerate(spec.symbols):
            lines.append(f"{a} {b} {spec.format_mask(spec.composition_row[i][j])}")
    return "\n".join(lines) + "\n"


def load_spec(path: str) -> CalculusSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


@dataclass(frozen=True)
class Finding:
    """One structural observation about a calculus (report-only, never fatal)."""

    kind: str
    message: str


def validate(spec: CalculusSpec) -> list[Finding]:
    """Structural findings for a calculus: identity-law consistency, each s
    that conv(conv(s)) leaves out, empty cells, plus any curated notes.

    They read the audit's R6l, R6 and R7 rows.  A conv(conv(s)) strictly
    above s, as appendixB1's U, fails R7 in the audit but is no finding.
    All findings are informational; a calculus may legitimately fail the
    identity law or converse involution.
    """
    findings: list[Finding] = []

    if spec.identity_mask is not None:
        # id.{s} and {s}.id over the bases s, the R6l and R6 rows: no composition cache
        idm, rows = spec.identity_mask, spec.composition_row
        left, right = _union_rows(rows, idm), _union_rows(list(zip(*rows)), idm)
        bad = []
        for i, s in enumerate(spec.symbols):
            if left[i] != 1 << i:
                bad.append(f"id.{s} = {spec.format_mask(left[i])} != {s}")
            if right[i] != 1 << i:
                bad.append(f"{s}.id = {spec.format_mask(right[i])} != {s}")
        if bad:
            findings.append(Finding("identity-law", "identity law fails: " + "; ".join(bad)))

    ((back_row, base_row),) = _r7_rows(spec)
    bad_conv = [f"conv(conv({s})) = {spec.format_mask(back)} does not contain {s}"
                for s, back, base in zip(spec.symbols, back_row, base_row) if not back & base]
    if bad_conv:
        findings.append(Finding("converse-involution", "; ".join(bad_conv)))

    empty = [
        f"{a}.{b}"
        for i, a in enumerate(spec.symbols)
        for j, b in enumerate(spec.symbols)
        if spec.composition_row[i][j] == 0
    ]
    if empty:
        findings.append(
            Finding("empty-cell", "empty composition cells: " + ", ".join(empty))
        )

    for note in spec.notes:
        findings.append(Finding("note", note))
    return findings
