"""Built-in calculi, the calculus spec-file grammar, and structural validation.

Every builtin is derived, not typed in: its converse and composition are the
weak operations over a finite domain (:func:`qsr.models.derived_spec`).  The
appendix fixtures are derived over two-element domains, and then a few of
their composition cells are broken on purpose.

Spec files follow the rules shared with network and model files: lines
come from :func:`qsr.network.read_lines`, the ``calculus`` clause is read
by :func:`qsr.network.quoted_name` and written by
:func:`qsr.network.name_line`.

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

from dataclasses import dataclass
from typing import Optional

from .core import CalculusError, CalculusSpec, _union_of
from .models import derived_spec
from .network import check_token, name_line, quoted_name, read_lines

BUILTIN_NAMES = ("pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark")


@dataclass(frozen=True)
class CalculusSource:
    """Where a calculus came from: the builtin registry or a spec file."""

    origin: str  # "builtin" or "file"
    path: Optional[str] = None
    raw: Optional[str] = None


_RCC5_NOTE = (
    "composition cell EQ.PP is sometimes printed as (PO); that value breaks the "
    "identity law id.r = r, and the builtin's table, derived over the non-empty "
    "subsets of 4 points, has (PP)"
)

# acl_decides_atomic of pc1 and rcc5 and rcc5's note are literature facts, set here, not derived
_FACTS = {
    "pc1": {"acl_decides_atomic": True},
    "rcc5": {"notes": (_RCC5_NOTE,), "acl_decides_atomic": True},
}

_CACHE: dict[str, CalculusSpec] = {}


def builtin(name: str) -> CalculusSpec:
    """Return the built-in calculus registered under ``name``.

    Instances are cached: repeated calls return the same object, whose
    derived ``flags`` are then computed only once.
    """
    if name not in BUILTIN_NAMES:
        raise KeyError(
            f"unknown builtin calculus {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    spec = _CACHE.get(name)
    if spec is None:
        spec = derived_spec(name, **_FACTS.get(name, {}))
        spec.source = CalculusSource(origin="builtin")
        _CACHE[name] = spec
    return spec


_RESERVED = frozenset(
    {"calculus", "relations", "identity", "flags", "converse", "composition"}
)


class SpecParseError(Exception):
    """Syntax or semantic error in a calculus spec file."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _parse_group(tokens: list[str], lineno: int, allow_empty: bool) -> list[str]:
    # a parenthesised symbol group: ( sym ... ) with the parens possibly
    # glued to the first/last symbol
    text = " ".join(tokens)
    if not text.startswith("("):
        raise SpecParseError("expected a '(' symbol group", lineno)
    if not text.endswith(")"):
        raise SpecParseError("unterminated symbol group, expected ')'", lineno)
    inner = text[1:-1].split()
    if not inner and not allow_empty:
        raise SpecParseError("symbol group may not be empty here", lineno)
    return inner


def parse_spec(source: str) -> CalculusSpec:
    """Parse a calculus spec file into a validated :class:`CalculusSpec`."""
    name: Optional[str] = None
    symbols: list[str] = []
    symbol_set: set[str] = set()  # membership tests; ``symbols`` keeps the order
    identity: Optional[list[str]] = None
    have_identity_clause = False
    converse: dict[str, tuple[str, ...]] = {}
    composition: dict[tuple[str, str], tuple[str, ...]] = {}
    section: Optional[str] = None

    def known(sym: str, lineno: int) -> str:
        if sym not in symbol_set:
            raise SpecParseError(f"unknown symbol {sym!r}", lineno)
        return sym

    for lineno, line in read_lines(source):
        tokens = line.split()
        head = tokens[0]

        if head == "calculus":
            if name is not None:
                raise SpecParseError("duplicate calculus clause", lineno)
            name = quoted_name(line, lineno, SpecParseError)
        elif head == "relations":
            if symbols:
                raise SpecParseError("duplicate relations clause", lineno)
            if len(tokens) < 2:
                raise SpecParseError("relations clause needs at least one symbol", lineno)
            for s in tokens[1:]:
                if s in _RESERVED:
                    raise SpecParseError(
                        f"symbol {s!r} collides with a directive keyword", lineno
                    )
                if s in symbol_set:
                    raise SpecParseError(f"duplicate symbol {s!r}", lineno)
                symbols.append(s)
                symbol_set.add(s)
        elif head == "identity":
            if not symbols:
                raise SpecParseError("identity clause before relations clause", lineno)
            if have_identity_clause:
                raise SpecParseError("duplicate identity clause", lineno)
            have_identity_clause = True
            identity = [known(s, lineno) for s in tokens[1:]]
        elif head == "converse":
            if len(tokens) != 1:
                raise SpecParseError("converse section header takes no arguments", lineno)
            section = "converse"
        elif head == "composition":
            if len(tokens) != 1:
                raise SpecParseError("composition section header takes no arguments", lineno)
            section = "composition"
        elif head in _RESERVED:
            # a leftover ``flags`` line; the other keywords matched above
            raise SpecParseError(f"unexpected directive {head!r}", lineno)
        elif section == "converse":
            sym = known(head, lineno)
            if sym in converse:
                raise SpecParseError(f"duplicate converse entry for {sym!r}", lineno)
            group = _parse_group(tokens[1:], lineno, allow_empty=False)
            converse[sym] = tuple(known(s, lineno) for s in group)
        elif section == "composition":
            if len(tokens) < 3:
                raise SpecParseError("expected: <sym> <sym> (<sym>*)", lineno)
            a, b = known(head, lineno), known(tokens[1], lineno)
            if (a, b) in composition:
                raise SpecParseError(f"duplicate composition cell ({a!r}, {b!r})", lineno)
            group = _parse_group(tokens[2:], lineno, allow_empty=True)
            composition[(a, b)] = tuple(known(s, lineno) for s in group)
        else:
            raise SpecParseError(f"unexpected directive {head!r}", lineno)

    end = max(1, len(source.splitlines()))  # the line of errors about the whole file
    if name is None:
        raise SpecParseError("missing calculus clause", end)
    if not symbols:
        raise SpecParseError("missing relations clause", end)
    missing_conv = [s for s in symbols if s not in converse]
    if missing_conv:
        raise SpecParseError(
            f"converse table not total: missing {', '.join(map(repr, missing_conv))}", end
        )
    missing_comp = [(a, b) for a in symbols for b in symbols if (a, b) not in composition]
    if missing_comp:
        a, b = missing_comp[0]
        raise SpecParseError(
            f"composition table not total: missing cell ({a!r}, {b!r}) "
            f"and {len(missing_comp) - 1} more",
            end,
        )

    spec = CalculusSpec(
        name=name,
        symbols=symbols,
        # an `identity` clause with zero symbols, like no clause at all,
        # declares that the calculus has no identity relation
        identity=identity if identity else None,
        converse=converse,
        composition=composition,
    )
    spec.source = CalculusSource(origin="file", raw=source)
    return spec


def serialize(spec: CalculusSpec) -> str:
    """Canonical spec-file text for ``spec`` (symbols and cells in declaration order).

    A symbol that ``parse_spec`` would not read back as itself raises
    ``CalculusError``, as an unwritable calculus name does.
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
    for i, s in enumerate(spec.symbols):
        lines.append(f"{s} {spec.format_mask(spec.converse_row[i])}")
    lines.append("composition")
    for i, a in enumerate(spec.symbols):
        for j, b in enumerate(spec.symbols):
            lines.append(f"{a} {b} {spec.format_mask(spec.composition_row[i][j])}")
    return "\n".join(lines) + "\n"


def load_spec(path: str) -> CalculusSpec:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    spec = parse_spec(text)
    spec.source = CalculusSource(origin="file", path=path, raw=text)
    return spec


@dataclass(frozen=True)
class Finding:
    """One structural observation about a calculus (report-only, never fatal)."""

    kind: str
    message: str


def validate(spec: CalculusSpec) -> list[Finding]:
    """Structural findings for a calculus: identity-law consistency, converse
    involution, empty cells, plus any curated notes the spec carries.

    All findings are informational; a calculus may legitimately fail the
    identity law or converse involution.
    """
    findings: list[Finding] = []

    if spec.identity_mask is not None:
        # id.{s} and {s}.id as unions of table cells: no composition cache
        idm, rows = spec.identity_mask, spec.composition_row
        bad = []
        for i, s in enumerate(spec.symbols):
            m = 1 << i
            left = _union_of([row[i] for row in rows], idm)
            right = _union_of(rows[i], idm)
            if left != m:
                bad.append(f"id.{s} = {spec.format_mask(left)} != {s}")
            if right != m:
                bad.append(f"{s}.id = {spec.format_mask(right)} != {s}")
        if bad:
            findings.append(Finding("identity-law", "identity law fails: " + "; ".join(bad)))

    bad_conv = []
    for i, s in enumerate(spec.symbols):
        back = spec.converse_mask(spec.converse_row[i])
        if back & (1 << i) == 0:
            bad_conv.append(f"conv(conv({s})) = {spec.format_mask(back)} does not contain {s}")
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
