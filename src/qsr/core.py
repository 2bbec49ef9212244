"""Composite relations and the symbolic operations of a binary qualitative calculus.

A calculus is given by a finite set of base relation symbols together with a
converse table (one entry per symbol, each entry itself a set of symbols) and
a dense composition table (one set-valued cell per ordered pair of symbols).
Composite relations are subsets of the base symbols and are represented as
bit vectors: bit ``i`` stands for the ``i``-th symbol in declaration order.
Converse and composition extend from symbols to composite relations by union:

    conv(R) = union of conv(r) for r in R
    R . S   = union of (r . s) for r in R, s in S

Widths are dynamic (calculi range from a handful to well over a thousand base
relations); masks are plain Python integers.  The composition table is stored
dense, |Rel|**2 cells, which stays below ~4M cells for |Rel| <= 2048.  For
|Rel| <= 8 the extensions to composite arguments are precomputed (2**|Rel|
entries), making closure engines cheap table lookups; a transposed copy of
that table, built on first use, holds the composition columns.  For
8 < |Rel| <= 16 the composition rows that closure reads are built from two
byte-indexed tables of at most 256 rows each, filled on demand; they never
grow past that, and closure asks only for the row of one byte at a time.
``compose_masks`` on a calculus with more than 8 relations keeps a memo of
the pairs it was asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Optional

# Precompute the full composite tables only while they stay small:
# converse needs 2**n ints, composition 4**n.
_FULL_CONV_LIMIT = 14
_FULL_COMP_LIMIT = 8
# compose_row reads two byte chunks of the right argument up to this width
_CHUNK_COMP_LIMIT = 16


class CalculusError(Exception):
    """Malformed calculus data or misuse of calculus operations."""


class CalculusMismatchError(CalculusError):
    """Operation over relation sets owned by different calculi."""


class UnknownSymbolError(CalculusError):
    """A relation symbol that the calculus does not declare."""


@dataclass(frozen=True)
class CalculusFlags:
    """Read-only properties of a calculus that the reasoning engines act on.

    ``ra7_holds``, ``ra9_holds`` and ``universal_absorbs`` (U.{s} == U ==
    {s}.U for every base relation s) are derived from the tables on the first
    read of ``CalculusSpec.flags``; ``acl_decides_atomic`` (closure decides
    atomic networks) is fixed at construction, and ``decide`` may override it.
    """

    ra7_holds: bool
    ra9_holds: bool
    acl_decides_atomic: bool
    universal_absorbs: bool


class CalculusSpec:
    """A binary qualitative calculus: symbols, identity, converse and composition tables.

    Instances are immutable after construction and may be shared freely
    across threads or workers.  ``flags`` is derived data, computed from the
    tables on first read and cached.
    """

    __slots__ = (
        "name",
        "symbols",
        "identity_mask",
        "converse_row",
        "composition_row",
        "notes",
        "source",
        "universal",
        "dense_rows",
        "chunked_rows",
        "_acl_decides_atomic",
        "_flags",
        "_index",
        "_conv_full",
        "_comp_full",
        "_comp_cols",
        "_comp_chunks",
        "_comp_cache",
    )

    def __init__(
        self,
        name: str,
        symbols: Iterable[str],
        identity: Optional[Iterable[str]],
        converse: dict[str, Iterable[str]],
        composition: dict[tuple[str, str], Iterable[str]],
        notes: Iterable[str] = (),
        acl_decides_atomic: bool = False,
    ) -> None:
        self.name = name
        self.symbols: tuple[str, ...] = tuple(symbols)
        if not self.symbols:
            raise CalculusError("a calculus needs at least one base relation")
        if len(set(self.symbols)) != len(self.symbols):
            raise CalculusError("base relation symbols must be pairwise distinct")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        n = len(self.symbols)
        self.universal = (1 << n) - 1
        # how compose_row rows are read, fixed by the width (see compose_row)
        self.dense_rows = n <= _FULL_COMP_LIMIT
        self.chunked_rows = _FULL_COMP_LIMIT < n <= _CHUNK_COMP_LIMIT

        self.identity_mask: Optional[int]
        if identity is None:
            self.identity_mask = None
        else:
            self.identity_mask = self.mask_of(identity)

        conv = []
        for s in self.symbols:
            if s not in converse:
                raise CalculusError(f"converse table is not total: missing entry for {s!r}")
            conv.append(self.mask_of(converse[s]))
        self.converse_row: tuple[int, ...] = tuple(conv)

        rows = []
        for a in self.symbols:
            row = []
            for b in self.symbols:
                if (a, b) not in composition:
                    raise CalculusError(
                        f"composition table is not total: missing cell ({a!r}, {b!r})"
                    )
                row.append(self.mask_of(composition[(a, b)]))
            rows.append(tuple(row))
        self.composition_row: tuple[tuple[int, ...], ...] = tuple(rows)

        self._acl_decides_atomic = acl_decides_atomic
        self._flags: Optional[CalculusFlags] = None
        self.notes: tuple[str, ...] = tuple(notes)
        self.source = None  # provenance record, filled in by the registry

        self._conv_full: Optional[list[int]] = None
        self._comp_full: Optional[list[list[int]]] = None
        self._comp_cols: Optional[list[list[int]]] = None
        self._comp_chunks: Optional[tuple[list, list, list[list[int]]]] = None
        self._comp_cache: dict[tuple[int, int], int] = {}

    @property
    def flags(self) -> CalculusFlags:
        flags = self._flags
        if flags is None:
            flags = self._flags = CalculusFlags(
                compute_ra7(self),
                compute_ra9(self),
                self._acl_decides_atomic,
                compute_universal_absorbs(self),
            )
        return flags

    # -- symbol/mask plumbing ------------------------------------------------

    def __len__(self) -> int:
        return len(self.symbols)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(
                f"calculus {self.name!r} has no base relation {symbol!r}"
            ) from None

    def mask_of(self, symbols: Iterable[str]) -> int:
        mask = 0
        for s in symbols:
            mask |= 1 << self.symbol_index(s)
        return mask

    def symbols_of(self, mask: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.symbols) if mask >> i & 1)

    def format_mask(self, mask: int) -> str:
        return "(" + " ".join(self.symbols_of(mask)) + ")"

    # -- operations on raw masks ---------------------------------------------

    def converse_mask(self, mask: int) -> int:
        full = self._conv_full
        if full is None:
            if len(self.symbols) <= _FULL_CONV_LIMIT:
                full = self._build_conv_full()
            else:
                # inlined rather than _union_of: this is a hot path
                out = 0
                row = self.converse_row
                while mask:
                    low = mask & -mask
                    out |= row[low.bit_length() - 1]
                    mask ^= low
                return out
        return full[mask]

    def compose_masks(self, a: int, b: int) -> int:
        full = self._comp_full
        if full is None:
            if len(self.symbols) <= _FULL_COMP_LIMIT:
                full = self._build_comp_full()
            else:
                return self._compose_large(a, b)
        return full[a][b]

    def compose_row(self, a: int) -> list[int] | dict[int, int]:
        """The composition row of ``a``, a read-only table of ``a . b`` over masks ``b``.

        * |Rel| <= 8 (``dense_rows`` is true): the row of the dense composite
          table, built on first use as ``compose_masks`` builds it;
          ``row[b] == compose_masks(a, b)``.
        * 8 < |Rel| <= 16 (``chunked_rows`` is true): a flat list of width
          256 + 2**(|Rel| - 8) with ``row[x] == a . x`` for ``x < 256`` and
          ``row[256 + y] == a . (y << 8)``, read in two byte chunks:
          ``row[b & 255] | row[256 + (b >> 8)] == compose_masks(a, b)``.
          The rows of the low and of the high byte of ``a`` come from two
          bounded tables filled on demand; only an ``a`` with both bytes
          non-zero costs a fresh list, the union of its two byte rows
          (``a_closure`` ORs the reads of the two byte rows instead).
        * |Rel| > 16: a fresh ``_ComposeRow`` that calls
          ``compose_masks(a, b)`` on the first read of each ``b`` and keeps
          the result; ``row[b] == compose_masks(a, b)``.
        """
        full = self._comp_full
        if full is None:
            if self.chunked_rows:
                lo_rows, hi_rows, _ = self._comp_chunks or self._build_comp_chunks()
                low, high = a & 255, a >> 8
                row = lo_rows[low] or self._chunk_row(lo_rows, low, 0)
                if high:
                    hi_row = hi_rows[high] or self._chunk_row(hi_rows, high, 8)
                    row = list(map(or_, row, hi_row)) if low else hi_row
                return row
            if not self.dense_rows:
                return _ComposeRow(self, a)
            full = self._build_comp_full()
        return full[a]

    def compose_col(self, b: int) -> list[int]:
        """The composition column of ``b``, a read-only table of ``a . b`` over masks ``a``.

        A row of the transposed dense composite table, built on first use
        and left out of pickles; ``col[a] == compose_masks(a, b)``.  Only for
        |Rel| <= 8 (``dense_rows`` is true): above that it raises
        ``CalculusError`` rather than build a table of 4**|Rel| cells.
        """
        cols = self._comp_cols
        if cols is None:
            if not self.dense_rows:
                raise CalculusError(f"compose_col: {self.name!r} has more than {_FULL_COMP_LIMIT} relations")
            full = self._comp_full or self._build_comp_full()
            cols = self._comp_cols = [list(col) for col in zip(*full)]
        return cols[b]

    def complement_mask(self, mask: int) -> int:
        return self.universal & ~mask

    def _build_conv_full(self) -> list[int]:
        # conv(m) = conv(m without lowest bit) | conv(lowest bit); masks are
        # enumerated in increasing order so the smaller argument is ready.
        row = self.converse_row
        full = [0] * (self.universal + 1)
        for m in range(1, self.universal + 1):
            low = m & -m
            full[m] = full[m ^ low] | row[low.bit_length() - 1]
        self._conv_full = full
        return full

    def _build_comp_full(self) -> list[list[int]]:
        size = self.universal + 1
        n = len(self.symbols)
        # first the single-symbol rows extended to composite right arguments
        sym_rows = [_extension(row, 0, n) for row in self.composition_row]
        full: list[list[int]] = [[0] * size]
        for a in range(1, size):
            low = a & -a
            base = full[a ^ low]
            srow = sym_rows[low.bit_length() - 1]
            full.append([base[b] | srow[b] for b in range(size)])
        self._comp_full = full
        return full

    def _build_comp_chunks(self) -> tuple[list, list, list[list[int]]]:
        # two tables of chunk rows, for the low and for the high byte of a
        # left argument, empty but for the zero row; and the chunk rows of
        # the single symbols they are built from
        high = len(self.symbols) - 8
        sym_rows = [_extension(row, 0, 8) + _extension(row, 8, high) for row in self.composition_row]
        zero = [0] * len(sym_rows[0])
        chunks = self._comp_chunks = ([zero] + [None] * 255, [zero] + [None] * ((1 << high) - 1), sym_rows)
        return chunks

    def _chunk_row(self, table: list, m: int, shift: int) -> list[int]:
        # row(m) = row(m without its lowest bit) | row of that bit's symbol;
        # shift is 8 for the high-byte table
        low = m & -m
        rest = m ^ low
        base = table[rest] or self._chunk_row(table, rest, shift)
        row = table[m] = list(map(or_, base, self._comp_chunks[2][shift + low.bit_length() - 1]))
        return row

    def _compose_large(self, a: int, b: int) -> int:
        cache = self._comp_cache
        hit = cache.get((a, b))
        if hit is not None:
            return hit
        rows = self.composition_row
        out = 0
        m = a
        while m:
            low = m & -m
            key = (low, b)
            rmask = cache.get(key)
            if rmask is None:
                rmask = cache[key] = _union_of(rows[low.bit_length() - 1], b)
            out |= rmask
            m ^= low
        cache[(a, b)] = out
        return out

    # -- RelationSet constructors ---------------------------------------------

    def relation(self, *symbols: str) -> "RelationSet":
        return RelationSet(self, self.mask_of(symbols))

    def from_mask(self, mask: int) -> "RelationSet":
        if mask & ~self.universal:
            raise CalculusError("mask has bits outside the calculus width")
        return RelationSet(self, mask)

    @property
    def universal_relation(self) -> "RelationSet":
        return RelationSet(self, self.universal)

    @property
    def empty_relation(self) -> "RelationSet":
        return RelationSet(self, 0)

    @property
    def identity_relation(self) -> Optional["RelationSet"]:
        if self.identity_mask is None:
            return None
        return RelationSet(self, self.identity_mask)

    # -- equality: structural, flags excluded ----------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CalculusSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self.symbols == other.symbols
            and self.identity_mask == other.identity_mask
            and self.converse_row == other.converse_row
            and self.composition_row == other.composition_row
        )

    def __hash__(self) -> int:
        return hash((self.name, self.symbols))

    def __repr__(self) -> str:
        return f"CalculusSpec({self.name!r}, |Rel|={len(self.symbols)})"

    # caches are derived data; keep pickles small for worker processes
    def __getstate__(self):
        return {
            "name": self.name,
            "symbols": self.symbols,
            "identity": None if self.identity_mask is None else self.symbols_of(self.identity_mask),
            "converse": {s: self.symbols_of(m) for s, m in zip(self.symbols, self.converse_row)},
            "composition": {
                (a, b): self.symbols_of(self.composition_row[i][j])
                for i, a in enumerate(self.symbols)
                for j, b in enumerate(self.symbols)
            },
            "notes": self.notes,
            "acl_decides_atomic": self._acl_decides_atomic,
        }

    def __setstate__(self, state) -> None:
        self.__init__(**state)


class _ComposeRow(dict):
    """A lazily filled composition row of ``m`` (``row[x] == m . x``) for a
    calculus with more than 16 relations (see ``compose_row``)."""

    __slots__ = ("_spec", "_m")

    def __init__(self, spec: CalculusSpec, m: int) -> None:
        super().__init__()
        self._spec = spec
        self._m = m

    def __missing__(self, x: int) -> int:
        out = self[x] = self._spec.compose_masks(self._m, x)
        return out


class RelationSet:
    """A composite relation: a set of base symbols of one owning calculus.

    Value type; all operations are pure and return fresh instances.  Mixing
    relation sets of different calculi raises :class:`CalculusMismatchError`.
    """

    __slots__ = ("calculus", "bits")

    def __init__(self, calculus: CalculusSpec, bits: int) -> None:
        self.calculus = calculus
        self.bits = bits

    def _check(self, other: "RelationSet") -> None:
        if self.calculus is not other.calculus:
            raise CalculusMismatchError(
                f"relation sets belong to different calculi "
                f"({self.calculus.name!r} vs {other.calculus.name!r})"
            )

    # Boolean structure
    def __or__(self, other: "RelationSet") -> "RelationSet":
        self._check(other)
        return RelationSet(self.calculus, self.bits | other.bits)

    def __and__(self, other: "RelationSet") -> "RelationSet":
        self._check(other)
        return RelationSet(self.calculus, self.bits & other.bits)

    def __invert__(self) -> "RelationSet":
        return RelationSet(self.calculus, self.calculus.complement_mask(self.bits))

    # relational structure
    def converse(self) -> "RelationSet":
        return RelationSet(self.calculus, self.calculus.converse_mask(self.bits))

    def compose(self, other: "RelationSet") -> "RelationSet":
        self._check(other)
        return RelationSet(self.calculus, self.calculus.compose_masks(self.bits, other.bits))

    # set protocol
    def __contains__(self, symbol: str) -> bool:
        return bool(self.bits >> self.calculus.symbol_index(symbol) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_universal(self) -> bool:
        return self.bits == self.calculus.universal

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.calculus.symbols_of(self.bits)

    def issubset(self, other: "RelationSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "RelationSet") -> bool:
        return self.issubset(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSet):
            return NotImplemented
        return self.calculus is other.calculus and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.calculus), self.bits))

    def __repr__(self) -> str:
        return f"RelationSet({self.calculus.name}:{self.calculus.format_mask(self.bits)})"


def _extension(row: tuple[int, ...], first: int, width: int) -> list[int]:
    """``out[m]`` is the union of ``row[first + k]`` over the bits ``k`` of ``m``, for ``m < 2**width``."""
    out = [0] * (1 << width)
    for m in range(1, 1 << width):
        low = m & -m
        out[m] = out[m ^ low] | row[first + low.bit_length() - 1]
    return out


def _union_of(row: tuple[int, ...], mask: int) -> int:
    """Union of ``row[k]`` over the bits ``k`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def compute_ra7(spec: CalculusSpec) -> bool:
    """Converse involution on base symbols: conv(conv({r})) == {r} for all r.

    When this holds the converse table is an involutive permutation of the
    symbols, converse distributes over intersection, and a reasoner may store
    only one direction of each constraint.
    """
    conv = spec.converse_row
    return all(_union_of(conv, conv[i]) == 1 << i for i in range(len(conv)))


def compute_ra9(spec: CalculusSpec) -> bool:
    """Converse-composition distributivity on base pairs: conv(r.s) == conv(s).conv(r).

    Reads the tables directly, leaving the composition cache empty; the right
    side unions over all converse symbols, so it stays exact when R7 fails.
    """
    conv = spec.converse_row
    rows = spec.composition_row
    for j, conv_s in enumerate(conv):
        # composition rows of the symbols in conv(s), with s the j-th symbol
        conv_s_rows = [row for p, row in enumerate(rows) if conv_s >> p & 1]
        for i, conv_r in enumerate(conv):
            rhs = 0
            for row in conv_s_rows:
                rhs |= _union_of(row, conv_r)
            if _union_of(conv, rows[i][j]) != rhs:
                return False
    return True


def compute_universal_absorbs(spec: CalculusSpec) -> bool:
    """The universal relation absorbs composition: U.{s} == U == {s}.U for every base symbol s.

    Composition distributes over union, so then U.R == R.U == U for every
    non-empty R, and a closure pop whose pair is universal both ways refines
    nothing.  {s}.U is the union of row s of the table and U.{s} the union of
    column s.  Reads the tables directly, leaving the composition cache empty.
    """
    u = spec.universal
    rows = spec.composition_row
    return all(_union_of(row, u) == u for row in rows) and all(
        reduce(or_, column) == u for column in zip(*rows)
    )
