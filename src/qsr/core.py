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
dense, |Rel|**2 cells, which stays below ~4M cells for |Rel| <= 2048.  Up to
16 relations the extensions to composite arguments, the composition rows,
are built row by row on first use in two byte-indexed tables of at most 256
rows each (``compose_row``).  For |Rel| <= 8 the low-byte table is the dense
composite table, which ``compose_masks`` reads too.  Up to 16
relations there are also 256-byte tables of compositions for
``bytes.translate``, each built on first use, with which the closure tests
every third variable of a popped pair at once (``_byte_table``).
``compose_masks`` on a calculus with more than 8 relations keeps a memo of
the pairs it was asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_
from struct import pack
from typing import Iterable, Iterator, Optional

# Build the full composite tables only while they stay small: converse
# needs 2**n ints, composition 4**n.
_FULL_CONV_LIMIT = 14
_FULL_COMP_LIMIT = 8
# compose_row reads two byte chunks of the right argument up to this width
_CHUNK_COMP_LIMIT = 16
_NO_ROWS = (None,) * 256  # CalculusSpec._comp_lo until the row tables are built


class CalculusError(Exception):
    """Malformed calculus data or misuse of calculus operations."""


class CalculusMismatchError(CalculusError):
    """Operation over relation sets owned by different calculi."""


class UnknownSymbolError(CalculusError):
    """A relation symbol that the calculus does not declare."""


@dataclass(frozen=True)
class CalculusFlags:
    """Read-only properties of a calculus that the reasoning engines act on.

    ``ra7_holds``, ``ra9_holds``, ``universal_absorbs`` (U.{s} == U ==
    {s}.U for every base relation s) and ``universal_idempotent`` (U.U == U:
    the cells of the composition table together cover U) are derived from
    the tables on the first read of ``CalculusSpec.flags``.  Absorption
    implies idempotence, and so does an identity relation e, as e.{s} ==
    {s}; a calculus whose compositions are all empty has neither.  The
    closure engine seeds no pair that is U both ways under idempotence, and
    keeps the support sets of its dense fused pass, which skip third
    variables with universal operands, only under absorption (see
    ``qsr.closure``).
    ``acl_decides_atomic`` (closure decides atomic networks) is fixed at
    construction, and ``decide`` may override it.
    """

    ra7_holds: bool
    ra9_holds: bool
    acl_decides_atomic: bool
    universal_absorbs: bool
    universal_idempotent: bool


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
        "universal",
        "dense_rows",
        "chunked_rows",
        "_acl_decides_atomic",
        "_flags",
        "_index",
        "_conv_full",
        "_comp_lo",
        "_comp_chunks",
        "_comp_cache",
        "_comp_bytes",
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
        for s in self.symbols:
            if not isinstance(s, str):
                raise CalculusError(f"relation symbol {s!r} is not a string")
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
            if not self.identity_mask:
                raise CalculusError("the identity relation is empty: pass None for a calculus without one")

        missing = [s for s in self.symbols if s not in converse]
        if missing:
            raise CalculusError(f"converse table not total: missing {', '.join(map(repr, missing))}")
        self.converse_row: tuple[int, ...] = tuple(self.mask_of(converse[s]) for s in self.symbols)

        missing_cells = [(a, b) for a in self.symbols for b in self.symbols
                         if (a, b) not in composition]
        if missing_cells:
            raise CalculusError(f"composition table not total: missing cell {missing_cells[0]!r} "
                                f"and {len(missing_cells) - 1} more")
        self.composition_row: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.mask_of(composition[a, b]) for b in self.symbols) for a in self.symbols)

        self._acl_decides_atomic = acl_decides_atomic
        self._flags: Optional[CalculusFlags] = None
        self.notes: tuple[str, ...] = tuple(notes)

        self._conv_full: Optional[list[int]] = None
        self._comp_lo = _NO_ROWS  # the low-byte row table, read first by compose_row
        self._comp_chunks: Optional[tuple[list, list, list[list[int]]]] = None
        self._comp_cache: dict[tuple[int, int], int] = {}
        # the byte tables of the closure's triangle filter, by index (see _byte_table)
        self._comp_bytes: Optional[list] = [None] * 512 if n <= _CHUNK_COMP_LIMIT else None

    @property
    def flags(self) -> CalculusFlags:
        flags = self._flags
        if flags is None:
            flags = self._flags = CalculusFlags(
                compute_ra7(self),
                compute_ra9(self),
                self._acl_decides_atomic,
                compute_universal_absorbs(self),
                compute_universal_idempotent(self),
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
            n = len(self.symbols)
            if n <= _FULL_CONV_LIMIT:
                full = self._conv_full = _extension(self.converse_row, 0, n)
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
        if self.dense_rows:
            return (self._comp_lo[a] or self.compose_row(a))[b]
        return self._compose_large(a, b)

    def compose_row(self, a: int) -> list[int]:
        """The composition row of ``a``, a read-only table of ``a . b`` over masks ``b``.

        Rows are built on first use, each from the row of ``a`` without its
        lowest bit, in two tables for the low and the high byte of ``a``.

        * |Rel| <= 8 (``dense_rows`` is true): the row of the dense composite
          table, ``row[b] == compose_masks(a, b)``; the low-byte table holds
          every row, and ``compose_masks`` reads it too.
        * 8 < |Rel| <= 16 (``chunked_rows`` is true): a flat list of width
          256 + 2**(|Rel| - 8) with ``row[x] == a . x`` for ``x < 256`` and
          ``row[256 + y] == a . (y << 8)``, read in two byte chunks:
          ``row[b & 255] | row[256 + (b >> 8)] == compose_masks(a, b)``.
          Only an ``a`` with both bytes non-zero costs a fresh list, the
          union of its two byte rows (``a_closure`` ORs the reads of the
          two byte rows instead).
        * |Rel| > 16: raises ``CalculusError``; there are no row tables.
        """
        if a < 256:
            return self._comp_lo[a] or self._chunk_row(self._row_tables()[0], a, 0)
        lo_rows, hi_rows, _ = self._row_tables()
        low, high = a & 255, a >> 8
        hi_row = hi_rows[high] or self._chunk_row(hi_rows, high, 8)
        if low:
            return list(map(or_, lo_rows[low] or self._chunk_row(lo_rows, low, 0), hi_row))
        return hi_row

    def complement_mask(self, mask: int) -> int:
        return self.universal & ~mask

    def _row_tables(self) -> tuple[list, list, list[list[int]]]:
        # two tables of chunk rows, for the low and for the high byte of a
        # left argument, empty but for the zero row; and the chunk rows of
        # the single symbols they are built from.  Up to 8 relations the
        # low chunk is the whole row and the high table holds the zero row.
        chunks = self._comp_chunks
        if chunks is None:
            if not (self.dense_rows or self.chunked_rows):
                raise CalculusError(f"compose_row: {self.name!r} has more than {_CHUNK_COMP_LIMIT} relations")
            n = len(self.symbols)
            high = max(n - 8, 0)
            sym_rows = [_extension(row, 0, n - high) + (_extension(row, 8, high) if high else [])
                        for row in self.composition_row]
            zero = [0] * len(sym_rows[0])
            lo_rows = self._comp_lo = [zero] + [None] * min(self.universal, 255)
            chunks = self._comp_chunks = (lo_rows, [zero] + [None] * ((1 << high) - 1), sym_rows)
        return chunks

    def _chunk_row(self, table: list, m: int, shift: int) -> list[int]:
        # row(m) = row(m without its lowest bit) | row of that bit's symbol,
        # built on first use; shift is 8 for the high-byte table
        row = table[m]
        if row is None:
            low = m & -m
            base = self._chunk_row(table, m ^ low, shift)
            row = table[m] = list(map(or_, base, self._comp_chunks[2][shift + low.bit_length() - 1]))
        return row

    def _byte_table(self, index: int) -> bytes | tuple[bytes, bytes, bytes, bytes]:
        """The byte tables at ``index`` of the triangle filter of ``qsr.closure``,
        built on first use and kept in ``_comp_bytes``.

        Each table is 256 bytes for ``bytes.translate``: byte ``x`` holds a
        composition with ``x``, and bytes past the last mask are zero.

        * |Rel| <= 8: index ``a`` holds the row of ``a``, ``a . x`` at byte
          ``x``; index ``256 + a`` the column of ``a``, ``x . a`` at byte ``x``.
        * 8 < |Rel| <= 16: index ``m`` holds four tables for the chunk row
          of the low byte ``m``, index ``256 + h`` for that of the high byte
          ``h << 8`` (the rows of ``compose_row``): the low and the high
          byte of ``a . x`` and the low and the high byte of ``a . (x << 8)``.
        """
        if self.dense_rows:
            if index < 256:
                out = self.compose_row(index)
            else:
                # {s}.a over the base relations s, extended to masks by union
                self._row_tables()
                a = index - 256
                out = _extension(tuple(row[a] for row in self._comp_chunks[2]), 0, len(self.symbols))
            table = bytes(out).ljust(256, b"\0")
        else:
            row = self.compose_row(index if index < 256 else (index - 256) << 8)
            # 512 cells of two bytes, low byte first, zero past the row
            packed = pack(f"<{len(row)}H", *row).ljust(1024, b"\0")
            table = (packed[0:512:2], packed[1:512:2], packed[512::2], packed[513::2])
        self._comp_bytes[index] = table
        return table

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

    # caches and row and byte tables are derived data; keep pickles small
    # for worker processes
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


def _union_rows(rows: list, mask: int) -> list[int]:
    """Lane-wise union of ``rows[p]`` over the set bits ``p`` of ``mask``, ``rows`` square."""
    low = mask & -mask  # the lowest set bit, 0 for an empty mask
    out = rows[low.bit_length() - 1] if mask else [0] * len(rows)
    mask ^= low
    while mask:
        low = mask & -mask
        out = list(map(or_, out, rows[low.bit_length() - 1]))
        mask ^= low
    return list(out)


def _r7_rows(spec: CalculusSpec) -> Iterator[tuple[list[int], list[int]]]:
    """R7, one pair of rows over the bases r: conv(conv(r)), and r."""
    conv = spec.converse_row
    yield [_union_of(conv, m) for m in conv], [1 << k for k in range(len(conv))]


def _r9_rows(spec: CalculusSpec) -> Iterator[tuple[list[int], list[int]]]:
    """R9, per base r the rows over the bases s of conv(r.s) and of conv(s).conv(r), the
    union of p.conv(r) over all p in conv(s), which keeps it exact when R7 fails."""
    table, conv, columns = spec.composition_row, spec.converse_row, list(zip(*spec.composition_row))
    conv_of = {m: _union_of(conv, m) for m in set(chain.from_iterable(table))}
    for row, conv_r in zip(table, conv):
        col = _union_rows(columns, conv_r)  # p.conv(r) over the bases p
        yield list(map(conv_of.__getitem__, row)), [_union_of(col, conv_s) for conv_s in conv]


def compute_ra7(spec: CalculusSpec) -> bool:
    """Converse involution on base symbols: conv(conv({r})) == {r} for all r.

    The verdict of the audit's R7 row.  When it holds the converse table is
    an involutive permutation of the symbols, converse distributes over
    intersection, and a reasoner may store only one direction of each constraint.
    """
    return all(lhs == rhs for lhs, rhs in _r7_rows(spec))


def compute_ra9(spec: CalculusSpec) -> bool:
    """Converse-composition distributivity on base pairs: conv(r.s) == conv(s).conv(r).

    The verdict of the audit's R9 rows, which read the tables directly and
    leave the composition cache empty.
    """
    return all(lhs == rhs for lhs, rhs in _r9_rows(spec))


def compute_universal_absorbs(spec: CalculusSpec) -> bool:
    """The universal relation absorbs composition: U.{s} == U == {s}.U for every base symbol s.

    Composition distributes over union, so then U.R == R.U == U for every
    non-empty R, and a triangle with a universal operand refines nothing.
    {s}.U is the union of row s of the table and U.{s} the union of
    column s.  Reads the tables directly, leaving the composition cache empty.
    """
    u = spec.universal
    rows = spec.composition_row
    return all(reduce(or_, row) == u for row in rows) and all(
        reduce(or_, column) == u for column in zip(*rows)
    )


def compute_universal_idempotent(spec: CalculusSpec) -> bool:
    """The universal relation is idempotent: U.U == U.

    Composition distributes over union, so U.U is the union of every cell
    of the table, read row by row until it covers U.  A triangle whose two operand cells are U then bounds its
    third cell by U, which tightens nothing.  Reads the tables directly,
    leaving the composition cache empty.
    """
    u = spec.universal
    cover = 0
    for row in spec.composition_row:
        cover |= reduce(or_, row)
        if cover == u:
            return True
    return False
