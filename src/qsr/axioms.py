"""Exhaustive axiom audit of a calculus against the relation-algebra battery.

Checked axioms, all over base-relation tuples of the stated arity:

    R1   r + s = s + r                       (union commutativity)      pairs
    R2   r + (s + t) = (r + s) + t           (union associativity)      triples
    R3   c(c(r) + c(s)) + c(c(r) + s) = r    (Huntington)               pairs
    R4   (r . s) . t = r . (s . t)           (composition assoc.)       triples
    R5   (r + s) . t = (r . t) + (s . t)     (right distributivity)     triples
    R6   r . id = r                          (identity law)             unary
    R6l  id . r = r                          (left identity law)        unary
    R7   conv(conv(r)) = r                   (converse involution)      unary
    R8   conv(r + s) = conv(r) + conv(s)     (converse distributivity)  pairs
    R9   conv(r . s) = conv(s) . conv(r)     (converse-composition)     pairs
    R10  conv(r) . c(r . s) vs c(s)          (Tarski/De Morgan)         pairs
    WA   ((r & id) . 1) . 1 = (r & id) . 1   (weak associativity)       unary
    SA   (r . 1) . 1 = r . 1                 (semi-associativity)       unary
    PL   (r.s) & conv(t) empty iff (s.t) & conv(r) empty  (Peircean)    triples

Every equation axiom is additionally split into its one-sided weakenings
("R4⊆", "R4⊇", ...); PL splits into the two implication directions
("PL-right", "PL-left").  R10 is special: the printed equation collapses to
the single inclusion conv(r) . c(r . s) ⊆ c(s), which is what the main
verdict and the ⊆ side test; the ⊇ side tests the dual rotation
c(r . s) . conv(s) ⊆ c(r).  The two are interderivable when converse is
involutive and distributes over composition (R7, R9) and diverge otherwise,
which makes the pair a useful diagnostic exactly for calculi with a broken
converse.

Axioms mentioning the identity (R6, R6l, WA) are reported not-applicable for
calculi without a designated identity.

One tally loop serves the whole battery: it tests each (lhs, rhs) evaluation
against all three of the axiom's records (main, ⊆, ⊇; for PL main, PL-right,
PL-left).  Only R10's ⊇ record needs a second evaluation, of its dual
rotation.  ``check_axiom_composite`` and the base audit of R1, R3, R7 and R8
evaluate once per tuple.  The base audit of every other axiom reads rows of
the tables, never ``compose_masks``: per base prefix ((r, s), r, or none for
the unary axioms) one pair of rows holds (lhs, rhs) for every last base.
R2, R5, R10 and PL pack a row into one int (``_Lanes``); R4, R9 and the
unary axioms keep lists, cheaper to build there.  Only a pair that can
violate has its lanes tested, which gives the per-tuple counts and examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import lshift, or_
from random import Random
from typing import Callable, Iterable, Iterator, Optional

from .core import CalculusError, CalculusSpec, _union_of

EXAMPLE_CAP = 10

SUB = "⊆"  # subset sign
SUP = "⊇"  # superset sign

MAIN_AXIOMS = (
    "R1", "R2", "R3", "R4", "R5", "R6", "R6l", "R7", "R8", "R9", "R10",
    "WA", "SA", "PL",
)

NA_AXIOMS = ("R1", "R2", "R3", "R5", "R6", "R7", "R8", "R9", "R10")


class Classification(Enum):
    RA = "RA"
    RA_MINUS_ID = "RA-minus-id"
    SA = "SA"
    WA = "WA"
    NA_OR_WEAKER = "NA-or-weaker"


@dataclass(frozen=True)
class Counterexample:
    operands: tuple[str, ...]
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {"operands": list(self.operands), "lhs": list(self.lhs), "rhs": list(self.rhs)}


@dataclass
class AxiomRecord:
    axiom_id: str
    holds: Optional[bool]  # None when not applicable
    violations: int
    universe: int
    examples: list[Counterexample] = field(default_factory=list)

    @property
    def applicable(self) -> bool:
        return self.holds is not None

    @property
    def percentage(self) -> float:
        return 100.0 * self.violations / self.universe if self.universe else 0.0

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom_id,
            "holds": self.holds,
            "violations": self.violations,
            "universe": self.universe,
            "percentage": round(self.percentage, 4),
            "examples": [e.to_json_dict() for e in self.examples],
        }


@dataclass
class AxiomReport:
    calculus: str
    records: dict[str, AxiomRecord]
    classification: Classification

    def violated(self) -> tuple[str, ...]:
        """Ids of all applicable records (mains and sides) with violations."""
        return tuple(a for a, r in self.records.items() if r.holds is False)

    def violated_sides(self) -> frozenset[str]:
        """Only the one-sided / directional records that fail."""
        return frozenset(
            a for a, r in self.records.items() if r.holds is False and _RECORDS[a][1] > 0
        )

    def all_main_hold(self) -> bool:
        return all(
            self.records[a].holds is True for a in MAIN_AXIOMS if self.records[a].applicable
        )

    def to_json_dict(self) -> dict:
        return {
            "calculus": self.calculus,
            "classification": self.classification.value,
            "axioms": [self.records[k].to_json_dict() for k in self.records],
        }


# -- axiom table -------------------------------------------------------------

# Violation tests: map one evaluation (lhs, rhs) to the set of the axiom's
# records it violates, as bits: 1 the main record, 2 the ⊆ side (PL-right),
# 4 the ⊇ side (PL-left).

def _equation(lhs: int, rhs: int) -> int:
    """lhs = rhs, split into lhs ⊆ rhs and lhs ⊇ rhs."""
    if lhs == rhs:
        return 0
    return 1 | (2 if lhs & ~rhs else 0) | (4 if rhs & ~lhs else 0)


def _inclusion(lhs: int, rhs: int) -> int:
    """R10: the main record and the ⊆ side both test lhs ⊆ rhs; the ⊇ side
    comes from the dual evaluator."""
    return 3 if lhs & ~rhs else 0


def _peircean(lhs: int, rhs: int) -> int:
    """PL: lhs empty iff rhs empty; PL-right is "lhs empty implies rhs
    empty", PL-left the converse implication."""
    if (lhs == 0) == (rhs == 0):
        return 0
    return 3 if lhs == 0 else 5


def _dual_inclusion(lhs: int, rhs: int) -> int:
    """R10's ⊇ record: lhs ⊆ rhs of the dual rotation."""
    return 4 if lhs & ~rhs else 0


class _Lanes:
    """Rows of n lanes packed into one int: lane k holds an n-bit mask at bit
    k * (n + 1), below a guard bit that stays 0."""

    def __init__(self, n: int) -> None:
        self.u, self.shifts = (1 << n) - 1, range(0, n * (n + 1), n + 1)
        self.ones = sum(1 << k for k in self.shifts)  # bit 0 of every lane
        self.guard, self.full = self.ones << n, self.ones * self.u  # U in every lane
        self.bases = self.pack(1 << k for k in range(n))  # {k} in lane k

    def pack(self, masks: Iterable[int]) -> int:
        return sum(map(lshift, masks, self.shifts))

    def unpack(self, row) -> list[int]:
        return row if isinstance(row, list) else [row >> k & self.u for k in self.shifts]

    def union(self, row: int, values: Iterable[int]) -> int:
        """Lane-wise union of ``values[q]`` over the bits q of each lane of ``row``."""
        return reduce(or_, ((row >> q & self.ones) * v for q, v in enumerate(values)), 0)

    def differ(self, violated: Callable[[int, int], int], lhs, rhs) -> bool:
        """Whether some lane can violate: an equation's rows differ, PL's are
        non-empty at different lanes (x + U carries into the guard bit of
        exactly the non-empty lanes), an inclusion's lhs leaves its rhs."""
        if violated is _peircean:
            return bool((lhs + self.full ^ rhs + self.full) & self.guard)
        return lhs != rhs if violated is _equation else bool(lhs & ~rhs)


@dataclass(frozen=True)
class _Axiom:
    arity: int
    needs_id: bool
    # evaluator returning (lhs, rhs) masks; for PL the masks of the two
    # triangle intersections
    eval: Callable[[CalculusSpec, tuple[int, ...]], tuple]
    violated: Callable[[int, int], int] = _equation
    # R10: the ⊇ record tests lhs ⊆ rhs of this second evaluator
    sup_eval: Optional[Callable[[CalculusSpec, tuple[int, ...]], tuple]] = None
    # (lhs, rhs) rows, packed or lists, one pair per base prefix of arity - 1
    # operands in product order; lane k of a pair is eval of (*prefix, {k})
    rows: Optional[Callable[[CalculusSpec, _Lanes], Iterable[tuple]]] = None
    sup_rows: Optional[Callable[[CalculusSpec, _Lanes], Iterable[tuple]]] = None  # of sup_eval


def _r1(c, t):
    r, s = t
    return r | s, s | r


def _r2(c, t):
    r, s, u = t
    return r | (s | u), (r | s) | u


def _r2_rows(c, lanes):
    u = lanes.bases
    rows = [lanes.ones << k for k in range(len(c.symbols))]  # {k} in every lane
    for r in rows:
        for s in rows:
            yield r | (s | u), (r | s) | u


def _r3(c, t):
    r, s = t
    nr = c.complement_mask(r)
    return c.complement_mask(nr | c.complement_mask(s)) | c.complement_mask(nr | s), r


def _r4(c, t):
    r, s, u = t
    return c.compose_masks(c.compose_masks(r, s), u), c.compose_masks(r, c.compose_masks(s, u))


def _union_rows(rows: list, mask: int) -> list[int]:
    """Lane-wise union of ``rows[p]`` over the bits ``p`` of ``mask``, ``rows`` square."""
    out = [0] * len(rows)
    for p, row in enumerate(rows):
        if mask >> p & 1:
            out = list(map(or_, out, row))
    return out


def _r4_rows(c, lanes):
    table = c.composition_row
    masks = set(itertools.chain.from_iterable(table))
    # per table mask m: the row of m.{u} over the bases u, and the column of
    # {r}.m over the bases r
    left = {m: _union_rows(table, m) for m in masks}
    columns = list(zip(*table))
    right = {m: _union_rows(columns, m) for m in masks}
    for i, row_r in enumerate(table):
        r_dot = {m: col[i] for m, col in right.items()}  # m -> r.m
        for m, row_s in zip(row_r, table):
            yield left[m], list(map(r_dot.__getitem__, row_s))


def _r5(c, t):
    r, s, u = t
    return c.compose_masks(r | s, u), c.compose_masks(r, u) | c.compose_masks(s, u)


def _r5_rows(c, lanes):
    # the tables compose a mask bit by bit, so (r + s).u and r.u + s.u are
    # both the union of the rows of r and s
    for row_r, row_s in itertools.product(map(lanes.pack, c.composition_row), repeat=2):
        yield row_r | row_s, row_r | row_s


def _r6(c, t):
    (r,) = t
    return c.compose_masks(r, c.identity_mask), r


def _r6l(c, t):
    (r,) = t
    return c.compose_masks(c.identity_mask, r), r


def _identity_rows(c, lanes, rows):
    # one pair over the bases r: r.id (R6, rows the columns) or id.r (R6l), and r
    yield _union_rows(rows, c.identity_mask), lanes.unpack(lanes.bases)


def _r7(c, t):
    (r,) = t
    return c.converse_mask(c.converse_mask(r)), r


def _r8(c, t):
    r, s = t
    return c.converse_mask(r | s), c.converse_mask(r) | c.converse_mask(s)


def _r9(c, t):
    r, s = t
    return (
        c.converse_mask(c.compose_masks(r, s)),
        c.compose_masks(c.converse_mask(s), c.converse_mask(r)),
    )


def _r9_rows(c, lanes):
    table, conv, columns = c.composition_row, c.converse_row, list(zip(*c.composition_row))
    conv_of = {m: _union_of(conv, m) for m in set(itertools.chain.from_iterable(table))}
    # per base r, lanes over the bases s: conv(r.s), and conv(s).conv(r),
    # the union of p.conv(r) over the p in conv(s)
    for row, conv_r in zip(table, conv):
        col = _union_rows(columns, conv_r)  # p.conv(r) over the bases p
        yield list(map(conv_of.__getitem__, row)), [_union_of(col, conv_s) for conv_s in conv]


def _r10(c, t):
    r, s = t
    a = c.compose_masks(c.converse_mask(r), c.complement_mask(c.compose_masks(r, s)))
    return a, c.complement_mask(s)


def _r10_dual(c, t):
    r, s = t
    a = c.compose_masks(c.complement_mask(c.compose_masks(r, s)), c.converse_mask(s))
    return a, c.complement_mask(r)


def _r10_rows(c, lanes):
    full, table = lanes.full, c.composition_row
    # per base r, lanes over the bases s: conv(r).c(r.s), the union of
    # conv(r).q over the q in c(r.s), against c(s)
    for row, conv_r in zip(table, c.converse_row):
        yield lanes.union(full ^ lanes.pack(row), _union_rows(table, conv_r)), full ^ lanes.bases


def _r10_dual_rows(c, lanes):
    full, ones, table, conv_row = lanes.full, lanes.ones, c.composition_row, lanes.pack(c.converse_row)
    n, dual = len(table), [lanes.union(conv_row, row) for row in table]  # lane s of dual[q]: q.conv(s)
    # per base r, lanes over the bases s: c(r.s).conv(s) against c(r); with
    # sel the lanes of x that hold q, (sel << n) - sel is U in those lanes
    for k, row in enumerate(table):
        x, lhs = full ^ lanes.pack(row), 0
        for q, d in enumerate(dual):
            sel = x >> q & ones
            lhs |= ((sel << n) - sel) & d
        yield lhs, (lanes.u ^ 1 << k) * ones


def _wa(c, t):
    (r,) = t
    x = r & c.identity_mask
    u = c.universal
    return c.compose_masks(c.compose_masks(x, u), u), c.compose_masks(x, u)


def _sa(c, t):
    (r,) = t
    u = c.universal
    return c.compose_masks(c.compose_masks(r, u), u), c.compose_masks(r, u)


def _dot_u_rows(c, keep: int):
    # WA (keep = id) and SA (keep = U): one pair over the bases r, ((r & keep).U).U and (r & keep).U
    dot_u = [_union_of(row, c.universal) for row in c.composition_row]  # {q}.U
    x_u = [m if keep >> k & 1 else 0 for k, m in enumerate(dot_u)]
    yield [_union_of(dot_u, m) for m in x_u], x_u


def _pl(c, t):
    r, s, u = t
    left = c.compose_masks(r, s) & c.converse_mask(u)
    right = c.compose_masks(s, u) & c.converse_mask(r)
    return left, right


def _pl_rows(c, lanes):
    ones, table, conv = lanes.ones, c.composition_row, c.converse_row
    rows, conv_row = list(map(lanes.pack, table)), lanes.pack(conv)
    left = {m: m * ones & conv_row for m in set(itertools.chain.from_iterable(table))}
    # (r.s) & conv(u) and (s.u) & conv(r) over the bases u
    for row_r, conv_r in zip(table, conv):
        conv_r *= ones
        for m, row_s in zip(row_r, rows):
            yield left[m], conv_r & row_s


_AXIOMS: dict[str, _Axiom] = {
    "R1": _Axiom(2, False, _r1),
    "R2": _Axiom(3, False, _r2, rows=_r2_rows),
    "R3": _Axiom(2, False, _r3),
    "R4": _Axiom(3, False, _r4, rows=_r4_rows),
    "R5": _Axiom(3, False, _r5, rows=_r5_rows),
    "R6": _Axiom(1, True, _r6,
                 rows=lambda c, lanes: _identity_rows(c, lanes, list(zip(*c.composition_row)))),
    "R6l": _Axiom(1, True, _r6l, rows=lambda c, lanes: _identity_rows(c, lanes, c.composition_row)),
    "R7": _Axiom(1, False, _r7),
    "R8": _Axiom(2, False, _r8),
    "R9": _Axiom(2, False, _r9, rows=_r9_rows),
    "R10": _Axiom(2, False, _r10, _inclusion, sup_eval=_r10_dual, rows=_r10_rows,
                  sup_rows=_r10_dual_rows),
    "WA": _Axiom(1, True, _wa, rows=lambda c, lanes: _dot_u_rows(c, c.identity_mask)),
    "SA": _Axiom(1, False, _sa, rows=lambda c, lanes: _dot_u_rows(c, c.universal)),
    "PL": _Axiom(3, False, _pl, _peircean, rows=_pl_rows),
}


# record id -> (axiom, position among the axiom's three records), in report
# order: each axiom's main record, then its ⊆ and ⊇ sides (PL: PL-right and
# PL-left)
_RECORDS: dict[str, tuple[str, int]] = {
    rid: (axiom, k)
    for axiom in MAIN_AXIOMS
    for k, rid in enumerate(
        (axiom, "PL-right", "PL-left") if axiom == "PL" else (axiom, axiom + SUB, axiom + SUP)
    )
}


def _record_of(axiom_id: str) -> tuple[str, int]:
    try:
        return _RECORDS[axiom_id]
    except KeyError:
        raise CalculusError(f"unknown axiom {axiom_id!r}") from None


def _tuple_hits(spec: CalculusSpec, axiom: str, tuples: Iterable[tuple[int, ...]]) -> Iterator[tuple]:
    """``(masks, lhs, rhs, hit)`` of every violating evaluation, one per tuple
    (two for R10, whose ⊇ record has its own evaluator)."""
    ax = _AXIOMS[axiom]
    evaluate, violated, dual = ax.eval, ax.violated, ax.sup_eval
    for masks in tuples:
        lhs, rhs = evaluate(spec, masks)
        hit = violated(lhs, rhs)
        if hit:
            yield masks, lhs, rhs, hit
        if dual is not None:
            lhs, rhs = dual(spec, masks)
            if _dual_inclusion(lhs, rhs):
                yield masks, lhs, rhs, 4


def _row_hits(spec: CalculusSpec, axiom: str) -> Iterator[tuple]:
    """The same over the base tuples, in product order, from the rows of an
    axiom (R10's ⊇ record from the rows of its dual, after the others): only
    a pair of rows that can violate has its lanes tested."""
    ax, n = _AXIOMS[axiom], len(spec.symbols)
    lanes, bases = _Lanes(n), [1 << i for i in range(n)]
    runs = [(ax.rows, ax.violated)] + ([(ax.sup_rows, _dual_inclusion)] if ax.sup_rows else [])
    for rows, violated in runs:
        prefixes = itertools.product(bases, repeat=ax.arity - 1)
        for prefix, (lhs_row, rhs_row) in zip(prefixes, rows(spec, lanes)):
            if lanes.differ(violated, lhs_row, rhs_row):
                for u, lhs, rhs in zip(bases, lanes.unpack(lhs_row), lanes.unpack(rhs_row)):
                    hit = violated(lhs, rhs)
                    if hit:
                        yield prefix + (u,), lhs, rhs, hit


def _audit(spec: CalculusSpec, axiom: str, hits: Iterable[tuple], universe: int,
           operand_format: Callable[[int], str]) -> list[AxiomRecord]:
    """All three records of ``axiom`` from its violating evaluations ``hits``:
    each counts against the records whose bit is set in its ``hit``."""
    ids = [rid for rid, (a, _) in _RECORDS.items() if a == axiom]
    if _AXIOMS[axiom].needs_id and spec.identity_mask is None:
        return [AxiomRecord(rid, holds=None, violations=0, universe=0) for rid in ids]
    records = [AxiomRecord(rid, holds=True, violations=0, universe=universe) for rid in ids]
    for masks, lhs, rhs, hit in hits:
        for k, rec in enumerate(records):
            if hit >> k & 1:
                rec.holds = False
                rec.violations += 1
                if len(rec.examples) < EXAMPLE_CAP:
                    rec.examples.append(Counterexample(
                        tuple(map(operand_format, masks)), spec.symbols_of(lhs), spec.symbols_of(rhs)))
    return records


def _base_audit(spec: CalculusSpec, axiom: str) -> list[AxiomRecord]:
    """All three records of ``axiom`` over the base-relation tuples."""
    n, ax = len(spec.symbols), _AXIOMS[axiom]
    hits = _row_hits(spec, axiom) if ax.rows else _tuple_hits(
        spec, axiom, itertools.product([1 << i for i in range(n)], repeat=ax.arity))
    return _audit(spec, axiom, hits, n ** ax.arity, lambda m: spec.symbols_of(m)[0])


def check_axiom(spec: CalculusSpec, axiom_id: str) -> AxiomRecord:
    """Evaluate one axiom (or one side, e.g. ``"R9⊆"``) over all base tuples."""
    axiom, k = _record_of(axiom_id)
    return _base_audit(spec, axiom)[k]


def classify(spec: CalculusSpec, jobs: int = 1) -> AxiomReport:
    """Run the full battery and derive the algebra class.

    The audit is a pure function of the tables; ``jobs`` > 1 audits the
    axioms in that many processes, at most one per axiom.  The pool loses at
    every size measured, 13 to 169 relations, and stays only until the
    benchmark stops timing it.
    """
    if jobs > 1:
        # imported here: the pool's modules would slow every start of ``qsr``
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(MAIN_AXIOMS))) as pool:
            audits = list(pool.map(_base_audit, [spec] * len(MAIN_AXIOMS), MAIN_AXIOMS))
    else:
        audits = [_base_audit(spec, axiom) for axiom in MAIN_AXIOMS]
    records = {rec.axiom_id: rec for audit in audits for rec in audit}
    return AxiomReport(spec.name, records, _derive_classification(records))


def _derive_classification(records: dict[str, AxiomRecord]) -> Classification:
    def ok(aid: str) -> bool:
        return records[aid].holds is True

    ra_axioms = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10")
    if all(ok(a) for a in ra_axioms):
        return Classification.RA
    if all(ok(a) for a in ra_axioms if a != "R6"):
        return Classification.RA_MINUS_ID
    na = all(ok(a) for a in NA_AXIOMS)
    if na and ok("SA"):
        return Classification.SA
    if na and ok("WA"):
        return Classification.WA
    return Classification.NA_OR_WEAKER


def check_axiom_composite(
    spec: CalculusSpec,
    axiom_id: str,
    samples: int = 10_000,
    seed: int = 0,
    exhaustive: bool = False,
    limit: int = 200_000,
) -> AxiomRecord:
    """Evaluate an axiom over composite (not just base) relation tuples.

    Random sampling by default; ``exhaustive`` enumerates all composite
    tuples when their count stays below ``limit`` (the space has
    2**|Rel| ** arity elements, so this is for small calculi only).
    """
    axiom, k = _record_of(axiom_id)
    ax = _AXIOMS[axiom]
    if ax.needs_id and spec.identity_mask is None:
        return AxiomRecord(axiom_id, holds=None, violations=0, universe=0)
    size = spec.universal + 1
    if exhaustive:
        total = size ** ax.arity
        if total > limit:
            raise CalculusError(
                f"exhaustive composite check needs {total} tuples, over the limit of {limit}"
            )
        tuples = itertools.product(range(size), repeat=ax.arity)
    else:
        rng = Random(seed)
        total = samples
        tuples = (
            tuple(rng.randrange(size) for _ in range(ax.arity)) for _ in range(samples)
        )
    return _audit(spec, axiom, _tuple_hits(spec, axiom, tuples), total,
                  lambda m: "(" + " ".join(spec.symbols_of(m)) + ")")[k]


def r6_r6l_equivalence_check(spec: CalculusSpec) -> Optional[bool]:
    """Shared truth value of the two identity laws, for calculi where they
    provably coincide (converse involution R7 plus distributivity R9, with a
    designated identity).  Returns None when those preconditions fail.
    """
    if spec.identity_mask is None:
        return None
    if not (spec.flags.ra7_holds and spec.flags.ra9_holds):
        return None
    r6 = check_axiom(spec, "R6").holds
    r6l = check_axiom(spec, "R6l").holds
    if r6 != r6l:
        raise CalculusError(
            "identity laws disagree although converse involution and "
            "distributivity hold; the operation tables are inconsistent"
        )
    return bool(r6)
