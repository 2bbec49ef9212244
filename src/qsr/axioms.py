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
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Callable, Iterable, Optional

from .core import CalculusError, CalculusSpec

EXAMPLE_CAP = 10

SUB = "⊆"  # subset sign
SUP = "⊇"  # superset sign

MAIN_AXIOMS = (
    "R1", "R2", "R3", "R4", "R5", "R6", "R6l", "R7", "R8", "R9", "R10",
    "WA", "SA", "PL",
)

NA_AXIOMS = ("R1", "R2", "R3", "R5", "R6", "R7", "R8", "R9", "R10")

# axioms whose extension from base symbols to composite relations is forced
# by the union extension of the operations
UNION_PRESERVED = ("R4", "R6", "R6l", "R7", "R9")


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

    def record(self, axiom_id: str) -> AxiomRecord:
        return self.records[axiom_id]

    def violated(self) -> tuple[str, ...]:
        """Ids of all applicable records (mains and sides) with violations."""
        return tuple(a for a, r in self.records.items() if r.holds is False)

    def violated_sides(self) -> frozenset[str]:
        """Only the one-sided / directional records that fail."""
        return frozenset(
            a for a, r in self.records.items()
            if r.holds is False and (SUB in a or SUP in a or a.startswith("PL-"))
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

@dataclass(frozen=True)
class _Axiom:
    arity: int
    needs_id: bool
    # evaluator returning (lhs, rhs) masks; for PL the masks of the two
    # triangle intersections
    eval: Callable[[CalculusSpec, tuple[int, ...]], tuple]
    peircean: bool = False
    main_is_subset: bool = False  # R10: the equation collapses to one inclusion
    sup_eval: Optional[Callable[[CalculusSpec, tuple[int, ...]], tuple]] = None


def _r1(c, t):
    r, s = t
    return r | s, s | r


def _r2(c, t):
    r, s, u = t
    return r | (s | u), (r | s) | u


def _r3(c, t):
    r, s = t
    nr = c.complement_mask(r)
    return c.complement_mask(nr | c.complement_mask(s)) | c.complement_mask(nr | s), r


def _r4(c, t):
    r, s, u = t
    return c.compose_masks(c.compose_masks(r, s), u), c.compose_masks(r, c.compose_masks(s, u))


def _r5(c, t):
    r, s, u = t
    return c.compose_masks(r | s, u), c.compose_masks(r, u) | c.compose_masks(s, u)


def _r6(c, t):
    (r,) = t
    return c.compose_masks(r, c.identity_mask), r


def _r6l(c, t):
    (r,) = t
    return c.compose_masks(c.identity_mask, r), r


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


def _r10(c, t):
    r, s = t
    a = c.compose_masks(c.converse_mask(r), c.complement_mask(c.compose_masks(r, s)))
    return a, c.complement_mask(s)


def _r10_dual(c, t):
    r, s = t
    a = c.compose_masks(c.complement_mask(c.compose_masks(r, s)), c.converse_mask(s))
    return a, c.complement_mask(r)


def _wa(c, t):
    (r,) = t
    x = r & c.identity_mask
    u = c.universal
    return c.compose_masks(c.compose_masks(x, u), u), c.compose_masks(x, u)


def _sa(c, t):
    (r,) = t
    u = c.universal
    return c.compose_masks(c.compose_masks(r, u), u), c.compose_masks(r, u)


def _pl(c, t):
    r, s, u = t
    left = c.compose_masks(r, s) & c.converse_mask(u)
    right = c.compose_masks(s, u) & c.converse_mask(r)
    return left, right


_AXIOMS: dict[str, _Axiom] = {
    "R1": _Axiom(2, False, _r1),
    "R2": _Axiom(3, False, _r2),
    "R3": _Axiom(2, False, _r3),
    "R4": _Axiom(3, False, _r4),
    "R5": _Axiom(3, False, _r5),
    "R6": _Axiom(1, True, _r6),
    "R6l": _Axiom(1, True, _r6l),
    "R7": _Axiom(1, False, _r7),
    "R8": _Axiom(2, False, _r8),
    "R9": _Axiom(2, False, _r9),
    "R10": _Axiom(2, False, _r10, main_is_subset=True, sup_eval=_r10_dual),
    "WA": _Axiom(1, True, _wa),
    "SA": _Axiom(1, False, _sa),
    "PL": _Axiom(3, False, _pl, peircean=True),
}


def _axiom_of(axiom_id: str) -> tuple[_Axiom, Optional[str]]:
    """Look up 'R4⊆' as (R4, '⊆'); PL uses '-right'/'-left'."""
    base, side = axiom_id, None
    if axiom_id.endswith(SUB):
        base, side = axiom_id[:-1], SUB
    elif axiom_id.endswith(SUP):
        base, side = axiom_id[:-1], SUP
    elif axiom_id == "PL-right":
        base, side = "PL", "right"
    elif axiom_id == "PL-left":
        base, side = "PL", "left"
    try:
        return _AXIOMS[base], side
    except KeyError:
        raise CalculusError(f"unknown axiom {axiom_id!r}") from None


def _evaluator_and_test(
    ax: _Axiom, side: Optional[str]
) -> tuple[Callable, Callable[[int, int], bool]]:
    """Pick the (lhs, rhs) evaluator and the violation predicate for one record."""
    if ax.peircean:
        if side == "right":
            return ax.eval, lambda lhs, rhs: lhs == 0 and rhs != 0
        if side == "left":
            return ax.eval, lambda lhs, rhs: rhs == 0 and lhs != 0
        return ax.eval, lambda lhs, rhs: (lhs == 0) != (rhs == 0)
    if side == SUP and ax.sup_eval is not None:
        return ax.sup_eval, lambda lhs, rhs: lhs & ~rhs != 0
    if side == SUB or (side is None and ax.main_is_subset):
        return ax.eval, lambda lhs, rhs: lhs & ~rhs != 0
    if side == SUP:
        return ax.eval, lambda lhs, rhs: rhs & ~lhs != 0
    return ax.eval, lambda lhs, rhs: lhs != rhs


def _base_tuples(n: int, arity: int) -> Iterable[tuple[int, ...]]:
    return itertools.product((1 << i for i in range(n)), repeat=arity)


def check_axiom(spec: CalculusSpec, axiom_id: str) -> AxiomRecord:
    """Evaluate one axiom (or one side, e.g. ``"R9⊆"``) over all base tuples."""
    ax, side = _axiom_of(axiom_id)
    if ax.needs_id and spec.identity_mask is None:
        return AxiomRecord(axiom_id, holds=None, violations=0, universe=0)

    n = len(spec.symbols)
    evaluate, violates = _evaluator_and_test(ax, side)
    violations = 0
    examples: list[Counterexample] = []
    for masks in _base_tuples(n, ax.arity):
        lhs, rhs = evaluate(spec, masks)
        if violates(lhs, rhs):
            violations += 1
            if len(examples) < EXAMPLE_CAP:
                examples.append(
                    Counterexample(
                        operands=tuple(spec.symbols_of(m)[0] for m in masks),
                        lhs=spec.symbols_of(lhs),
                        rhs=spec.symbols_of(rhs),
                    )
                )
    return AxiomRecord(axiom_id, holds=violations == 0, violations=violations,
                       universe=n ** ax.arity, examples=examples)


def _all_record_ids() -> list[str]:
    ids = []
    for a in MAIN_AXIOMS:
        ids.append(a)
        if a == "PL":
            ids.extend(["PL-right", "PL-left"])
        else:
            ids.extend([a + SUB, a + SUP])
    return ids


def _check_chunk(spec: CalculusSpec, ids: list[str]) -> list[AxiomRecord]:
    return [check_axiom(spec, a) for a in ids]


def classify(spec: CalculusSpec, jobs: int = 1) -> AxiomReport:
    """Run the full battery and derive the algebra class.

    The audit is a pure function of the tables; ``jobs`` > 1 partitions the
    per-axiom work across processes (worthwhile only for large calculi).
    """
    ids = _all_record_ids()
    if jobs > 1:
        chunks = [ids[i::jobs] for i in range(jobs)]
        records_list: list[AxiomRecord] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_check_chunk, [spec] * len(chunks), chunks):
                records_list.extend(part)
        by_id = {r.axiom_id: r for r in records_list}
        records = {a: by_id[a] for a in ids}
    else:
        records = {a: check_axiom(spec, a) for a in ids}

    classification = _derive_classification(records)
    return AxiomReport(spec.name, records, classification)


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
    ax, side = _axiom_of(axiom_id)
    if ax.needs_id and spec.identity_mask is None:
        return AxiomRecord(axiom_id, holds=None, violations=0, universe=0)
    size = spec.universal + 1
    evaluate, violates = _evaluator_and_test(ax, side)
    violations = 0
    examples: list[Counterexample] = []
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
    for masks in tuples:
        lhs, rhs = evaluate(spec, masks)
        if violates(lhs, rhs):
            violations += 1
            if len(examples) < EXAMPLE_CAP:
                examples.append(
                    Counterexample(
                        operands=tuple("(" + " ".join(spec.symbols_of(m)) + ")" for m in masks),
                        lhs=spec.symbols_of(lhs),
                        rhs=spec.symbols_of(rhs),
                    )
                )
    return AxiomRecord(axiom_id, holds=violations == 0, violations=violations,
                       universe=total, examples=examples)


def r6_r6l_equivalence_check(spec: CalculusSpec) -> Optional[bool]:
    """Shared truth value of the two identity laws, for calculi where they
    provably coincide (converse involution R7 plus distributivity R9, with a
    designated identity).  Returns None when those preconditions fail.
    """
    if spec.identity_mask is None:
        return None
    if check_axiom(spec, "R7").holds is not True:
        return None
    if check_axiom(spec, "R9").holds is not True:
        return None
    r6 = check_axiom(spec, "R6").holds
    r6l = check_axiom(spec, "R6l").holds
    if r6 != r6l:
        raise CalculusError(
            "identity laws disagree although converse involution and "
            "distributivity hold; the operation tables are inconsistent"
        )
    return bool(r6)
