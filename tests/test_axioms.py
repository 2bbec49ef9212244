"""Axiom battery: verdicts, counterexamples, classification, equivalences."""

import concurrent.futures
import dataclasses
import itertools
from collections import Counter
from random import Random

import pytest

from qsr import (
    CalculusError,
    CalculusSpec,
    Classification,
    builtin,
    check_axiom,
    check_axiom_composite,
    classify,
    r6_r6l_equivalence_check,
    validate,
)
from qsr import axioms
from qsr.axioms import MAIN_AXIOMS, SUB, SUP
from qsr.registry import BUILTIN_NAMES

ALWAYS_HOLD = ("R1", "R2", "R3", "R5", "R7" + SUP, "R8", "WA" + SUP, "SA" + SUP)


def test_pc1_r4_universe():
    rec = check_axiom(builtin("pc1"), "R4")
    assert rec.holds is True
    assert rec.violations == 0
    assert rec.universe == 27


def test_appendix_b2_r4_counterexample():
    rec = check_axiom(builtin("appendixB2"), "R4")
    assert rec.holds is False
    found = [e for e in rec.examples if e.operands == ("r1", "r3", "r4")]
    assert found and found[0].lhs == ("r1", "r4") and found[0].rhs == ("r1",)


def test_appendix_b1_r7_counterexample():
    rec = check_axiom(builtin("appendixB1"), "R7" + SUB)
    assert rec.holds is False
    ex = rec.examples[0]
    assert ex.operands == ("r1",) and ex.lhs == ("r1", "r2") and ex.rhs == ("r1",)


@pytest.mark.parametrize("name", ["pc1", "rcc5", "cycb", "appendixB-remark"])
def test_relation_algebras_have_clean_battery(name):
    report = classify(builtin(name))
    assert report.classification is Classification.RA
    assert report.all_main_hold()
    assert report.violated_sides() == frozenset()
    for aid in MAIN_AXIOMS:
        assert report.records[aid].violations == 0


def test_appendix_b1_violates_exactly_three_sides():
    report = classify(builtin("appendixB1"))
    assert report.violated_sides() == frozenset({"R6" + SUB, "R6l" + SUB, "R7" + SUB})
    assert report.classification is Classification.NA_OR_WEAKER


def test_appendix_b2_violated_side_set():
    report = classify(builtin("appendixB2"))
    assert report.violated_sides() == frozenset(
        {
            "WA" + SUB, "SA" + SUB,
            "R4" + SUB, "R4" + SUP,
            "R6" + SUP, "R6l" + SUP,
            "R9" + SUB, "R9" + SUP,
            "R10" + SUB, "R10" + SUP,
            "PL-right", "PL-left",
        }
    )


def test_always_satisfied_axioms():
    for name in ("pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark"):
        report = classify(builtin(name))
        for aid in ALWAYS_HOLD:
            assert report.records[aid].holds is True, (name, aid)


def test_classify_verdicts_match_the_derived_flags():
    spec = builtin("appendixB2")
    report = classify(spec)
    assert report.records["R7"].holds is spec.flags.ra7_holds is True
    assert report.records["R9"].holds is spec.flags.ra9_holds is False


def test_id_dependent_axioms_not_applicable_without_identity():
    from qsr import parse_spec, serialize

    free = parse_spec(serialize(builtin("pc1")).replace("identity =", "identity"))
    for aid in ("R6", "R6l", "WA"):
        rec = check_axiom(free, aid)
        assert rec.holds is None and not rec.applicable
    report = classify(free)
    assert report.classification is not Classification.RA


def test_pl_and_r10_agree_under_the_premises():
    # agreement is guaranteed given R1-R3, R5, R7-R9
    for name in ("pc1", "rcc5", "cycb", "appendixB-remark"):
        report = classify(builtin(name))
        premises = all(
            report.records[a].holds for a in ("R1", "R2", "R3", "R5", "R7", "R8", "R9")
        )
        assert premises
        assert report.records["PL"].holds == report.records["R10"].holds


def test_pl_r10_divergence_without_premises():
    # with a broken converse involution the Peircean law can hold while the
    # Tarski/De Morgan axiom fails: no composition cell is empty (so PL is
    # vacuous) yet conv(r2) . c(r2 . r2) spills outside c(r2)
    spec = CalculusSpec(
        "divergence",
        ["r1", "r2"],
        ["r1"],
        {"r1": ["r1", "r2"], "r2": ["r1", "r2"]},
        {
            ("r1", "r1"): ["r1", "r2"],
            ("r1", "r2"): ["r1"],
            ("r2", "r1"): ["r1", "r2"],
            ("r2", "r2"): ["r2"],
        },
    )
    report = classify(spec)
    assert report.records["R7"].holds is False
    assert report.records["PL"].holds is True
    assert report.records["R10"].holds is False


@pytest.mark.parametrize("axiom", ["R4", "R6", "R6l", "R7", "R9"])
@pytest.mark.parametrize("name", ["pc1", "rcc5", "cycb", "appendixB-remark"])
def test_union_preserved_axioms_extend_to_composites(name, axiom):
    spec = builtin(name)
    assert check_axiom(spec, axiom).holds is True
    rec = check_axiom_composite(spec, axiom, samples=10_000, seed=5)
    assert rec.holds is True and rec.violations == 0


def test_composite_exhaustive_mode():
    spec = builtin("appendixB-remark")
    rec = check_axiom_composite(spec, "R4", exhaustive=True)
    assert rec.universe == 4 ** 3
    assert rec.holds is True


def test_r10_composite_level_can_be_probed():
    # mirrors the audit default (base pairs only) but allows opting in
    rec = check_axiom_composite(builtin("rcc5"), "R10", samples=2_000, seed=1)
    assert rec.holds is True


@pytest.mark.parametrize("check", [check_axiom, check_axiom_composite])
@pytest.mark.parametrize("axiom_id", ["R99", "R99" + SUB, "PL-up", "PL" + SUB, "PL" + SUP])
def test_unknown_axiom_is_a_calculus_error(check, axiom_id):
    with pytest.raises(CalculusError, match=f"unknown axiom '{axiom_id}'"):
        check(builtin("pc1"), axiom_id)


def test_r6_r6l_equivalence():
    assert r6_r6l_equivalence_check(builtin("pc1")) is True
    assert r6_r6l_equivalence_check(builtin("rcc5")) is True
    assert r6_r6l_equivalence_check(builtin("appendixB-remark")) is True
    # preconditions fail: converse involution for B1, distributivity for B2
    assert r6_r6l_equivalence_check(builtin("appendixB1")) is None
    assert r6_r6l_equivalence_check(builtin("appendixB2")) is None


def test_parallel_classification_matches_sequential():
    # appendixB2 has violations, so the examples are compared too
    for name in ("rcc5", "appendixB2"):
        seq = classify(builtin(name))
        par = classify(builtin(name), jobs=2)
        assert par.classification is seq.classification
        assert list(par.records) == list(seq.records)
        assert par.records == seq.records


def test_audit_pool_has_at_most_one_worker_per_axiom(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # classify imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    spec = builtin("appendixB2")
    for jobs in (3, 64):
        assert classify(spec, jobs=jobs).records == classify(spec).records
    assert started == [3, len(MAIN_AXIOMS)]


def test_classify_records_equal_check_axiom(random_calculus):
    rng = Random(11)
    calcs = [builtin(name) for name in BUILTIN_NAMES]
    calcs += [random_calculus(rng, rng.choice((2, 3, 4, 5)), f"rand{t}") for t in range(20)]
    for spec in calcs:
        report = classify(spec)
        assert len(report.records) == 3 * len(MAIN_AXIOMS)
        for aid, rec in report.records.items():
            assert rec == check_axiom(spec, aid), (spec.name, aid)


def test_classify_reads_triple_axioms_a_row_at_a_time(monkeypatch):
    # R1, R3, R7 and R8: one evaluator call per base tuple; every other
    # axiom: |Rel| ** (arity - 1) row pairs of |Rel| lanes (R10 also those of
    # its dual rotation) and no per-tuple call
    calls, pairs = Counter(), Counter()
    spec = builtin("appendixB2")
    n = len(spec.symbols)

    def counted(aid, evaluate):
        def wrapped(spec, masks):
            calls[aid] += 1
            return evaluate(spec, masks)
        return wrapped

    def counted_rows(aid, rows):
        def wrapped(spec, lanes):
            for pair in rows(spec, lanes):
                for row in pair:
                    assert len(lanes.unpack(row)) == n
                    # a packed row: guard bits clear, nothing above the last lane
                    assert isinstance(row, list) or row & lanes.guard == row >> n * (n + 1) == 0
                pairs[aid] += 1
                yield pair
        return wrapped

    for aid, ax in list(axioms._AXIOMS.items()):
        wrapped = dataclasses.replace(ax, eval=counted(aid, ax.eval))
        if ax.sup_eval is not None:
            wrapped = dataclasses.replace(wrapped, sup_eval=counted(aid + SUP, ax.sup_eval))
        if ax.rows is not None:
            wrapped = dataclasses.replace(wrapped, rows=counted_rows(aid, ax.rows))
        if ax.sup_rows is not None:
            wrapped = dataclasses.replace(wrapped, sup_rows=counted_rows(aid + SUP, ax.sup_rows))
        monkeypatch.setitem(axioms._AXIOMS, aid, wrapped)
    classify(spec)
    per_tuple = {aid for aid, ax in axioms._AXIOMS.items() if ax.rows is None}
    assert per_tuple == {"R1", "R3", "R7", "R8"}
    assert calls == {aid: n ** axioms._AXIOMS[aid].arity for aid in per_tuple}
    expected = {aid: n ** (ax.arity - 1) for aid, ax in axioms._AXIOMS.items() if ax.rows}
    assert pairs == {**expected, "R10" + SUP: n}


def _per_tuple_records(spec):
    """Every record of the battery, one evaluator call per base tuple."""
    n = len(spec.symbols)
    bases = [1 << i for i in range(n)]
    records = {}
    for axiom, ax in axioms._AXIOMS.items():
        hits = axioms._tuple_hits(spec, axiom, itertools.product(bases, repeat=ax.arity))
        for rec in axioms._audit(spec, axiom, hits, n ** ax.arity, lambda m: spec.symbols_of(m)[0]):
            records[rec.axiom_id] = rec
    return records


def test_row_audit_equals_the_per_tuple_audit(random_calculus, dihedral_group, cyclic_group):
    rng = Random(20)
    calcs = [builtin(name) for name in BUILTIN_NAMES]
    calcs += [random_calculus(rng, rng.randint(2, 5), f"rand{t}") for t in range(20)]
    calcs += [dihedral_group(5), cyclic_group(20)]
    failing = Counter()
    for spec in calcs:
        report = classify(spec)
        assert report.records == _per_tuple_records(spec), spec.name
        failing.update(a for a, rec in report.records.items() if rec.holds is False)
        failing["R7"] += not spec.flags.ra7_holds
    # the draws exercise the lane tests: broken converse, violations of the
    # triple axioms, of R9, of both R10 records and of the unary axioms
    assert min(failing[a] for a in ("R4", "PL", "R7", "R9", "R10", "R10" + SUP, "R6", "WA", "SA")) >= 3, failing


@pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17])
def test_row_audit_equals_the_per_tuple_audit_at_lane_width_edges(random_calculus, n):
    # up to 8 relations compose_masks reads dense rows, up to 16 chunked
    # rows and above that _compose_large; at n + 1 bits a lane's top mask
    # bit sits right below its guard bit
    rng = Random(n)
    for t in range(3):
        spec = random_calculus(rng, n, f"rand{n}-{t}")
        assert classify(spec).records == _per_tuple_records(spec), spec.name


def test_row_audit_leaves_the_composition_cache_empty(dihedral_group, cyclic_group):
    # the row memos live for one audit only, and validate reads the table
    for spec in (dihedral_group(5), cyclic_group(20)):
        assert len(spec.symbols) > 8
        classify(spec)
        validate(spec)
        assert spec._comp_cache == {}, spec.name


def test_classification_ra_minus_id():
    # identity laws broken by renaming the designated identity, everything
    # else intact: the point-calculus tables with identity set to < fail
    # only R6/R6l
    pc1 = builtin("pc1")
    spec = CalculusSpec(
        "pc1-misdeclared",
        pc1.symbols,
        ["<"],
        {s: pc1.symbols_of(m) for s, m in zip(pc1.symbols, pc1.converse_row)},
        {
            (a, b): pc1.symbols_of(pc1.composition_row[i][j])
            for i, a in enumerate(pc1.symbols)
            for j, b in enumerate(pc1.symbols)
        },
    )
    report = classify(spec)
    assert report.records["R6"].holds is False
    assert report.classification is Classification.RA_MINUS_ID


def test_report_json_shape():
    doc = classify(builtin("appendixB2")).to_json_dict()
    assert doc["classification"] == "NA-or-weaker"
    by_id = {a["axiom"]: a for a in doc["axioms"]}
    assert by_id["R4"]["violations"] > 0
    assert by_id["R4"]["universe"] == 64
    assert 0 < by_id["R4"]["percentage"] < 100
