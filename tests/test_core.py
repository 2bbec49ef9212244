"""Relation-set operations: Boolean structure, converse, composition."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsr import CalculusError, CalculusMismatchError, CalculusSpec, builtin


pc1 = builtin("pc1")
rcc5 = builtin("rcc5")
cycb = builtin("cycb")


def test_union_basic():
    assert (pc1.relation("<") | pc1.relation("=")).symbols == ("<", "=")
    assert pc1.relation("<", "=") | pc1.universal_relation == pc1.universal_relation
    assert (rcc5.relation("PP") | rcc5.relation("PPi")).symbols == ("PP", "PPi")


def test_intersect_and_complement():
    assert (pc1.relation("<", "=") & pc1.relation("=", ">")).symbols == ("=",)
    assert (~pc1.relation("<")).symbols == ("=", ">")
    assert (~rcc5.universal_relation).is_empty


def test_converse():
    assert pc1.relation("<", "=").converse().symbols == ("=", ">")
    # per-symbol lookup: e stays, l flips to r
    assert cycb.relation("e", "l").converse().symbols == ("e", "r")
    assert rcc5.relation("PP", "PPi").converse().symbols == ("PP", "PPi")
    assert pc1.empty_relation.converse().is_empty


def test_compose():
    assert pc1.relation("<", "=").compose(pc1.universal_relation) == pc1.universal_relation
    assert rcc5.relation("PP", "PPi").compose(rcc5.relation("DC")).symbols == ("DC", "PO", "PPi")
    assert pc1.relation("<").compose(pc1.empty_relation).is_empty
    # follows from the cycb table: l.l lacks e, so the union has all four
    assert cycb.relation("e", "l").compose(cycb.relation("e", "l")).symbols == ("e", "o", "l", "r")


def test_cross_calculus_rejected():
    with pytest.raises(CalculusMismatchError):
        pc1.relation("<") | rcc5.relation("DC")
    with pytest.raises(CalculusMismatchError):
        pc1.relation("<").compose(cycb.relation("l"))


def test_mask_width_and_identity():
    assert pc1.universal == 0b111
    assert pc1.identity_relation.symbols == ("=",)
    assert rcc5.identity_relation.symbols == ("EQ",)
    assert cycb.identity_relation.symbols == ("e",)


def _sets(calc):
    return st.integers(min_value=0, max_value=calc.universal).map(calc.from_mask)


@settings(max_examples=200)
@given(_sets(rcc5), _sets(rcc5), _sets(rcc5))
def test_boolean_laws(a, b, c):
    assert (a | b) == (b | a)
    assert (a | (b | c)) == ((a | b) | c)
    # Huntington's axiom
    assert (~(~a | ~b)) | (~(~a | b)) == a


@settings(max_examples=200)
@given(_sets(rcc5), _sets(rcc5), _sets(rcc5))
def test_operations_distribute_over_union(a, b, c):
    assert (a | b).converse() == a.converse() | b.converse()
    assert (a | b).compose(c) == a.compose(c) | b.compose(c)
    assert c.compose(a | b) == c.compose(a) | c.compose(b)


@pytest.mark.parametrize("name", ["pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark"])
def test_double_converse_never_loses(name):
    calc = builtin(name)
    for mask in range(calc.universal + 1):
        r = calc.from_mask(mask)
        assert r.issubset(r.converse().converse())


def test_relation_set_protocols():
    r = pc1.relation("<", ">")
    assert "<" in r and "=" not in r
    assert len(r) == 2
    assert list(r) == ["<", ">"]
    assert bool(pc1.empty_relation) is False


def test_large_calculus_falls_back_to_sparse_tables():
    # 20 symbols is past the precomputation cut-offs; composition must still work
    syms = [f"s{i}" for i in range(20)]
    conv = {s: [s] for s in syms}
    comp = {(a, b): [a] for a in syms for b in syms}
    big = CalculusSpec("big", syms, None, conv, comp)
    r = big.relation("s0", "s7", "s19")
    assert r.compose(big.universal_relation) == r
    assert r.converse() == r


def _random_tables(rng, n_syms):
    syms = [f"s{i}" for i in range(n_syms)]
    u = (1 << n_syms) - 1
    conv = {s: [syms[b] for b in range(n_syms) if rng.randrange(1, u + 1) >> b & 1] for s in syms}
    if rng.random() < 0.5:
        # an involutive permutation, so that R7 holds and R9 is the open question
        perm = list(range(n_syms))
        for k in range(0, n_syms - 1, 2):
            if rng.random() < 0.5:
                perm[k], perm[k + 1] = k + 1, k
        conv = {s: [syms[perm[i]]] for i, s in enumerate(syms)}
    comp = {
        (a, b): [syms[k] for k in range(n_syms) if rng.randrange(0, u + 1) >> k & 1]
        for a in syms
        for b in syms
    }
    return syms, conv, comp


def test_compute_ra9_leaves_the_composition_cache_empty(cyclic_group):
    from qsr.core import compute_ra9, compute_universal_absorbs, compute_universal_idempotent

    spec = cyclic_group(12)
    assert compute_ra9(spec) is True
    assert compute_universal_absorbs(spec) is True
    assert compute_universal_idempotent(spec) is True
    assert spec.flags.ra9_holds is True
    assert spec.flags.universal_absorbs is True
    assert spec.flags.universal_idempotent is True
    assert spec._comp_cache == {}


def test_compute_ra9_matches_the_axiom_check(cyclic_group):
    # the flags are the verdicts of the rows that the audit reads too, so the
    # check is the per-tuple evaluators, through compose_masks and
    # converse_mask, over every base tuple: they equal the rows lane by lane
    # (lane k of pair p holds the tuple of rank p * |Rel| + k), and a flag
    # holds iff no tuple violates
    import itertools
    import random

    from qsr import BUILTIN_NAMES, axioms
    from qsr.core import _r7_rows, _r9_rows, compute_ra7, compute_ra9

    specs = [builtin(name) for name in BUILTIN_NAMES] + [cyclic_group(9), cyclic_group(10)]
    rng = random.Random(20261018)
    for trial in range(120):
        syms, conv, comp = _random_tables(rng, rng.randint(2, 10))
        specs.append(CalculusSpec(f"rand{trial}", syms, None, conv, comp))
    seen = set()
    for spec in specs:
        bases = [1 << i for i in range(len(spec))]
        flags = []
        for rows, evaluate, arity in ((_r7_rows, axioms._r7, 1), (_r9_rows, axioms._r9, 2)):
            evaluated = [evaluate(spec, t) for t in itertools.product(bases, repeat=arity)]
            assert [lanes for lhs, rhs in rows(spec) for lanes in zip(lhs, rhs)] == evaluated, spec.name
            flags.append(all(lhs == rhs for lhs, rhs in evaluated))
        ra7, ra9 = compute_ra7(spec), compute_ra9(spec)
        assert (ra7, ra9) == tuple(flags), spec.name
        seen.add((ra7, ra9))
    assert {(False, False), (True, False), (True, True)} <= seen


def test_universal_absorbs_matches_its_definition(cyclic_group, dihedral_group, random_calculus):
    # U.{s} == U == {s}.U for every base relation s, and U.U == U, read
    # through compose_masks after the flags, which leave the cache empty.
    # Absorption and an identity relation each imply U.U == U.
    import random

    from qsr import BUILTIN_NAMES

    specs = [builtin(name) for name in BUILTIN_NAMES]
    fresh = [cyclic_group(9), cyclic_group(10), dihedral_group(5)]
    rng = random.Random(8)
    fresh += [random_calculus(rng, rng.choice((1, 2, 3, 4, 9)), f"rand{t}") for t in range(60)]
    for spec in fresh:
        spec.flags
        assert spec._comp_cache == {}, spec.name
    seen = set()
    for spec in specs + fresh:
        u = spec.universal
        absorbs = all(
            spec.compose_masks(u, 1 << s) == u and spec.compose_masks(1 << s, u) == u
            for s in range(len(spec))
        )
        idempotent = spec.compose_masks(u, u) == u
        e = spec.identity_mask
        identity = e is not None and all(spec.compose_masks(e, 1 << s) == 1 << s for s in range(len(spec)))
        assert spec.flags.universal_absorbs is absorbs, spec.name
        assert spec.flags.universal_idempotent is idempotent, spec.name
        assert idempotent or not (absorbs or identity), spec.name
        seen.add((absorbs, idempotent))
    assert seen == {(True, True), (False, True), (False, False)}


def test_empty_identity_is_refused():
    # an empty identity would leave every diagonal cell empty, and a spec
    # file reads `identity` with no symbols as no identity at all
    with pytest.raises(CalculusError, match="pass None"):
        CalculusSpec("e0", ["a"], [], {"a": ["a"]}, {("a", "a"): ["a"]})
    assert CalculusSpec("e0", ["a"], None, {"a": ["a"]}, {("a", "a"): ["a"]}).identity_mask is None


def test_directly_built_calculus_derives_its_flags():
    state = builtin("appendixB2").__getstate__()
    spec = CalculusSpec(state["name"], state["symbols"], state["identity"],
                        state["converse"], state["composition"])
    assert spec.flags.ra7_holds is True
    assert spec.flags.ra9_holds is False
    assert spec.flags.universal_absorbs is False
    assert spec.flags.universal_idempotent is True
    assert spec.flags.acl_decides_atomic is False


def test_public_names_resolve_once():
    import qsr

    assert len(qsr.__all__) == len(set(qsr.__all__))
    for name in qsr.__all__:
        assert getattr(qsr, name) is not None, name


def test_compose_row_reads_as_compose_masks(cyclic_group, dihedral_group):
    import random

    from qsr import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        spec = builtin(name)
        assert spec.dense_rows is True and spec.chunked_rows is False
        for a in range(spec.universal + 1):
            row = spec.compose_row(a)
            assert all(row[b] == spec.compose_masks(a, b) for b in range(spec.universal + 1)), (name, a)
    rng = random.Random(5)
    # 9 to 16 relations: flat rows read in two byte chunks
    for spec in (cyclic_group(9), cyclic_group(10), dihedral_group(5), cyclic_group(16), dihedral_group(8)):
        assert spec.chunked_rows is True and spec.dense_rows is False
        masks = [0, spec.universal, 255, spec.universal ^ 255] + [1 << k for k in range(len(spec))]
        masks += [rng.randrange(spec.universal + 1) for _ in range(40)]
        for a in masks:
            row = spec.compose_row(a)
            assert len(row) == 256 + (1 << (len(spec) - 8))
            for b in masks:
                assert row[b & 255] | row[256 + (b >> 8)] == spec.compose_masks(a, b), (spec.name, a, b)
    # more than 16: no rows, only compose_masks
    for spec in (cyclic_group(17), dihedral_group(9)):
        assert spec.chunked_rows is False and spec.dense_rows is False
        for a in (0, 1, 255, 256, spec.universal):
            with pytest.raises(CalculusError):
                spec.compose_row(a)
        assert spec._comp_chunks is None


def test_dense_rows_are_built_only_when_asked_for(cyclic_group, dihedral_group):
    # up to 8 relations the dense table is filled row by row: closing
    # networks on Z8 and D4 (R7 and R9 hold, so only the fused pass reads
    # rows) builds the rows of the labels it meets and the rows they are
    # built from, not all 256
    from qsr import a_closure, naive_closure, random_network

    for spec in (cyclic_group(8), dihedral_group(4)):
        assert spec.dense_rows and spec.flags.ra7_holds and spec.flags.ra9_holds
        for seed in range(6):
            net = random_network(spec, 6, 0.5, "singletons", seed=seed)
            got = a_closure(net)
            ref = naive_closure(net)
            assert got.status == ref.status
            if got.closed:
                assert got.network.cells == ref.network.cells
        lo_rows, hi_rows, _ = spec._comp_chunks
        assert len(lo_rows) == 256 and hi_rows == [lo_rows[0]]
        built = [m for m, row in enumerate(lo_rows) if row is not None]
        assert 1 < len(built) < 256, spec.name
    # one read fills the row asked for and the rows it is built from, each
    # the row of a mask without its lowest bit
    spec = cyclic_group(8)
    assert spec.compose_masks(0b1010, 0b10) == spec.compose_row(0b1010)[0b10] == 0b10100
    assert [m for m, row in enumerate(spec._comp_chunks[0]) if row is not None] == [0, 0b1000, 0b1010]


def test_byte_tables_read_as_compose_masks(cyclic_group, dihedral_group, random_calculus):
    # the closure's triangle filter translates cells through 256-byte
    # tables.  Up to 8 relations index a holds the row of a (a.x at byte x)
    # and 256 + a its column (x.a); from 9 to 16 an index holds four tables
    # for a chunk row of compose_row, m for the low byte m and 256 + h for
    # the high byte h << 8: the low and the high byte of a.x and of
    # a.(x << 8).  Every entry is the composition; bytes past the last mask
    # are zero
    import random

    from qsr import BUILTIN_NAMES

    rng = random.Random(88)
    dense = [builtin(name) for name in BUILTIN_NAMES]
    dense += [random_calculus(rng, width, f"rand{width}") for width in range(1, 9)]
    for spec in dense:
        u = spec.universal
        for a in range(u + 1):
            row, col = spec._byte_table(a), spec._byte_table(256 + a)
            assert len(row) == len(col) == 256
            assert list(row[:u + 1]) == [spec.compose_masks(a, x) for x in range(u + 1)], (spec.name, a)
            assert list(col[:u + 1]) == [spec.compose_masks(x, a) for x in range(u + 1)], (spec.name, a)
            assert not any(row[u + 1:]) and not any(col[u + 1:]), (spec.name, a)
    for spec in (cyclic_group(9), dihedral_group(5), cyclic_group(16), dihedral_group(8)):
        high = 1 << (len(spec) - 8)
        # every table up to 10 relations, every fifth one at 16
        step = 1 if high <= 4 else 5
        for index in [*range(0, 256, step), *range(256, 256 + high, step), 255, 255 + high]:
            a = index if index < 256 else (index - 256) << 8
            tables = spec._byte_table(index)
            assert [len(t) for t in tables] == [256] * 4
            lo_lo, lo_hi, hi_lo, hi_hi = tables
            assert [lo_lo[x] | lo_hi[x] << 8 for x in range(256)] == [
                spec.compose_masks(a, x) for x in range(256)], (spec.name, a)
            assert [hi_lo[y] | hi_hi[y] << 8 for y in range(high)] == [
                spec.compose_masks(a, y << 8) for y in range(high)], (spec.name, a)
            assert not any(hi_lo[high:]) and not any(hi_hi[high:]), (spec.name, a)


def test_closure_builds_only_the_byte_tables_it_reads(cyclic_group, dihedral_group):
    # the byte filter of the safe loop up to 8 relations (appendixB1,
    # appendixB2) and of the chunked fused pass (Z9, D5) builds a table on
    # its first read and no other; the dense fused pass (rcc5) reads none,
    # and above 16 relations there are none
    from qsr import a_closure, random_network

    class Reads(list):
        def __getitem__(self, index):
            read.add(index)
            return super().__getitem__(index)

    for spec in (builtin("appendixB1"), builtin("appendixB2"), cyclic_group(9), dihedral_group(5)):
        spec = pickle.loads(pickle.dumps(spec))  # no table built yet
        read = set()
        spec._comp_bytes = Reads(spec._comp_bytes)
        assert not any(spec._comp_bytes)
        for seed in range(4):
            a_closure(random_network(spec, 10, 0.5, seed=seed))
        built = {index for index, table in enumerate(spec._comp_bytes) if table is not None}
        assert read and built == read, spec.name
        assert len(built) < (512 if spec.dense_rows else 256 + (1 << (len(spec) - 8))), spec.name
    rcc5 = pickle.loads(pickle.dumps(builtin("rcc5")))
    a_closure(random_network(rcc5, 10, 0.5, seed=1))
    assert rcc5._comp_chunks is not None and not any(rcc5._comp_bytes)
    assert cyclic_group(17)._comp_bytes is None


def test_chunk_rows_are_bounded_and_stay_out_of_pickles(cyclic_group, dihedral_group):
    # closure on a 9 to 16 relation algebra (R7 and R9 hold) reads only the
    # two byte-indexed tables: the compose_masks memo stays empty, each table
    # has at most its 256 or 2**(|Rel| - 8) rows, and a pickle, which is how
    # classify(jobs=2) ships a calculus to its workers, leaves them out
    import pickle

    from qsr import a_closure, random_network

    for spec in (cyclic_group(9), dihedral_group(6), cyclic_group(16)):
        assert spec.flags.ra7_holds and spec.flags.ra9_holds
        before = pickle.dumps(spec)
        for seed in range(12):
            a_closure(random_network(spec, 12, 0.5, seed=seed), queue_order="lifo")
        assert spec._comp_cache == {}
        lo_rows, hi_rows, _ = spec._comp_chunks
        assert (len(lo_rows), len(hi_rows)) == (256, 1 << (len(spec) - 8))
        assert sum(row is not None for row in hi_rows) > 1, spec.name
        assert any(spec._comp_bytes), spec.name
        assert pickle.dumps(spec) == before
        assert pickle.loads(before)._comp_chunks is None
        assert not any(pickle.loads(before)._comp_bytes)
    # up to 8 relations the dense table, which the safe loop of a closure
    # on appendixB2 (R7 without R9) reads, stays out of pickles as well
    spec = pickle.loads(pickle.dumps(builtin("appendixB2")))
    before = pickle.dumps(spec)
    assert spec._comp_chunks is None
    a_closure(random_network(spec, 8, 0.5, seed=1))
    assert sum(row is not None for row in spec._comp_chunks[0]) > 1
    assert any(spec._comp_bytes)
    assert pickle.dumps(spec) == before
    assert pickle.loads(before)._comp_chunks is None
    assert not any(pickle.loads(before)._comp_bytes)
