"""Builtin calculi, spec-file parsing, serialization, validation."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsr import builtin, builtin_model, parse_spec, serialize, validate
from qsr.core import CalculusError, CalculusSpec
from qsr.registry import BUILTIN_NAMES, SpecParseError


def test_builtin_names_stable():
    assert BUILTIN_NAMES == ("pc1", "rcc5", "cycb", "appendixB1", "appendixB2", "appendixB-remark")
    for name in BUILTIN_NAMES:
        assert builtin(name).name == name
    with pytest.raises(KeyError):
        builtin("allen")


def test_builtin_is_cached():
    assert builtin("pc1") is builtin("pc1")


@pytest.mark.parametrize("name, digest, size", [
    ("pc1", "5e1e8b74dd4bb73fba7d9e9eb64b6d13dae7cb4ecb645dcc6bb1f46174dfeaf4", 161),
    ("rcc5", "55255c9606b38c125cbf7acdd531f2c982ac1a0d6412464740441a8350ca0542", 500),
    ("cycb", "865710d1b8dc622a6b7206c9c799decdf9eeb6ebc53be1c01535c64c4fe4daec", 234),
    ("appendixB1", "c5caf2755a59f5d90e54adf810969456d28aaae45802c438a44433a65affb92c", 149),
    ("appendixB2", "a8ff704ffc7ea38386712a60e7fe9fcde6e5806005d2f57195be0669ae872127", 274),
    ("appendixB-remark", "7c6b154f76a7629fb22100880d2c4c637e797d769ffdb988b5cc0ed6ead4d57e", 140),
])
def test_derived_builtins_serialize_to_the_hand_written_tables(name, digest, size):
    # the text of the tables these builtins shipped as literals before they
    # were derived from their domains
    text = serialize(builtin(name)).encode()
    assert (hashlib.sha256(text).hexdigest(), len(text)) == (digest, size)


@pytest.mark.parametrize("name, digest, size", [
    ("appendixB1", "7567b79901cbb69bf2f9b93f7e37160b1ac132d352234b60dd08ce436e0fc238", 84),
    ("appendixB2", "1d92c09dc78eeabac78a30316b11e08d475af983dceb7a8ba766842e9d1ed953", 92),
    ("appendixB-remark", "43da11f9ae274a711240dcb0b162b6381ee28978317e22126d60d786cead0d2b", 96),
])
def test_fixture_models_write_the_hand_written_pairs(name, digest, size):
    # the text of the models these fixtures shipped as pair literals
    text = builtin_model(name).to_text().encode()
    assert (hashlib.sha256(text).hexdigest(), len(text)) == (digest, size)


LAZY_IMPORT = """
import sys
derived = []
sys.setprofile(lambda frame, event, arg: event == "call"
               and frame.f_code.co_name == "weak_operations" and derived.append(1))
import qsr.cli
assert "concurrent.futures" not in sys.modules and "multiprocessing" not in sys.modules
from qsr import builtin, builtin_model, registry
assert not derived and not registry._CACHE and builtin_model.cache_info().currsize == 0
builtin("rcc5")
assert len(derived) == 1 and list(registry._CACHE) == ["rcc5"]
builtin_model("rcc5-subsets4")
assert len(derived) == 1
builtin("appendixB2")
builtin_model("appendixB2")
assert len(derived) == 2
"""


def test_import_derives_no_table():
    # a command that loads a spec file never pays for deriving the builtins
    src = Path(builtin.__code__.co_filename).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", LAZY_IMPORT], env=env, check=True, timeout=60)


def test_source_provenance():
    assert builtin("pc1").source.origin == "builtin"
    spec = parse_spec(PC1_SPEC)
    assert spec.source.origin == "file"
    assert spec.source.raw == PC1_SPEC


def test_pc1_table_cells():
    pc1 = builtin("pc1")
    assert pc1.relation("<").compose(pc1.relation(">")) == pc1.universal_relation
    assert pc1.relation("=").compose(pc1.relation("<")).symbols == ("<",)
    assert pc1.relation(">").compose(pc1.relation(">")).symbols == (">",)


def test_rcc5_table_cells():
    rcc5 = builtin("rcc5")
    assert rcc5.relation("DC").compose(rcc5.relation("PO")).symbols == ("DC", "PO", "PP")
    # identity row is forced by the identity law, including the EQ.PP cell
    for s in rcc5.symbols:
        assert rcc5.relation("EQ").compose(rcc5.relation(s)).symbols == (s,)
        assert rcc5.relation(s).compose(rcc5.relation("EQ")).symbols == (s,)
    assert rcc5.relation("PP").compose(rcc5.relation("PPi")) == rcc5.universal_relation


def test_cycb_table_cells():
    cycb = builtin("cycb")
    assert cycb.relation("l").compose(cycb.relation("l")).symbols == ("o", "l", "r")
    assert cycb.relation("l").compose(cycb.relation("r")).symbols == ("e", "l", "r")
    assert cycb.relation("o").compose(cycb.relation("o")).symbols == ("e",)


def test_appendix_fixture_cells():
    b2 = builtin("appendixB2")
    assert b2.relation("r3").compose(b2.relation("r4")).symbols == ("r1", "r4")
    assert b2.relation("r1").compose(b2.relation("r2")).is_empty
    b1 = builtin("appendixB1")
    assert b1.relation("r1").compose(b1.relation("r1")) == b1.universal_relation
    assert b1.relation("r1").converse() == b1.universal_relation
    remark = builtin("appendixB-remark")
    assert remark.relation("r2").compose(remark.relation("r2")) == remark.universal_relation
    assert remark.identity_relation.symbols == ("r1",)


def test_flags_computed_at_load():
    assert builtin("pc1").flags.ra7_holds is True
    assert builtin("pc1").flags.ra9_holds is True
    assert builtin("appendixB1").flags.ra7_holds is False
    assert builtin("appendixB2").flags.ra7_holds is True
    assert builtin("appendixB2").flags.ra9_holds is False


PC1_SPEC = """\
# one-dimensional ordering of points
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
= < (<)
= = (=)
= > (>)
> < (< = >)
> = (>)
> > (>)
"""


def test_parse_spec_round_trips_builtin():
    spec = parse_spec(PC1_SPEC)
    assert spec == builtin("pc1")
    assert parse_spec(serialize(spec)) == spec


_sym = st.text(alphabet="abcdefgh<>=~+-", min_size=1, max_size=3)


@st.composite
def _random_calculus(draw):
    symbols = draw(st.lists(_sym, min_size=1, max_size=4, unique=True))
    n = len(symbols)
    u = (1 << n) - 1
    mask_list = lambda lo: st.integers(lo, u).map(
        lambda m: [symbols[i] for i in range(n) if m >> i & 1]
    )
    converse = {s: draw(mask_list(1)) for s in symbols}
    composition = {(a, b): draw(mask_list(0)) for a in symbols for b in symbols}
    identity = draw(st.one_of(st.none(), mask_list(1)))
    name = draw(st.text(alphabet="abcdefgh<>=~+-\"'\\ ", min_size=1, max_size=3))
    return CalculusSpec(name, symbols, identity, converse, composition)


@settings(max_examples=60)
@given(_random_calculus())
def test_serialize_round_trip_random_calculi(spec):
    assert parse_spec(serialize(spec)) == spec


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_serialize_round_trip_all_builtins(name):
    spec = builtin(name)
    again = parse_spec(serialize(spec))
    assert again == spec
    assert (again.flags.ra7_holds, again.flags.ra9_holds) == (spec.flags.ra7_holds, spec.flags.ra9_holds)


def test_missing_composition_row_is_an_error():
    broken = PC1_SPEC.replace("> > (>)\n", "")
    with pytest.raises(SpecParseError, match="composition table not total"):
        parse_spec(broken)


def test_unknown_symbol_in_cell():
    broken = PC1_SPEC.replace("> > (>)", "> > (>=)")
    with pytest.raises(SpecParseError, match="unknown symbol '>='"):
        parse_spec(broken)


def test_duplicate_symbol_rejected():
    with pytest.raises(SpecParseError, match="duplicate symbol"):
        parse_spec('calculus "x"\nrelations a a\n')


def test_duplicate_calculus_clause_rejected():
    # a second name line would silently win over the first
    text = PC1_SPEC.replace("relations", 'calculus "other"\nrelations')
    with pytest.raises(SpecParseError, match="duplicate calculus clause") as err:
        parse_spec(text)
    assert err.value.line == 3


def test_reserved_keyword_symbol_rejected():
    with pytest.raises(SpecParseError, match="directive keyword"):
        parse_spec('calculus "x"\nrelations a converse\n')


def test_syntax_error_carries_line():
    bad = 'calculus "x"\nrelations a\nidentity a\nconverse\na a\n'
    with pytest.raises(SpecParseError) as err:
        parse_spec(bad)
    assert err.value.line == 5


@pytest.mark.parametrize("ending", ["\n", ""])
def test_whole_file_errors_name_the_last_line(ending):
    text = 'calculus "x"\nrelations a\nidentity a\nconverse\na (a)\ncomposition' + ending
    with pytest.raises(SpecParseError, match="composition table not total") as err:
        parse_spec(text)
    assert err.value.line == 6


@pytest.mark.parametrize("symbol", ["a#b", "a b", "", "calculus"])
def test_serialize_refuses_symbols_that_parse_spec_cannot_read_back(symbol):
    syms = ["x", symbol]
    spec = CalculusSpec("c", syms, None, {s: syms for s in syms},
                        {(a, b): syms for a in syms for b in syms})
    with pytest.raises(CalculusError, match=re.escape(repr(symbol))):
        serialize(spec)


def test_identity_clause_optional():
    text = PC1_SPEC.replace("identity =\n", "")
    assert parse_spec(text).identity_mask is None
    # an empty identity clause means the same thing
    text = PC1_SPEC.replace("identity =", "identity")
    assert parse_spec(text).identity_mask is None


def test_flags_line_is_rejected():
    # properties are derived from the tables: a downgrade may not be
    # declared, before or inside a section
    text = serialize(builtin("appendixB2")).replace("converse\n", "flags ra7=no ra9=no\nconverse\n")
    with pytest.raises(SpecParseError, match="unexpected directive 'flags'") as err:
        parse_spec(text)
    assert err.value.line == 4
    text = PC1_SPEC.replace("composition\n", "composition\nflags ra7=no\n")
    with pytest.raises(SpecParseError, match="unexpected directive 'flags'") as err:
        parse_spec(text)
    assert text.splitlines()[err.value.line - 1] == "flags ra7=no"


def test_flags_claiming_a_refuted_property_are_rejected():
    # appendixB2 satisfies R7 but not R9, appendixB1 not R7: a claim the
    # tables refute is rejected at its line like any other flags line
    text = serialize(builtin("appendixB2")).replace("converse\n", "flags ra7=yes ra9=yes\nconverse\n")
    with pytest.raises(SpecParseError, match="unexpected directive 'flags'") as err:
        parse_spec(text)
    assert err.value.line == 4
    b1 = serialize(builtin("appendixB1")).replace("converse\n", "flags ra7=yes\nconverse\n")
    with pytest.raises(SpecParseError, match="unexpected directive 'flags'") as err:
        parse_spec(b1)
    assert err.value.line == 4


def test_flags_are_read_only():
    rcc5 = builtin("rcc5")
    with pytest.raises(AttributeError):
        setattr(rcc5.flags, "ra7_holds", False)
    with pytest.raises(AttributeError):
        rcc5.flags = None
    assert rcc5.flags.ra7_holds is True


def test_validate_pc1_clean():
    assert validate(builtin("pc1")) == []


def test_validate_rcc5_reports_the_corrected_cell():
    findings = validate(builtin("rcc5"))
    assert len(findings) == 1
    assert findings[0].kind == "note"
    assert "EQ.PP" in findings[0].message


def test_validate_appendix_b1_identity_law():
    findings = validate(builtin("appendixB1"))
    kinds = {f.kind for f in findings}
    assert kinds == {"identity-law"}
    assert "r1.id = (r1 r2) != r1" in findings[0].message


def test_validate_appendix_b2_findings():
    findings = validate(builtin("appendixB2"))
    kinds = [f.kind for f in findings]
    assert kinds == ["identity-law", "empty-cell"]


def test_validate_other_builtins_clean():
    assert validate(builtin("cycb")) == []
    assert validate(builtin("appendixB-remark")) == []


def test_validate_names_the_side_of_a_one_sided_identity_failure():
    # only id.< is widened, so the finding names id.< and not <.id
    pc1 = builtin("pc1")
    comp = {(a, b): pc1.symbols_of(pc1.composition_row[i][j])
            for i, a in enumerate(pc1.symbols) for j, b in enumerate(pc1.symbols)}
    comp[("=", "<")] = ("<", "=")
    conv = {s: pc1.symbols_of(m) for s, m in zip(pc1.symbols, pc1.converse_row)}
    findings = validate(CalculusSpec("pc1-left", pc1.symbols, ["="], conv, comp))
    assert [f.message for f in findings] == ["identity law fails: id.< = (< =) != <"]
