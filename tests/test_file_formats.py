"""The rules shared by network, model and spec files: name quoting, parse
errors and the shipped samples."""

from pathlib import Path

import pytest

from qsr import (
    NetworkError,
    builtin,
    builtin_model,
    load_model,
    load_network,
    load_spec,
    normalize,
    parse_model,
    parse_network,
    parse_spec,
    serialize,
)
from qsr.core import CalculusError, CalculusSpec
from qsr.models import FiniteInterpretation
from qsr.network import ConstraintNetwork
from qsr.registry import SpecParseError

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

pc1 = builtin("pc1")


def _renamed_pc1(name, less="<"):
    # pc1 under another name, with its "<" written as ``less``
    def sym(s):
        return less if s == "<" else s

    def syms(mask):
        return [sym(s) for s in pc1.symbols_of(mask)]

    return CalculusSpec(
        name,
        syms(pc1.universal),
        syms(pc1.identity_mask),
        {sym(s): syms(pc1.converse_row[i]) for i, s in enumerate(pc1.symbols)},
        {
            (sym(a), sym(b)): syms(pc1.composition_row[i][j])
            for i, a in enumerate(pc1.symbols)
            for j, b in enumerate(pc1.symbols)
        },
    )


def _network(name):
    net = ConstraintNetwork(pc1, ["A", "B"], name=name)
    net["A", "B"] = pc1.relation("<")
    net["B", "A"] = pc1.relation(">")
    return net


def _model(name):
    chain3 = builtin_model("pc1-chain3")
    return FiniteInterpretation(pc1, chain3.universe, chain3.phi, name=name)


@pytest.mark.parametrize("name", ["p c", 'a"b', "it's", "back\\slash", '""'])
def test_names_round_trip_through_every_format(name):
    net = _network(name)
    again = parse_network(net.to_text(), pc1)
    assert (again, again.name) == (net, name)

    model = _model(name)
    back = parse_model(model.to_text(), pc1)
    assert (back.name, back.universe, back.phi) == (name, model.universe, model.phi)

    spec = _renamed_pc1(name)
    assert parse_spec(serialize(spec)) == spec
    assert parse_spec(serialize(spec)).name == name


@pytest.mark.parametrize("name", ["a#b", "a\nb", "a\rb", "a\u2028b"])
def test_names_that_cannot_be_read_back_are_not_written(name):
    with pytest.raises(NetworkError, match="cannot be written"):
        _network(name).to_text()
    with pytest.raises(NetworkError, match="cannot be written"):
        _model(name).to_text()
    with pytest.raises(CalculusError, match="cannot be written"):
        serialize(_renamed_pc1(name))


NET = 'network "n"\ncalculus pc1\nvars A B C\nA (<) B\n'
MODEL = 'model "m"\ncalculus pc1\nuniverse 0 1\n<: (0,1)\n=: (0,0) (1,1)\n>: (1,0)\n'

SPEC = ('calculus "t"\nrelations a b\nidentity a\nconverse\na (a)\nb (b)\n'
        "composition\na a (a)\na b (b)\nb a (b)\nb b (a b)\n")

# (parser, text, exception type, message); network and model texts are read
# into pc1, a model message without a line number is about the whole file,
# and a missing clause is reported at the first body line, else at the last line
PARSE_ERRORS = [
    (parse_network, NET.replace("calculus pc1\n", ""), NetworkError,
     "line 3: missing calculus clause"),
    (parse_network, NET.replace("vars A B C\n", ""), NetworkError, "line 3: missing vars clause"),
    (parse_network, 'network "n"\ncalculus pc1\n', NetworkError, "line 2: missing vars clause"),
    (parse_network, NET.replace("vars A B C", "vars"), NetworkError,
     "line 3: vars clause needs at least one name"),
    (parse_network, NET.replace("calculus pc1", "calculus"), NetworkError,
     "line 2: expected: calculus <name>"),
    (parse_network, NET.replace("calculus pc1", "calculus pc1 rcc5"), NetworkError,
     "line 2: expected: calculus <name>"),
    (parse_network, NET.replace("calculus pc1", "calculus allen"), NetworkError,
     "line 2: network declares calculus 'allen' but 'pc1' was supplied"),
    (parse_network, NET.replace('"n"', '"n'), NetworkError, "line 1: No closing quotation"),
    (parse_network, NET.replace('"n"', '"n" extra'), NetworkError,
     'line 1: expected: network "<name>"'),
    (parse_network, NET.replace(' "n"', ""), NetworkError, 'line 1: expected: network "<name>"'),
    (parse_network, NET + "A (<)\n", NetworkError, "line 5: expected: <var> (<sym>+) <var>"),
    (parse_network, NET + "A < B\n", NetworkError, "line 5: expected a '(' symbol group"),
    (parse_network, NET + "A (< B\n", NetworkError,
     "line 5: unterminated symbol group, expected ')'"),
    (parse_network, NET + "A (<=) B\n", NetworkError,
     "line 5: calculus 'pc1' has no base relation '<='"),
    (parse_network, NET + "A (<) D\n", NetworkError, "line 5: unknown variable 'D'"),
    (parse_network, NET + 'A (<) D\nnetwork "x"\n', NetworkError, "line 5: unknown variable 'D'"),
    (parse_network, NET.replace("A (<) B", "E (<) B") + "B (<) C\n", NetworkError,
     "line 4: unknown variable 'E'"),
    (parse_network, NET + "A (<) A\n", NetworkError, "line 5: self-loop constraint on variable 'A'"),
    # the required clauses come before the first body line
    (parse_network, "A < B\n" + NET.replace("calculus pc1\n", ""), NetworkError,
     "line 1: missing calculus clause"),
    (parse_network, NET.replace("vars A B C\n", "") + "vars A B C\n", NetworkError,
     "line 3: missing vars clause"),
    (parse_network, NET.replace('network "n"\n', "") + 'network "n"\n', NetworkError,
     "line 4: network clause must come before the body, which starts at line 3"),
    (parse_network, NET + 'network "o"\n', NetworkError, "line 5: duplicate network clause"),
    (parse_network, NET + "calculus pc1\n", NetworkError, "line 5: duplicate calculus clause"),
    (parse_network, NET + "vars A\n", NetworkError, "line 5: duplicate vars clause"),
    # a constraint's symbols and its self-loop are checked at its line, before a later error
    (parse_network, NET + "A (<=) B\nvars A\n", NetworkError,
     "line 5: calculus 'pc1' has no base relation '<='"),
    (parse_network, NET + "A (<) A\nvars A\n", NetworkError,
     "line 5: self-loop constraint on variable 'A'"),
    (parse_network, NET.replace("vars A B C", "vars A B A"), NetworkError,
     "line 3: variable names must be distinct"),
    (parse_network, NET.replace("vars A B C", "vars A network"), NetworkError,
     "line 3: variable name 'network' does not fit the file formats: it is a keyword"),
    (parse_model, MODEL.replace("calculus pc1\n", ""), NetworkError,
     "line 3: missing calculus clause"),
    (parse_model, MODEL.replace("universe 0 1\n", ""), NetworkError,
     "line 3: missing universe clause"),
    (parse_model, 'model "m"\nuniverse 0\n', NetworkError, "line 2: missing calculus clause"),
    (parse_model, MODEL.replace("universe 0 1\n", "") + "universe 0 1\n", NetworkError,
     "line 3: missing universe clause"),
    (parse_model, MODEL.replace('model "m"\n', "") + 'model "m"\n', NetworkError,
     "line 6: model clause must come before the body, which starts at line 3"),
    (parse_model, MODEL.replace("universe 0 1", "universe"), NetworkError,
     "line 3: universe needs at least one element"),
    (parse_model, MODEL.replace("calculus pc1", "calculus pc1 x"), NetworkError,
     "line 2: expected: calculus <name>"),
    (parse_model, MODEL.replace("calculus pc1", "calculus rcc5"), NetworkError,
     "line 2: model declares calculus 'rcc5' but 'pc1' was supplied"),
    (parse_model, MODEL.replace('"m"', "'m"), NetworkError, "line 1: No closing quotation"),
    (parse_model, MODEL.replace('"m"', '"m" "n"'), NetworkError,
     'line 1: expected: model "<name>"'),
    (parse_model, MODEL + "foo bar\n", NetworkError, "line 7: unexpected directive 'foo'"),
    (parse_model, "foo\n" + MODEL.replace("calculus pc1\n", ""), NetworkError,
     "line 1: missing calculus clause"),
    (parse_model, MODEL.replace("(0,1)", "(0,1", 1), NetworkError,
     "line 4: malformed pair '(0,1'"),
    (parse_model, MODEL.replace("(0,1)", "(0;1)", 1), NetworkError,
     "line 4: malformed pair '(0;1)'"),
    (parse_model, MODEL.replace("(0,1)", "(0,1,2)", 1), NetworkError,
     "line 4: malformed pair '(0,1,2)'"),
    (parse_model, MODEL + "<: (1,1)\n", NetworkError,
     "line 7: duplicate interpretation for '<'"),
    (parse_model, MODEL + "q: (0,0)\n", NetworkError,
     "line 7: calculus 'pc1' has no base relation 'q'"),
    (parse_model, MODEL + "q: (0,0)\nuniverse 0\n", NetworkError,
     "line 7: calculus 'pc1' has no base relation 'q'"),
    (parse_model, MODEL.replace(">: (1,0)\n", ""), NetworkError,
     "interpretation missing for symbol '>'"),
    (parse_model, MODEL.replace(">: (1,0)", ">: (0,1)"), NetworkError,
     "interpretation map must be injective on symbols"),
    (parse_model, MODEL + 'model "o"\n', NetworkError, "line 7: duplicate model clause"),
    (parse_model, MODEL.replace("universe 0 1", "universe 0 0"), NetworkError,
     "line 3: universe elements must be distinct"),
    (parse_model, MODEL.replace("(0,1)", "(0,5)"), NetworkError,
     "line 4: pair (0,5) uses elements outside the universe"),
    (parse_model, MODEL.replace("(0,1)", "(0,5)") + 'model "o"\n', NetworkError,
     "line 4: pair (0,5) uses elements outside the universe"),
    (parse_model, MODEL.replace("universe 0 1", "universe a,b 0 1"), NetworkError,
     "line 3: universe element 'a,b' does not fit the file formats: "
     "it is empty or holds whitespace or '#', ',', '(', ')'"),
    (parse_spec, 'calculus "pc1\nrelations a\n', SpecParseError,
     "line 1: No closing quotation"),
    (parse_spec, 'calculus "pc1" x\nrelations a\n', SpecParseError,
     'line 1: expected: calculus "<name>"'),
    (parse_spec, SPEC + 'calculus "u"\n', SpecParseError, "line 12: duplicate calculus clause"),
    (parse_spec, SPEC.replace("identity a", "relations c"), SpecParseError,
     "line 3: duplicate relations clause"),
    (parse_spec, SPEC.replace("converse\n", "identity a\nconverse\n"), SpecParseError,
     "line 4: duplicate identity clause"),
    (parse_spec, SPEC.replace("identity a\n", "") + "identity a\n", SpecParseError,
     "line 11: identity clause must come before the body, which starts at line 3"),
    (parse_spec, SPEC.replace('calculus "t"\n', ""), SpecParseError,
     "line 3: missing calculus clause"),
    (parse_spec, "relations a\n", SpecParseError, "line 1: missing calculus clause"),
    (parse_spec, SPEC.replace("relations a b\nidentity a\n", ""), SpecParseError,
     "line 2: missing relations clause"),
    (parse_spec, 'calculus "t"\n\n# no relations\n', SpecParseError,
     "line 3: missing relations clause"),
    (parse_spec, SPEC.replace("relations a b", "relations"), SpecParseError,
     "line 2: relations clause needs at least one symbol"),
    (parse_spec, SPEC.replace("relations a b", "relations a flags"), SpecParseError,
     "line 2: symbol 'flags' collides with a directive keyword"),
    (parse_spec, SPEC.replace("relations a b", "relations a a"), SpecParseError,
     "line 2: duplicate symbol 'a'"),
    (parse_spec, SPEC.replace("relations a b\nidentity a", "identity a\nrelations a b"),
     SpecParseError, "line 2: identity clause before relations clause"),
    (parse_spec, SPEC.replace("identity a", "identity c"), SpecParseError,
     "line 3: unknown symbol 'c'"),
    (parse_spec, SPEC.replace("converse\n", "converse x\n"), SpecParseError,
     "line 4: converse section header takes no arguments"),
    (parse_spec, SPEC.replace("composition\n", "composition x\n"), SpecParseError,
     "line 7: composition section header takes no arguments"),
    (parse_spec, SPEC.replace("converse\n", "foo\nconverse\n"), SpecParseError,
     "line 4: unexpected directive 'foo'"),
    (parse_spec, SPEC + "flags ra7=no\n", SpecParseError,
     "line 12: unexpected directive 'flags'"),
    (parse_spec, SPEC.replace("\nb (b)", "\nc (b)"), SpecParseError,
     "line 6: unknown symbol 'c'"),
    (parse_spec, SPEC.replace("\nb (b)", "\na (a)"), SpecParseError,
     "line 6: duplicate converse entry for 'a'"),
    (parse_spec, SPEC.replace("\nb (b)", "\nb b"), SpecParseError,
     "line 6: expected a '(' symbol group"),
    (parse_spec, SPEC.replace("\nb (b)", "\nb (b"), SpecParseError,
     "line 6: unterminated symbol group, expected ')'"),
    (parse_spec, SPEC.replace("\nb (b)", "\nb ()"), SpecParseError,
     "line 6: symbol group may not be empty here"),
    (parse_spec, SPEC.replace("a b (b)", "a (b)"), SpecParseError,
     "line 9: expected: <sym> <sym> (<sym>*)"),
    (parse_spec, SPEC.replace("a b (b)", "a a (b)"), SpecParseError,
     "line 9: duplicate composition cell ('a', 'a')"),
    (parse_spec, SPEC.replace("a a (a)", "a a (c)"), SpecParseError,
     "line 8: unknown symbol 'c'"),
    (parse_spec, SPEC.replace("\nb (b)\n", "\n"), SpecParseError,
     "line 10: converse table not total: missing 'b'"),
    (parse_spec, SPEC.replace("b a (b)\nb b (a b)\n", ""), SpecParseError,
     "line 9: composition table not total: missing cell ('b', 'a') and 1 more"),
]


def test_the_texts_of_the_parse_error_table_parse():
    assert parse_spec(SPEC).symbols == ("a", "b")
    assert parse_network(NET, pc1).var_names == ("A", "B", "C")
    assert parse_model(MODEL, pc1).universe == ("0", "1")


@pytest.mark.parametrize("parse, text, error, message", PARSE_ERRORS)
def test_every_parse_error_keeps_its_type_message_and_line(parse, text, error, message):
    with pytest.raises(error) as info:
        parse(text) if parse is parse_spec else parse(text, pc1)
    assert type(info.value) is error
    assert info.value.args[0] == message


def test_shipped_samples_load_and_write_back():
    spec = load_spec(str(SAMPLES / "pc1.spec"))
    assert spec == pc1
    assert parse_spec(serialize(spec)) == spec

    net = load_network(str(SAMPLES / "incomplete.net"), pc1)
    readme = ConstraintNetwork(pc1, ["A", "B", "C"])
    readme["A", "B"] = readme["B", "C"] = pc1.relation("<")
    readme["B", "A"] = readme["C", "B"] = pc1.relation(">")
    assert (net, net.name) == (readme, "incomplete")
    again = parse_network(net.to_text(), pc1)
    assert (again, again.name) == (net, net.name)

    model = load_model(str(SAMPLES / "chain3.model"), pc1)
    assert _fields(model) == _fields(builtin_model("pc1-chain3"))
    assert _fields(parse_model(model.to_text(), pc1)) == _fields(model)


def _fields(model):
    return model.name, model.calculus, model.universe, model.phi


@pytest.mark.parametrize("var", ["x y", "", "a#b", "a\nb", "network", "calculus", "vars"])
def test_networks_refuse_variable_names_that_files_cannot_carry(var):
    # "vars x y B" would read back as three variables, and a constraint
    # line "vars (<) B" as a second vars clause
    with pytest.raises(NetworkError, match="does not fit the file formats"):
        ConstraintNetwork(pc1, [var, "B"])


@pytest.mark.parametrize("element", ["1 2", "", "a#b", "a,b", "(a", "a)"])
def test_models_refuse_elements_that_files_cannot_carry(element):
    # ',', '(' and ')' would break the pair syntax (a,b)
    phi = {"<": [("0", element)], "=": [("0", "0"), (element, element)], ">": [(element, "0")]}
    with pytest.raises(CalculusError, match="does not fit the file formats"):
        FiniteInterpretation(pc1, ["0", element], phi)


@pytest.mark.parametrize("name", ["p c", "", "a#b"])
def test_writers_refuse_calculus_names_that_files_cannot_carry(name):
    calc = _renamed_pc1(name)
    with pytest.raises(NetworkError, match="calculus name .* does not fit the file formats"):
        ConstraintNetwork(calc, ["A", "B"]).to_text()
    chain3 = builtin_model("pc1-chain3")
    with pytest.raises(NetworkError, match="calculus name .* does not fit the file formats"):
        FiniteInterpretation(calc, chain3.universe, chain3.phi).to_text()


@pytest.mark.parametrize("build, error, kind", [
    (lambda: ConstraintNetwork(pc1, [0, 1]), NetworkError, "variable name"),
    (lambda: normalize(pc1, [(0, pc1.relation("<"), 1)]), NetworkError, "variable name"),
    (lambda: FiniteInterpretation(pc1, [0, 1], {"<": [(0, 1)], "=": [(0, 0), (1, 1)], ">": [(1, 0)]}),
     CalculusError, "universe element"),
    # the only way to a spec that ``serialize`` would get with an int symbol
    (lambda: _renamed_pc1("t", less=0), CalculusError, "relation symbol"),
], ids=["network", "normalize", "model", "calculus"])
def test_non_string_names_are_refused_with_the_callers_error(build, error, kind):
    with pytest.raises(error, match=f"^{kind} 0 is not a string$"):
        build()


@pytest.mark.parametrize("symbol", ["a b", "a#b", "", "x:"])
def test_writers_refuse_relation_symbols_that_files_cannot_carry(symbol):
    calc = _renamed_pc1("t", less=symbol)
    chain3 = builtin_model("pc1-chain3")
    phi = {symbol: chain3.phi["<"], "=": chain3.phi["="], ">": chain3.phi[">"]}
    # "x:" reads back from network files, but "x:: (0,1)" is no model line
    with pytest.raises(NetworkError, match=f"relation symbol {symbol!r} does not fit"):
        FiniteInterpretation(calc, chain3.universe, phi).to_text()
    net = ConstraintNetwork(calc, ["A", "B"])
    net["A", "B"], net["B", "A"] = calc.relation(symbol), calc.relation(">")
    if symbol == "x:":
        assert parse_network(net.to_text(), calc) == net
    else:
        with pytest.raises(NetworkError, match=f"relation symbol {symbol!r} does not fit"):
            net.to_text()
