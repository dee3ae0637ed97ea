import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrfix import EOF, GrammarError, parse_grammar, pretty

from conftest import grammar_of

CALC = grammar_of("calc")


def test_calc_shape():
    assert CALC.start == "Expr"
    assert CALC.token_decl_order == ["+", "*", "(", ")", "INT"]
    assert set(CALC.rules) == {"Expr", "Term", "Factor"}
    assert [p.rhs for p in CALC.prods_of("Factor")] == [("(", "Expr", ")"), ("INT",)]
    assert CALC.literals == {"+", "*", "(", ")", "INT"}


def test_literals_autodeclared_in_first_use_order():
    g = parse_grammar("%%\nS: 'b' 'a' | 'c';")
    assert g.token_decl_order == ["b", "a", "c"]
    assert g.start == "S"  # defaults to the first rule


def test_epsilon_alternative():
    g = parse_grammar("%%\nS: | S 'x';")
    assert g.prods_of("S")[0].rhs == ()


def test_precedence_declarations():
    g = parse_grammar(
        """
        %token NUM
        %left '+' '-'
        %left '*'
        %right POW
        %nonassoc EQ
        %%
        E: E '+' E | E '*' E | E POW E %prec POW | NUM;
        """
    )
    assert g.assoc["+"] == ("left", 1)
    assert g.assoc["-"] == ("left", 1)
    assert g.assoc["*"] == ("left", 2)
    assert g.assoc["POW"] == ("right", 3)
    assert g.assoc["EQ"] == ("nonassoc", 4)
    # %prec override and last-terminal default
    prods = g.prods_of("E")
    assert g.production_prec(prods[0]) == ("left", 1)
    assert g.production_prec(prods[2]) == ("right", 3)
    assert g.production_prec(prods[3]) is None


def test_comments_and_actions_are_skipped():
    g = parse_grammar(
        """
        /* header */
        %token A  // trailing
        %%
        S: A { do_things(); } | /* empty */ ;
        """
    )
    assert [p.rhs for p in g.prods_of("S")] == [("A",), ()]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("%token '$'\n%%\nS: ;", "reserved"),
        ("%left X\n%right X\n%%\nS: X;", "already has a binding level"),
        ("%union { int n; }\n%%\nS: ;", "union"),
        ("%%\nS: <int> 'a';", "union"),
        ("%%\nS: Missing;", "neither a declared token nor a rule"),
        ("%%\nS: 'a' %prec NOPE;", "not a declared token"),
        ("%token P\n%%\nS: 'a' %prec P;", "no declared binding level"),
        ("%start T\n%%\nS: ;", "not defined"),
        ("%avoid_insert X\n%%\nS: ;", "not a declared token"),
        ("%token A\n", "missing %%"),
        ("%token A\nS: A;", "unexpected"),
        ("%%\n", "no rules"),
        ("%token A\n%%\nA: 'x';", "declared as a token"),
        ("%{ int x;\n%%\nS: ;", "unterminated %{ block"),
        ("%%\nS: 'a' { /* } ;", "unterminated comment in action"),
        ("%%\nS: 'a' { { } ;", "unbalanced { } in action"),
        ("%start 'a'\n%%\nS: ;", "%start needs a rule name"),
        ("%prec X\n%%\nS: ;", "%prec belongs after a rule body"),
        ("%type X\n%%\nS: ;", "unknown directive %type"),
        ("<int>\n%%\nS: ;", "<type> tags"),
        ("%%\n'a': ;", "expected a rule name"),
        ("%%\nS 'a';", "expected ':' after rule name"),
        ("%%\nS: 'a' :", "expected '|' or ';'"),
        ("%%\nS: 'a' %prec ;", "expected a token name"),
    ],
)
def test_rejects(text, fragment):
    with pytest.raises(GrammarError) as e:
        parse_grammar(text)
    assert fragment in str(e.value)


@pytest.mark.parametrize(
    "text, bodies",
    [
        ("%{\n#include <stdio.h>\n%}\n%token A\n%%\nS: A;", [("A",)]),
        ("%%\nS: 'a' { s = \"}\"; c = '}'; /* } */ } | ;", [("a",), ()]),
        ("%token N\n%right NEG\n%%\nE: '-' E %prec NEG | N;", [("-", "E"), ("N",)]),
        # The literals '\n' and '\t' name a newline and a tab, as in Yacc.
        ("%%\nS: 'a\\'b' '\\\\' '\\n' '\\t';", [("a'b", "\\", "\n", "\t")]),
        # An escaped quote inside a string in an action does not end it.
        ("%%\nS: 'a' { s = \"\\\"}\"; c = '\\''; } ;", [("a",)]),
    ],
)
def test_accepts_and_round_trips(text, bodies):
    g = parse_grammar(text)
    assert [p.rhs for p in g.productions] == bodies
    text = pretty(g)
    quoted = re.findall(r"'(?:\\.|[^'\\])*'", text)
    assert not any(c in q for q in quoted for c in "\n\t")
    assert parse_grammar(text) == g


def test_error_carries_line():
    with pytest.raises(GrammarError) as e:
        parse_grammar("%token A\n%token '$'\n%%\nS: A;")
    assert e.value.line == 2


def test_pretty_round_trip_fixtures():
    for stem in ("calc", "calc_avoid", "stmt", "brackets", "bracket_heavy", "mini_java"):
        g = grammar_of(stem)
        assert parse_grammar(pretty(g)) == g


def test_pretty_mentions_avoid_insert():
    g = grammar_of("calc_avoid")
    assert g.avoid_insert == {"INT"}
    assert "%avoid_insert" in pretty(g)


names = st.sampled_from(["A", "B", "C", "lp", "rp"])


@st.composite
def grammar_texts(draw):
    toks = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    rules = draw(
        st.lists(st.sampled_from(["S", "T", "U"]), min_size=1, max_size=3, unique=True)
    )
    lines = ["%token " + " ".join(toks)]
    # optionally give the first tokens binding levels
    n_assoc = draw(st.integers(0, len(toks)))
    for i in range(n_assoc):
        kind = draw(st.sampled_from(["%left", "%right", "%nonassoc"]))
        lines.append(f"{kind} {toks[i]}")
    avoid = draw(st.lists(st.sampled_from(toks), max_size=2, unique=True))
    if avoid:
        lines.append("%avoid_insert " + " ".join(avoid))
    lines.append(f"%start {rules[0]}")
    lines.append("%%")
    symbols = toks + rules
    for r in rules:
        alts = []
        for _ in range(draw(st.integers(1, 3))):
            body = draw(st.lists(st.sampled_from(symbols), max_size=4))
            alts.append(" ".join(body))
        lines.append(f"{r}: " + " | ".join(alts) + ";")
    return "\n".join(lines)


@given(grammar_texts())
def test_pretty_round_trip_random(text):
    g = parse_grammar(text)
    assert parse_grammar(pretty(g)) == g


def test_eof_is_never_declarable():
    assert EOF == "$"
    assert not CALC.is_token(EOF)
