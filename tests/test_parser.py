import pytest

from lrfix import (
    LexSpec,
    ParserInternalError,
    RecoveryParams,
    Repair,
    build_tables,
    lr_step,
    panic_recover,
    parse,
    parse_grammar,
    render_repairs,
    tree_text,
)
from lrfix.lexer import Token
from lrfix.parser import RECOVERERS, Node

from conftest import FIXTURES, lexspec_of, synth_toks, table_of, toks_of


def run(stem, text, recoverer="cpctplus", **kw):
    return parse(table_of(stem), toks_of(stem, text), text, recoverer=recoverer, **kw)


def test_clean_parse():
    r = run("calc", "2 + 3", recoverer="none")
    assert r.success
    assert r.reports == []
    assert r.stats.error_locations == 0
    assert r.stats.real_tokens == 3
    assert tree_text(r.tree, "2 + 3") == (
        "Expr\n"
        "  Term\n"
        "    Factor\n"
        "      INT 2\n"
        "  +\n"
        "  Expr\n"
        "    Term\n"
        "      Factor\n"
        "        INT 3\n"
    )


def test_empty_input_parses_when_grammar_allows():
    r = run("stmt", "", recoverer="none")
    assert r.success
    assert r.tree.rule == "Prog"


def test_lr_step_actions():
    t = table_of("calc")
    stack = [0]
    assert lr_step(t, stack, "INT") == ("shift", 5)
    assert lr_step(t, stack, "+")[0] == "reduce"   # Factor: INT
    assert stack[-1] == 3
    assert lr_step(t, [0], "+") == ("error",)
    assert lr_step(t, [0, 4], "$") == ("accept",)


def test_none_recoverer_stops_at_first_error():
    r = run("calc", "2 3 +", recoverer="none")
    assert not r.success
    assert r.tree is None
    assert len(r.reports) == 1
    assert r.reports[0].success is False
    assert (r.reports[0].line, r.reports[0].col) == (1, 3)
    assert r.stats.error_locations == 1


def test_panic_pops_without_skipping():
    t = table_of("calc")
    toks = synth_toks(t, ["INT", "+", "+", "INT"])
    ids = [t.token_index[x.type] for x in toks]
    assert panic_recover(t, [0, 2, 7], ids, 2) == ([0, 2], 2)

    r = run("calc", "2 + + 3", recoverer="panic")
    assert r.success
    rep = r.reports[0]
    assert (rep.recoverer, rep.skipped, rep.popped) == ("panic", 0, 1)
    assert r.stats.skipped == 0


def test_panic_skips_and_pops_across_locations():
    r = run("stmt", "x = ; y = 1 ;", recoverer="panic")
    assert r.success
    # first the stray ';' is skipped, then 'x = y' is abandoned by popping
    # back to where '=' can shift, salvaging one statement overall
    assert [(rep.skipped, rep.popped) for rep in r.reports] == [(1, 0), (0, 2)]
    assert r.stats.skipped == 1
    assert sum(1 for line in tree_text(r.tree, "").splitlines() if line.strip() == "Stmt") == 1


def test_panic_gives_up_when_nothing_resynchronizes():
    t = table_of("calc")
    rp, eof = t.token_index[")"], t.eof
    # state 2 can reduce on ')' (it also serves the parenthesized context),
    # so a single pop resynchronizes without skipping anything
    assert panic_recover(t, [0, 2, 7], [rp, eof], 0) == ([0, 2], 0)
    # state 7 (after '+') wants a value and cannot act even on EOF
    assert panic_recover(t, [7], [rp, eof], 0) is None


def test_repair_is_applied_and_parse_continues():
    r = run("calc", "2 +")
    assert r.success
    assert r.stats.error_locations == 1
    assert r.reports[0].applied == [Repair("insert", "INT")]
    assert r.stats.costs == [1]
    # the filler token is in the tree, zero-width at the error point
    inserted = [
        n for n in _leaves(r.tree) if isinstance(n, Token) and n.inserted
    ]
    assert len(inserted) == 1
    assert inserted[0].type == "INT"
    assert inserted[0].start == inserted[0].end == 3
    assert "INT (inserted)" in tree_text(r.tree, "2 +")


def _leaves(node):
    if isinstance(node, Token):
        yield node
        return
    for c in node.children:
        yield from _leaves(c)


def test_delete_repair_skips_tokens():
    r = run("calc", "2 3 +")
    assert r.success
    applied = r.reports[0].applied
    assert applied == [Repair("insert", "+"), Repair("shift"), Repair("delete")]
    assert r.stats.skipped == 1
    assert r.stats.tokens_skipped_pct == pytest.approx(100.0 / 3.0)


def test_multiple_errors_one_run():
    r = run("stmt", "x = 1 1 ; y = ;")
    assert r.success
    assert r.stats.error_locations == 2
    assert len(r.reports) == 2
    assert len(r.stats.costs) == 2
    assert all(rep.success for rep in r.reports)


def test_zero_budget_fails_fast():
    r = run("calc", "2 3 +", params=RecoveryParams(timeout_s=1e-9))
    assert not r.success
    assert r.reports[0].success is False
    assert r.stats.costs == []


def test_render_repairs_walks_the_input():
    t = table_of("calc")
    toks = toks_of("calc", "2 3 +")
    seq = [Repair("delete"), Repair("shift"), Repair("insert", "INT")]
    assert render_repairs(seq, "2 3 +", toks, 1) == "Delete 3, Shift +, Insert INT"


def test_recovery_params_validation():
    with pytest.raises(ValueError):
        RecoveryParams(n_shifts=0)
    with pytest.raises(ValueError):
        RecoveryParams(n_shifts=4, n_try=2)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, float("-inf")])
def test_timeout_must_be_a_number_at_least_zero(bad):
    # With NaN the search's deadline comparisons are all false, so it never
    # stopped.
    with pytest.raises(ValueError, match="timeout_s"):
        RecoveryParams(timeout_s=bad)
    RecoveryParams(timeout_s=0.0)
    RecoveryParams(timeout_s=float("inf"))


def test_unknown_recoverer_rejected():
    # Rejected before parsing: on clean input, and with no budget left.
    for text, params in (
        ("2 3 +", None),
        ("1 + 2", None),
        ("2 3 +", RecoveryParams(timeout_s=0.0)),
    ):
        with pytest.raises(ValueError):
            run("calc", text, recoverer="hope", params=params)


def test_token_the_grammar_lacks_is_a_value_error():
    # calc.l plus a rule '@' 'AT': the lexer emits a token calc.y never declares.
    spec = LexSpec.parse((FIXTURES / "calc.l").read_text(encoding="utf-8") + "@ 'AT'\n")
    src = "1 @ 2"
    for recoverer in ("cpctplus", "none"):
        with pytest.raises(ValueError, match="'AT'"):
            parse(table_of("calc"), spec.lex(src), src, recoverer=recoverer)


@pytest.mark.parametrize("recoverer", RECOVERERS)
def test_tokens_without_end_of_input_are_a_value_error(recoverer):
    src = "1 + 2"
    toks = toks_of("calc", src)[:-1]
    with pytest.raises(ValueError, match="end-of-input"):
        parse(table_of("calc"), toks, src, recoverer=recoverer)
    with pytest.raises(ValueError, match="end-of-input"):
        parse(table_of("calc"), [], "", recoverer=recoverer)


@pytest.mark.parametrize("recoverer", RECOVERERS)
def test_end_of_input_inside_the_tokens_is_a_value_error(recoverer):
    # An early end-of-input token would accept "1" and drop "+ 2" unseen.
    src = "1 $ + 2"
    toks = toks_of("calc", "1   + 2")
    toks.insert(1, Token("$", 2, 3))
    with pytest.raises(ValueError, match="end-of-input"):
        parse(table_of("calc"), toks, src, recoverer=recoverer)


def test_node_repr_is_compact():
    n = Node("Expr", [])
    assert "Expr" in repr(n)


@pytest.mark.parametrize("recoverer", RECOVERERS)
def test_cyclic_grammar_raises_instead_of_hanging(recoverer):
    # On '$' the table keeps A: %empty over B: %empty (a reduce/reduce
    # conflict), so after each A it expects S: A S and reduces another A,
    # forever; the reduce-chain limit turns that into an error.
    t = build_tables(parse_grammar("%%\nS: B | A S; A: ; B: ;"))
    with pytest.raises(ParserInternalError):
        parse(t, synth_toks(t, []), recoverer=recoverer)


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("recoverer", RECOVERERS)
def test_conflicted_epsilon_grammar_raises_instead_of_hanging(recoverer, merge):
    # No rule derives itself, yet on 'x' the reduce/reduce conflict keeps
    # N: %empty over R: %empty, and R: N R x then asks for another N,
    # forever: the reduce-chain limit is not only for cyclic grammars.
    t = build_tables(parse_grammar("%start R\n%token x\n%%\nN: ;\nR: N R x | ;"), merge=merge)
    with pytest.raises(ParserInternalError):
        parse(t, synth_toks(t, ["x"]), recoverer=recoverer)


def test_tree_text_renders_a_tree_deeper_than_the_recursion_limit():
    # Expr: Term '+' Expr nests one level per term, so 1,500 terms make a
    # tree deeper than Python's default recursion limit of 1,000.
    terms = 1500
    src = " + ".join(["1"] * terms)
    r = run("calc", src, recoverer="none")
    assert r.success
    lines = tree_text(r.tree, src).splitlines()
    assert lines[:4] == ["Expr", "  Term", "    Factor", "      INT 1"]
    assert sum(line.strip() == "INT 1" for line in lines) == terms
    assert lines[-1] == "  " * (terms + 2) + "INT 1"
