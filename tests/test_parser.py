import hashlib
import random

import pytest

from lrfix import (
    LexSpec,
    ParserInternalError,
    RecoveryParams,
    Repair,
    build_tables,
    lr_step,
    min_repair_sequences,
    panic_recover,
    parse,
    parse_grammar,
    render_repairs,
    repair_search,
    tree_text,
)
from lrfix import parser
from lrfix.bench import mutate_corpus
from lrfix.lexer import Token
from lrfix.lrtable import ERROR_CELL
from lrfix.parser import RECOVERERS, Node

from conftest import FIXTURES, clike, first_error, synth_toks, table_of, toks_of


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


def brute_force_panic(t, stack, ids, offset):
    """Panic's answer found the slow way: the whole stack, for each token."""
    for j in range(offset, len(ids)):
        for k in range(len(stack), 0, -1):
            if t.act[stack[k - 1]][ids[j]] != ERROR_CELL:
                return stack[:k], j
    return None


def deep_panic_point(n, tail=()):
    """calc ``( ( ... + + ...``: n open parentheses, then n stray '+'."""
    t = table_of("calc")
    ids = [t.token_index[x] for x in ["("] * n + ["+"] * n + list(tail)] + [t.eof]
    stack, idx = first_error(t, ids)
    return t, stack, ids, idx


@pytest.mark.parametrize("tail", [(), ("INT",)])
def test_panic_finds_what_scanning_every_token_finds(tail):
    t, stack, ids, idx = deep_panic_point(50, tail)
    assert panic_recover(t, stack, ids, idx) == brute_force_panic(t, stack, ids, idx)


def test_panic_agrees_with_brute_force_on_random_calc_inputs():
    t = table_of("calc")
    rng = random.Random(3)
    for _ in range(300):
        ids = [rng.randrange(t.eof) for _ in range(rng.randrange(1, 25))] + [t.eof]
        point = first_error(t, ids)
        if point is not None:
            stack, idx = point
            assert panic_recover(t, stack, ids, idx) == brute_force_panic(t, stack, ids, idx)


def test_panic_on_a_deep_stack_stays_inside_its_budget():
    # Rescanning the 4,001-state stack for each of 4,000 stray '+' took
    # about 0.9 s; one top-down pass takes milliseconds.
    n = 4000
    t = table_of("calc")
    toks = synth_toks(t, ["("] * n + ["+"] * n)
    r = parse(t, toks, recoverer="panic", params=RecoveryParams(timeout_s=0.01))
    assert not r.success
    assert r.stats.recovery_time_s <= 0.01 + 0.09


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
    assert list(map(str, seq)) == ["Delete", "Shift", "Insert INT"]


def test_recovery_params_validation():
    with pytest.raises(ValueError):
        RecoveryParams(n_shifts=0)
    with pytest.raises(ValueError):
        RecoveryParams(n_shifts=4, n_try=2)
    for bad in (2.0, "3", True):
        with pytest.raises(ValueError, match="n_shifts"):
            RecoveryParams(n_shifts=bad)
    for bad in (250.0, "250", None):
        with pytest.raises(ValueError, match="n_try"):
            RecoveryParams(n_try=bad)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, float("-inf"), "0.5", None])
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


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("recoverer", ["cpctplus", "cpctplus-rev"])
def test_a_search_that_inserts_into_a_runaway_chain_raises(recoverer, merge):
    # The same grammar with a second token: the parse errors at once on
    # 'y', and the search's attempt to insert 'x' then reduces N forever.
    # The search's own reduce-chain limit turns that into an error.
    t = build_tables(parse_grammar("%start R\n%token x y\n%%\nN: ;\nR: N R x | ;"), merge=merge)
    with pytest.raises(ParserInternalError, match="reduce chain did not terminate") as e:
        parse(t, synth_toks(t, ["y"]), recoverer=recoverer)
    assert e.traceback[-1].name == "_inserts"


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("search", [min_repair_sequences, repair_search])
def test_a_search_that_starts_in_a_runaway_chain_raises(search, merge):
    # On 'x' the parse raises in drive before any search starts.  A search
    # started there anyway reduces N forever before its first move, and the
    # search's own reduce-chain limit turns that into an error.
    t = build_tables(parse_grammar("%start R\n%token x\n%%\nN: ;\nR: N R x | ;"), merge=merge)
    ids = [t.token_index[tok.type] for tok in synth_toks(t, ["x"])]
    with pytest.raises(ParserInternalError, match="reduce chain did not terminate") as e:
        search(t, [0], ids, 0)
    assert e.traceback[-1].name == "_reduce_to_action"


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


# -- trees built on demand -------------------------------------------------------

CLIKE_PROGRAM = """\
struct node { int key; struct node * next; };
int count;
int sum(struct node * head, int limit) {
    int acc = 0;
    for (count = 0; head && count < limit; count += 1) {
        if (head->key % 2 == 0) acc = acc + head->key * 2;
        else { acc -= 1; continue; }
        head = head->next;
    }
    while (!acc) acc = f(acc, 3)[1];
    emit("sum=%d", acc, &count);
    return acc > 0 || -acc;
}
"""

# Panic pops three entries at the stray `)`: `else`, the `if`'s block (a
# `Stmt` subtree) and the `)` after its condition.
PANIC_DROPS_SUBTREES = "int f() { if (x) { y = 1; } else ) z = 2; }"


def clike_tree_corpus():
    _, lexspec = clike()
    files = [(f"f{i}", CLIKE_PROGRAM) for i in range(30)]
    faulty = mutate_corpus(files, lexspec, seed=1, edits_per_file=3)
    return [CLIKE_PROGRAM] + [src for _, src in faulty] + [PANIC_DROPS_SUBTREES]


def count_nodes(monkeypatch):
    """Patch ``parser.Node`` with a subclass that counts constructions."""
    built = []

    class Counted(Node):
        __slots__ = ()

        def __init__(self, rule, children):
            built.append(rule)
            super().__init__(rule, children)

    monkeypatch.setattr(parser, "Node", Counted)
    return built


def nodes_in(tree):
    n, todo = 0, [tree]
    while todo:
        x = todo.pop()
        if isinstance(x, Node):
            n += 1
            todo.extend(x.children)
    return n


# sha256 over tree_text (or "-" for no tree) of every file of
# ``clike_tree_corpus()`` under cpctplus, panic and none, in that order.
# Recorded with the parser that built every tree eagerly, before trees
# were folded from an action log.
GOLDEN_TREES = "aa2ec815bf66566427e15f134d018510432abbf161a38eb63e6460d256ce4189"


def test_golden_trees_of_a_faulty_clike_corpus():
    t, lexspec = clike()
    h = hashlib.sha256()
    for recoverer in ("cpctplus", "panic", "none"):
        for src in clike_tree_corpus():
            r = parse(t, lexspec.lex(src), src, recoverer=recoverer,
                      params=RecoveryParams(timeout_s=30))
            h.update((tree_text(r.tree, src) if r.tree is not None else "-\n").encode())
    assert h.hexdigest() == GOLDEN_TREES


def test_a_tree_is_built_only_when_read(monkeypatch):
    built = count_nodes(monkeypatch)
    r = run("calc", "2 + 3 * 4", recoverer="none")
    assert r.success and built == []
    tree = r.tree
    assert len(built) == nodes_in(tree) == 8
    assert r.tree is tree
    assert len(built) == 8
    # Reading the tree empties the log; equality does not look at either.
    assert r == run("calc", "2 + 3 * 4", recoverer="none")


@pytest.mark.parametrize("recoverer", RECOVERERS)
def test_an_unread_tree_is_never_built(monkeypatch, recoverer):
    built = count_nodes(monkeypatch)
    t, lexspec = clike()
    for src in clike_tree_corpus()[:10]:
        parse(t, lexspec.lex(src), src, recoverer=recoverer)
    assert built == []


def test_a_panic_pop_drops_folded_subtrees(monkeypatch):
    built = count_nodes(monkeypatch)
    t, lexspec = clike()
    src = PANIC_DROPS_SUBTREES
    r = parse(t, lexspec.lex(src), src, recoverer="panic")
    assert [(rep.skipped, rep.popped) for rep in r.reports] == [(0, 3)]
    # Folding builds the dropped block, then the pop's entry discards it.
    kept = nodes_in(r.tree)
    assert len(built) > kept
    assert "Stmt" in tree_text(r.tree, src)


def test_the_benchmark_tracer_wraps_and_restores_the_recoverers():
    # perfbench/tracer.py patches these three attributes from outside, so
    # parse() must look its recoverers up at call time.
    import lrfix.cpctplus
    from lrfix.cactus import Cactus
    from tracer import Tracer

    originals = (Cactus.push, lrfix.cpctplus.repair_search, parser.panic_recover)
    tracer = Tracer()
    with tracer.installed():
        r = run("calc", "2 3 +")
    assert len(tracer.calls) == 1
    assert tracer.calls[0].outcome.sequences == r.reports[0].sequences
    assert tracer.pushes == 0

    tracer = Tracer()
    with tracer.installed():
        run("calc", "2 3 +", recoverer="panic")
    assert "parser.panic_recover" in [name for _, _, name, _, _ in tracer.spans]
    assert (Cactus.push, lrfix.cpctplus.repair_search, parser.panic_recover) == originals
