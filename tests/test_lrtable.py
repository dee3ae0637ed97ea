import collections
import dataclasses
import hashlib
import tracemalloc

import pytest
from hypothesis import assume, given, settings

from lrfix import EOF, StateGraph, StateTable, build_tables, parse, parse_grammar
from lrfix.lrtable import ACCEPT_CELL, ERROR_CELL, cell_arg, cell_kind, reduce_cell

from conftest import FIXTURES, agreement_dfs, grammar_of, small_grammars, synth_toks, table_of


def ids(table, names):
    return [table.token_index[n] for n in names] + [table.eof]


def test_calc_state_counts():
    assert table_of("calc").n_states == 12
    assert table_of("calc", merge=False).n_states == 22


def test_tiny_grammar_state_count():
    t = build_tables(parse_grammar("%%\nS: 'a';"))
    assert t.n_states == 3


def test_token_order_and_eof():
    t = table_of("calc")
    assert t.tokens == ["+", "*", "(", ")", "INT", "$"]
    assert t.eof == 5


def test_augmented_production_is_last():
    t = table_of("calc")
    assert t.productions[-1].lhs == "^"
    assert t.productions[-1].rhs == ("Expr",)
    # user productions keep declaration order
    assert [str(p.lhs) for p in t.productions[:6]] == [
        "Expr", "Expr", "Term", "Term", "Factor", "Factor",
    ]


def test_known_actions():
    t = table_of("calc")
    assert t.action(0, "INT") == ("shift", 5)
    assert t.action(0, "+") == ("error",)
    # after a Factor, '+' folds it into a Term
    prod = t.action(3, "+")
    assert prod[0] == "reduce"
    assert t.productions[prod[1]].lhs == "Term"
    assert t.productions[prod[1]].rhs == ("Factor",)
    assert t.action(4, "$") == ("accept",)
    assert t.goto_state(0, "Expr") == 4


def test_merged_and_canonical_parse_alike_smoke():
    tm = table_of("brackets")
    tc = table_of("brackets", merge=False)
    from lrfix import parse

    for text in ["", "A", "( )", "( A ( ) ) A", "( ( A )", ") A"]:
        toksm = synth_toks(tm, text.split())
        toksc = synth_toks(tc, text.split())
        rm = parse(tm, toksm, recoverer="none")
        rc = parse(tc, toksc, recoverer="none")
        assert rm.success == rc.success, text


def test_dump_mentions_kernels_and_edges():
    g = table_of("calc").graph
    text = g.dump()
    assert "State 0" in text
    assert "-> " in text
    assert "Expr" in text


# -- conflict handling --------------------------------------------------------

AMBIG = "%token NUM\n%%\nE: E '+' E | NUM;"


def test_shift_reduce_defaults_to_shift_and_is_recorded():
    t = build_tables(parse_grammar(AMBIG))
    assert any(c.kind == "shift/reduce" for c in t.conflicts)
    assert "1 shift/reduce" in t.conflict_summary()
    # greedy shift means "1 + 2 + 3" still parses
    from lrfix import parse

    assert parse(t, synth_toks(t, ["NUM", "+", "NUM", "+", "NUM"]), recoverer="none").success


def plus_tree(assoc_line):
    from lrfix import parse

    t = build_tables(parse_grammar(f"%token NUM\n{assoc_line}\n%%\nE: E '+' E | NUM;"))
    assert t.conflicts == []
    r = parse(t, synth_toks(t, ["NUM", "+", "NUM", "+", "NUM"]), recoverer="none")
    assert r.success
    return r.tree


def test_left_assoc_nests_left():
    top = plus_tree("%left '+'")
    assert len(top.children) == 3
    assert len(top.children[0].children) == 3      # (N + N) + N
    assert len(top.children[2].children) == 1


def test_right_assoc_nests_right():
    top = plus_tree("%right '+'")
    assert len(top.children) == 3
    assert len(top.children[0].children) == 1      # N + (N + N)
    assert len(top.children[2].children) == 3


def test_nonassoc_turns_the_cell_into_an_error():
    t = build_tables(parse_grammar("%token NUM\n%nonassoc '+'\n%%\nE: E '+' E | NUM;"))
    assert t.conflicts == []
    from lrfix import parse

    assert parse(t, synth_toks(t, ["NUM", "+", "NUM"]), recoverer="none").success
    assert not parse(
        t, synth_toks(t, ["NUM", "+", "NUM", "+", "NUM"]), recoverer="none"
    ).success


def test_higher_level_binds_tighter():
    g = parse_grammar(
        "%token NUM\n%left '+'\n%left '*'\n%%\nE: E '+' E | E '*' E | NUM;"
    )
    t = build_tables(g)
    assert t.conflicts == []
    from lrfix import parse

    r = parse(t, synth_toks(t, ["NUM", "+", "NUM", "*", "NUM"]), recoverer="none")
    assert r.success
    # 1 + (2 * 3): the '+' production's right child is the '*' production
    top = r.tree
    assert top.children[1].type == "+"
    assert top.children[2].children[1].type == "*"


def test_reduce_reduce_picks_earliest_production():
    t = build_tables(parse_grammar("%token A\n%%\nS: X | Y; X: A; Y: A;"))
    rr = [c for c in t.conflicts if c.kind == "reduce/reduce"]
    assert rr, "expected a reduce/reduce conflict"
    from lrfix import parse

    r = parse(t, synth_toks(t, ["A"]), recoverer="none")
    assert r.success
    # the surviving parse went through X, declared before Y
    assert r.tree.children[0].rule == "X"


def test_cell_encoding_round_trip():
    assert cell_kind(ERROR_CELL) == "error"
    assert cell_kind(ACCEPT_CELL) == "accept"
    t = table_of("calc")
    cell = t.act[0][t.token_index["INT"]]
    assert cell_kind(cell) == "shift" and cell_arg(cell) == 5


@pytest.mark.parametrize("stem", ["calc", "stmt", "brackets", "mini_java"])
def test_merging_never_adds_states(stem):
    assert table_of(stem).n_states <= table_of(stem, merge=False).n_states


# -- pinned tables -------------------------------------------------------------

# sha256 of (n_states, act, goto, conflict descriptions, graph.dump()) for
# every fixture grammar and the benchmark's C-like grammar, in both modes.
# They were recorded before the builder became one pass, which therefore
# changed no table.
GOLDEN = {
    ("bracket_heavy", True): "3125acb958af9bedffd4d356c2a6385265bd754cb6bf02862a8d67d421d06677",
    ("bracket_heavy", False): "48c64da5b19aea92246ff16b253f04222d80f6dfc1bd5d9b7b56855d0495421d",
    ("brackets", True): "6cc0e31812a571e7d36d5b2c3d6b502158712c507e83375e69bc6dca4e77a280",
    ("brackets", False): "f8833de7875eda6bedb44d0621994ce19289917242b8ef7381936be4dee600af",
    ("calc", True): "2279eb890e779c5980db4b598df9dee47c288b347e4d120ee627cc1af2866f97",
    ("calc", False): "95373ddf4dfacf508a082bedd9bfc54acdef50e25d14d16a8a9a4f558b62e3d1",
    ("calc_avoid", True): "2279eb890e779c5980db4b598df9dee47c288b347e4d120ee627cc1af2866f97",
    ("calc_avoid", False): "95373ddf4dfacf508a082bedd9bfc54acdef50e25d14d16a8a9a4f558b62e3d1",
    ("mini_java", True): "daeaf21564b550e6891752f9f3a7d5c24ef20f96bdb95cabc17dc8f3f7ea9928",
    ("mini_java", False): "daeaf21564b550e6891752f9f3a7d5c24ef20f96bdb95cabc17dc8f3f7ea9928",
    ("stmt", True): "9459811268daa9d746049250ea07c2611c183ae53fd00537f3cdef06cd575610",
    ("stmt", False): "9459811268daa9d746049250ea07c2611c183ae53fd00537f3cdef06cd575610",
    ("clike", True): "5a80138052ae054897a77ecaf19b908552f1129b2181ae7dfc093c225d70e17f",
    ("clike", False): "00cde871e4eaed6dfaf04f334f87deddf61f367310635cbb601f9a986d2d0d23",
}


def test_golden_covers_every_fixture_grammar():
    stems = {p.stem for p in FIXTURES.glob("*.y")} | {"clike"}
    assert set(GOLDEN) == {(stem, merge) for stem in stems for merge in (True, False)}


@pytest.mark.parametrize("stem,merge", sorted(GOLDEN), ids=str)
def test_tables_match_golden_digest(stem, merge):
    t = table_of(stem, merge)
    blob = repr((t.n_states, t.act, t.goto, [c.describe() for c in t.conflicts], t.graph.dump()))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[stem, merge]


@pytest.mark.parametrize("stem,merge", sorted(GOLDEN), ids=str)
def test_live_terms_are_the_non_error_terminals_before_eof(stem, merge):
    t = table_of(stem, merge)
    assert len(t.live_terms) == t.n_states
    for s, row in enumerate(t.live_terms):
        assert row == tuple(x for x in range(t.eof) if t.act[s][x] != ERROR_CELL)
        assert t.eof not in row


# Count and sha256 of clike's binding-level resolutions, which the table
# digests above leave out: (state, token, chosen, level) each, in build order.
RESOLVED = {
    True: (440, "ab18db68d9e252f39b3f1e11fcefa97edcc4968fdeaaa0fe3d7b8df67dbdfbb0"),
    False: (1760, "0a0cc105bc8fec38f5399157493b23f3116ee62614e47c151b6a9297e589734e"),
}


@pytest.mark.parametrize("merge,n_states", [(True, 146), (False, 378)])
def test_clike_keeps_only_the_dangling_else_conflict(merge, n_states):
    t = table_of("clike", merge)
    assert t.n_states == n_states
    [c] = t.conflicts
    assert (c.kind, c.token) == ("shift/reduce", "else")
    assert c.chosen.startswith("shift to ")
    blob = repr([dataclasses.astuple(r) for r in t.resolved])
    assert (len(t.resolved), hashlib.sha256(blob.encode()).hexdigest()) == RESOLVED[merge]


# -- merged against canonical ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(small_grammars())
def test_merged_and_canonical_agree_on_lr1_grammars(case):
    g, alphabet = case
    # Binding levels only settle conflicts, so a grammar whose canonical
    # table has none without them is LR(1) and never consults them.
    assume(not build_tables(dataclasses.replace(g, assoc={}), merge=False).conflicts)
    tm, tc = build_tables(g), build_tables(g, merge=False)
    assert tm.conflicts == []
    agreement_dfs(tc, tm, alphabet, max_len=5)


def test_weak_compatibility_refuses_the_lalr_merge():
    # LR(1) but not LALR(1): merging the two {E: e., F: e.} states by core
    # alone would make reduce/reduce conflicts on 'c' and 'd'.
    g = parse_grammar("%%\nS: 'a' E 'c' | 'a' F 'd' | 'b' F 'c' | 'b' E 'd'; E: 'e'; F: 'e';")
    t = build_tables(g)
    assert t.conflicts == []
    assert t.n_states == build_tables(g, merge=False).n_states == 14


@pytest.mark.parametrize(
    "src,text",
    [
        # Recorded conflicts.
        ("%nonassoc 'a' 'b'\n%%\nS: A | B S | 'a'; A: A S | 'b' | A 'a' 'a'; B: 'a';", "a a"),
        # No recorded conflict: %left settles the only ones.
        ("%left 'a'\n%%\nA: 'a' A 'a' | 'a' 'a';", "a a a a"),
    ],
)
def test_merging_can_change_the_language_when_conflicts_are_resolved(src, text):
    g = parse_grammar(src)
    tm, tc = build_tables(g), build_tables(g, merge=False)
    assert parse(tc, synth_toks(tc, text.split()), recoverer="none").success
    assert not parse(tm, synth_toks(tm, text.split()), recoverer="none").success


def test_binding_levels_record_what_they_resolve():
    g = parse_grammar("%left 'a'\n%%\nA: 'a' A 'a' | 'a' 'a';")
    tm, tc = build_tables(g), build_tables(g, merge=False)
    assert tm.conflicts == tc.conflicts == []
    # %left reduces at equal level.  On the merged table this is the cell
    # that makes it reject "a a a a".
    assert [dataclasses.astuple(r) for r in tm.resolved] == [(3, "a", "A: a a", 1)]
    assert [dataclasses.astuple(r) for r in tc.resolved] == [(5, "a", "A: a a", 1)]
    assert tm.act[3][tm.token_index["a"]] == reduce_cell(1)


def test_resolved_cells_name_the_deciding_level():
    g = parse_grammar("%token NUM\n%left '+'\n%left '*'\n%%\nE: E '+' E | E '*' E | NUM;")
    t = build_tables(g)
    got = {(r.token, r.chosen, r.level) for r in t.resolved}
    assert got == {
        ("+", "E: E + E", 1),      # equal level, %left reduces
        ("*", "shift to 4", 2),    # '*' binds tighter than E + E
        ("+", "E: E * E", 2),      # E * E binds tighter than '+'
        ("*", "E: E * E", 2),
    }
    nonassoc = build_tables(parse_grammar("%token NUM\n%nonassoc '+'\n%%\nE: E '+' E | NUM;"))
    [r] = nonassoc.resolved
    assert (r.token, r.chosen) == ("+", "error")
    assert nonassoc.act[r.state][nonassoc.token_index["+"]] == ERROR_CELL


# -- the bitmask builder against a set-based reference ---------------------------


class ReferenceGraph(StateGraph):
    """The builder as it was before lookaheads became bitmasks.

    Each closure is a worklist fixpoint over sets of terminal names, with
    FIRST of each item's tail computed as it is met.  Only renumbering is
    shared with StateGraph: the finished kernels and closures are turned
    into masks and handed to ``_finalize``.
    """

    def _compute_first(self):
        g = self.grammar
        first = {r: set() for r in g.rules}
        nullable = set()
        changed = True
        while changed:
            changed = False
            for p in g.productions:
                f = first[p.lhs]
                before = (len(f), p.lhs in nullable)
                all_nullable = True
                for sym in p.rhs:
                    if g.is_token(sym):
                        f.add(sym)
                        all_nullable = False
                        break
                    f |= first[sym]
                    if sym not in nullable:
                        all_nullable = False
                        break
                if all_nullable:
                    nullable.add(p.lhs)
                if (len(f), p.lhs in nullable) != before:
                    changed = True
        return first, nullable

    def _first_of(self, seq, cont):
        out = set()
        for sym in seq:
            if self.grammar.is_token(sym):
                out.add(sym)
                return frozenset(out)
            out |= self._first[sym]
            if sym not in self._nullable:
                return frozenset(out)
        return frozenset(out | cont)

    def _closure(self, kernel):
        g = self.grammar
        items = {k: set(v) for k, v in kernel.items()}
        work = collections.deque(items)
        while work:
            prod_i, dot = work.popleft()
            prod = self.productions[prod_i]
            if dot >= len(prod.rhs):
                continue
            sym = prod.rhs[dot]
            if g.is_token(sym):
                continue
            cont = self._first_of(prod.rhs[dot + 1 :], frozenset(items[(prod_i, dot)]))
            for q in g.rules[sym]:
                key = (q, 0)
                cur = items.get(key)
                if cur is None:
                    items[key] = set(cont)
                    work.append(key)
                elif not cont <= cur:
                    cur |= cont
                    work.append(key)
        return items

    def _build(self):
        self._first, self._nullable = self._compute_first()

        def key_of(kernel):
            if self.merged:
                return frozenset(kernel)
            return frozenset((item, frozenset(las)) for item, las in kernel.items())

        start = {(self.aug_index, 0): {EOF}}
        kernels, closures, edges = [start], [{}], [{}]
        lookup = {key_of(start): [0]}
        work = collections.deque([0])
        queued = {0}
        while work:
            i = work.popleft()
            queued.discard(i)
            closures[i] = closure = self._closure(kernels[i])
            moves = {}
            for (prod_i, dot), las in closure.items():
                rhs = self.productions[prod_i].rhs
                if dot < len(rhs):
                    moves.setdefault(rhs[dot], {}).setdefault((prod_i, dot + 1), set()).update(las)
            edges[i] = {}
            for sym, kernel in moves.items():
                candidates = lookup.setdefault(key_of(kernel), [])
                for j in candidates:
                    if weakly_compatible_sets(kernels[j], kernel):
                        grew = False
                        for item, las in kernel.items():
                            if not las <= kernels[j][item]:
                                kernels[j][item] |= las
                                grew = True
                        break
                else:
                    j = len(kernels)
                    candidates.append(j)
                    kernels.append(kernel)
                    closures.append({})
                    edges.append({})
                    grew = True
                if grew and j not in queued:
                    queued.add(j)
                    work.append(j)
                edges[i][sym] = j

        bit = {t: 1 << i for i, t in enumerate(self.terminals)}

        def masks(items):
            return {item: sum(bit[t] for t in las) for item, las in items.items()}

        self._finalize([masks(k) for k in kernels], [masks(c) for c in closures], edges)


def weakly_compatible_sets(existing, incoming):
    items = list(incoming)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            c_a, c_b = incoming[items[a]], incoming[items[b]]
            d_a, d_b = existing[items[a]], existing[items[b]]
            if (c_a & d_b) or (c_b & d_a):
                if not (c_a & c_b) and not (d_a & d_b):
                    return False
    return True


def assert_same_tables(g, merge):
    t = build_tables(g, merge=merge)
    ref = StateTable(ReferenceGraph(g, merged=merge))
    assert t.n_states == ref.n_states
    assert t.act == ref.act
    assert t.goto == ref.goto
    assert [c.describe() for c in t.conflicts] == [c.describe() for c in ref.conflicts]
    assert t.graph.dump() == ref.graph.dump()
    # Closure item order decides which successor kernel meets Pager's test
    # first, so it has to match too, not only the sorted dump.
    for s in range(t.n_states):
        assert list(t.graph.closure_of(s).items()) == list(ref.graph.closure_of(s).items())


@pytest.mark.parametrize("merge", [True, False])
@settings(max_examples=150, deadline=None)
@given(small_grammars())
def test_bitmask_builder_matches_the_set_reference(merge, case):
    assert_same_tables(case[0], merge)


@pytest.mark.parametrize("stem", ["calc", "stmt", "mini_java", "clike"])
@pytest.mark.parametrize("merge", [True, False])
def test_bitmask_builder_matches_the_set_reference_on_fixtures(stem, merge):
    g = table_of(stem, merge).grammar
    assert_same_tables(g, merge)


def test_canonical_clike_build_stays_small():
    g = grammar_of("clike")
    tracemalloc.start()
    try:
        t = build_tables(g, merge=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 26 MiB when lookaheads were sets of token names, about 1.2 MiB as masks.
    assert peak < 6 * 2**20
    for s in (0, t.n_states - 1):
        closure = t.graph.closure_of(s)
        assert closure
        for las in closure.values():
            assert isinstance(las, frozenset) and all(isinstance(x, str) for x in las)
    assert t.graph.closure_of(0)[(t.graph.aug_index, 0)] == frozenset({"$"})
