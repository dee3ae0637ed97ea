import dataclasses
import functools
import hashlib
import random
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfix import (
    ParserInternalError,
    RecoveryParams,
    build_tables,
    min_repair_sequences,
    oracle_min_repairs,
    parse,
    parse_grammar,
    repair_search,
)
from lrfix import cpctplus
from lrfix.bench import mutate_corpus
from lrfix.lrtable import ACCEPT_CELL, ERROR_CELL
from lrfix.parser import RECOVERERS, drive

import gen
from checks import check_file, check_oracle, replays
from conftest import (
    INPUTS, D, I, S, clike, err_point, first_error, grammar_of, small_grammars, synth_toks,
    table_of, toks_of,
)


def test_dangling_operand_inserts_int():
    t, stack, ids, idx = err_point("calc", ["INT", "+"])
    out = repair_search(t, stack, ids, idx)
    assert out.cost == 1
    assert [list(s) for s in out.sequences] == [[I("INT")]]
    assert out.applied == [I("INT")]


def test_doubled_operator_offers_both_fixes():
    t, stack, ids, idx = err_point("calc", ["INT", "+", "+", "INT"])
    out = repair_search(t, stack, ids, idx)
    assert out.cost == 1
    assert {tuple(s) for s in out.sequences} == {(D,), (I("INT"),)}


def test_missing_operator_full_sequence_set():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    raw = min_repair_sequences(t, stack, ids, idx)
    assert raw.cost == 2
    assert raw.sequences == {
        (D, D),
        (D, S, I("INT")),
        (I("*"), S, D),
        (I("*"), S, S, I("INT")),
        (I("+"), S, D),
        (I("+"), S, S, I("INT")),
    }
    assert raw.success_configs == 2
    assert raw.merges > 0


def test_both_entry_points_at_a_point_with_no_error():
    # The raw search finds the empty repair at cost 0, as the oracle does;
    # repair_search, which must apply a repair, reports none.
    t = table_of("calc")
    ids = [t.token_index[x.type] for x in synth_toks(t, ["INT", "+", "INT", "+", "INT"])]
    raw = min_repair_sequences(t, [0], ids, 0)
    assert (raw.cost, raw.sequences) == oracle_min_repairs(t, [0], ids, 0) == (0, set())
    assert repair_search(t, [0], ids, 0) is None


def test_sequences_never_end_with_shift():
    for names in (["INT", "INT", "+"], ["INT", "+"], ["INT", "+", "+", "INT"]):
        t, stack, ids, idx = err_point("calc", names)
        raw = min_repair_sequences(t, stack, ids, idx)
        for seq in raw.sequences:
            assert seq[-1].kind != "shift"


def test_no_insert_straight_after_delete():
    for names in (["INT", "INT", "+"], ["INT", "INT", "INT"], ["INT", "+", "+", "INT"]):
        t, stack, ids, idx = err_point("calc", names)
        raw = min_repair_sequences(t, stack, ids, idx)
        for seq in raw.sequences:
            for a, b in zip(seq, seq[1:]):
                assert not (a.kind == "delete" and b.kind == "insert")


def test_merging_does_not_change_the_answer():
    points = [err_point("calc", ["INT", "INT", "+"])]
    points += [golden_point(name) for name in CLIKE_PROGRAMS]
    for t, stack, ids, idx in points:
        plain = min_repair_sequences(t, stack, ids, idx, budget_s=60.0, merge=False)
        merged = min_repair_sequences(t, stack, ids, idx, budget_s=60.0, merge=True)
        assert plain.cost == merged.cost
        assert plain.sequences == merged.sequences
        assert merged.success_configs <= plain.success_configs


def test_weighted_inserts_change_the_minimum():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    params = RecoveryParams(insert_cost=lambda tok: 5 if tok == "INT" else 1)
    raw = min_repair_sequences(t, stack, ids, idx, params)
    assert raw.cost == 2
    assert raw.sequences == {(D, D), (I("*"), S, D), (I("+"), S, D)}


def test_a_dear_insert_leaves_the_costs_below_it_unvisited():
    # No arrival costs from 3 to 10**6 - 1, and the search skips those
    # costs rather than visiting each, so a 10 ms budget is plenty.
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    dear = lambda tok: 10**6 if tok == "INT" else 1
    params = RecoveryParams(timeout_s=0.01, insert_cost=dear)
    raw = min_repair_sequences(t, stack, ids, idx, params)
    assert (raw.cost, raw.sequences) == (2, {(D, D), (I("*"), S, D), (I("+"), S, D)})
    assert repair_search(t, stack, ids, idx, params).cost == 2
    costs = [dear(tok) for tok in t.tokens[: t.eof]]
    assert oracle_min_repairs(t, list(stack), ids, idx, insert_cost=costs) == (2, raw.sequences)


# Errors in calc where inserting '(' is a dead end: the next token then
# meets an error cell, so the insert waits until the next cost level has
# failed, yet minimum-cost sequences pass through it.  Each entry: the
# cost and set with every insert at 1, then with '(' at 2, where the
# deferred insert lands two cost levels up.
DEAD_ARRIVALS = {
    ")": ((2, {(I("("), I("INT")), (I("INT"), D)}),
          (2, {(I("INT"), D)})),
    "+ )": ((3, {(I("("), I("INT"), D), (I("("), I("INT"), S, I("INT")), (I("INT"), D, D),
                 (I("INT"), S, I("("), I("INT")), (I("INT"), S, I("INT"), D)}),
            (3, {(I("INT"), D, D), (I("INT"), S, I("INT"), D)})),
}


def paren_costs_2(tok):
    return 2 if tok == "(" else 1


@pytest.mark.parametrize("merge", [True, False], ids=["merge", "no_merge"])
@pytest.mark.parametrize("table_merge", [True, False], ids=["lalr", "canonical"])
@pytest.mark.parametrize("text", sorted(DEAD_ARRIVALS))
def test_minimum_cost_paths_through_a_dead_arrival(text, table_merge, merge):
    t = table_of("calc", table_merge)
    ids = [t.token_index[x.type] for x in synth_toks(t, text.split())]
    stack, idx = first_error(t, ids)
    inserted = list(stack)
    drive(t, inserted, [t.token_index["("]], 0, 1)
    assert t.act[inserted[-1]][ids[idx]] == ERROR_CELL
    plain, dear = DEAD_ARRIVALS[text]
    for params, insert_cost, expected in (
        (RecoveryParams(), None, plain),
        (RecoveryParams(insert_cost=paren_costs_2),
         [paren_costs_2(tok) for tok in t.tokens[: t.eof]], dear),
    ):
        raw = min_repair_sequences(t, stack, ids, idx, params, merge=merge)
        assert (raw.cost, raw.sequences) == expected
        assert oracle_min_repairs(t, list(stack), ids, idx, insert_cost=insert_cost) == expected


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.0, sys.maxsize])
def test_insert_costs_must_be_positive_ints(bad):
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    params = RecoveryParams(insert_cost=lambda tok: bad if tok == "INT" else 1)
    with pytest.raises(ValueError, match=r"insert_cost\('INT'\)"):
        min_repair_sequences(t, stack, ids, idx, params)
    with pytest.raises(ValueError, match=r"insert_cost\('INT'\)"):
        repair_search(t, stack, ids, idx, params)


def test_avoided_tokens_rank_last_but_stay_reported():
    t, stack, ids, idx = err_point("calc_avoid", ["INT", "+", "+", "INT"])
    out = repair_search(t, stack, ids, idx)
    assert {tuple(s) for s in out.sequences} == {(D,), (I("INT"),)}
    assert out.applied == [D]
    assert list(out.sequences[-1]) == [I("INT")]


def test_reported_order_is_canonical():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    out = repair_search(t, stack, ids, idx)
    assert [list(s) for s in out.sequences] == [
        [I("+"), S, D],
        [I("+"), S, S, I("INT")],
        [I("*"), S, D],
        [I("*"), S, S, I("INT")],
        [D, D],
        [D, S, I("INT")],
    ]


def test_avoiding_eof_does_not_mark_deletes():
    # parse_grammar refuses "%avoid_insert $"; a Grammar built directly
    # can still name it, and EOF's index doubles as the delete code.
    t = build_tables(dataclasses.replace(grammar_of("calc"), avoid_insert={"$"}))
    plain = table_of("calc")
    for names in (["INT", "INT", "+"], ["INT", "+", "+", "INT"]):
        ids = [plain.token_index[x.type] for x in synth_toks(plain, names)]
        stack, idx = first_error(plain, ids)
        assert (repair_search(t, stack, ids, idx).sequences
                == repair_search(plain, stack, ids, idx).sequences)


def test_reversed_ranking_still_minimal_cost():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    fwd = repair_search(t, stack, ids, idx)
    rev = repair_search(t, stack, ids, idx, rank_reversed=True)
    assert fwd.cost == rev.cost == 2
    full = {tuple(s) for s in min_repair_sequences(t, stack, ids, idx).sequences}
    assert {tuple(s) for s in rev.sequences} <= full
    assert {tuple(s) for s in fwd.sequences} <= full


def test_zero_budget_times_out():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    assert repair_search(t, stack, ids, idx, budget_s=0.0) is None


class JumpingClock:
    """A stand-in for ``cpctplus.time`` whose clock stands still until
    ``jump`` moves it far past any deadline."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def jump(self):
        self.now = 1e9


@pytest.mark.parametrize("name", ["calc_bad", "clike_three_ids"])
def test_the_budget_bounds_ranking_and_expansion(name, monkeypatch):
    # The clock passes the deadline at the first expansion after a success
    # left its bucket, so whatever work is left (the rest of the bucket,
    # ranking or expanding the sequences) must give up.  Then it passes
    # again during ranking, as the repair DAG is expanded, and as the
    # sequences are decoded.
    t, stack, ids, idx = golden_point(name)
    n_shifts = RecoveryParams().n_shifts
    clock = JumpingClock()
    monkeypatch.setattr(cpctplus, "time", clock)
    add = cpctplus._Search._add
    zero_cost_moves = cpctplus._Search._zero_cost_moves
    queued = []  # (cost, key) of each success as it is queued
    jumps = []
    late = []

    def note_successes(self, cost, rm, code, stack, offset, tail, after_delete):
        n = len(self.todo.get(cost, ()))
        add(self, cost, rm, code, stack, offset, tail, after_delete)
        if len(self.todo[cost]) > n and (
            t.act[self.stack_list(stack)[-1]][ids[offset]] == ACCEPT_CELL or tail >= n_shifts
        ):
            queued.append((cost, self.todo[cost][-2]))

    def jump_after_a_success(self, cost, *args):
        keys = self.todo[cost][::2]
        if clock.now:
            late.append(args)
        elif any(c == cost and key not in keys for c, key in queued):
            jumps.append(cost)
            clock.jump()
        return zero_cost_moves(self, cost, *args)

    with monkeypatch.context() as m:
        m.setattr(cpctplus._Search, "_add", note_successes)
        m.setattr(cpctplus._Search, "_zero_cost_moves", jump_after_a_success)
        assert repair_search(t, stack, ids, idx) is None
        clock.now = 0.0
        queued.clear()
        assert min_repair_sequences(t, stack, ids, idx) is None
    assert len(jumps) == 2  # each search jumped mid-bucket ...
    assert not late  # ... and expanded nothing more

    distance = cpctplus._parse_distance
    drives = []

    def distance_then_jump(*args):
        drives.append(args)
        clock.jump()
        return distance(*args)

    clock.now = 0.0
    with monkeypatch.context() as m:
        m.setattr(cpctplus, "_parse_distance", distance_then_jump)
        assert repair_search(t, stack, ids, idx) is None
    assert len(drives) == 1

    for step in ("_expand", "_decode"):
        def jump_then_step(*args, real=getattr(cpctplus, step)):
            clock.jump()
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(cpctplus, step, jump_then_step)
            clock.now = 0.0
            assert repair_search(t, stack, ids, idx) is None, step
            clock.now = 0.0
            assert min_repair_sequences(t, stack, ids, idx) is None, step


def test_equal_stacks_reached_along_different_paths_get_one_ref():
    # Stacks are hash-consed into int refs: shifting INT and shifting
    # ( INT ) both reduce to the stack Expr needs under '+', through
    # different nodes, and must come out as one int.
    t = table_of("calc")
    ids = [t.token_index[x.type] for x in synth_toks(t, ["INT", "+", "INT"])]
    search = cpctplus._Search(t, [0], ids, 0, RecoveryParams(), None, 3, True)
    plus = t.token_index["+"]

    def shift(ref, tok):
        ref, cell = search._reduce_to_action(ref, t.token_index[tok])
        assert cell & 3 == 2
        return search._push(ref, cell >> 2)

    def under_plus(ref):
        return search._reduce_to_action(ref, plus)[0]

    bare = shift(0, "INT")
    nested = shift(shift(shift(0, "("), "INT"), ")")
    assert bare != nested
    assert under_plus(bare) == under_plus(nested)
    expect = [0]
    drive(t, expect, [t.token_index["INT"], plus], 0, 2)
    expect.pop()  # the shift of '+'
    assert search.stack_list(under_plus(nested)) == expect
    pushed = expect[0]
    for state in expect[1:]:
        pushed = search._push(pushed, state)
    assert pushed == under_plus(bare)


def test_a_repair_path_longer_than_the_recursion_limit_expands():
    # n_shifts = 1200 gives each success a path of over 1,200 repair nodes,
    # more than Python's default recursion limit of 1,000.
    src = "1 1" + " + 1" * 1300
    params = RecoveryParams(n_shifts=1200, n_try=1200)
    r = parse(table_of("calc"), toks_of("calc", src), src, params=params)
    assert r.success
    assert [(x.cost, x.sequences) for x in r.reports] == [(1, [[I("+")], [I("*")], [D]])]


def test_a_configuration_costs_few_bytes():
    # Criterion 07's input runs the search to its budget.  A faster search
    # fills memory faster, so each configuration reached must stay small:
    # stacks, keys and the repair DAG are plain ints (about 200 bytes a
    # configuration here, against about 500 with an object per stack node,
    # key and repair node).
    t, stack, ids, idx = err_point("bracket_heavy", list("([{([{([{([{([{([{(["))
    tracemalloc.start()
    try:
        search = cpctplus._Search(t, stack, ids, idx, RecoveryParams(), 0.5, 3, True)
        with pytest.raises(cpctplus._OutOfTime):
            search.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(search.best) <= 300, f"{peak / len(search.best):.0f} bytes a configuration"


@pytest.mark.parametrize("style", [7, 0, "3", 3.0, True], ids=repr)
def test_unknown_shift_style_is_refused(style):
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    with pytest.raises(ValueError, match=f"shift_style.*{style!r}"):
        repair_search(t, stack, ids, idx, shift_style=style)
    with pytest.raises(ValueError, match=f"shift_style.*{style!r}"):
        min_repair_sequences(t, stack, ids, idx, shift_style=style)


def test_nan_budget_is_refused():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    with pytest.raises(ValueError, match="budget_s"):
        repair_search(t, stack, ids, idx, budget_s=float("nan"))
    with pytest.raises(ValueError, match="budget_s"):
        min_repair_sequences(t, stack, ids, idx, budget_s=float("nan"))


def test_shift_styles_agree_with_each_other_when_they_succeed():
    t, stack, ids, idx = err_point("calc", ["INT", "+", "+", "INT"])
    s2 = min_repair_sequences(t, stack, ids, idx, shift_style=2)
    s3 = min_repair_sequences(t, stack, ids, idx, shift_style=3)
    assert s2.cost == s3.cost == 1
    assert s2.sequences == s3.sequences


def test_oracle_matches_on_known_cases():
    for names in (["INT", "+"], ["INT", "+", "+", "INT"], ["INT", "INT", "+"]):
        t, stack, ids, idx = err_point("calc", names)
        raw = min_repair_sequences(t, stack, ids, idx)
        cost, seqs = oracle_min_repairs(t, list(stack), ids, idx)
        assert raw.cost == cost
        assert raw.sequences == seqs


NO_REPLAYABLE_REPAIR = {
    # Error at end of input on stack 0 1 1 4.  Inserting 'a', reducing
    # under end of input (C, then A: %empty in state 3, then A: a C A) and
    # inserting 'a' again would not replay: a parser fed the second 'a'
    # reduces under 'a' instead, and in state 3 the conflict keeps the
    # shift over A: %empty.
    "a_c_a": ("%token a b c\n%%\nA: | a C A;\nC: | A a;", "a a a"),
    "c_a_b": ("%token a b\n%%\nA: | C A | a A C;\nB: ;\nC: b;", "a"),
    "a_b_a": ("%token a\n%%\nA: | A B;\nB: a A a;", "a a a a"),
    # The greedy move of shift styles 1 and 2, after shifting 'c', must
    # not keep the stack reduced under the 'b' it cannot shift: an insert
    # from that stack does not replay.
    "greedy": ("%token a b c\n%%\nA: c | A A | a C;\nB: A;\nC: B B b;", "a b c b"),
}


@pytest.mark.parametrize("name", sorted(NO_REPLAYABLE_REPAIR))
def test_no_repair_is_reported_that_does_not_replay(name):
    # A search that reduces under a token it then does not shift, insert
    # or accept reports sequences the parser cannot replay.  None of these
    # points has a repair that replays, so each must fail.
    grammar, text = NO_REPLAYABLE_REPAIR[name]
    t = build_tables(parse_grammar(grammar))
    toks = synth_toks(t, text.split())
    ids = [t.token_index[x.type] for x in toks]
    stack, idx = first_error(t, ids)
    for style in (1, 2, 3):
        assert min_repair_sequences(t, stack, ids, idx, budget_s=0.2, shift_style=style) is None
    assert oracle_min_repairs(t, list(stack), ids, idx) is None
    r = parse(t, toks, params=RecoveryParams(timeout_s=0.2))
    assert not r.success
    assert len(r.reports) == 1
    assert r.stats.costs == []


@pytest.mark.parametrize("merge", [True, False])
def test_ranking_stops_at_a_runaway_reduce_chain(merge):
    # Deleting 'b' is the one cheapest repair.  The grammar is cyclic (A:
    # A B with an empty B), so after the three 'a's the parse reduces
    # forever at end of input.  Ranking parses on past the repair, counts
    # that chain as where the parse stops, and still reports the repair;
    # the parse that applies it then runs into the chain and raises.
    t = build_tables(parse_grammar("%token a b c\n%%\nA: | A B;\nB: | a A;"), merge=merge)
    toks = synth_toks(t, ["b", "a", "a", "a"])
    ids = [t.token_index[x.type] for x in toks]
    assert cpctplus._parse_distance(t, [0], 1, ids, 5) == 3
    assert min_repair_sequences(t, [0], ids, 0).sequences == {(D,)}
    assert oracle_min_repairs(t, [0], ids, 0) == (1, {(D,)})
    out = repair_search(t, [0], ids, 0)
    assert (out.cost, out.sequences) == (1, [[D]])
    with pytest.raises(ParserInternalError, match="reduce chain did not terminate"):
        parse(t, toks, params=RecoveryParams(timeout_s=60))


calc_names = st.lists(st.sampled_from(["INT", "+", "*", "(", ")"]), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(calc_names)
def test_oracle_agreement_random_short_strings(names):
    t = table_of("calc")
    toks = synth_toks(t, names)
    ids = [t.token_index[x.type] for x in toks]
    hit = first_error(t, ids)
    if hit is None:
        return
    stack, idx = hit
    raw = min_repair_sequences(t, stack, ids, idx)
    cost, seqs = oracle_min_repairs(t, list(stack), ids, idx)
    assert raw.cost == cost
    assert raw.sequences == seqs
    out = repair_search(t, stack, ids, idx)
    types = [t.tokens[i] for i in ids]
    n_shifts = RecoveryParams().n_shifts
    for seq in out.sequences:
        assert replays(t, stack, types, idx, seq, n_shifts), seq


@settings(max_examples=200, deadline=None)
@given(small_grammars(), st.booleans(), st.booleans(), st.data())
def test_search_equals_oracle_on_small_grammars(case, merge, merge_search, data):
    # ``merge`` merges the table's states, ``merge_search`` the search's
    # configurations; some examples weigh each token's insert 1 to 3.
    g, alphabet = case
    t = build_tables(g, merge=merge)
    toks = synth_toks(t, data.draw(st.lists(st.sampled_from(alphabet), max_size=5)))
    weighed = st.fixed_dictionaries({tok: st.integers(1, 3) for tok in alphabet})
    weights = data.draw(st.none() | weighed)
    if weights is None:
        params, insert_cost = RecoveryParams(), None
    else:
        params = RecoveryParams(insert_cost=weights.__getitem__)
        insert_cost = [weights[tok] for tok in t.tokens[: t.eof]]
    ids = [t.token_index[x.type] for x in toks]
    # A short budget: a grammar with an empty language is searched until
    # the budget runs out, and the budget does not change what may raise.
    quick = RecoveryParams(timeout_s=0.05)
    for recoverer in RECOVERERS:
        try:
            parse(t, toks, recoverer=recoverer, params=quick)
        except ParserInternalError:
            pass
    # first_error drives through drive, which stops a runaway reduce chain.
    try:
        hit = first_error(t, ids)
        found = hit and oracle_min_repairs(
            t, list(hit[0]), ids, hit[1], cost_bound=3, insert_cost=insert_cost)
    except ParserInternalError:
        return
    if found is None:
        return  # searching to the budget here would dominate the test's time
    stack, idx = hit
    raw = min_repair_sequences(t, stack, ids, idx, params, budget_s=5, merge=merge_search)
    assert (raw.cost, raw.sequences) == found
    types = [t.tokens[i] for i in ids]
    for seq in raw.sequences:
        assert replays(t, stack, types, idx, seq, params.n_shifts), seq
    out = repair_search(t, stack, ids, idx, params, budget_s=5, merge=merge_search)
    assert {tuple(seq) for seq in out.sequences} <= raw.sequences


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["INT", "+", "*", "(", ")"]), max_size=8))
def test_parse_with_recovery_terminates_and_accounts(names):
    # ``check_file`` also replays every reported sequence at every location.
    t = table_of("calc")
    toks = synth_toks(t, names)
    r = parse(t, toks)
    check_file(t, toks, r, RecoveryParams())
    assert r.stats.real_tokens == len(names)
    assert 0.0 <= r.stats.tokens_skipped_pct <= 100.0
    if r.success:
        assert len(r.stats.costs) == len([x for x in r.reports if x.success])
        assert r.tree is not None or names == []
    else:
        assert r.reports and not r.reports[-1].success


@pytest.mark.parametrize("merge", [True, False])
def test_an_empty_language_empties_the_frontier(merge):
    # S: S 'a' derives no string, so no repair exists and the search stops
    # when its frontier runs out, long before the 30 s budget would.
    t = build_tables(parse_grammar("%token a\n%%\nS: S 'a';"), merge=merge)
    ids = [t.token_index[x.type] for x in synth_toks(t, ["a"])]
    assert first_error(t, ids) == ([0], 0)
    t0 = time.monotonic()
    assert min_repair_sequences(t, [0], ids, 0, budget_s=30.0) is None
    assert repair_search(t, [0], ids, 0, budget_s=30.0) is None
    assert time.monotonic() - t0 < 3.0


def test_search_is_fast_on_small_inputs():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    t0 = time.monotonic()
    for _ in range(20):
        repair_search(t, stack, ids, idx)
    assert time.monotonic() - t0 < 2.0


# Golden search outcomes.  Each location is the first error point of a
# broken fixture input, or of a broken program for the benchmark's C-like
# grammar (``perfbench/clike.y``/``.l``): cost 2 with merges, cost 3 with
# merged success configurations, shift styles that disagree, and 401
# sequences that reach 401 success configurations without merging and 3
# with it.
FIXTURE_INPUTS = {"calc_bad": "calc", "calc_double_plus": "calc", "mini_java_bad": "mini_java"}
CLIKE_PROGRAMS = {
    "clike_open_paren": "int f() { x = (1 + ; }",
    "clike_if_assign": "int f() { if (x = ; ) }",
    "clike_closed_paren": "int f() { x = (1 + ) * ; }",
    "clike_three_ids": "int f() { x = y z w; }",
}

# Insert costs for the weighted modes: an integer literal in calc and an
# identifier or literal in the C-like language cost more than the rest.
WEIGHTS = {"INT": 5, "ID": 2, "NUM": 2}


def weighted_cost(tok):
    return WEIGHTS.get(tok, 1)


SEARCH_MODES = {
    "ranked": {},
    "style1": {"shift_style": 1},
    "style2": {"shift_style": 2},
    "style3": {"shift_style": 3},
    "unmerged": {"merge": False},
    "weighted_deterministic": {"params": RecoveryParams(insert_cost=weighted_cost)},
    "weighted_style3": {"params": RecoveryParams(insert_cost=weighted_cost), "shift_style": 3},
}
RANKED_MODES = ("ranked", "weighted_deterministic")


def golden_point(name):
    if name in CLIKE_PROGRAMS:
        t, lexspec = clike()
        toks = lexspec.lex(CLIKE_PROGRAMS[name])
    else:
        t = table_of(FIXTURE_INPUTS[name])
        toks = toks_of(FIXTURE_INPUTS[name], (INPUTS / f"{name}.txt").read_text(encoding="utf-8"))
    ids = [t.token_index[x.type] for x in toks]
    stack, idx = first_error(t, ids)
    return t, stack, ids, idx


def search_outcome(name, mode):
    """(cost, sequences, applied), the success configs and the merge count:
    sequences in reported order for ``repair_search`` (the ranked modes),
    sorted for the set that ``min_repair_sequences`` returns (the others)."""
    t, stack, ids, idx = golden_point(name)
    kw = SEARCH_MODES[mode]
    if mode in RANKED_MODES:
        out = repair_search(t, stack, ids, idx, budget_s=60.0, **kw)
        return (out.cost, out.sequences, out.applied), out.success_configs, out.merges
    raw = min_repair_sequences(t, stack, ids, idx, budget_s=60.0, **kw)
    return (raw.cost, sorted(raw.sequences, key=repr), None), raw.success_configs, raw.merges


# Each golden point and search mode: (sha256 of the outcome's repr,
# success configurations, merges).  Unlike the outcome, both counts depend
# on how the search folds paths together and which edits it builds into
# the minimum-cost bucket.  Shift style 1 finds no repair for calc_bad and
# searches until its budget runs out, so that one pair is left out.
GOLDEN_SEARCH = {
    ("calc_bad", "ranked"): ("d7cc6b0e32c0ac42c0a466102439d9454e53f92f4f125c73c5040b9e8c2ac277", 2, 4),
    ("calc_bad", "style2"): ("ab98ebf9436769216814b2e7ca13de9b85f6286daf8d31cb9517be8e4f0cb9e0", 2, 2),
    ("calc_bad", "style3"): ("225c161fcce1be4c60d8e9368dad66bced8ccfa9077aa8499b74ce7e2636e93f", 2, 4),
    ("calc_bad", "unmerged"): ("225c161fcce1be4c60d8e9368dad66bced8ccfa9077aa8499b74ce7e2636e93f", 6, 0),
    ("calc_double_plus", "ranked"): ("c2aabd8d50444d49afb276ffc5706147f7bbef3c2a60edc453c50f57f9eb7e5a", 2, 0),
    ("calc_double_plus", "style1"): ("7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76", 2, 0),
    ("calc_double_plus", "style2"): ("7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76", 2, 0),
    ("calc_double_plus", "style3"): ("7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76", 2, 0),
    ("calc_double_plus", "unmerged"): ("7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76", 2, 0),
    ("mini_java_bad", "ranked"): ("408844ccbd4b5e7ea61d69b004738e16d4366cc19b7405a7e85aa33bda49fb7e", 2, 1),
    ("mini_java_bad", "style1"): ("ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0", 2, 1),
    ("mini_java_bad", "style2"): ("ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0", 2, 1),
    ("mini_java_bad", "style3"): ("ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0", 2, 1),
    ("mini_java_bad", "unmerged"): ("ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0", 3, 0),
    ("clike_open_paren", "ranked"): ("5c49028aa53823fce01eba568312ce571186ff019fce285e2ca1706aa6948724", 1, 6),
    ("clike_open_paren", "style1"): ("461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b", 1, 6),
    ("clike_open_paren", "style2"): ("461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b", 1, 6),
    ("clike_open_paren", "style3"): ("461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b", 1, 6),
    ("clike_open_paren", "unmerged"): ("461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b", 3, 0),
    ("clike_if_assign", "ranked"): ("5db3b5770b27e422b76062e0ab420fe1888db66ed25761402d938b0256b12efc", 1, 75),
    ("clike_if_assign", "style1"): ("e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6", 1, 75),
    ("clike_if_assign", "style2"): ("e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6", 1, 75),
    ("clike_if_assign", "style3"): ("e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6", 1, 75),
    ("clike_if_assign", "unmerged"): ("e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6", 6, 0),
    ("clike_closed_paren", "ranked"): ("af506726920e6c0d4a4ad3a4d2fa7fb80277a8907beea8d404c54dd3d9556030", 1, 19),
    ("clike_closed_paren", "style1"): ("70fa5b2b3c7d1e019d26b7e386f519e987653f916951d7480d3606feffc56f9b", 1, 17),
    ("clike_closed_paren", "style2"): ("70fa5b2b3c7d1e019d26b7e386f519e987653f916951d7480d3606feffc56f9b", 1, 17),
    ("clike_closed_paren", "style3"): ("52efbe0214a02e3f78f093da0fbb230cf42aeeca1033e7f7e12b8d0e23c39b6d", 1, 19),
    ("clike_closed_paren", "unmerged"): ("52efbe0214a02e3f78f093da0fbb230cf42aeeca1033e7f7e12b8d0e23c39b6d", 12, 0),
    ("clike_three_ids", "ranked"): ("33094bd4787aa667fe9e14c58f1dbf13b0162ceb5a9646e5f31d2a5964288345", 3, 404),
    ("clike_three_ids", "style1"): ("97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81", 3, 404),
    ("clike_three_ids", "style2"): ("97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81", 3, 404),
    ("clike_three_ids", "style3"): ("97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81", 3, 404),
    ("clike_three_ids", "unmerged"): ("97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81", 401, 0),
    ("calc_bad", "weighted_deterministic"): ("7af5d8432a2d1ef6f0d1ee72105557851daa8b71621afede5d8ac0527d671ea9", 1, 3),
    ("calc_bad", "weighted_style3"): ("514b552098c01af271511cec33588440538e760aa162a4e5aabfd795b5ea11b2", 1, 3),
    ("calc_double_plus", "weighted_deterministic"): ("771406b2a4fce5e1fd3c37fd266a849de00dd6bf8f2f064fe70f1096ca738b24", 1, 0),
    ("calc_double_plus", "weighted_style3"): ("a91be2d6a6bb9ad5c0108afac2b6a33c4c31821619eeeb6622902919d06a433e", 1, 0),
    ("clike_open_paren", "weighted_deterministic"): ("520c94d73e726f710eadf29d362fc901731065222ec6ce2164a357ebc2766fdd", 1, 0),
    ("clike_open_paren", "weighted_style3"): ("df6d25de06049ac7519d7c5a8526ef591fd533ba6db575010b9f994f57270d77", 1, 0),
    ("clike_if_assign", "weighted_deterministic"): ("1fc2238bc614d8ce4251ff3b6952ad19a9ca2402980686a1ae3158ed21ecd476", 1, 1),
    ("clike_if_assign", "weighted_style3"): ("acfcf1da0aa5a5252c641cc2d059f1423c0be5e05ab046842eb68f7cbfdbe224", 1, 1),
}


GOLDEN_POINTS = [pytest.param(*key, id="-".join(key)) for key in sorted(GOLDEN_SEARCH)]


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_search_outcomes_match_golden_digest(name, mode):
    outcome, success_configs, merges = search_outcome(name, mode)
    digest = hashlib.sha256(repr(outcome).encode()).hexdigest()
    assert (digest, success_configs, merges) == GOLDEN_SEARCH[name, mode]


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_SEARCH}))
def test_golden_reported_order_does_not_depend_on_merging(name):
    # Without merging the search pops its configurations in another order
    # and finds the same set; the report depends only on the set.
    t, stack, ids, idx = golden_point(name)
    merged = repair_search(t, stack, ids, idx, budget_s=60.0)
    unmerged = repair_search(t, stack, ids, idx, budget_s=60.0, merge=False)
    assert unmerged.sequences == merged.sequences
    assert unmerged.applied == merged.applied


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_every_golden_sequence_replays(name, mode):
    t, stack, ids, idx = golden_point(name)
    (_, sequences, _), _, _ = search_outcome(name, mode)
    types = [t.tokens[i] for i in ids]
    n_shifts = RecoveryParams().n_shifts
    for seq in sequences:
        assert replays(t, stack, types, idx, seq, n_shifts), seq


@pytest.mark.parametrize("name", sorted(CLIKE_PROGRAMS))
def test_weighted_merging_does_not_change_the_answer(name):
    t, stack, ids, idx = golden_point(name)
    params = RecoveryParams(insert_cost=weighted_cost)
    plain = min_repair_sequences(t, stack, ids, idx, params, budget_s=60.0, merge=False)
    merged = min_repair_sequences(t, stack, ids, idx, params, budget_s=60.0, merge=True)
    assert plain.cost == merged.cost
    assert plain.sequences == merged.sequences


@functools.lru_cache(maxsize=None)
def recorded_search(name, mode):
    """``search_outcome(name, mode)``, run once under pass-through spies on
    the search's seams, and what they saw:

    * ``arrivals``: per ``_add`` call, the configuration's key, the cost,
      the number of repair nodes the call made, and whether the arrival is
      a dead edit (its next token meets an error cell on its top state);
    * ``expanded``: the key of each configuration ``_zero_cost_moves`` expands;
    * ``edit_costs``: the cost of each ``_edits`` batch;
    * ``walks``: per ``_expand`` call, the success nodes and the output.

    Without merging paths never meet, so a key also holds the node it
    extends and, for an arrival, the code that extends it."""
    rec = types.SimpleNamespace(arrivals=[], expanded=[], edit_costs=[], walks=[])
    search = cpctplus._Search
    add, moves, edits = search._add, search._zero_cost_moves, search._edits
    expand = cpctplus._expand

    def add_spy(self, cost, rm, code, ref, offset, tail, after_delete):
        nodes = len(self.repair)
        add(self, cost, rm, code, ref, offset, tail, after_delete)
        key = (ref, offset, tail, after_delete) + (() if self.merge else (rm, code))
        top = ref % self.n_states
        dead = code != self.shift_c and self.act[top][self.tok_ids[offset]] == ERROR_CELL
        rec.arrivals.append((key, cost, len(self.repair) - nodes, dead))

    def moves_spy(self, cost, rm, *config):
        rec.expanded.append(config + (() if self.merge else (rm,)))
        moves(self, cost, rm, *config)

    def edits_spy(self, cost, *args):
        rec.edit_costs.append(cost)
        edits(self, cost, *args)

    def expand_spy(repair, parent, merged, rms, deadline):
        out = expand(repair, parent, merged, rms, deadline)
        rec.walks.append((rms, out))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_add", add_spy)
        m.setattr(search, "_zero_cost_moves", moves_spy)
        m.setattr(search, "_edits", edits_spy)
        m.setattr(cpctplus, "_expand", expand_spy)
        (rec.cost, *_), rec.success_configs, _ = search_outcome(name, mode)
    return rec


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_no_edits_are_built_at_the_minimum_cost(name, mode):
    # A bucket's inserts and deletes are built only once it drains without
    # a success, so the bucket holding the cheapest success never builds
    # any: each would cost more than the minimum and be dropped.
    rec = recorded_search(name, mode)
    assert rec.edit_costs and max(rec.edit_costs) < rec.cost


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_no_dead_edit_reaches_the_minimum_cost(name, mode):
    # An insert or delete whose next token meets an error cell on its top
    # state can neither succeed nor move at its own cost, so it is built
    # only once the next cost level has failed: the bucket holding the
    # cheapest success never receives one.
    rec = recorded_search(name, mode)
    assert rec.cost not in [cost for _, cost, _, dead in rec.arrivals if dead]


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_each_configuration_is_expanded_once(name, mode):
    # A configuration that comes back is dropped (at a higher cost) or
    # grafted onto its first arrival (at the same cost), so no search
    # configuration gets its moves twice.
    keys = recorded_search(name, mode).expanded
    assert keys and len(set(keys)) == len(keys)


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_no_configuration_arrives_cheaper_than_at_first(name, mode):
    # The search queues a configuration only on its first arrival and has
    # no way to queue it again more cheaply, so a later arrival must never
    # cost less than the first one did.
    first = {}
    arrivals = recorded_search(name, mode).arrivals
    assert arrivals and all(cost >= first.setdefault(key, cost) for key, cost, _, _ in arrivals)


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_every_arrival_gets_a_repair_node_of_its_own(name, mode):
    # The start configuration, expanded first, sits on the root at cost 0.
    # An arrival that is queued (the first at its configuration) or grafted
    # (a later one at the same cost) makes one new node; a costlier one is
    # dropped and makes none.
    rec = recorded_search(name, mode)
    first = {rec.expanded[0]: 0}
    assert rec.arrivals and all(made == (first.setdefault(key, cost) == cost)
                                for key, cost, made, _ in rec.arrivals)


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_expansion_yields_each_sequence_once(name, mode):
    # Grafts can reach one prefix along several paths through the repair
    # DAG; expansion keeps each prefix once instead of copying it on.
    walks = recorded_search(name, mode).walks
    assert walks and all(len(set(out)) == len(out) for _, out in walks)


def test_one_walk_expands_every_success():
    # calc_bad has two success configurations; one walk of the repair DAG
    # expands both, sharing what it learns about the nodes above them.
    rec = recorded_search("calc_bad", "style3")
    assert rec.success_configs == 2
    assert [len(rms) for rms, _ in rec.walks] == [2]


# The recipe: 120 generated C-like programs of about 150 tokens with four
# random edits each, parsed on the merged table with a 30 s budget that no
# location runs out of.  Per recoverer: error locations, sequences, and
# one sha256 over each location's (offset, success, cost, sequences,
# applied), in order.
RECIPE = {
    "cpctplus": (478, 4520, "df0843d8193130f52b3a095f6b39e3aa4f6d8285db05da96ffa48a71bf5a006d"),
    "cpctplus-rev": (619, 2380, "8ace208f6495b3567cb16d10d08d883e144cdf39f214a5686ad66e7f47b65bb3"),
    "panic": (966, 0, "3b31b5b5109be723c7e443132ef13f26bdff078089b16eacc82c255e8cd0bcae"),
}
# Work that cpctplus does over the recipe, counted per call of these
# _Search methods: 38,283 repair nodes (71,427 when dead edits do not wait
# for the next cost level to fail), 44,181 arrivals, 31,357 expansions,
# 5,397 insert passes and 34,506 reductions.  Each ceiling has the node
# ceiling's slack of about 4.5%, so a faster search can still lower it.
RECIPE_CEILINGS = {
    "_node": 40_000, "_add": 46_150, "_zero_cost_moves": 32_750, "_inserts": 5_650,
    "_reduce": 36_050,
}
RECIPE_PARAMS = RecoveryParams(timeout_s=30)

# A right-recursive calc input, so the parser's stack grows with its
# length: 1,000 tokens with an error at each "1 1".  Error locations,
# sequences, and one sha256 over each location's (offset, cost,
# sequences, applied), in order.
DEEP_STACK = (200, 404, "2df8311928e7f9bbd5d7bd49ad842c1280576c574a7c1a18e3b40219e24cdd14")


@functools.lru_cache(maxsize=None)
def recipe_files():
    _, lexspec = clike()
    rng = random.Random(1)
    files = [(f"{i}.c", gen.program(rng, 150)[0]) for i in range(120)]
    return [(text, lexspec.lex(text)) for _, text in
            mutate_corpus(files, lexspec, seed=1, edits_per_file=4)]


def recipe_parses(recoverer):
    t, _ = clike()
    for text, toks in recipe_files():
        yield toks, parse(t, toks, text, recoverer=recoverer, params=RECIPE_PARAMS)


@pytest.mark.parametrize("recoverer", sorted(RECIPE))
def test_recipe_outcomes_match_golden_digest(recoverer):
    digest = hashlib.sha256()
    locations = sequences = 0
    for _, result in recipe_parses(recoverer):
        for r in result.reports:
            digest.update(repr((r.offset, r.success, r.cost, r.sequences, r.applied)).encode())
            locations += 1
            sequences += len(r.sequences)
    assert (locations, sequences, digest.hexdigest()) == RECIPE[recoverer]


def test_deep_stack_outcomes_match_golden_digest():
    t = table_of("calc")
    text = "1 + 1 1 + " * 200
    toks = toks_of("calc", text)
    params = RecoveryParams(timeout_s=1e6)
    result = parse(t, toks, text, params=params)
    assert result.success and all(r.success for r in result.reports)
    digest = hashlib.sha256()
    for r in result.reports:
        digest.update(repr((r.offset, r.cost, r.sequences, r.applied)).encode())
    replayed = check_file(t, toks, result, params)  # every sequence replays
    assert (len(result.reports), replayed, digest.hexdigest()) == DEEP_STACK


def test_recipe_repair_nodes_stay_under_a_ceiling(monkeypatch):
    # Exact counts, so a change that builds dead edits again fails here on
    # any machine, fast or slow.
    calls = dict.fromkeys(RECIPE_CEILINGS, 0)
    for name in RECIPE_CEILINGS:
        def spy(self, *args, name=name, real=getattr(cpctplus._Search, name)):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cpctplus._Search, name, spy)
    for _ in recipe_parses("cpctplus"):
        pass
    assert all(calls[name] <= cap for name, cap in RECIPE_CEILINGS.items()), calls


def test_recipe_locations_of_cost_3_or_less_equal_the_oracle():
    # All of them, where the benchmark gate samples a few: the search's set
    # is the brute-force oracle's, and every reported sequence replays.
    t, _ = clike()
    pool = []
    for toks, result in recipe_parses("cpctplus"):
        check_file(t, toks, result, RECIPE_PARAMS, pool)
    assert len(pool) == 472  # of the 478 locations
    for location in pool:
        check_oracle(t, RECIPE_PARAMS, *location)
