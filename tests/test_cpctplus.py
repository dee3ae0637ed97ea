import dataclasses
import functools
import hashlib
import pathlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfix import (
    LexSpec,
    ParserInternalError,
    RecoveryParams,
    Repair,
    build_tables,
    lr_step,
    min_repair_sequences,
    oracle_min_repairs,
    parse,
    parse_grammar,
    repair_search,
)
from lrfix import cpctplus
from lrfix.lrtable import ACCEPT_CELL
from lrfix.parser import RECOVERERS, drive

from conftest import INPUTS, first_error, grammar_of, small_grammars, synth_toks, table_of, toks_of

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

I = lambda t: Repair("insert", t)
D = Repair("delete")
S = Repair("shift")


def err_point(stem, names):
    t = table_of(stem)
    toks = synth_toks(t, names)
    ids = [t.token_index[x.type] for x in toks]
    stack, idx = first_error(t, ids)
    return t, stack, ids, idx


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


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.0])
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
        n = len(self.todo[cost]) if cost < len(self.todo) else 0
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
    for tok in ("INT", "+"):
        while lr_step(t, expect, tok)[0] == "reduce":
            pass
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
    t = table_of("bracket_heavy")
    ids = [t.token_index[x.type] for x in synth_toks(t, list("([{([{([{([{([{([{(["))]
    stack, idx = first_error(t, ids)
    tracemalloc.start()
    try:
        search = cpctplus._Search(t, stack, ids, idx, RecoveryParams(), 0.5, 3, True)
        assert search.run() is None
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


def replays(t, stack, ids, idx, seq, n_shifts):
    """Apply ``seq`` with ``lr_step`` on a copy of ``stack``; does every
    edit shift, and do ``n_shifts`` real tokens then shift (or accept)?"""
    stack = list(stack)

    def feed(tok):
        while True:
            kind = lr_step(t, stack, tok)[0]
            if kind != "reduce":
                return kind

    for r in seq:
        if r.kind == "delete":
            idx += 1
            continue
        tok = r.token if r.kind == "insert" else t.tokens[ids[idx]]
        if r.kind == "shift":
            idx += 1
        if feed(tok) != "shift":
            return False
    for _ in range(n_shifts):
        kind = feed(t.tokens[ids[idx]])
        if kind == "accept":
            return True
        if kind != "shift":
            return False
        idx += 1
    return True


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
    stack = [0]
    idx, accepted = drive(t, stack, ids, 0, len(ids))
    assert not accepted
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
        parse(t, toks)


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
    n_shifts = RecoveryParams().n_shifts
    for seq in out.sequences:
        assert replays(t, stack, ids, idx, seq, n_shifts), seq


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
    # drive, unlike first_error, stops a runaway reduce chain.
    stack = [0]
    try:
        idx, accepted = drive(t, stack, ids, 0, len(ids))
        found = None if accepted else oracle_min_repairs(
            t, list(stack), ids, idx, cost_bound=3, insert_cost=insert_cost)
    except ParserInternalError:
        return
    if found is None:
        return  # searching to the budget here would dominate the test's time
    raw = min_repair_sequences(t, stack, ids, idx, params, budget_s=5, merge=merge_search)
    assert (raw.cost, raw.sequences) == found
    for seq in raw.sequences:
        assert replays(t, stack, ids, idx, seq, params.n_shifts), seq
    out = repair_search(t, stack, ids, idx, params, budget_s=5, merge=merge_search)
    assert {tuple(seq) for seq in out.sequences} <= raw.sequences


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["INT", "+", "*", "(", ")"]), max_size=8))
def test_parse_with_recovery_terminates_and_accounts(names):
    t = table_of("calc")
    r = parse(t, synth_toks(t, names))
    assert r.stats.real_tokens == len(names)
    assert 0.0 <= r.stats.tokens_skipped_pct <= 100.0
    if r.success:
        assert len(r.stats.costs) == len([x for x in r.reports if x.success])
        assert r.tree is not None or names == []
    else:
        assert r.reports and not r.reports[-1].success


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


# Canonical order is the only order, so ``deterministic`` is ``ranked``
# again, and ``weighted_deterministic`` is the weighted ranked mode; the two
# keep the names of the modes that once asked for that order.
SEARCH_MODES = {
    "ranked": {},
    "deterministic": {},
    "style1": {"shift_style": 1},
    "style2": {"shift_style": 2},
    "style3": {"shift_style": 3},
    "unmerged": {"merge": False},
    "weighted_deterministic": {"params": RecoveryParams(insert_cost=weighted_cost)},
    "weighted_style3": {"params": RecoveryParams(insert_cost=weighted_cost), "shift_style": 3},
}
RANKED_MODES = ("ranked", "deterministic", "weighted_deterministic")


@functools.lru_cache(maxsize=None)
def clike():
    grammar = parse_grammar((PERFBENCH / "clike.y").read_text(encoding="utf-8"))
    lexspec = LexSpec.parse((PERFBENCH / "clike.l").read_text(encoding="utf-8"))
    return build_tables(grammar), lexspec


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


# sha256 of each outcome's repr.  Shift style 1 finds no repair for
# calc_bad and searches until its budget runs out, so that one pair is
# left out.
GOLDEN_OUTCOMES = {
    ("calc_bad", "ranked"): "d7cc6b0e32c0ac42c0a466102439d9454e53f92f4f125c73c5040b9e8c2ac277",
    ("calc_bad", "deterministic"): "d7cc6b0e32c0ac42c0a466102439d9454e53f92f4f125c73c5040b9e8c2ac277",
    ("calc_bad", "style2"): "ab98ebf9436769216814b2e7ca13de9b85f6286daf8d31cb9517be8e4f0cb9e0",
    ("calc_bad", "style3"): "225c161fcce1be4c60d8e9368dad66bced8ccfa9077aa8499b74ce7e2636e93f",
    ("calc_bad", "unmerged"): "225c161fcce1be4c60d8e9368dad66bced8ccfa9077aa8499b74ce7e2636e93f",
    ("calc_double_plus", "ranked"): "c2aabd8d50444d49afb276ffc5706147f7bbef3c2a60edc453c50f57f9eb7e5a",
    ("calc_double_plus", "deterministic"): "c2aabd8d50444d49afb276ffc5706147f7bbef3c2a60edc453c50f57f9eb7e5a",
    ("calc_double_plus", "style1"): "7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76",
    ("calc_double_plus", "style2"): "7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76",
    ("calc_double_plus", "style3"): "7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76",
    ("calc_double_plus", "unmerged"): "7cc5215f913be8150635e38db4fa989195ea147ccb02c84fef80b263d43f8f76",
    ("mini_java_bad", "ranked"): "408844ccbd4b5e7ea61d69b004738e16d4366cc19b7405a7e85aa33bda49fb7e",
    ("mini_java_bad", "deterministic"): "408844ccbd4b5e7ea61d69b004738e16d4366cc19b7405a7e85aa33bda49fb7e",
    ("mini_java_bad", "style1"): "ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0",
    ("mini_java_bad", "style2"): "ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0",
    ("mini_java_bad", "style3"): "ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0",
    ("mini_java_bad", "unmerged"): "ddf663c8867da92a2433aaa188511320d68a30fcb3acb42ff2ad36d5faced9a0",
    ("clike_open_paren", "ranked"): "5c49028aa53823fce01eba568312ce571186ff019fce285e2ca1706aa6948724",
    ("clike_open_paren", "deterministic"): "5c49028aa53823fce01eba568312ce571186ff019fce285e2ca1706aa6948724",
    ("clike_open_paren", "style1"): "461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b",
    ("clike_open_paren", "style2"): "461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b",
    ("clike_open_paren", "style3"): "461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b",
    ("clike_open_paren", "unmerged"): "461048b9e2b39fcf6b8d3f5d1578930b63d4e37d9cbfcd9b1247564838e1d50b",
    ("clike_if_assign", "ranked"): "5db3b5770b27e422b76062e0ab420fe1888db66ed25761402d938b0256b12efc",
    ("clike_if_assign", "deterministic"): "5db3b5770b27e422b76062e0ab420fe1888db66ed25761402d938b0256b12efc",
    ("clike_if_assign", "style1"): "e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6",
    ("clike_if_assign", "style2"): "e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6",
    ("clike_if_assign", "style3"): "e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6",
    ("clike_if_assign", "unmerged"): "e10f60d3f316189b7c3528c40600ce25c68f83a235cd139e7d885e5038ba64b6",
    ("clike_closed_paren", "ranked"): "af506726920e6c0d4a4ad3a4d2fa7fb80277a8907beea8d404c54dd3d9556030",
    ("clike_closed_paren", "deterministic"): "af506726920e6c0d4a4ad3a4d2fa7fb80277a8907beea8d404c54dd3d9556030",
    ("clike_closed_paren", "style1"): "70fa5b2b3c7d1e019d26b7e386f519e987653f916951d7480d3606feffc56f9b",
    ("clike_closed_paren", "style2"): "70fa5b2b3c7d1e019d26b7e386f519e987653f916951d7480d3606feffc56f9b",
    ("clike_closed_paren", "style3"): "52efbe0214a02e3f78f093da0fbb230cf42aeeca1033e7f7e12b8d0e23c39b6d",
    ("clike_closed_paren", "unmerged"): "52efbe0214a02e3f78f093da0fbb230cf42aeeca1033e7f7e12b8d0e23c39b6d",
    ("clike_three_ids", "ranked"): "33094bd4787aa667fe9e14c58f1dbf13b0162ceb5a9646e5f31d2a5964288345",
    ("clike_three_ids", "deterministic"): "33094bd4787aa667fe9e14c58f1dbf13b0162ceb5a9646e5f31d2a5964288345",
    ("clike_three_ids", "style1"): "97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81",
    ("clike_three_ids", "style2"): "97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81",
    ("clike_three_ids", "style3"): "97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81",
    ("clike_three_ids", "unmerged"): "97a02a216fb0cbe723c43b6b308aacc03014446aa1084c3a51071825cfc39b81",
    ("calc_bad", "weighted_deterministic"): "7af5d8432a2d1ef6f0d1ee72105557851daa8b71621afede5d8ac0527d671ea9",
    ("calc_bad", "weighted_style3"): "514b552098c01af271511cec33588440538e760aa162a4e5aabfd795b5ea11b2",
    ("calc_double_plus", "weighted_deterministic"): "771406b2a4fce5e1fd3c37fd266a849de00dd6bf8f2f064fe70f1096ca738b24",
    ("calc_double_plus", "weighted_style3"): "a91be2d6a6bb9ad5c0108afac2b6a33c4c31821619eeeb6622902919d06a433e",
    ("clike_open_paren", "weighted_deterministic"): "520c94d73e726f710eadf29d362fc901731065222ec6ce2164a357ebc2766fdd",
    ("clike_open_paren", "weighted_style3"): "df6d25de06049ac7519d7c5a8526ef591fd533ba6db575010b9f994f57270d77",
    ("clike_if_assign", "weighted_deterministic"): "1fc2238bc614d8ce4251ff3b6952ad19a9ca2402980686a1ae3158ed21ecd476",
    ("clike_if_assign", "weighted_style3"): "acfcf1da0aa5a5252c641cc2d059f1423c0be5e05ab046842eb68f7cbfdbe224",
}

# Success configurations before ranking: the distinct minimum-cost
# configurations that succeeded.  Like the merge count, this depends on how
# the search folds paths together, not on the answer.
GOLDEN_SUCCESS_CONFIGS = {
    ("calc_bad", "ranked"): 2,
    ("calc_bad", "deterministic"): 2,
    ("calc_bad", "style2"): 2,
    ("calc_bad", "style3"): 2,
    ("calc_bad", "unmerged"): 6,
    ("calc_double_plus", "ranked"): 2,
    ("calc_double_plus", "deterministic"): 2,
    ("calc_double_plus", "style1"): 2,
    ("calc_double_plus", "style2"): 2,
    ("calc_double_plus", "style3"): 2,
    ("calc_double_plus", "unmerged"): 2,
    ("mini_java_bad", "ranked"): 2,
    ("mini_java_bad", "deterministic"): 2,
    ("mini_java_bad", "style1"): 2,
    ("mini_java_bad", "style2"): 2,
    ("mini_java_bad", "style3"): 2,
    ("mini_java_bad", "unmerged"): 3,
    ("clike_open_paren", "ranked"): 1,
    ("clike_open_paren", "deterministic"): 1,
    ("clike_open_paren", "style1"): 1,
    ("clike_open_paren", "style2"): 1,
    ("clike_open_paren", "style3"): 1,
    ("clike_open_paren", "unmerged"): 3,
    ("clike_if_assign", "ranked"): 1,
    ("clike_if_assign", "deterministic"): 1,
    ("clike_if_assign", "style1"): 1,
    ("clike_if_assign", "style2"): 1,
    ("clike_if_assign", "style3"): 1,
    ("clike_if_assign", "unmerged"): 6,
    ("clike_closed_paren", "ranked"): 1,
    ("clike_closed_paren", "deterministic"): 1,
    ("clike_closed_paren", "style1"): 1,
    ("clike_closed_paren", "style2"): 1,
    ("clike_closed_paren", "style3"): 1,
    ("clike_closed_paren", "unmerged"): 12,
    ("clike_three_ids", "ranked"): 3,
    ("clike_three_ids", "deterministic"): 3,
    ("clike_three_ids", "style1"): 3,
    ("clike_three_ids", "style2"): 3,
    ("clike_three_ids", "style3"): 3,
    ("clike_three_ids", "unmerged"): 401,
    ("calc_bad", "weighted_deterministic"): 1,
    ("calc_bad", "weighted_style3"): 1,
    ("calc_double_plus", "weighted_deterministic"): 1,
    ("calc_double_plus", "weighted_style3"): 1,
    ("clike_open_paren", "weighted_deterministic"): 1,
    ("clike_open_paren", "weighted_style3"): 1,
    ("clike_if_assign", "weighted_deterministic"): 1,
    ("clike_if_assign", "weighted_style3"): 1,
}

# Merges made before the search stopped.  Unlike the outcome, this count
# depends on how much of the frontier is built beyond the minimum cost.
GOLDEN_MERGES = {
    ("calc_bad", "ranked"): 5,
    ("calc_bad", "deterministic"): 5,
    ("calc_bad", "style2"): 3,
    ("calc_bad", "style3"): 5,
    ("calc_bad", "unmerged"): 0,
    ("calc_double_plus", "ranked"): 0,
    ("calc_double_plus", "deterministic"): 0,
    ("calc_double_plus", "style1"): 0,
    ("calc_double_plus", "style2"): 0,
    ("calc_double_plus", "style3"): 0,
    ("calc_double_plus", "unmerged"): 0,
    ("mini_java_bad", "ranked"): 1,
    ("mini_java_bad", "deterministic"): 1,
    ("mini_java_bad", "style1"): 1,
    ("mini_java_bad", "style2"): 1,
    ("mini_java_bad", "style3"): 1,
    ("mini_java_bad", "unmerged"): 0,
    ("clike_open_paren", "ranked"): 44,
    ("clike_open_paren", "deterministic"): 44,
    ("clike_open_paren", "style1"): 44,
    ("clike_open_paren", "style2"): 44,
    ("clike_open_paren", "style3"): 44,
    ("clike_open_paren", "unmerged"): 0,
    ("clike_if_assign", "ranked"): 147,
    ("clike_if_assign", "deterministic"): 147,
    ("clike_if_assign", "style1"): 147,
    ("clike_if_assign", "style2"): 147,
    ("clike_if_assign", "style3"): 147,
    ("clike_if_assign", "unmerged"): 0,
    ("clike_closed_paren", "ranked"): 55,
    ("clike_closed_paren", "deterministic"): 55,
    ("clike_closed_paren", "style1"): 53,
    ("clike_closed_paren", "style2"): 53,
    ("clike_closed_paren", "style3"): 55,
    ("clike_closed_paren", "unmerged"): 0,
    ("clike_three_ids", "ranked"): 406,
    ("clike_three_ids", "deterministic"): 406,
    ("clike_three_ids", "style1"): 406,
    ("clike_three_ids", "style2"): 406,
    ("clike_three_ids", "style3"): 406,
    ("clike_three_ids", "unmerged"): 0,
    ("calc_bad", "weighted_deterministic"): 4,
    ("calc_bad", "weighted_style3"): 4,
    ("calc_double_plus", "weighted_deterministic"): 0,
    ("calc_double_plus", "weighted_style3"): 0,
    ("clike_open_paren", "weighted_deterministic"): 0,
    ("clike_open_paren", "weighted_style3"): 0,
    ("clike_if_assign", "weighted_deterministic"): 1,
    ("clike_if_assign", "weighted_style3"): 1,
}


GOLDEN_POINTS = [pytest.param(*key, id="-".join(key)) for key in sorted(GOLDEN_OUTCOMES)]


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_search_outcomes_match_golden_digest(name, mode):
    outcome, success_configs, merges = search_outcome(name, mode)
    assert hashlib.sha256(repr(outcome).encode()).hexdigest() == GOLDEN_OUTCOMES[name, mode]
    assert success_configs == GOLDEN_SUCCESS_CONFIGS[name, mode]
    assert merges == GOLDEN_MERGES[name, mode]


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_OUTCOMES}))
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
    n_shifts = RecoveryParams().n_shifts
    for seq in sequences:
        assert replays(t, stack, ids, idx, seq, n_shifts), seq


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_no_edits_are_built_at_the_minimum_cost(name, mode, monkeypatch):
    # A bucket's inserts and deletes are built only once it drains without
    # a success, so the bucket holding the cheapest success never builds
    # any: each would cost more than the minimum and be dropped.
    costs = []
    edit_moves = cpctplus._Search._edit_moves

    def spy(self, cost, *args):
        costs.append(cost)
        return edit_moves(self, cost, *args)

    monkeypatch.setattr(cpctplus._Search, "_edit_moves", spy)
    (cost, *_), _, _ = search_outcome(name, mode)
    assert costs and max(costs) < cost


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_each_configuration_is_expanded_once(name, mode, monkeypatch):
    # A configuration that comes back is dropped (at a higher cost) or
    # grafted onto its first arrival (at the same cost), so no search
    # configuration gets its moves twice.
    keys = []
    zero_cost_moves = cpctplus._Search._zero_cost_moves

    def spy(self, cost, rm, stack, offset, tail, after_delete):
        key = (stack, offset, tail, after_delete)
        keys.append(key if self.merge else key + (rm,))
        return zero_cost_moves(self, cost, rm, stack, offset, tail, after_delete)

    monkeypatch.setattr(cpctplus._Search, "_zero_cost_moves", spy)
    search_outcome(name, mode)
    assert keys and len(set(keys)) == len(keys)


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_no_configuration_arrives_cheaper_than_at_first(name, mode, monkeypatch):
    # The search queues a configuration only on its first arrival and has
    # no way to queue it again more cheaply, so a later arrival must never
    # cost less than the first one did.
    first = {}
    later = []
    add = cpctplus._Search._add

    def spy(self, cost, rm, code, stack, offset, tail, after_delete):
        key = (stack, offset, tail, after_delete)
        key = key if self.merge else key + (rm, code)
        if key in first:
            later.append((first[key], cost))
        else:
            first[key] = cost
        return add(self, cost, rm, code, stack, offset, tail, after_delete)

    monkeypatch.setattr(cpctplus._Search, "_add", spy)
    search_outcome(name, mode)
    assert first
    assert all(cost >= first_cost for first_cost, cost in later)


@pytest.mark.parametrize("name", sorted(CLIKE_PROGRAMS))
def test_weighted_merging_does_not_change_the_answer(name):
    t, stack, ids, idx = golden_point(name)
    params = RecoveryParams(insert_cost=weighted_cost)
    plain = min_repair_sequences(t, stack, ids, idx, params, budget_s=60.0, merge=False)
    merged = min_repair_sequences(t, stack, ids, idx, params, budget_s=60.0, merge=True)
    assert plain.cost == merged.cost
    assert plain.sequences == merged.sequences


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_expansion_yields_each_sequence_once(name, mode, monkeypatch):
    # Grafts can reach one prefix along several paths through the repair
    # DAG; expansion keeps each prefix once instead of copying it on.
    expanded = []
    expand = cpctplus._expand

    def spy(*args):
        out = expand(*args)
        expanded.append(out)
        return out

    monkeypatch.setattr(cpctplus, "_expand", spy)
    search_outcome(name, mode)
    assert expanded
    for seqs in expanded:
        assert len(set(seqs)) == len(seqs)
