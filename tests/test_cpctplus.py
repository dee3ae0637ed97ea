import dataclasses
import functools
import hashlib
import pathlib
import time

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
    assert raw.success_configs == 5
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
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    plain = min_repair_sequences(t, stack, ids, idx, merge=False)
    merged = min_repair_sequences(t, stack, ids, idx, merge=True)
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


def test_deterministic_order_is_total():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    out = repair_search(t, stack, ids, idx, RecoveryParams(deterministic=True))
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
    params = RecoveryParams(deterministic=True)
    for names in (["INT", "INT", "+"], ["INT", "+", "+", "INT"]):
        ids = [plain.token_index[x.type] for x in synth_toks(plain, names)]
        stack, idx = first_error(plain, ids)
        assert (repair_search(t, stack, ids, idx, params).sequences
                == repair_search(plain, stack, ids, idx, params).sequences)


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


def test_pinned_defect_reported_sequence_does_not_replay():
    # A known defect, pinned: with 'a a a' the error is at end of input on
    # stack 0 1 1 4.  The search inserts 'a', reduces under end of input
    # (C, then A: %empty in state 3, then A: a C A) and inserts 'a' again.
    # A parser fed the second 'a' reduces under 'a' instead, and in state 3
    # the conflict keeps the shift over A: %empty, so the sequence does not
    # replay, and parse() meets a second error right after applying it.
    # The oracle makes the same moves and agrees.  A fix flips this test.
    t = build_tables(parse_grammar("%token a b c\n%%\nA: | a C A;\nC: | A a;"))
    toks = synth_toks(t, ["a", "a", "a"])
    ids = [t.token_index[x.type] for x in toks]
    stack = [0]
    assert drive(t, stack, ids, 0, len(ids)) == (3, False)
    assert stack == [0, 1, 1, 4]
    found = (2, {(I("a"), I("a"))})
    raw = min_repair_sequences(t, stack, ids, 3)
    assert (raw.cost, raw.sequences) == found
    assert oracle_min_repairs(t, list(stack), ids, 3) == found
    assert not replays(t, stack, ids, 3, [I("a"), I("a")], RecoveryParams().n_shifts)
    assert parse(t, toks).stats.costs == [2, 1]


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
@given(small_grammars(), st.booleans(), st.data())
def test_search_equals_oracle_on_small_grammars(case, merge, data):
    g, alphabet = case
    t = build_tables(g, merge=merge)
    toks = synth_toks(t, data.draw(st.lists(st.sampled_from(alphabet), max_size=5)))
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
        found = None if accepted else oracle_min_repairs(t, list(stack), ids, idx, cost_bound=3)
    except ParserInternalError:
        return
    if found is None:
        return  # searching to the budget here would dominate the test's time
    raw = min_repair_sequences(t, stack, ids, idx, budget_s=5)
    assert (raw.cost, raw.sequences) == found
    out = repair_search(t, stack, ids, idx, budget_s=5)
    n_shifts = RecoveryParams().n_shifts
    for seq in out.sequences:
        assert replays(t, stack, ids, idx, seq, n_shifts), seq


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
# sequences from 224 success configurations.
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
    "deterministic": {"params": RecoveryParams(deterministic=True)},
    "style1": {"shift_style": 1},
    "style2": {"shift_style": 2},
    "style3": {"shift_style": 3},
    "unmerged": {"merge": False},
    "weighted_deterministic": {
        "params": RecoveryParams(deterministic=True, insert_cost=weighted_cost)
    },
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
    """(cost, sequences, applied, success configs) and the merge count:
    sequences in reported order for ``repair_search`` (the ranked modes),
    sorted for the set that ``min_repair_sequences`` returns (the others)."""
    t, stack, ids, idx = golden_point(name)
    kw = SEARCH_MODES[mode]
    if mode in RANKED_MODES:
        out = repair_search(t, stack, ids, idx, budget_s=60.0, **kw)
        return (out.cost, out.sequences, out.applied, out.success_configs), out.merges
    raw = min_repair_sequences(t, stack, ids, idx, budget_s=60.0, **kw)
    return (raw.cost, sorted(raw.sequences, key=repr), None, raw.success_configs), raw.merges


# sha256 of each outcome's repr.  Shift style 1 finds no repair for
# calc_bad and searches until its budget runs out, so that one pair is
# left out.
GOLDEN_OUTCOMES = {
    ("calc_bad", "ranked"): "16ddce5785155010259648656b4a8109dc09ff7f99fcb4dae71b6747827f4c03",
    ("calc_bad", "deterministic"): "b7f9deb865b663936b61dced1e76e1df0bb19296fed10ca78574510fdda166ac",
    ("calc_bad", "style2"): "8e20c6706f838412d8da5c692f6ce00e3267384dc38e692d62a3fe1bfd93bf64",
    ("calc_bad", "style3"): "0ad876e1f48ce5afd63f6ede9c295f3357ca604a8b89e0c833967848baa032d6",
    ("calc_bad", "unmerged"): "d8c9edb64d70490fb6b3316715dcde41bad884cb3d051269c2fbcd09bbcbf20c",
    ("calc_double_plus", "ranked"): "e0e5769387bf91a1c0c3283a6b2084bcf05507907ec0f96ae72e0a424f138770",
    ("calc_double_plus", "deterministic"): "46b810862209b8f9595439f0a8756c6ffaff9fed4fd56c29b680fa14a29e6bc7",
    ("calc_double_plus", "style1"): "caa0a6dc30f70fd4e533321cc537cfc96a84f54432833b65ab6f87315f327bf1",
    ("calc_double_plus", "style2"): "caa0a6dc30f70fd4e533321cc537cfc96a84f54432833b65ab6f87315f327bf1",
    ("calc_double_plus", "style3"): "caa0a6dc30f70fd4e533321cc537cfc96a84f54432833b65ab6f87315f327bf1",
    ("calc_double_plus", "unmerged"): "caa0a6dc30f70fd4e533321cc537cfc96a84f54432833b65ab6f87315f327bf1",
    ("mini_java_bad", "ranked"): "527dcf0e35fab73d550fb6c78ded4b90d7b8638b466d9bb8ebe26f3afac5c9a0",
    ("mini_java_bad", "deterministic"): "c7392e464f66b7c858fb5d1a1b91e7324de766b9cd85e487984e929368951e88",
    ("mini_java_bad", "style1"): "29888a5d29abbb5a6ae9f64be8c894f3487788ece3cab54033987067b005285d",
    ("mini_java_bad", "style2"): "29888a5d29abbb5a6ae9f64be8c894f3487788ece3cab54033987067b005285d",
    ("mini_java_bad", "style3"): "29888a5d29abbb5a6ae9f64be8c894f3487788ece3cab54033987067b005285d",
    ("mini_java_bad", "unmerged"): "29888a5d29abbb5a6ae9f64be8c894f3487788ece3cab54033987067b005285d",
    ("clike_open_paren", "ranked"): "6108b772e506089a464d681a73fc20b9eaa2a5933eccde1a0f7ab3db20e95716",
    ("clike_open_paren", "deterministic"): "71560bfc75c8ccdc8b19199871feb08fc94fa8c8d4bee8e0690c6bb0bc630907",
    ("clike_open_paren", "style1"): "77b34f59ecb80d6122c92a2d9ad6c8db00918edf3b02e6a2e416e7aaeac54e9b",
    ("clike_open_paren", "style2"): "77b34f59ecb80d6122c92a2d9ad6c8db00918edf3b02e6a2e416e7aaeac54e9b",
    ("clike_open_paren", "style3"): "77b34f59ecb80d6122c92a2d9ad6c8db00918edf3b02e6a2e416e7aaeac54e9b",
    ("clike_open_paren", "unmerged"): "04eb55c66df1fd35b7273d993c5023c1ed8013a150c304a6dd580c526c1a1867",
    ("clike_if_assign", "ranked"): "0e87366d9341b249d70043a5bde3ad0cad1e318512414b9cad545eef0ff7a4cc",
    ("clike_if_assign", "deterministic"): "d6658b41c0a8e78e96947b821067a84751ad198380784ec37b43ea758e4bf9f2",
    ("clike_if_assign", "style1"): "f2504fddbf46a5876dfbb21bb9acd33736dd8789f0fed11fcb9859f1474e2da6",
    ("clike_if_assign", "style2"): "f2504fddbf46a5876dfbb21bb9acd33736dd8789f0fed11fcb9859f1474e2da6",
    ("clike_if_assign", "style3"): "f2504fddbf46a5876dfbb21bb9acd33736dd8789f0fed11fcb9859f1474e2da6",
    ("clike_if_assign", "unmerged"): "a4c0f2a877b4ffc39f30c9ca8a07f61592caed9abeb8a8b1a08ece1fa90a12aa",
    ("clike_closed_paren", "ranked"): "a9b2c2670088e43ae83e615880be21dd78c4eb6109e4284433d6f2fc3847fd95",
    ("clike_closed_paren", "deterministic"): "318c689e7dbca4b773f8eb6d807e1103f4016cc0bbb089798f03b60d3be1c6d9",
    ("clike_closed_paren", "style1"): "43ae3f9df39dafe1626bd619fc8adb52c8f4c9c94d4c59eba9c76b97b4ee0a61",
    ("clike_closed_paren", "style2"): "43ae3f9df39dafe1626bd619fc8adb52c8f4c9c94d4c59eba9c76b97b4ee0a61",
    ("clike_closed_paren", "style3"): "bdc6400cc9e880429a7189005f62d4e932f2aa95b5f02c07ce3339abd67d4aed",
    ("clike_closed_paren", "unmerged"): "b4da19f5f10465fe971cfd9d8035c8eccf6d33b1cc9e3f0e846d04e8d2c02051",
    ("clike_three_ids", "ranked"): "53346334df0d8fe852c0e6639fd7b1d433e28fe476a7f211ba2cad19b674be1e",
    ("clike_three_ids", "deterministic"): "711c49d941372d066076d6c66fa37fddeaf1ed0713033447ffdf163f31d0da31",
    ("clike_three_ids", "style1"): "971759c478478546151d6ef1bc75a7dff0fa8fe15228614829da760c1597ee0c",
    ("clike_three_ids", "style2"): "971759c478478546151d6ef1bc75a7dff0fa8fe15228614829da760c1597ee0c",
    ("clike_three_ids", "style3"): "971759c478478546151d6ef1bc75a7dff0fa8fe15228614829da760c1597ee0c",
    ("clike_three_ids", "unmerged"): "31b03b40975bfd8007fd27e44df475216e3fd1b9dc259d1cd328421688c3b16f",
    ("calc_bad", "weighted_deterministic"): "91b45ca58e5ab7311231d8cbf747d43bd86b4f38b024d5f302a3678a45d3ebbf",
    ("calc_bad", "weighted_style3"): "5c8a3130394de372615e3a84a665cc3e4c5aee8b365a170ea7e30694e43ce6e0",
    ("calc_double_plus", "weighted_deterministic"): "6fc074e5722be629e4ed8db168bde669916366dc580cb74cd2e65580aa6371a9",
    ("calc_double_plus", "weighted_style3"): "8c4fd62e13a98617f6f2dc954d697dfcf3e34fff37b34c1fe8a6874ed7beb73e",
    ("clike_open_paren", "weighted_deterministic"): "56803161df8bb14beca1c3f8ec3203a22a33af3e4bcb92ba8bbc73b38242cb1f",
    ("clike_open_paren", "weighted_style3"): "782e6379fb85155c7859ad464e6a3887954ce8b75ca857cdd009f44956b44d3a",
    ("clike_if_assign", "weighted_deterministic"): "425b8d9b3e67667fcb4b8ca03638710b008c8553356b1b4a3ce03a2b180b5452",
    ("clike_if_assign", "weighted_style3"): "b1476c579f0d2f3246e43d65b5f58601b7676dcfa5c7f71ecc32f83e10a23c60",
}

# Merges made before the search stopped.  Unlike the outcome, this count
# depends on how much of the frontier is built beyond the minimum cost.
GOLDEN_MERGES = {
    ("calc_bad", "ranked"): 11,
    ("calc_bad", "deterministic"): 11,
    ("calc_bad", "style2"): 4,
    ("calc_bad", "style3"): 11,
    ("calc_bad", "unmerged"): 0,
    ("calc_double_plus", "ranked"): 0,
    ("calc_double_plus", "deterministic"): 0,
    ("calc_double_plus", "style1"): 0,
    ("calc_double_plus", "style2"): 0,
    ("calc_double_plus", "style3"): 0,
    ("calc_double_plus", "unmerged"): 0,
    ("mini_java_bad", "ranked"): 0,
    ("mini_java_bad", "deterministic"): 0,
    ("mini_java_bad", "style1"): 0,
    ("mini_java_bad", "style2"): 0,
    ("mini_java_bad", "style3"): 0,
    ("mini_java_bad", "unmerged"): 0,
    ("clike_open_paren", "ranked"): 108,
    ("clike_open_paren", "deterministic"): 108,
    ("clike_open_paren", "style1"): 46,
    ("clike_open_paren", "style2"): 108,
    ("clike_open_paren", "style3"): 108,
    ("clike_open_paren", "unmerged"): 0,
    ("clike_if_assign", "ranked"): 998,
    ("clike_if_assign", "deterministic"): 998,
    ("clike_if_assign", "style1"): 409,
    ("clike_if_assign", "style2"): 998,
    ("clike_if_assign", "style3"): 998,
    ("clike_if_assign", "unmerged"): 0,
    ("clike_closed_paren", "ranked"): 470,
    ("clike_closed_paren", "deterministic"): 470,
    ("clike_closed_paren", "style1"): 64,
    ("clike_closed_paren", "style2"): 153,
    ("clike_closed_paren", "style3"): 470,
    ("clike_closed_paren", "unmerged"): 0,
    ("clike_three_ids", "ranked"): 249,
    ("clike_three_ids", "deterministic"): 249,
    ("clike_three_ids", "style1"): 204,
    ("clike_three_ids", "style2"): 249,
    ("clike_three_ids", "style3"): 249,
    ("clike_three_ids", "unmerged"): 0,
    ("calc_bad", "weighted_deterministic"): 11,
    ("calc_bad", "weighted_style3"): 11,
    ("calc_double_plus", "weighted_deterministic"): 0,
    ("calc_double_plus", "weighted_style3"): 0,
    ("clike_open_paren", "weighted_deterministic"): 14,
    ("clike_open_paren", "weighted_style3"): 14,
    ("clike_if_assign", "weighted_deterministic"): 476,
    ("clike_if_assign", "weighted_style3"): 476,
}


GOLDEN_POINTS = [pytest.param(*key, id="-".join(key)) for key in sorted(GOLDEN_OUTCOMES)]


@pytest.mark.parametrize("name,mode", GOLDEN_POINTS)
def test_search_outcomes_match_golden_digest(name, mode):
    outcome, merges = search_outcome(name, mode)
    assert hashlib.sha256(repr(outcome).encode()).hexdigest() == GOLDEN_OUTCOMES[name, mode]
    assert merges == GOLDEN_MERGES[name, mode]


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
    (cost, *_), _ = search_outcome(name, mode)
    assert costs and max(costs) < cost
