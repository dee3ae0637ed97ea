import time

from hypothesis import given, settings
from hypothesis import strategies as st

from lrfix import (
    RecoveryParams,
    Repair,
    lr_step,
    min_repair_sequences,
    oracle_min_repairs,
    parse,
    repair_search,
)

from conftest import first_error, synth_toks, table_of

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
