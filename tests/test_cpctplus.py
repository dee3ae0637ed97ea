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


def outcome_digest(name, mode):
    """sha256 of (cost, sequences, applied, success configs, merges): in
    reported order for ``repair_search`` (the ranked modes), sorted for
    the set that ``min_repair_sequences`` returns (the others)."""
    t, stack, ids, idx = golden_point(name)
    kw = SEARCH_MODES[mode]
    if mode in RANKED_MODES:
        out = repair_search(t, stack, ids, idx, budget_s=60.0, **kw)
        blob = (out.cost, out.sequences, out.applied, out.success_configs, out.merges)
    else:
        raw = min_repair_sequences(t, stack, ids, idx, budget_s=60.0, **kw)
        blob = (raw.cost, sorted(raw.sequences, key=repr), None, raw.success_configs, raw.merges)
    return hashlib.sha256(repr(blob).encode()).hexdigest()


# Recorded before the frontier was keyed by configuration tuples.  Shift
# style 1 finds no repair for calc_bad and searches until its budget runs
# out, so that one pair is left out.
GOLDEN_OUTCOMES = {
    ("calc_bad", "ranked"): "1ec381501e1b654b3f019e3f09cd255043a3d4b751b21a9d2bbe77a3d1e06c84",
    ("calc_bad", "deterministic"): "d351915292cb066ecbf95be70f41d1847fe956940c37a8ad9d210b5dad6d4e66",
    ("calc_bad", "style2"): "13bbe36f251400f809c08fa28ce317df2d32189e9610364a901a30764f74244f",
    ("calc_bad", "style3"): "660b66e1264fa66ff86b8ad87e187a4947074ea20de284e467531b86f3e1df2d",
    ("calc_bad", "unmerged"): "0f103f33f670a40fe882e3c85056cb79412fbb912d9babc00dda9320bba7bed4",
    ("calc_double_plus", "ranked"): "e4ff4ce5f104c67d951579ba146861a4ba411efdf241f78e2896b55893a12015",
    ("calc_double_plus", "deterministic"): "60cac25d44e6a36043bae9e57833e6101a7ba0e86297a1fb2dcff65b6c31c444",
    ("calc_double_plus", "style1"): "c20842360d09d8f3570456b134eb01dc6a8c04673c49c66a3535d9ab8a716bac",
    ("calc_double_plus", "style2"): "c20842360d09d8f3570456b134eb01dc6a8c04673c49c66a3535d9ab8a716bac",
    ("calc_double_plus", "style3"): "c20842360d09d8f3570456b134eb01dc6a8c04673c49c66a3535d9ab8a716bac",
    ("calc_double_plus", "unmerged"): "c20842360d09d8f3570456b134eb01dc6a8c04673c49c66a3535d9ab8a716bac",
    ("mini_java_bad", "ranked"): "02e84dabb0d9ba3c6419bbeb71843f035da4ab7e04ca0f2ea7fdc3919778349a",
    ("mini_java_bad", "deterministic"): "ece8c55ae3c830cad0a69fe98e9db4daae666d3dced6f779a8bb50dbe81fe962",
    ("mini_java_bad", "style1"): "d5864cb6b40b5812e935d16e1813a00ea889396bc82f477c2db09806e10b2754",
    ("mini_java_bad", "style2"): "d5864cb6b40b5812e935d16e1813a00ea889396bc82f477c2db09806e10b2754",
    ("mini_java_bad", "style3"): "d5864cb6b40b5812e935d16e1813a00ea889396bc82f477c2db09806e10b2754",
    ("mini_java_bad", "unmerged"): "d5864cb6b40b5812e935d16e1813a00ea889396bc82f477c2db09806e10b2754",
    ("clike_open_paren", "ranked"): "ffd645fa355b78f819cb76b20b1c0a4f5116f8af50e91264f7086d664546846e",
    ("clike_open_paren", "deterministic"): "9ea1cad4f4efa207280a61ca0c209508f9e314c1522726a499128dabbbb5ab4b",
    ("clike_open_paren", "style1"): "4903ceee5aaaa7196b9feeecd288d387f56783836e27909b4a6a005ab1154c62",
    ("clike_open_paren", "style2"): "7f23edb868ecfe6d9cf4e5c72dd9e6df4c5d9f29ae66eacfe981610166ae42da",
    ("clike_open_paren", "style3"): "7f23edb868ecfe6d9cf4e5c72dd9e6df4c5d9f29ae66eacfe981610166ae42da",
    ("clike_open_paren", "unmerged"): "a0d71a96c6d4106b0e821cb62795c3ef789b6145d4ba28ceffeb16688bfc05d0",
    ("clike_if_assign", "ranked"): "9afffad3fe53df1d4653210445d26f3b09bf68cec93fa0e1a0b6765fa37d74f4",
    ("clike_if_assign", "deterministic"): "6e45ea5eae557a1041ff4c27d17cdb2b39b8ad65db3f8d2872f95d19b081eea4",
    ("clike_if_assign", "style1"): "7cbf83101091952ee6e9e8336012994e833c29c6c68dcd05d6ccd909d6c52719",
    ("clike_if_assign", "style2"): "94cd5d660587ae35e92ee86bfe712eb985d794f3ebb56ca32f41db8931971d4d",
    ("clike_if_assign", "style3"): "94cd5d660587ae35e92ee86bfe712eb985d794f3ebb56ca32f41db8931971d4d",
    ("clike_if_assign", "unmerged"): "493b1d6d9c7c86e6b08b4fb4c2065ed71570ffba35afd904ea201068d3967474",
    ("clike_closed_paren", "ranked"): "578bdb1245cb32d0f9691ca6218a5d2081a74ed4d3a047501c58c8bb8f9fe1e8",
    ("clike_closed_paren", "deterministic"): "ee79302e1415313a628cefa4d273e7fe8214ade4ffc3299146be5c1fbe60e5be",
    ("clike_closed_paren", "style1"): "be8f404b83e541081040125a6f148d32a0b1e17d4a034f282a1afaf2a1eb9f25",
    ("clike_closed_paren", "style2"): "073b6dfadf05454f1a876654d6d60adc5dd1e6eedff32f899d4ef58c62c9c34f",
    ("clike_closed_paren", "style3"): "96d7f020f85794a0f1abaa7ade05649d1268bf82756ad5d94f3ad764b6ae428e",
    ("clike_closed_paren", "unmerged"): "16e28630f90333a21cedadf2f595f47e467540e7ec68a06136d1ffb88dee2758",
    ("clike_three_ids", "ranked"): "af4cbede36001e7dd605f7dd4ba16a09ecde260efad5350237537f0cd226d8cf",
    ("clike_three_ids", "deterministic"): "aee24ae632193ab8e75987c486c3f5d2a16cab52785dab5b901958f505d9da86",
    ("clike_three_ids", "style1"): "5677381dbe84ae0b812a2654a17f7c9ce553a59bce19dc46d1999b19d6e53972",
    ("clike_three_ids", "style2"): "4b7dd72a45065a73582a6a9627a2fc23cd525c9c99f205accbd1b004772af1e8",
    ("clike_three_ids", "style3"): "4b7dd72a45065a73582a6a9627a2fc23cd525c9c99f205accbd1b004772af1e8",
    ("clike_three_ids", "unmerged"): "776f3890d141b58696bb4797160ab53b23bcf150474fe48e6502ab6d2cfdf406",
    # Non-uniform insert costs, recorded before the search stopped
    # generating edits in the cheapest success bucket.
    ("calc_bad", "weighted_deterministic"): "6074213366f9f06eee06d78884ccded162c34a789c30cc2ad77a2951d10b791c",
    ("calc_bad", "weighted_style3"): "5257a17e7379a183d88c8854cddd8edabf95307bec8fc2c371324f5f926864c6",
    ("calc_double_plus", "weighted_deterministic"): "ff12fa791eecb45b2b330d89a3e8de38ba6c8f0f56336e0f14d3fe839050074a",
    ("calc_double_plus", "weighted_style3"): "44e838a738e469a00e594b91bb82749476c0eb45d91d58e60f91dbbacf9ff981",
    ("clike_open_paren", "weighted_deterministic"): "7c1aa3c45c2aeaded6cc5f248cde9c2935b51c474b8a3c8ab925b8d8334168c4",
    ("clike_open_paren", "weighted_style3"): "0a02ae9f6c08b832f2881d6c11d777fdd2e70ddc48000afaf49a707dbd9e2e54",
    ("clike_if_assign", "weighted_deterministic"): "3ce4dfa0a63cb0abad7f3453d172989cb6c1f3d81166d0172f8cbc85be5a0481",
    ("clike_if_assign", "weighted_style3"): "97aaa6c6441e9a2e10570e293df6c919b82eb70da4dfacbe8fbb17dddcb23e12",
}


@pytest.mark.parametrize(
    "name,mode", [pytest.param(*key, id="-".join(key)) for key in sorted(GOLDEN_OUTCOMES)]
)
def test_search_outcomes_match_golden_digest(name, mode):
    assert outcome_digest(name, mode) == GOLDEN_OUTCOMES[name, mode]
