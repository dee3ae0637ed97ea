"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints ``criterion NN (<slug>): PASS`` when
it gets to the end.
"""

import itertools
import random
import time
import tracemalloc

import pytest

from lrfix import (
    min_repair_sequences,
    oracle_min_repairs,
    panic_recover,
    parse,
    repair_search,
)
from lrfix.bench import BenchRecord, bootstrap, mutate_corpus, run_corpus
from lrfix.cli import main as cli_main
from lrfix.parser import RecoveryParams

from conftest import (
    CALC_TREE,
    D,
    FIXTURES,
    I,
    INPUTS,
    MJ_EXPECTED,
    S,
    agreement_dfs,
    err_point,
    first_error,
    grammar_of,
    lexspec_of,
    synth_toks,
    table_of,
    toks_of,
)


def done(n, slug):
    print(f"criterion {n:02d} ({slug}): PASS")


def test_criterion_01_shift_follow_styles():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])

    t0 = time.monotonic()
    style1 = min_repair_sequences(t, stack, ids, idx, shift_style=1)
    assert time.monotonic() - t0 < 1.0
    assert style1 is None, "a single greedy move must not resynchronize here"

    t0 = time.monotonic()
    style2 = min_repair_sequences(t, stack, ids, idx, shift_style=2)
    assert time.monotonic() - t0 < 1.0
    assert style2.cost == 2
    assert style2.sequences == {
        (D, D),
        (D, S, I("INT")),
        (I("*"), S, S, I("INT")),
        (I("+"), S, S, I("INT")),
    }

    t0 = time.monotonic()
    style3 = min_repair_sequences(t, stack, ids, idx, shift_style=3)
    assert time.monotonic() - t0 < 1.0
    assert style3.cost == 2
    assert style3.sequences == style2.sequences | {(I("*"), S, D), (I("+"), S, D)}
    assert len(style3.sequences) == 6
    done(1, "shift-follow styles 0/4/6")


def test_criterion_02_panic_pops_to_resynchronize():
    t = table_of("calc")
    toks = synth_toks(t, ["INT", "+", "+", "INT"])
    ids = [t.token_index[x.type] for x in toks]
    stack, idx = first_error(t, ids)
    assert (stack, idx) == ([0, 2, 7], 2)

    outcome = panic_recover(t, list(stack), ids, idx)
    assert outcome == ([0, 2], 2), "expected one pop and zero skipped tokens"

    r = parse(t, toks, recoverer="panic")
    assert r.success
    assert r.reports[0].skipped == 0
    assert r.reports[0].popped == 1
    done(2, "panic resynchronizes by popping")


def test_criterion_03_minimum_cost_repair_quality():
    t, stack, ids, idx = err_point("calc", ["INT", "+"])
    out = repair_search(t, stack, ids, idx)
    assert out.cost == 1
    assert [list(s) for s in out.sequences] == [[I("INT")]]
    assert out.applied == [I("INT")]

    t, stack, ids, idx = err_point("calc", ["INT", "+", "+", "INT"])
    out = repair_search(t, stack, ids, idx)
    assert out.cost == 1
    assert {tuple(s) for s in out.sequences} == {(D,), (I("INT"),)}

    # the same error under an insert-averse grammar: the delete is applied
    # and the discouraged insert is listed after it
    t, stack, ids, idx = err_point("calc_avoid", ["INT", "+", "+", "INT"])
    out = repair_search(t, stack, ids, idx)
    assert {tuple(s) for s in out.sequences} == {(D,), (I("INT"),)}
    assert out.applied == [D]
    assert list(out.sequences[1]) == [I("INT")]
    done(3, "repair quality on the worked examples")


def test_criterion_04_exhaustive_oracle_agreement():
    t0 = time.monotonic()
    checked = 0
    for stem, alphabet in (
        ("calc", ["+", "*", "(", ")", "INT"]),
        ("stmt", ["NUM", "ID", "=", ";"]),
        ("brackets", ["(", ")", "A"]),
    ):
        table = table_of(stem)
        for n in range(6):
            for names in itertools.product(alphabet, repeat=n):
                toks = synth_toks(table, list(names))
                ids = [table.token_index[x.type] for x in toks]
                hit = first_error(table, ids)
                if hit is None:
                    continue
                stack, idx = hit
                raw = min_repair_sequences(table, stack, ids, idx)
                assert raw is not None, names
                got = oracle_min_repairs(table, list(stack), ids, idx)
                assert got is not None, names
                cost, seqs = got
                assert raw.cost == cost, names
                assert raw.sequences == seqs, names
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    assert checked > 3000  # the sweep really did cover the space
    done(4, f"oracle agreement on {checked} error points")


def test_criterion_05_merging_is_neutral_and_counted():
    t, stack, ids, idx = err_point("calc", ["INT", "INT", "+"])
    merged = min_repair_sequences(t, stack, ids, idx, merge=True)
    plain = min_repair_sequences(t, stack, ids, idx, merge=False)
    assert merged.cost == plain.cost == 2
    assert merged.sequences == plain.sequences
    assert len(merged.sequences) == 6
    assert merged.success_configs == 2, (
        "merging must fold the six successful paths into exactly two configurations"
    )
    assert plain.success_configs == 6
    assert merged.success_configs < plain.success_configs
    done(5, "merge-neutral search, 2 success configurations")


def test_criterion_06_merged_tables_match_canonical():
    for stem, alphabet in (
        ("calc", ["+", "*", "(", ")", "INT"]),
        ("stmt", ["NUM", "ID", "=", ";"]),
        ("brackets", ["(", ")", "A"]),
    ):
        tm = table_of(stem)
        tc = table_of(stem, merge=False)
        assert tm.n_states <= tc.n_states
        prefixes = agreement_dfs(tc, tm, alphabet, max_len=8)
        assert prefixes > 0
    assert table_of("calc").n_states == 12
    assert table_of("calc", merge=False).n_states == 22
    assert table_of("calc").n_states < table_of("calc", merge=False).n_states
    done(6, "state-merged tables agree with canonical to depth 8")


def test_criterion_07_unrepairable_input_fails_within_budget():
    # Twenty unmatched opens: the cheapest repair inserts twenty closes,
    # and every cheaper configuration comes first, so no search within the
    # budget finds it (ten opens are repaired in about a second).
    names = list("([{([{([{([{([{([{([")
    t, stack, ids, idx = err_point("bracket_heavy", names)
    assert idx == len(names)            # the error is at end of input

    tracemalloc.start()
    t0 = time.monotonic()
    out = repair_search(t, stack, ids, idx, budget_s=0.5)
    elapsed = time.monotonic() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert out is None, "this repair needs 20 inserts; the budget must expire"
    assert elapsed <= 0.55, f"{elapsed:.3f}s overshoots the 500ms budget + 50ms"
    assert peak < 256 * 2**20, f"peak traced memory {peak / 2**20:.0f} MiB"

    src = "".join(names)
    r = parse(t, synth_toks(t, names), src, params=RecoveryParams(timeout_s=0.5))
    assert not r.success
    assert r.stats.recovery_time_s <= 0.55
    done(7, "hopeless input fails inside 500ms + 50ms, memory bounded")


def _make_clean_corpus(n_files):
    rng = random.Random(20260816)
    names = ["a", "b", "c", "d"]
    vals = ["x", "y", "z", "0", "17", "400"]
    out = []
    for i in range(n_files):
        stmts = [
            f"{rng.choice(names)} = {rng.choice(vals)} ;"
            for _ in range(rng.randrange(4, 14))
        ]
        out.append((f"m{i:04}.txt", " ".join(stmts) + "\n"))
    return out


def test_criterion_08_reversed_ranking_is_never_better():
    files = mutate_corpus(_make_clean_corpus(500), lexspec_of("stmt"), seed=4, edits_per_file=2)
    assert len(files) >= 500
    g, lx = grammar_of("stmt"), lexspec_of("stmt")
    _, fwd = run_corpus(files, g, lx, recoverer="cpctplus", repeats=1)
    _, rev = run_corpus(files, g, lx, recoverer="cpctplus-rev", repeats=1)
    assert fwd.mean_cost is not None and rev.mean_cost is not None
    assert rev.error_locations >= fwd.error_locations
    assert rev.mean_cost >= fwd.mean_cost
    done(
        8,
        f"reversed ranking: {rev.error_locations} vs {fwd.error_locations} locations, "
        f"mean cost {rev.mean_cost:.3f} vs {fwd.mean_cost:.3f}",
    )


CALC_BAD_EXPECTED = (
    "Parsing error at line 1 col 3. Repair sequences found:\n"
    "  1: Insert +, Shift 3, Delete +\n"
    "  2: Insert +, Shift 3, Shift +, Insert INT\n"
    "  3: Insert *, Shift 3, Delete +\n"
    "  4: Insert *, Shift 3, Shift +, Insert INT\n"
    "  5: Delete 3, Delete +\n"
    "  6: Delete 3, Shift +, Insert INT\n"
)


def test_criterion_09_cli_golden_runs(capsys):
    # the sequence set behind the first golden, confirmed independently
    src = (INPUTS / "mini_java_bad.txt").read_text()
    table = table_of("mini_java")
    toks = toks_of("mini_java", src)
    ids = [table.token_index[x.type] for x in toks]
    stack, idx = first_error(table, ids)
    cost, seqs = oracle_min_repairs(table, list(stack), ids, idx)
    assert cost == 1
    assert seqs == {(D,), (I(","),), (I("="),)}

    mj = [
        str(FIXTURES / "mini_java.l"),
        str(FIXTURES / "mini_java.y"),
        str(INPUTS / "mini_java_bad.txt"),
    ]
    assert cli_main(mj) == 1
    first = capsys.readouterr().out
    assert cli_main(mj) == 1
    second = capsys.readouterr().out
    assert first == second == MJ_EXPECTED

    good = [
        str(FIXTURES / "calc.l"),
        str(FIXTURES / "calc.y"),
        str(INPUTS / "calc_good.txt"),
        "--print-tree",
    ]
    assert cli_main(good) == 0
    assert capsys.readouterr().out == CALC_TREE

    bad = [
        str(FIXTURES / "calc.l"),
        str(FIXTURES / "calc.y"),
        str(INPUTS / "calc_bad.txt"),
    ]
    assert cli_main(bad) == 1
    out = capsys.readouterr().out
    assert out == CALC_BAD_EXPECTED
    assert out.count("Parsing error") == 1, "one report must list all six repairs"
    done(9, "CLI output is byte-stable and matches the goldens")


def test_criterion_10_bench_accounting_adds_up(tmp_path):
    (tmp_path / "one.txt").write_text("x = 1 1 ;\n")
    g, lx = grammar_of("stmt"), lexspec_of("stmt")

    # what should the cost and skip percentage be?  ask the tables directly
    table = table_of("stmt")
    toks = toks_of("stmt", "x = 1 1 ;\n")
    ids = [table.token_index[x.type] for x in toks]
    stack, idx = first_error(table, ids)
    oracle_cost, _ = oracle_min_repairs(table, list(stack), ids, idx)

    r = parse(table, toks, "x = 1 1 ;\n")
    assert r.success
    applied_deletes = sum(1 for rep in r.reports[0].applied if rep.kind == "delete")
    expect_pct = 100.0 * applied_deletes / 5

    records, summary = run_corpus(tmp_path, g, lx, repeats=3)
    assert len(records) == 3
    for rec in records:
        assert rec.success
        assert rec.error_locations == 1
        assert rec.costs == [oracle_cost]
        assert rec.tokens_skipped_pct == pytest.approx(expect_pct)
    assert summary.error_locations == 3
    assert summary.mean_cost == pytest.approx(oracle_cost)

    identical = [
        BenchRecord("one.txt", i, "cpctplus", 0.004, True, 1, [oracle_cost], expect_pct)
        for i in range(3)
    ]
    ci = bootstrap(identical, iterations=200, seed=0)
    assert ci, "bootstrap must produce intervals"
    for lo, hi in ci.values():
        assert lo == hi, "identical records must give zero-width intervals"
    done(10, "bench accounting matches the tables and the oracle")
