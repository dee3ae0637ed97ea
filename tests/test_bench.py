import csv
import random

import pytest

from lrfix.bench import (
    BenchRecord,
    CSV_COLUMNS,
    bootstrap,
    format_summary_table,
    main,
    mutate_corpus,
    run_corpus,
    summarize,
    write_csv,
)

from conftest import FIXTURES, grammar_of, lexspec_of

STMT_G = grammar_of("stmt")
STMT_L = lexspec_of("stmt")


def make_corpus(tmp_path):
    (tmp_path / "a_good.txt").write_text("x = 1 ;\n")
    (tmp_path / "b_bad.txt").write_text("x = 1 1 ;\n")
    (tmp_path / "c_unlexable.txt").write_text("x = € ;\n")
    (tmp_path / "d_unreadable.txt").write_bytes(b"\xff\xfe\x00 garbage")
    return tmp_path


def test_run_corpus_records_and_skips(tmp_path):
    corpus = make_corpus(tmp_path)
    records, summary = run_corpus(corpus, STMT_G, STMT_L, repeats=3)

    assert [r.file for r in records] == ["a_good.txt"] * 3 + ["b_bad.txt"] * 3
    assert [r.repeat for r in records] == [0, 1, 2, 0, 1, 2]
    assert all(r.recoverer == "cpctplus" for r in records)
    assert all(r.success for r in records)

    good = [r for r in records if r.file == "a_good.txt"]
    bad = [r for r in records if r.file == "b_bad.txt"]
    assert all(r.error_locations == 0 and r.costs == [] for r in good)
    assert all(r.error_locations == 1 and r.costs == [1] for r in bad)
    assert all(r.tokens_skipped_pct == pytest.approx(20.0) for r in bad)

    assert summary.files == 2 and summary.runs == 6
    assert summary.failure_rate_pct == 0.0
    assert summary.error_locations == 3
    assert summary.mean_cost == pytest.approx(1.0)
    assert sorted(name for name, _ in summary.skipped_files) == [
        "c_unlexable.txt",
        "d_unreadable.txt",
    ]
    reasons = dict(summary.skipped_files)
    assert "unlexable" in reasons["c_unlexable.txt"]
    assert "unreadable" in reasons["d_unreadable.txt"]

    lines = format_summary_table([summary]).splitlines()
    notes = [line for line in lines if line.startswith("note: ")]
    assert sorted(n.split(" (")[0] for n in notes) == [
        "note: cpctplus skipped c_unlexable.txt",
        "note: cpctplus skipped d_unreadable.txt",
    ]
    assert not any("interval" in line for line in lines)
    summary.intervals = bootstrap(records, iterations=50)
    lines = format_summary_table([summary]).splitlines()
    intervals = [line for line in lines if "99% interval" in line]
    assert [i.split(" 99%")[0] for i in intervals] == [
        f"cpctplus: {k}" for k in sorted(summary.intervals)
    ]
    assert "cpctplus: mean_cost 99% interval [1.0000, 1.0000]" in intervals


def test_run_corpus_needs_a_directory_and_ignores_subdirectories(tmp_path):
    with pytest.raises(NotADirectoryError, match="corpus directory not found"):
        run_corpus(tmp_path / "nope", STMT_G, STMT_L)
    (tmp_path / "a.txt").write_text("x = 1 ;\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.txt").write_text("x = 1 ;\n")
    records, summary = run_corpus(tmp_path, STMT_G, STMT_L, repeats=1)
    assert [r.file for r in records] == ["a.txt"]
    assert summary.skipped_files == []


def test_failed_runs_keep_time_but_not_costs(tmp_path):
    (tmp_path / "x.txt").write_text("x = 1 1 ;\n")
    from lrfix.parser import RecoveryParams

    records, summary = run_corpus(
        tmp_path, STMT_G, STMT_L, repeats=2,
        params=RecoveryParams(timeout_s=1e-9),
    )
    assert all(not r.success for r in records)
    assert all(r.costs == [] for r in records)
    assert all(r.error_locations == 1 for r in records)
    assert summary.failure_rate_pct == 100.0
    assert summary.mean_cost is None
    # even failed recovery burns (and must report) wall time
    assert all(r.recovery_time_s >= 0.0 for r in records)


def test_error_locations_cover_every_failing_file(tmp_path):
    (tmp_path / "a.txt").write_text("x = 1 1 ;\n")
    (tmp_path / "b.txt").write_text("= = =\n")
    (tmp_path / "c.txt").write_text("x = 1 ;\n")
    records, _ = run_corpus(tmp_path, STMT_G, STMT_L, repeats=1)
    failing_or_repaired = [r for r in records if r.error_locations > 0]
    assert sum(r.error_locations for r in records) >= len(failing_or_repaired)
    assert all(0.0 <= r.tokens_skipped_pct <= 100.0 for r in records)


def test_csv_columns_are_exact(tmp_path):
    corpus = make_corpus(tmp_path)
    records, _ = run_corpus(corpus, STMT_G, STMT_L, repeats=2)
    out = tmp_path / "out.csv"
    write_csv(records, out)
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert rows[0] == [
        "file", "repeat", "recoverer", "recovery_time_s", "success",
        "error_locations", "costs", "tokens_skipped_pct",
    ]
    assert len(rows) == 1 + len(records)
    by_name = {(r[0], r[1]): r for r in rows[1:]}
    bad = by_name[("b_bad.txt", "0")]
    assert bad[2] == "cpctplus" and bad[4] == "1" and bad[5] == "1"
    assert bad[6] == "1"            # one repair of cost 1
    assert bad[7] == "20.000"


def test_multi_error_costs_join_with_semicolons(tmp_path):
    (tmp_path / "two.txt").write_text("x = 1 1 ; y = ;\n")
    records, _ = run_corpus(tmp_path, STMT_G, STMT_L, repeats=1)
    out = tmp_path / "out.csv"
    write_csv(records, out)
    with open(out, newline="") as f:
        row = list(csv.reader(f))[1]
    assert row[5] == "2"
    assert ";" in row[6] and row[6].count(";") == 1


def test_excess_skipping_flag(tmp_path):
    (tmp_path / "x.txt").write_text("x = 1 1 ;\n")   # repaired by one delete: 20%
    _, strict = run_corpus(tmp_path, STMT_G, STMT_L, repeats=1, skip_threshold_pct=5.0)
    _, lax = run_corpus(tmp_path, STMT_G, STMT_L, repeats=1, skip_threshold_pct=50.0)
    assert strict.excess_skipping
    assert not lax.excess_skipping
    assert "warning" in format_summary_table([strict])
    assert "warning" not in format_summary_table([lax])


# -- bootstrap ----------------------------------------------------------------


def rec(file, repeat, t, success=True, costs=(1,), skip=0.0):
    return BenchRecord(file, repeat, "cpctplus", t, success, 1, list(costs), skip)


def test_bootstrap_rejects_empty_and_bad_confidence():
    with pytest.raises(ValueError):
        bootstrap([])
    with pytest.raises(ValueError):
        bootstrap([rec("a", 0, 0.1)], confidence=1.5)


def test_bootstrap_identical_records_zero_width():
    records = [rec(f, r, 0.25) for f in ("a", "b", "c") for r in range(4)]
    ci = bootstrap(records, iterations=300, seed=1)
    for lo, hi in ci.values():
        assert lo == hi


def test_bootstrap_single_record_is_a_point():
    ci = bootstrap([rec("a", 0, 0.125, costs=(2, 3))], iterations=50)
    assert ci["mean_recovery_time_s"] == (0.125, 0.125)
    assert ci["mean_cost"] == (2.5, 2.5)


def test_bootstrap_excludes_failed_runs_from_cost():
    records = [
        rec("a", 0, 0.1, success=True, costs=(4,)),
        rec("a", 1, 9.9, success=False, costs=()),
        rec("b", 0, 0.1, success=False, costs=()),
    ]
    ci = bootstrap(records, iterations=200, seed=2)
    lo, hi = ci["mean_cost"]
    assert lo == hi == 4.0
    lo, hi = ci["failure_rate_pct"]
    assert 0.0 <= lo <= hi <= 100.0


def test_bootstrap_all_failures_has_no_cost_interval():
    records = [rec("a", 0, 0.1, success=False, costs=())]
    ci = bootstrap(records, iterations=50)
    assert "mean_cost" not in ci
    assert ci["failure_rate_pct"] == (100.0, 100.0)


def test_bootstrap_interval_covers_a_known_mean():
    # seeded meta-check: records drawn around a known center; the 99%
    # interval should contain it in nearly every trial
    trials, hits = 40, 0
    for trial in range(trials):
        g = random.Random(1000 + trial)
        records = [
            rec(f"f{i}", r, t=g.gauss(10.0, 2.0))
            for i in range(30)
            for r in range(5)
        ]
        lo, hi = bootstrap(records, iterations=400, seed=trial)[
            "mean_recovery_time_s"
        ]
        assert lo <= hi
        if lo <= 10.0 <= hi:
            hits += 1
    assert hits >= int(trials * 0.95)


# -- corpus mutation ----------------------------------------------------------


def clean_files():
    rng = random.Random(99)
    out = []
    for i in range(40):
        stmts = [
            f"{rng.choice('abc')} = {rng.choice(['x', 'y', '7', '42'])} ;"
            for _ in range(rng.randrange(1, 6))
        ]
        out.append((f"f{i:02}.txt", " ".join(stmts) + "\n"))
    return out


def test_mutation_is_deterministic_per_seed():
    files = clean_files()
    a = mutate_corpus(files, STMT_L, seed=5, edits_per_file=2)
    b = mutate_corpus(files, STMT_L, seed=5, edits_per_file=2)
    c = mutate_corpus(files, STMT_L, seed=6, edits_per_file=2)
    assert a == b
    assert a != c


def test_zero_edits_is_identity_and_still_parses():
    files = clean_files()
    assert mutate_corpus(files, STMT_L, seed=5, edits_per_file=0) == files
    _, summary = run_corpus(files, STMT_G, STMT_L, repeats=1)
    assert summary.failure_rate_pct == 0.0
    assert summary.error_locations == 0


def test_single_edit_usually_breaks_the_file():
    files = clean_files()
    mutated = mutate_corpus(files, STMT_L, seed=5, edits_per_file=1)
    records, summary = run_corpus(mutated, STMT_G, STMT_L, repeats=1)
    assert sum(1 for r in records if r.error_locations > 0) > len(files) // 2


def test_a_file_without_tokens_survives_mutation():
    assert mutate_corpus([("e.txt", ""), ("w.txt", " \n")], STMT_L, seed=1) == [
        ("e.txt", "\n"), ("w.txt", "\n"),
    ]


def test_mutated_files_remain_lexable_here():
    # token-level edits over this lexer cannot manufacture unlexable text
    files = mutate_corpus(clean_files(), STMT_L, seed=11, edits_per_file=3)
    for _, text in files:
        STMT_L.lex(text)


def test_the_table_prints_recovery_times_in_milliseconds():
    # A recoverer that takes microseconds still reads as a number, not 0.
    records = [rec("a", 0, 20e-6), rec("a", 1, 30e-6), rec("b", 0, 70e-6)]
    header, _, row = format_summary_table([summarize(records)]).splitlines()[:3]
    assert "mean time (ms)" in header and "median (ms)" in header
    assert row.split()[3:5] == ["0.040", "0.030"]
    summary = summarize(records)
    summary.intervals = bootstrap(records, iterations=50)
    interval = "cpctplus: mean_recovery_time_s 99% interval [0.045, 0.05] ms"
    assert interval in format_summary_table([summary]).splitlines()


def test_summarize_handles_empty():
    s = summarize([])
    assert s.runs == 0 and s.files == 0
    assert s.mean_cost is None
    assert format_summary_table([s])


# -- command line -------------------------------------------------------------


STMT_ARGS = [str(FIXTURES / "stmt.l"), str(FIXTURES / "stmt.y")]


def test_main_prints_the_table_and_writes_the_csv(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("x = 1 ;\n")
    (corpus / "b.txt").write_text("x = 1 1 ;\n")
    out = tmp_path / "runs.csv"
    code = main([*STMT_ARGS, str(corpus), "--repeats", "2", "--csv", str(out),
                 "--bootstrap", "20"])
    assert code == 0
    intervals = [line for line in capsys.readouterr().out.splitlines() if "interval" in line]
    assert intervals == [
        "cpctplus: failure_rate_pct 99% interval [0.0000, 0.0000]",
        "cpctplus: mean_cost 99% interval [1.0000, 1.0000]",
        intervals[2],
        "cpctplus: tokens_skipped_pct 99% interval [10.0000, 10.0000]",
    ]
    assert intervals[2].startswith("cpctplus: mean_recovery_time_s 99% interval [")
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("a.txt", "0"), ("a.txt", "1"), ("b.txt", "0"), ("b.txt", "1"),
    ]


def test_main_rejects_a_missing_lexer_file(tmp_path, capsys):
    missing = tmp_path / "nope.l"
    assert main([str(missing), str(FIXTURES / "stmt.y"), str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"bench: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_main_rejects_a_missing_corpus_directory(tmp_path, capsys):
    missing = tmp_path / "nope"
    code = main([*STMT_ARGS, str(missing)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"bench: corpus directory not found: {missing}\n"


def test_main_rejects_zero_repeats(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*STMT_ARGS, str(tmp_path), "--repeats", "0"])
    assert exc.value.code == 2
    assert "--repeats" in capsys.readouterr().err


def test_main_rejects_a_lexer_token_the_grammar_lacks(tmp_path, capsys):
    lx = tmp_path / "calc_at.l"
    lx.write_text((FIXTURES / "calc.l").read_text(encoding="utf-8") + "@ 'AT'\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("1 @ 2")
    code = main([str(lx), str(FIXTURES / "calc.y"), str(corpus)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"bench: {lx}: rules produce token(s) AT that {FIXTURES / 'calc.y'} does not declare\n"
    )


def test_main_names_the_file_of_a_bad_lexer_or_grammar(tmp_path, capsys):
    lx = tmp_path / "bad.l"
    lx.write_text("[0-9 INT\n")
    g = tmp_path / "bad.y"
    g.write_text("%token x\n%%\nS: x @;\n")
    assert main([str(lx), str(FIXTURES / "calc.y"), str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"bench: {lx}: line 1: bad pattern: unterminated character set at position 0\n"
    )
    assert main([str(FIXTURES / "calc.l"), str(g), str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"bench: {g}: line 3: unexpected character '@'\n"


def test_main_rejects_a_negative_timeout(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*STMT_ARGS, str(tmp_path), "--timeout", "-1"])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_main_exits_two_when_parsing_fails(tmp_path, capsys):
    # A cyclic grammar sends the parser into a runaway chain of reductions.
    g = tmp_path / "g.y"
    g.write_text("%token x\n%%\nS: B | A S;\nA: ;\nB: ;\n")
    lx = tmp_path / "l.l"
    lx.write_text("x x\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "empty.txt").write_text("")
    code = main([str(lx), str(g), str(corpus), "--repeats", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "bench: cpctplus: parsing failed: reduce chain did not terminate\n"
