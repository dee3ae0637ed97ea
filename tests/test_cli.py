import pathlib
import re

import pytest

from lrfix import parse, tree_text
from lrfix.cli import main

from conftest import CALC_TREE, FIXTURES, INPUTS, MJ_EXPECTED, table_of, toks_of

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

CALC_L = str(FIXTURES / "calc.l")
CALC_Y = str(FIXTURES / "calc.y")
MJ_L = str(FIXTURES / "mini_java.l")
MJ_Y = str(FIXTURES / "mini_java.y")


def test_clean_parse_exits_zero(capsys):
    code = main([CALC_L, CALC_Y, str(INPUTS / "calc_good.txt"), "--print-tree"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == CALC_TREE
    assert out.err == ""


def test_recovered_parse_exits_one(capsys):
    code = main([MJ_L, MJ_Y, str(INPUTS / "mini_java_bad.txt")])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == MJ_EXPECTED


def test_error_report_lists_all_sequences(capsys):
    code = main([CALC_L, CALC_Y, str(INPUTS / "calc_bad.txt")])
    out = capsys.readouterr().out
    assert code == 1
    head, *seq_lines = out.splitlines()
    assert head == "Parsing error at line 1 col 3. Repair sequences found:"
    assert len(seq_lines) == 6
    assert [l.split(":")[0].strip() for l in seq_lines] == [str(i) for i in range(1, 7)]
    assert seq_lines[0] == "  1: Insert +, Shift 3, Delete +"


def test_quiet_silences_stdout(capsys):
    code = main([MJ_L, MJ_Y, str(INPUTS / "mini_java_bad.txt"), "--quiet"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""


def test_none_recoverer_fails(capsys):
    code = main([CALC_L, CALC_Y, str(INPUTS / "calc_bad.txt"), "--recoverer", "none"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "Parsing error at line 1 col 3.\n"


def test_panic_reports_what_it_skipped(capsys):
    code = main(
        [CALC_L, CALC_Y, str(INPUTS / "calc_double_plus.txt"), "--recoverer", "panic"]
    )
    out = capsys.readouterr()
    assert code == 1
    assert out.out == (
        "Parsing error at line 1 col 5. Resynchronized by skipping 0 tokens "
        "and popping 1 stack entry.\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["missing.l", CALC_Y, "x"],
        [CALC_L, "missing.y", "x"],
        [CALC_L, CALC_Y, "missing.txt"],
    ],
)
def test_missing_files_exit_two(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "lrfix:" in out.err


def test_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    src = tmp_path / "x.txt"
    src.write_bytes(b"1 + \xff\xfe 2")
    code = main([CALC_L, CALC_Y, str(src)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith(f"lrfix: {src}: not UTF-8")


def test_lexer_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    lx = tmp_path / "bad.l"
    lx.write_bytes(b"[0-9]+ 'INT' \xff\n")
    code = main([str(lx), CALC_Y, str(INPUTS / "calc_good.txt")])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith(f"lrfix: {lx}: not UTF-8: ")


def test_bad_grammar_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "g.y"
    bad.write_text("%%\nS: Undefined;")
    code = main([CALC_L, str(bad), str(INPUTS / "calc_good.txt")])
    out = capsys.readouterr()
    assert code == 2
    assert "neither a declared token nor a rule" in out.err


def test_bad_lexer_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "l.l"
    bad.write_text("[0-9+ 'INT'\n")
    code = main([str(bad), CALC_Y, str(INPUTS / "calc_good.txt")])
    assert code == 2
    assert "bad pattern" in capsys.readouterr().err


def test_unlexable_input_exits_two(tmp_path, capsys):
    src = tmp_path / "x.txt"
    src.write_text("2 + @")
    code = main([CALC_L, CALC_Y, str(src)])
    assert code == 2
    assert "no rule matches" in capsys.readouterr().err


def test_grammar_token_without_lexer_rule_exits_two(tmp_path, capsys):
    g = tmp_path / "g.y"
    g.write_text("%token GHOST\n%%\nS: GHOST;")
    code = main([CALC_L, str(g), str(INPUTS / "calc_good.txt")])
    assert code == 2
    assert "GHOST" in capsys.readouterr().err


def test_lexer_token_the_grammar_lacks_exits_two(tmp_path, capsys):
    lx = tmp_path / "calc_at.l"
    lx.write_text((FIXTURES / "calc.l").read_text(encoding="utf-8") + "@ 'AT'\n")
    src = tmp_path / "x.txt"
    src.write_text("1 @ 2")
    code = main([str(lx), CALC_Y, str(src)])
    assert code == 2
    assert "token(s) AT " in capsys.readouterr().err


def test_timeout_flag_is_wired_through(tmp_path, capsys):
    # with effectively no budget every recovery fails
    code = main([CALC_L, CALC_Y, str(INPUTS / "calc_bad.txt"), "--timeout", "0"])
    out = capsys.readouterr()
    assert code == 2
    assert "Parsing error at line 1 col 3." in out.out


def test_negative_timeout_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main([CALC_L, CALC_Y, str(INPUTS / "calc_bad.txt"), "--timeout", "-1"])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_cli_output_is_stable(capsys):
    argv = [MJ_L, MJ_Y, str(INPUTS / "mini_java_bad.txt")]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second == MJ_EXPECTED


def test_readme_quick_start_is_true(capsys):
    block = re.search(r"## Quick start\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL).group(1)
    cat, src, cmd, *listing = block.splitlines(keepends=True)
    assert cat == "$ cat broken.calc\n"
    assert src == (INPUTS / "calc_bad.txt").read_text(encoding="utf-8")
    assert cmd == "$ lrfix calc.l calc.y broken.calc\n"  # no option
    assert main([CALC_L, CALC_Y, str(INPUTS / "calc_bad.txt")]) == 1
    assert "".join(listing) == capsys.readouterr().out


CYCLIC_GRAMMAR = "%token x\n%%\nS: B | A S;\nA: ;\nB: ;\n"


def test_parse_failure_exits_two_with_one_line(tmp_path, capsys):
    # The grammar is cyclic, so the parser gives up after a runaway chain
    # of reductions; that is a failed parse, not a repaired one.
    g = tmp_path / "g.y"
    g.write_text(CYCLIC_GRAMMAR)
    lx = tmp_path / "l.l"
    lx.write_text("x x\n")
    src = tmp_path / "empty.txt"
    src.write_text("")
    code = main([str(lx), str(g), str(src)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.splitlines() == [
        f"lrfix: {g}: 0 shift/reduce, 2 reduce/reduce conflicts",
        f"lrfix: {src}: parsing failed: reduce chain did not terminate",
    ]


def test_a_file_of_50k_tokens_prints_its_tree(tmp_path, capsys):
    # 65,534 tokens through parse, tree_text and --print-tree.  A balanced
    # expression keeps the tree 60 levels deep, so its rendering stays at
    # about 15 MB.
    def expr(depth):
        if depth == 0:
            return "1"
        return f"({expr(depth - 1)} {'+*'[depth % 2]} {expr(depth - 1)})"

    src = expr(14) + "\n"
    toks = toks_of("calc", src)
    assert len(toks) > 50_000
    r = parse(table_of("calc"), toks, src, recoverer="none")
    assert r.success
    text = tree_text(r.tree, src)
    assert text.count("INT 1\n") == 2**14
    path = tmp_path / "big.txt"
    path.write_text(src, encoding="utf-8")
    assert main([CALC_L, CALC_Y, str(path), "--print-tree"]) == 0
    out = capsys.readouterr()
    assert out.out == text
    assert out.err == ""
