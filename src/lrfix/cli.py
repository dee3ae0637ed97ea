"""Command-line front end: lex a file, parse it, report every error.

    lrfix [options] <lexer.l> <grammar.y> <input>

Exit status: 0 for a clean parse, 1 when errors were found but repaired
well enough to build a tree, 2 when parsing (or the invocation itself)
failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .grammar import Grammar, GrammarError, parse_grammar
from .lexer import LexError, LexSpec, LexSpecError, Token
from .lrtable import build_tables
from .parser import (
    RECOVERERS,
    ParserInternalError,
    RecoveryParams,
    RecoveryReport,
    parse,
    render_repairs,
    tree_text,
)


def at_least(low: int) -> Callable[[str], int]:
    """An argparse type: a whole number of at least ``low``."""

    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return integer


# ``--timeout``'s default: the library's budget, in milliseconds.
TIMEOUT_MS = round(RecoveryParams.timeout_s * 1000)


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``; raises ValueError with the line to print."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ValueError(str(e)) from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8: {e}") from None


def load_language(lexer_path: str, grammar_path: str) -> tuple[LexSpec, Grammar]:
    """The lexer and grammar of two files, read as UTF-8, parsed, and
    checked to agree on the token types: each grammar token has a lexer
    rule, and each lexer token is declared (``parse`` would raise
    ``ValueError`` on it).  Raises ValueError with the line to print."""
    specs = []
    for path, load in ((lexer_path, LexSpec.parse), (grammar_path, parse_grammar)):
        text = _read_text(path)
        try:
            specs.append(load(text))
        except (LexSpecError, GrammarError) as e:
            raise ValueError(f"{path}: {e}") from None
    lexspec, grammar = specs
    produced = {name for _, name in lexspec.rules if name is not None}
    missing = sorted(set(grammar.tokens) - produced)
    if missing:
        raise ValueError(f"{lexer_path}: no rule produces token(s) {', '.join(missing)}")
    unknown = sorted(produced - set(grammar.tokens))
    if unknown:
        raise ValueError(
            f"{lexer_path}: rules produce token(s) {', '.join(unknown)} "
            f"that {grammar_path} does not declare"
        )
    return lexspec, grammar


def _format_report(report: RecoveryReport, src: str, toks: list[Token], off: int) -> str:
    """One report's text; ``off`` is the index in ``toks`` of the token
    at ``report.offset``."""
    head = f"Parsing error at line {report.line} col {report.col}."
    if report.sequences:
        lines = [f"{head} Repair sequences found:"]
        for i, seq in enumerate(report.sequences, start=1):
            lines.append(f"  {i}: {render_repairs(seq, src, toks, off)}")
        return "\n".join(lines)
    if report.recoverer == "panic" and report.success:
        toks_n = f"{report.skipped} token" + ("" if report.skipped == 1 else "s")
        pops_n = f"{report.popped} stack entr" + ("y" if report.popped == 1 else "ies")
        return f"{head} Resynchronized by skipping {toks_n} and popping {pops_n}."
    if report.recoverer == "none":
        return head
    return f"{head} Recovery failed."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="lrfix",
        description="Parse a file with an LR grammar, repairing syntax errors.",
    )
    ap.add_argument("lexer", help="lex-style token rules (one 'pattern NAME' per line)")
    ap.add_argument("grammar", help="Yacc-style grammar file")
    ap.add_argument("input", help="source file to parse")
    ap.add_argument(
        "--recoverer",
        choices=RECOVERERS,
        default="cpctplus",
        help="error recovery strategy (default: cpctplus)",
    )
    ap.add_argument(
        "--timeout",
        type=at_least(0),
        default=TIMEOUT_MS,
        metavar="MS",
        help="total error-recovery budget per file, in milliseconds (default: %(default)s)",
    )
    ap.add_argument("--print-tree", action="store_true", help="print the parse tree")
    ap.add_argument(
        "--quiet", action="store_true", help="print nothing; communicate via exit status"
    )
    args = ap.parse_args(argv)

    def complain(msg: str) -> int:
        print(f"lrfix: {msg}", file=sys.stderr)
        return 2

    try:
        lexspec, grammar = load_language(args.lexer, args.grammar)
        src = _read_text(args.input)
    except ValueError as e:
        return complain(str(e))

    table = build_tables(grammar)
    if table.conflicts and not args.quiet:
        print(f"lrfix: {args.grammar}: {table.conflict_summary()} conflicts", file=sys.stderr)

    try:
        toks = lexspec.lex(src)
    except LexError as e:
        return complain(f"{args.input}: {e}")

    params = RecoveryParams(timeout_s=args.timeout / 1000.0)
    try:
        result = parse(table, toks, src, recoverer=args.recoverer, params=params)
    except ParserInternalError as e:
        return complain(f"{args.input}: parsing failed: {e}")

    if not args.quiet:
        # Lexed tokens are never empty, so no two start at one offset.
        index_at = {t.start: i for i, t in enumerate(toks)}
        for report in result.reports:
            print(_format_report(report, src, toks, index_at[report.offset]))
        if args.print_tree and result.tree is not None:
            print(tree_text(result.tree, src), end="")

    if result.success:
        return 0 if result.stats.error_locations == 0 else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
