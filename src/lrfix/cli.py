"""Command-line front end: lex a file, parse it, report every error.

    lrfix [options] <lexer.l> <grammar.y> <input>

Exit status: 0 for a clean parse, 1 when errors were found but repaired
well enough to build a tree, 2 when parsing (or the invocation itself)
failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

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


def non_negative_int(text: str) -> int:
    """argparse type for ``--timeout``: a whole number of milliseconds."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def token_mismatch(lexspec: LexSpec, grammar: Grammar, lexer_name: str,
                   grammar_name: str) -> Optional[str]:
    """Why the lexer and grammar cannot work together, or None: a grammar
    token that no lexer rule produces, or a lexer token that the grammar
    does not declare (``parse`` would raise ``ValueError`` on it)."""
    produced = lexspec.token_names()
    missing = [t for t in grammar.tokens if t not in produced]
    if missing:
        return f"{lexer_name}: no rule produces token(s) {', '.join(sorted(missing))}"
    unknown = [t for t in produced if t not in grammar.tokens]
    if unknown:
        return (
            f"{lexer_name}: rules produce token(s) {', '.join(sorted(unknown))} "
            f"that {grammar_name} does not declare"
        )
    return None


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
        type=non_negative_int,
        default=500,
        metavar="MS",
        help="total error-recovery budget per file, in milliseconds (default: 500)",
    )
    ap.add_argument("--print-tree", action="store_true", help="print the parse tree")
    ap.add_argument(
        "--quiet", action="store_true", help="print nothing; communicate via exit status"
    )
    args = ap.parse_args(argv)

    def complain(msg: str) -> int:
        print(f"lrfix: {msg}", file=sys.stderr)
        return 2

    texts = []
    for path in (args.lexer, args.grammar, args.input):
        try:
            with open(path, encoding="utf-8") as f:
                texts.append(f.read())
        except OSError as e:
            return complain(str(e))
        except UnicodeDecodeError as e:
            return complain(f"{path}: not UTF-8: {e}")
    lex_text, grammar_text, src = texts

    try:
        lexspec = LexSpec.parse(lex_text)
    except LexSpecError as e:
        return complain(f"{args.lexer}: {e}")
    try:
        grammar = parse_grammar(grammar_text)
    except GrammarError as e:
        return complain(f"{args.grammar}: {e}")

    mismatch = token_mismatch(lexspec, grammar, args.lexer, args.grammar)
    if mismatch:
        return complain(mismatch)

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
