"""Benchmarking recoverers over a corpus of broken files.

A clean corpus is generated, damaged with seeded token-level edits, and
run through three recovery strategies.  The harness times recovery only
(never lexing or table building), records per-run accounting, bootstraps
confidence intervals, and flags any recoverer that "succeeds" mostly by
deleting the input.
"""

import random

from lrfix import LexSpec, build_tables, parse_grammar
from lrfix.bench import (
    bootstrap,
    format_summary_table,
    mutate_corpus,
    run_corpus,
    write_csv,
)

GRAMMAR = parse_grammar(
    """
%start Prog
%%
Prog: | Prog Stmt;
Stmt: 'ID' '=' Rhs ';';
Rhs: 'ID' | 'NUM';
"""
)
TABLE = build_tables(GRAMMAR)

LEXER = LexSpec.parse(
    r"""
[0-9]+ 'NUM'
[A-Za-z_][A-Za-z0-9_]* 'ID'
= '='
; ';'
[ \t\n]+ ;
"""
)

# -- build a corpus: 80 clean files, then 2 random token edits each --------
rng = random.Random(42)
clean = []
for i in range(80):
    stmts = [
        f"{rng.choice('abcd')} = {rng.choice(['x', 'y', '3', '71'])} ;"
        for _ in range(rng.randrange(4, 12))
    ]
    clean.append((f"file{i:03}.txt", " ".join(stmts) + "\n"))
corpus = mutate_corpus(clean, LEXER, seed=7, edits_per_file=2)

summaries = []
for recoverer in ("cpctplus", "cpctplus-rev", "panic"):
    records, summary = run_corpus(
        corpus, TABLE, LEXER, recoverer=recoverer, repeats=3
    )
    summary.intervals = bootstrap(records, iterations=500, seed=0)
    summaries.append(summary)
    if recoverer == "cpctplus":
        write_csv(records, "/tmp/lrfix_bench.csv")

print(format_summary_table(summaries))
print()
print("per-run records written to /tmp/lrfix_bench.csv")
