"""Finding every cheapest way to fix a syntax error.

On an error the parser searches for complete repair sequences built from
three moves — insert a token, delete the next input token, or shift it
unchanged — each sequence costed by its inserts and deletes.  The search
returns the full set of minimum-cost sequences, ranks them by how much
further input they let the parser consume, and applies the best one.
"""

from lrfix import (
    LexSpec,
    RecoveryParams,
    build_tables,
    parse_grammar,
    parse,
    render_repairs,
)

CALC = """
%start Expr
%%
Expr: Term '+' Expr | Term;
Term: Factor '*' Term | Factor;
Factor: '(' Expr ')' | 'INT';
"""

LEX = r"""
[0-9]+ 'INT'
\+ '+'
\* '*'
\( '('
\) ')'
[ \t\n]+ ;
"""

table = build_tables(parse_grammar(CALC))
lexer = LexSpec.parse(LEX)


def show(src, **params):
    toks = lexer.lex(src)
    result = parse(table, toks, src, params=RecoveryParams(**params))
    print(f"input: {src!r}")
    for report in result.reports:
        print(f"  error at line {report.line} col {report.col}, "
              f"minimum cost {report.cost}:")
        off = next(i for i, t in enumerate(toks) if t.start == report.offset)
        for seq in report.sequences:
            mark = " (applied)" if seq == report.applied else ""
            print(f"    {render_repairs(seq, src, toks, off)}{mark}")
    print(f"  parse {'succeeded' if result.success else 'failed'}\n")


# A missing operand: one obvious fix.
show("2 +")

# A doubled operator: two equally cheap fixes that parse equally far.
# Canonical order lists the insert first, so it is the one applied.
show("2 + + 3")

# A missing operator: six distinct minimum-cost sequences, found together.
# They are listed in canonical order, which depends only on the set.
show("2 3 +")

# Costs are tunable: make INT expensive to insert and the minimum changes.
print("with insert-cost(INT) = 5:")
show("2 3 +", insert_cost=lambda tok: 5 if tok == "INT" else 1)

# Grammars can mark tokens that make poor guesses (%avoid_insert): such
# inserts still appear, but rank behind everything else and are never
# the repair that gets applied when an alternative exists.
avoid = CALC.replace("%start Expr", "%start Expr\n%avoid_insert 'INT'")
table = build_tables(parse_grammar(avoid))
print("with %avoid_insert 'INT':")
show("2 + + 3")
