"""LR parsing toolkit with minimum-cost syntax-error repair.

Pipeline: a Yacc-style grammar file and a lex-style token file are turned
into LR(1) tables (state-merged by default); the parser runs token streams
against them, and on a syntax error either resynchronizes crudely (panic)
or finds, ranks and applies minimum-cost repair sequences so that one run
reports every error in the file.
"""

from .grammar import EOF, Grammar, GrammarError, Production, parse_grammar, pretty
from .lexer import LexError, LexSpec, LexSpecError, LineIndex, Token
from .lrtable import StateGraph, StateTable, build_tables
from .parser import (
    Node,
    ParseResult,
    ParserInternalError,
    RecoveryParams,
    RecoveryReport,
    Repair,
    RunStats,
    lr_step,
    panic_recover,
    parse,
    render_repairs,
    tree_text,
)
from .cpctplus import (
    RawSearch,
    SearchOutcome,
    min_repair_sequences,
    oracle_min_repairs,
    repair_search,
)
# The benchmark harness is deliberately not imported here: use
# ``import lrfix.bench`` (or ``python -m lrfix.bench``) when you need it.

__version__ = "0.1.0"

__all__ = [
    "EOF",
    "Grammar",
    "GrammarError",
    "Production",
    "parse_grammar",
    "pretty",
    "LexError",
    "LexSpec",
    "LexSpecError",
    "LineIndex",
    "Token",
    "StateGraph",
    "StateTable",
    "build_tables",
    "Node",
    "ParseResult",
    "ParserInternalError",
    "RecoveryParams",
    "RecoveryReport",
    "Repair",
    "RunStats",
    "lr_step",
    "panic_recover",
    "parse",
    "render_repairs",
    "tree_text",
    "RawSearch",
    "SearchOutcome",
    "min_repair_sequences",
    "oracle_min_repairs",
    "repair_search",
    "__version__",
]
