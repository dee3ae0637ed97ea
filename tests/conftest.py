import functools
import pathlib
import sys

import pytest
from hypothesis import strategies as st

from lrfix import LexSpec, Repair, build_tables, parse_grammar
from lrfix.lexer import Token
from lrfix.lrtable import StateTable
from lrfix.parser import drive

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
INPUTS = FIXTURES / "inputs"
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# The tests replay repairs with the benchmark gate's checker, ``checks``.
# Appended, so that no module of the benchmark shadows an installed one.
sys.path.append(str(PERFBENCH))

I = lambda t: Repair("insert", t)
D = Repair("delete")
S = Repair("shift")

# The CLI's output on inputs/mini_java_bad.txt, and with --print-tree on
# inputs/calc_good.txt.
MJ_EXPECTED = (
    "Parsing error at line 2 col 9. Repair sequences found:\n"
    "  1: Insert ,\n"
    "  2: Insert =\n"
    "  3: Delete y\n"
)

CALC_TREE = (
    "Expr\n"
    "  Term\n"
    "    Factor\n"
    "      INT 2\n"
    "  +\n"
    "  Expr\n"
    "    Term\n"
    "      Factor\n"
    "        INT 3\n"
)


def source_of(stem: str, suffix: str) -> str:
    """A fixture's grammar (".y") or lexer (".l") file; the stem "clike"
    names the benchmark's C-like language."""
    folder = PERFBENCH if stem == "clike" else FIXTURES
    return (folder / f"{stem}{suffix}").read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def grammar_of(stem: str):
    return parse_grammar(source_of(stem, ".y"))


@functools.lru_cache(maxsize=None)
def lexspec_of(stem: str) -> LexSpec:
    return LexSpec.parse(source_of(stem, ".l"))


@functools.lru_cache(maxsize=None)
def table_of(stem: str, merge: bool = True) -> StateTable:
    return build_tables(grammar_of(stem), merge=merge)


def clike() -> tuple[StateTable, LexSpec]:
    """The benchmark's C-like language: its merged table and its lexer."""
    return table_of("clike"), lexspec_of("clike")


def toks_of(stem: str, text: str) -> list[Token]:
    return lexspec_of(stem).lex(text)


def synth_toks(table: StateTable, names: list[str]) -> list[Token]:
    """Token stream straight from type names, when no source text exists."""
    toks = [Token(n, i, i + 1) for i, n in enumerate(names)]
    toks.append(Token(table.tokens[-1], len(names), len(names)))
    return toks


def first_error(table: StateTable, tok_ids: list[int]):
    """Drive the raw tables to the first error; (stack, offset) or None."""
    stack = [0]
    idx, accepted = drive(table, stack, tok_ids, 0, len(tok_ids))
    return None if accepted else (stack, idx)


def err_point(stem: str, names: list[str]):
    """A fixture grammar's table driven over synthesized tokens to their
    first error: (table, stack, token ids, offset)."""
    t = table_of(stem)
    toks = synth_toks(t, names)
    ids = [t.token_index[x.type] for x in toks]
    stack, idx = first_error(t, ids)
    return t, stack, ids, idx


def agreement_dfs(tc, tm, alphabet, max_len):
    """Walk every viable prefix up to max_len, asserting both tables admit
    exactly the same continuations and the same acceptance at EOF."""

    def try_token(table, stack, tok):
        """Return "accept", the stack after shifting ``tok``, or None."""
        st = list(stack)
        idx, accepted = drive(table, st, [table.token_index[tok]], 0, 1)
        return "accept" if accepted else st if idx else None

    seen = 0

    def rec(sc, sm, depth):
        nonlocal seen
        seen += 1
        assert (try_token(tc, sc, "$") == "accept") == (
            try_token(tm, sm, "$") == "accept"
        )
        if depth == max_len:
            return
        for t in alphabet:
            nc = try_token(tc, sc, t)
            nm = try_token(tm, sm, t)
            assert (nc is None) == (nm is None)
            if nc is not None:
                rec(nc, nm, depth + 1)

    rec([0], [0], 0)
    return seen


@st.composite
def small_grammars(draw):
    """Up to 3 rules over up to 3 tokens, with epsilon alternatives and
    optional binding levels; returns the grammar and its tokens."""
    rules = ["A", "B", "C"][: draw(st.integers(1, 3))]
    toks = ["a", "b", "c"][: draw(st.integers(1, 3))]
    levels = {t: draw(st.sampled_from([None, "%left", "%right", "%nonassoc"])) for t in toks}
    lines = [f"%token {' '.join(toks)}"]
    for kind in ("%left", "%right", "%nonassoc"):
        named = [t for t in toks if levels[t] == kind]
        if named:
            lines.append(f"{kind} {' '.join(named)}")
    lines.append("%%")
    body = st.lists(st.sampled_from(rules + toks), max_size=3).map(" ".join)
    for r in rules:
        lines.append(f"{r}: {' | '.join(draw(st.lists(body, min_size=1, max_size=3)))};")
    return parse_grammar("\n".join(lines)), toks


@pytest.fixture(scope="session")
def calc():
    return table_of("calc")


@pytest.fixture(scope="session")
def calc_lex():
    return lexspec_of("calc")


@pytest.fixture(scope="session")
def stmt():
    return table_of("stmt")


@pytest.fixture(scope="session")
def stmt_lex():
    return lexspec_of("stmt")
