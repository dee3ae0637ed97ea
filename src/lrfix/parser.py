"""Driving the tables: LR parsing with pluggable error recovery.

One kernel, ``drive``, runs a list stack over the packed action/goto
arrays: it reduces and shifts over a run of token ids until accept, an
error cell or a stop position, and builds tree nodes only when given a
forest.  ``parse`` calls it once per error-free stretch and once to replay
each applied repair; the repair search calls it to rank candidates.
What happens at an error cell is delegated to a *recoverer*:

* ``"none"``  — report the error and stop;
* ``"panic"`` — pop states / skip tokens until the parse can resynchronize;
* ``"cpctplus"`` / ``"cpctplus-rev"`` — search for the complete set of
  minimum-cost repair sequences, report them all, and apply the
  best-ranked one so the parse can continue.

Any other name raises ``ValueError`` before a token is read, and so does
a token whose type is not a terminal of the grammar, or a token list that
does not end with exactly one end-of-input token.

All recoverers share one wall-clock budget per file: the time spent inside
recovery (not ordinary parsing) is accumulated, and once it exceeds
``RecoveryParams.timeout_s`` every later error fails fast.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .lexer import LineIndex, Token
from .lrtable import ACCEPT_CELL, ERROR_CELL, StateTable

# A reduce chain that runs this long without shifting comes from the
# grammar, not the input: a cyclic grammar, or a conflict resolved in favour
# of an empty rule that the next state asks for again.  Stop instead of
# spinning.
REDUCE_CHAIN_LIMIT = 100_000

RECOVERERS = ("cpctplus", "cpctplus-rev", "panic", "none")


class ParserInternalError(Exception):
    pass


class ReduceChainError(ParserInternalError):
    """``drive`` ran past ``REDUCE_CHAIN_LIMIT`` reductions under the token
    at index ``at`` without shifting it."""

    def __init__(self, at: int):
        super().__init__("reduce chain did not terminate")
        self.at = at


# ---------------------------------------------------------------------------
# Repairs.


@dataclass(frozen=True)
class Repair:
    """One edit in a repair sequence.

    ``kind`` is "insert", "delete" or "shift"; ``token`` is the token type
    being inserted, and None for the other kinds (they act on the next
    real token in the input).
    """

    kind: str
    token: Optional[str] = None

    def __str__(self) -> str:
        return f"Insert {self.token}" if self.kind == "insert" else self.kind.capitalize()


def render_repairs(seq: list[Repair], src: str, toks: list[Token], offset: int) -> str:
    """Human-readable form of one sequence, e.g. ``Insert +, Shift 3``.

    Insert shows the token type; Delete and Shift show the text of the
    input token they consume, walking forward from the error point.
    """
    parts = []
    i = offset
    for r in seq:
        if r.kind == "insert":
            parts.append(f"Insert {r.token}")
        elif r.kind == "delete":
            parts.append(f"Delete {toks[i].lexeme(src)}")
            i += 1
        else:
            parts.append(f"Shift {toks[i].lexeme(src)}")
            i += 1
    return ", ".join(parts)


@dataclass
class RecoveryParams:
    """Tuning knobs shared by the repair-searching recoverers."""

    n_shifts: int = 3          # trailing shifts that count as resynchronized
    n_try: int = 250           # tokens a candidate repair is test-parsed over
    timeout_s: float = 0.5     # total recovery budget per file
    insert_cost: Optional[Callable[[str], int]] = None  # per-token insert cost, an int >= 1

    def __post_init__(self) -> None:
        if self.n_shifts < 1:
            raise ValueError("n_shifts must be at least 1")
        if self.n_try < self.n_shifts:
            raise ValueError("n_try must be at least n_shifts")
        if not self.timeout_s >= 0:  # also catches NaN, which compares false
            raise ValueError(f"timeout_s must be a number >= 0, got {self.timeout_s!r}")

    def cost_of_insert(self, token: str) -> int:
        """The cost of inserting ``token``: 1 unless ``insert_cost`` is set.

        Raises ValueError, naming the token, when ``insert_cost`` returns
        anything but an int of at least 1: the search's cost buckets, and
        its rule that every edit costs at least 1, rely on it.
        """
        if self.insert_cost is None:
            return 1
        cost = self.insert_cost(token)
        if not isinstance(cost, int) or cost < 1:
            raise ValueError(f"insert_cost({token!r}) returned {cost!r}; it must be an int >= 1")
        return cost


@dataclass
class RecoveryReport:
    """What one error location produced."""

    offset: int
    line: int
    col: int
    recoverer: str
    success: bool
    sequences: list[list[Repair]] = field(default_factory=list)
    applied: Optional[list[Repair]] = None
    cost: Optional[int] = None
    skipped: int = 0     # input tokens discarded (panic)
    popped: int = 0      # stack entries discarded (panic)


@dataclass
class RunStats:
    error_locations: int = 0
    costs: list[int] = field(default_factory=list)
    skipped: int = 0           # tokens discarded by repairs or panic
    real_tokens: int = 0
    recovery_time_s: float = 0.0
    success: bool = True

    @property
    def tokens_skipped_pct(self) -> float:
        if self.real_tokens == 0:
            return 0.0
        return 100.0 * self.skipped / self.real_tokens


# ---------------------------------------------------------------------------
# Parse trees.


class Node:
    __slots__ = ("rule", "children")

    def __init__(self, rule: str, children: list):
        self.rule = rule
        self.children = children

    def __repr__(self) -> str:
        return f"Node({self.rule}, {len(self.children)} children)"


def tree_text(root: Union[Node, Token], src: str) -> str:
    """Indented one-node-per-line rendering of a parse tree.

    The walk keeps its own stack, as a tree can nest deeper than Python's
    recursion limit."""
    lines: list[str] = []
    todo = [(root, 0)]
    while todo:
        n, depth = todo.pop()
        pad = "  " * depth
        if isinstance(n, Node):
            lines.append(f"{pad}{n.rule}")
            todo.extend((c, depth + 1) for c in reversed(n.children))
        else:
            text = n.lexeme(src)
            suffix = " (inserted)" if n.inserted else f" {text}" if text != n.type else ""
            lines.append(f"{pad}{n.type}{suffix}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The driver kernel.


def drive(
    table: StateTable,
    stack: list[int],
    ids: list[int],
    idx: int,
    stop: int,
    forest: Optional[list] = None,
    leaves: Optional[list] = None,
) -> tuple[int, bool]:
    """Run ``stack`` (mutating it) over the token ids ``ids[idx:stop]``.

    Reduces and shifts until the next token meets an accept or error cell,
    or until ``stop`` is reached.  Returns the position reached and
    whether it accepted.  Given a ``forest``, each shift pushes
    ``leaves[i]`` for ``ids[i]`` and each reduce folds its handle into a
    ``Node``; without one, only the stack moves.
    """
    act, goto, arity, prule = table.act, table.goto, table.prod_arity, table.prod_rule
    productions = table.productions
    chain = 0
    while idx < stop:
        cell = act[stack[-1]][ids[idx]]
        low = cell & 3
        if low == 2:  # shift
            stack.append(cell >> 2)
            if forest is not None:
                forest.append(leaves[idx])
            idx += 1
            chain = 0
        elif low == 3:  # reduce
            p = cell >> 2
            n = arity[p]
            if forest is not None:
                cut = len(forest) - n
                children = forest[cut:]
                del forest[cut:]
                forest.append(Node(productions[p].lhs, children))
            if n:
                del stack[-n:]
            g = goto[stack[-1]][prule[p]]
            if g < 0:
                raise ParserInternalError(
                    f"no goto from state {stack[-1]} on {productions[p].lhs}"
                )
            stack.append(g)
            chain += 1
            if chain > REDUCE_CHAIN_LIMIT:
                raise ReduceChainError(idx)
        else:
            return idx, cell == ACCEPT_CELL
    return idx, False


# ---------------------------------------------------------------------------
# Single-step interface.


def lr_step(table: StateTable, stack: list[int], token: str):
    """Apply one action for ``token`` to ``stack`` (mutating it).

    Returns the action as a tuple: ("shift", s), ("reduce", p), ("accept",)
    or ("error",).  A reduce pops the handle and pushes the goto state; a
    shift pushes the target state.
    """
    cell = table.act[stack[-1]][table.token_index[token]]
    if cell == ERROR_CELL:
        return ("error",)
    if cell == ACCEPT_CELL:
        return ("accept",)
    arg = cell >> 2
    if cell & 3 == 2:
        stack.append(arg)
        return ("shift", arg)
    arity = table.prod_arity[arg]
    if arity:
        del stack[-arity:]
    stack.append(table.goto[stack[-1]][table.prod_rule[arg]])
    return ("reduce", arg)


# ---------------------------------------------------------------------------
# Panic recovery.


def panic_recover(table: StateTable, stack: list[int], tok_ids: list[int], offset: int):
    """Pop and skip until some stack suffix can act on some later token.

    For each remaining token in turn, scan the stack from the top down
    looking for a state with a non-error action on that token; if none
    exists, give up on the token and try the next one.  Returns the
    shortened stack and new offset, or None when even end-of-input cannot
    be acted on from any stack suffix.
    """
    act = table.act
    for j in range(offset, len(tok_ids)):
        t = tok_ids[j]
        for k in range(len(stack), 0, -1):
            if act[stack[k - 1]][t] != ERROR_CELL:
                return stack[:k], j
    return None


# ---------------------------------------------------------------------------
# The parser.


@dataclass
class ParseResult:
    tree: Optional[Union[Node, Token]]
    reports: list[RecoveryReport]
    stats: RunStats

    @property
    def success(self) -> bool:
        return self.stats.success


def parse(
    table: StateTable,
    toks: list[Token],
    src: str = "",
    recoverer: str = "cpctplus",
    params: Optional[RecoveryParams] = None,
) -> ParseResult:
    if recoverer not in RECOVERERS:
        raise ValueError(f"unknown recoverer {recoverer!r}")
    if params is None:
        params = RecoveryParams()
    try:
        tok_ids = [table.token_index[t.type] for t in toks]
    except KeyError as e:
        raise ValueError(f"token type {e.args[0]!r} is not a terminal of the grammar") from None
    if tok_ids.count(table.eof) != 1 or tok_ids[-1] != table.eof:
        raise ValueError(
            "the tokens must end with exactly one end-of-input token "
            f"{table.tokens[table.eof]!r}"
        )
    lines: Optional[LineIndex] = None   # built at the first error

    stack = [0]
    forest: list = []
    idx = 0
    reports: list[RecoveryReport] = []
    stats = RunStats(real_tokens=len(toks) - 1)

    while True:
        idx, accepted = drive(table, stack, tok_ids, idx, len(tok_ids), forest, toks)
        if accepted:
            tree = forest[-1] if forest else None
            return ParseResult(tree, reports, stats)
        stats.error_locations += 1
        if lines is None:
            lines = LineIndex(src)
        line, col = lines.line_col(toks[idx].start)
        budget = params.timeout_s - stats.recovery_time_s
        report = RecoveryReport(toks[idx].start, line, col, recoverer, False)
        reports.append(report)
        if recoverer == "none" or budget <= 0:
            break
        t0 = time.monotonic()
        if recoverer == "panic":
            found = panic_recover(table, stack, tok_ids, idx)
        else:
            from . import cpctplus  # late import: cpctplus imports Repair from here

            found = cpctplus.repair_search(
                table, stack, tok_ids, idx, params,
                rank_reversed=(recoverer == "cpctplus-rev"),
                budget_s=budget,
            )
        stats.recovery_time_s += time.monotonic() - t0
        if found is None:
            break
        report.success = True
        if recoverer == "panic":
            new_stack, new_idx = found
            report.skipped = new_idx - idx
            report.popped = len(stack) - len(new_stack)
            stats.skipped += report.skipped
            del forest[max(len(new_stack) - 1, 0) :]
            stack = new_stack
            idx = new_idx
            continue
        report.sequences = found.sequences
        report.applied = found.applied
        report.cost = found.cost
        stats.costs.append(found.cost)
        # Replay the applied sequence as one run: inserted and shifted
        # tokens go through the driver, deleted ones are stepped over.
        err_off = toks[idx].start
        leaves: list[Token] = []
        for r in found.applied:
            if r.kind == "insert":
                leaves.append(Token(r.token, err_off, err_off, inserted=True))
                continue
            if r.kind == "shift":
                leaves.append(toks[idx])
            else:
                stats.skipped += 1
            idx += 1
        run = [table.token_index[t.type] for t in leaves]
        if drive(table, stack, run, 0, len(run), forest, leaves)[0] != len(run):
            raise ParserInternalError(f"repair replay diverged from search at state {stack[-1]}")
    stats.success = False
    return ParseResult(None, reports, stats)
