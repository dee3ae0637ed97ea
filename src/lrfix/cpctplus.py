"""Minimum-cost repair search for LR parse errors.

Starting from the parser's stack at the point of failure, the search
explores sequences of three edits — insert a token, delete the next input
token, or shift it unchanged — looking for every cheapest way to get the
parse moving again.  Deletes cost 1, inserts cost 1 unless a per-token
insert cost (an int of at least 1) is given, shifts cost 0.  A branch
*succeeds* when its configuration either accepts or has just shifted
``n_shifts`` input tokens in a row: genuine repairs let real input flow
again, so demanding a run of shifts filters out edits that only thrash.

The frontier is kept in cost-ordered buckets (a Dijkstra-style queue on a
uniform cost grid).  Configurations that *compatible* paths reached —
same parser stack, same input position, same trailing shift run, same
just-deleted flag — are explored once: one table maps that compatibility
tuple to the cost and repair node of its first arrival.  A later arrival
at the same cost is grafted onto that node as a parent-pointer DAG, so
every sequence can still be reported even though only one configuration
is expanded; a success stays in the table, so a later arrival at it is
grafted too.  A later arrival at a higher cost is dropped: its future is
the first arrival's, so each of its completions costs more than one the
search already reaches, and none can be of minimum cost.  No arrival is
ever cheaper than the first, because the tuple fixes the cost of the
move that reaches it (a shift or the accept check is free, a delete
costs 1, and an insert costs what the token entering the top state
does), buckets drain in cost order, and a bucket's edits are built
before the next one drains.  Without merging each path is a
configuration of its own, so none arrives twice and no table is kept.

A popped configuration first gets only its zero-cost moves (shifts and
reductions), which stay in its bucket.  Every edit costs at least 1 and
lands in a costlier bucket, so a bucket's inserts and deletes are built
only once it drains without a success, in pop order; that fills the
costlier buckets exactly as building them at each pop would.  Once a
bucket holds a success, the rest of it is drained so the *complete* set
of minimum-cost sequences is collected, its edits are never built, and
everything costlier is dropped.  Inserts are only tried for the
terminals whose action on top of the stack is not an error
(``StateTable.live_terms``).
Success configurations are then ranked by how far ahead the input each
can parse (up to ``n_try`` tokens; reaching accept counts as the full
distance): the furthest-parsing ones survive.
``rank_reversed=True`` inverts that choice — keeping the worst - which
exists to measure how much the ranking itself buys.  The surviving
configurations are expanded from the repair DAG into their distinct
sequences, reported in canonical order, which depends only on the set:
sequences that insert an ``%avoid_insert`` token last, then integer
repair-code order.  The first is applied.  One deadline bounds the
search, the ranking and the expansion; once it passes, the search fails.

Three shift-move flavours are kept around because they make instructive
baselines (see ``shift_style``):

* 1 — one greedy move that shifts up to ``n_shifts`` tokens;
* 2 — greedy move, accept after reductions;
* 3 (default) — single-token shift, accept after reductions.

The search reduces only as ``parse()`` does when it replays a repair:
under a token on the way to shifting it, inserting it or accepting.  So
every sequence it reports replays.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .cactus import Cactus
from .lrtable import ACCEPT_CELL, StateTable
from .parser import (
    ParserInternalError, RecoveryParams, ReduceChainError, Repair, REDUCE_CHAIN_LIMIT, drive,
)

# Repair codes, kept as small ints in the hot path and numbered so that
# integer order is the canonical order (inserts by token, then delete,
# then shift): inserting token t is t itself, delete is the EOF index
# (EOF is never inserted), shift is one past it.
class _RepairNode:
    """One edge of the repair DAG: a repair code plus the path before it.

    ``merged`` collects the repair nodes of configurations that were folded
    into this one; expanding a node therefore yields its own sequence and
    every merged alternative.
    """

    __slots__ = ("repair", "parent", "merged")

    def __init__(self, repair: int, parent: Optional["_RepairNode"]):
        self.repair = repair
        self.parent = parent
        self.merged: Optional[list] = None

    def add_merged(self, other: "_RepairNode") -> None:
        if self.merged is None:
            self.merged = [other]
        else:
            self.merged.append(other)


@dataclass
class SearchOutcome:
    cost: int
    sequences: list[list[Repair]]   # canonical order; trailing shifts pruned
    applied: list[Repair]           # == sequences[0]
    success_configs: int            # distinct, before ranking (see RawSearch)
    merges: int                     # grafts before the search stopped (see RawSearch)


@dataclass
class RawSearch:
    """Pre-ranking view of a search: everything at minimum cost.

    ``success_configs`` counts the distinct minimum-cost success
    configurations; paths grafted onto a configuration reach none of their
    own.  ``merges`` counts the paths grafted onto the first arrival at the
    same configuration and cost, successes included, until the search
    stopped; costlier arrivals are dropped, not counted.  A bucket's edits
    are built only after it drains without a success, so the minimum-cost
    bucket's edits, and the merges they would make, never happen.
    """

    cost: int
    sequences: set[tuple[Repair, ...]]
    success_configs: int
    merges: int


class _Search:
    def __init__(
        self,
        table: StateTable,
        stack: list[int],
        tok_ids: list[int],
        offset: int,
        params: RecoveryParams,
        budget_s: Optional[float],
        shift_style: int,
        merge: bool,
    ):
        self.act = table.act
        self.goto = table.goto
        self.arity = table.prod_arity
        self.prule = table.prod_rule
        self.eof = table.eof
        self.shift_c = table.eof + 1
        self.tok_ids = tok_ids
        self.params = params
        if budget_s is None:
            budget_s = params.timeout_s
        elif math.isnan(budget_s):
            # monotonic() > NaN never holds, so the search would not stop.
            raise ValueError("budget_s must not be NaN")
        self.deadline = time.monotonic() + budget_s
        if type(shift_style) is not int or shift_style not in (1, 2, 3):
            raise ValueError(f"shift_style must be 1, 2 or 3, not {shift_style!r}")
        self.shift_style = shift_style
        self.merge = merge
        self.live_terms = table.live_terms
        # EOF is last and never inserted.
        self.insert_cost = [params.cost_of_insert(t) for t in table.tokens[: self.eof]]

        self.todo: list[list] = []  # per cost: (compatibility key, repair node), popped last first
        self.best: dict = {}  # compatibility key -> (cost, repair node) of its first arrival
        self.merges = 0
        self.c_max: Optional[int] = None
        node = Cactus()
        for s in stack:
            node = node.push(s)
        self._add(0, None, node, offset, 0, False)

    # -- shared LR micro-steps ------------------------------------------------

    def _reduce_to_action(self, stack: Cactus, t: int):
        """Reduce under lookahead ``t`` until the action is shift, accept or
        error; returns (stack, action cell).  The reduced stack is kept
        only if the cell shifts ``t`` or accepts, as the parser would."""
        act, goto, arity, prule = self.act, self.goto, self.arity, self.prule
        n = 0
        while True:
            cell = act[stack.value][t]
            if cell & 3 != 3:
                return stack, cell
            p = cell >> 2
            popped = stack.drop(arity[p])
            g = goto[popped.value][prule[p]]
            if g < 0:
                raise ParserInternalError("missing goto during repair search")
            stack = popped.push(g)
            n += 1
            if n > REDUCE_CHAIN_LIMIT:
                raise ParserInternalError("reduce chain did not terminate")

    # -- frontier maintenance ---------------------------------------------------

    def _add(self, cost: int, rm: Optional[_RepairNode], stack: Cactus, offset: int,
             tail: int, after_delete: bool) -> None:
        """Queue a configuration at ``cost`` on its first arrival; graft a
        later arrival at the same cost onto the first one's repair node, and
        drop one at a higher cost (none is ever lower: see the module
        docstring).  ``tail`` is the main path's trailing shift count,
        ``after_delete`` whether its last repair was a delete.  Without
        merging no path ever arrives again, so nothing is looked up."""
        key = (stack, offset, tail, after_delete)
        if self.merge:
            seen = self.best.get(key)
            if seen is not None:
                old = seen[1]
                if seen[0] == cost and old is not rm and old is not None and rm is not None:
                    old.add_merged(rm)
                    self.merges += 1
                return
            self.best[key] = (cost, rm)
        while len(self.todo) <= cost:
            self.todo.append([])
        self.todo[cost].append((key, rm))

    # -- neighbour generation -----------------------------------------------------

    def _zero_cost_moves(self, cost: int, rm: Optional[_RepairNode], stack: Cactus,
                         offset: int, tail: int, after_delete: bool) -> None:
        """Queue the moves that stay at ``cost``.  If reductions under the
        next token end on accept, styles 2 and 3 queue the reduced stack
        with ``rm`` itself: no other move hangs off ``rm``, as an accept
        cell has no shift and a bucket holding a success builds no edits.
        Otherwise style 3 shifts one token; styles 1 and 2 make one greedy
        move that shifts until n_shifts tokens went by or the parse stops."""
        tok_ids = self.tok_ids
        style = self.shift_style
        stack, cell = self._reduce_to_action(stack, tok_ids[offset])
        if cell == ACCEPT_CELL and style != 1:
            self._add(cost, rm, stack, offset, tail, after_delete)
        limit = 1 if style == 3 else self.params.n_shifts
        shifted = 0
        while cell & 3 == 2:
            stack = stack.push(cell >> 2)
            shifted += 1
            rm = _RepairNode(self.shift_c, rm)
            if shifted == limit:
                break
            reduced, cell = self._reduce_to_action(stack, tok_ids[offset + shifted])
            if cell & 3 == 2 or cell == ACCEPT_CELL:
                stack = reduced
        if shifted:
            self._add(cost, rm, stack, offset + shifted, tail + shifted, False)

    def _edit_moves(self, cost: int, rm: Optional[_RepairNode], stack: Cactus,
                    offset: int, after_delete: bool) -> None:
        """Queue the inserts and the delete, each at a higher cost.

        Inserts come in token declaration order, and only of the terminals
        with a non-error action on top of the stack.  An insert directly
        after a delete is suppressed: the same effect is always reachable
        as insert-then-delete, so exploring both just doubles the frontier.
        """
        add = self._add
        if not after_delete:
            insert_cost = self.insert_cost
            for t in self.live_terms[stack.value]:
                reduced, cell = self._reduce_to_action(stack, t)
                if cell & 3 == 2:
                    add(cost + insert_cost[t], _RepairNode(t, rm),
                        reduced.push(cell >> 2), offset, 0, False)
        # Delete the next real token (never end-of-input).
        if self.tok_ids[offset] != self.eof:
            add(cost + 1, _RepairNode(self.eof, rm), stack, offset + 1, 0, True)

    # -- main loop ------------------------------------------------------------------

    def run(self) -> Optional[list[tuple]]:
        """Search; returns the success configurations, each a (stack,
        offset, repair node) triple, or None when the search fails: no
        success was found, or the deadline passed."""
        act = self.act
        tok_ids = self.tok_ids
        n_shifts = self.params.n_shifts
        monotonic = time.monotonic
        successes = []
        cost = 0
        while cost < len(self.todo):
            bucket = self.todo[cost]
            expanded = []
            while bucket:
                if monotonic() > self.deadline:
                    return None
                (stack, offset, tail, after_delete), rm = bucket.pop()
                if act[stack.value][tok_ids[offset]] == ACCEPT_CELL or tail >= n_shifts:
                    # Successes are not expanded; one reached again is
                    # grafted onto ``rm`` like any other configuration.
                    successes.append((stack, offset, rm))
                    continue
                self._zero_cost_moves(cost, rm, stack, offset, tail, after_delete)
                expanded.append((rm, stack, offset, after_delete))
            if successes:
                self.c_max = cost
                self.todo.clear()  # the costlier buckets
                return successes
            # The bucket drained without a success, so its edits are
            # needed after all.  They land only in costlier buckets, so
            # building them now, in pop order, fills those buckets exactly
            # as building them at each pop would have.
            for rm, stack, offset, after_delete in expanded:
                if monotonic() > self.deadline:
                    return None
                self._edit_moves(cost, rm, stack, offset, after_delete)
            cost += 1
        return None

    def sequences(self, configs: list[tuple]) -> Optional[set[tuple[int, ...]]]:
        """The distinct non-empty sequences reaching ``configs`` (from
        ``run``), trailing shifts pruned; None once the deadline passes."""
        seqs: set[tuple[int, ...]] = set()
        for _, _, rm in configs:
            raws = _expand(rm, self.deadline)
            if raws is None:
                return None
            for raw in raws:
                end = len(raw)
                while end and raw[end - 1] == self.shift_c:
                    end -= 1
                if end:
                    seqs.add(raw[:end])
        return seqs


# ---------------------------------------------------------------------------
# Sequence extraction.


def _expand(rm, deadline: float) -> Optional[set[tuple[int, ...]]]:
    """All distinct repair sequences reaching a node, merged alternatives
    included; None once ``time.monotonic()`` passes ``deadline``."""
    memo: dict[int, set] = {}
    monotonic = time.monotonic

    def go(node) -> Optional[set[tuple[int, ...]]]:
        if node is None:
            return {()}
        got = memo.get(id(node))
        if got is not None:
            return got
        if monotonic() > deadline:
            return None
        memo[id(node)] = set()  # guards against cycles, which the cost grid rules out
        prefixes = go(node.parent)
        if prefixes is None:
            return None
        mine = {p + (node.repair,) for p in prefixes}
        if node.merged:
            for m in node.merged:
                alt = go(m)
                if alt is None:
                    return None
                mine |= alt
        memo[id(node)] = mine
        return mine

    return go(rm)


def _decode(table: StateTable, seq: tuple[int, ...]) -> tuple[Repair, ...]:
    return tuple(
        Repair("insert", table.tokens[c]) if c < table.eof
        else Repair("delete") if c == table.eof
        else Repair("shift")
        for c in seq
    )


# ---------------------------------------------------------------------------
# Ranking.


def _parse_distance(table: StateTable, stack: Cactus, offset: int, tok_ids: list[int],
                    n_try: int) -> int:
    """Input tokens the parser can shift from ``stack`` at ``offset``, up to
    ``n_try``; accept counts as all.  A reduce chain that never ends (a
    cyclic grammar) stops the parse at its token, as an error would: the
    repairs are found by then, and ranking only orders them."""
    try:
        off, accepted = drive(table, stack.as_list(), tok_ids, offset, offset + n_try)
    except ReduceChainError as e:
        off, accepted = e.at, False
    return n_try if accepted else off - offset


# ---------------------------------------------------------------------------
# Public entry points.


def repair_search(
    table: StateTable,
    stack: list[int],
    tok_ids: list[int],
    offset: int,
    params: Optional[RecoveryParams] = None,
    *,
    rank_reversed: bool = False,
    budget_s: Optional[float] = None,
    shift_style: int = 3,
    merge: bool = True,
) -> Optional[SearchOutcome]:
    """Full pipeline: search, rank, order, decode.  None means Fail."""
    params = params or RecoveryParams()
    search = _Search(table, stack, tok_ids, offset, params, budget_s, shift_style, merge)
    configs = search.run()
    if configs is None:
        return None
    # Keep the configurations that parse furthest ahead (or, reversed, the
    # least far).
    dists = []
    for stk, off, _ in configs:
        if time.monotonic() > search.deadline:
            return None
        dists.append(_parse_distance(table, stk, off, tok_ids, params.n_try))
    best = min(dists) if rank_reversed else max(dists)
    seqs = search.sequences([c for c, d in zip(configs, dists) if d == best])
    if not seqs:
        return None

    # Canonical order.  Insert codes only: a grammar built without
    # parse_grammar's checks could name EOF, whose index is the delete code.
    index, eof = table.token_index, table.eof
    avoid = {index[t] for t in table.grammar.avoid_insert if index.get(t, eof) < eof}
    ordered = sorted(seqs, key=lambda s: (any(c in avoid for c in s), s))
    sequences = [list(_decode(table, s)) for s in ordered]
    return SearchOutcome(search.c_max, sequences, sequences[0], len(configs), search.merges)


def min_repair_sequences(
    table: StateTable,
    stack: list[int],
    tok_ids: list[int],
    offset: int,
    params: Optional[RecoveryParams] = None,
    *,
    budget_s: Optional[float] = None,
    shift_style: int = 3,
    merge: bool = True,
) -> Optional[RawSearch]:
    """The complete pre-ranking set of minimum-cost repair sequences."""
    params = params or RecoveryParams()
    search = _Search(table, stack, tok_ids, offset, params, budget_s, shift_style, merge)
    configs = search.run()
    seqs = None if configs is None else search.sequences(configs)
    if seqs is None:
        return None
    return RawSearch(search.c_max, {_decode(table, s) for s in seqs}, len(configs), search.merges)


# ---------------------------------------------------------------------------
# Independent reference search.
#
# A deliberately plain breadth-first enumeration over explicit list stacks
# and repair tuples: no shared structure, no merging, no ranking.  It exists
# so the clever implementation above has something slow and obviously
# correct to be checked against.


def oracle_min_repairs(
    table: StateTable,
    stack: list[int],
    tok_ids: list[int],
    offset: int,
    *,
    n_shifts: int = 3,
    cost_bound: int = 12,
    insert_cost: Optional[list[int]] = None,
) -> Optional[tuple[int, set[tuple[Repair, ...]]]]:
    """The minimum cost up to ``cost_bound`` and every sequence of that
    cost, or None.  ``insert_cost[t]`` prices inserting terminal ``t``
    (default 1); a delete costs 1."""
    act, goto, arity, prule = table.act, table.goto, table.prod_arity, table.prod_rule
    eof = table.eof
    n_terms = len(table.tokens) - 1
    if insert_cost is None:
        insert_cost = [1] * n_terms

    def reduce_all(stk: tuple[int, ...], t: int):
        stk_l = list(stk)
        n = 0
        while True:
            cell = act[stk_l[-1]][t]
            if cell & 3 != 3:
                return stk_l, cell
            p = cell >> 2
            if arity[p]:
                del stk_l[-arity[p] :]
            g = goto[stk_l[-1]][prule[p]]
            if g < 0:
                raise ParserInternalError("missing goto in reference search")
            stk_l.append(g)
            n += 1
            if n > REDUCE_CHAIN_LIMIT:
                raise ParserInternalError("reduce chain did not terminate")

    start = (tuple(stack), offset, ())
    levels: list[list] = [[start]]
    seen = {start}

    def emit(cost: int, state) -> None:
        if state not in seen:
            seen.add(state)
            while len(levels) <= cost:
                levels.append([])
            levels[cost].append(state)

    successes: list[tuple] = []
    for cost in range(cost_bound + 1):
        if cost >= len(levels):
            break
        queue = deque(levels[cost])
        while queue:
            stk, off, reps = queue.popleft()
            if len(reps) >= n_shifts and all(r == "s" for r in reps[-n_shifts:]):
                successes.append(reps)
                continue
            # Reduce under the next token only to accept or shift it.
            reduced, cell = reduce_all(stk, tok_ids[off])
            if cell == ACCEPT_CELL:
                successes.append(reps)
                continue
            if not (reps and reps[-1] == "d"):
                for t in range(n_terms):
                    stk2, cell2 = reduce_all(stk, t)
                    if cell2 & 3 == 2:
                        stk2.append(cell2 >> 2)
                        emit(cost + insert_cost[t], (tuple(stk2), off, reps + (("i", t),)))
            if tok_ids[off] != eof:
                emit(cost + 1, (stk, off + 1, reps + ("d",)))
            if cell & 3 == 2:
                reduced.append(cell >> 2)
                nxt = (tuple(reduced), off + 1, reps + ("s",))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if successes:
            out: set[tuple[Repair, ...]] = set()
            for reps in successes:
                trimmed = list(reps)
                while trimmed and trimmed[-1] == "s":
                    trimmed.pop()
                if not trimmed:
                    continue
                out.add(
                    tuple(
                        Repair("delete") if r == "d"
                        else Repair("shift") if r == "s"
                        else Repair("insert", table.tokens[r[1]])
                        for r in trimmed
                    )
                )
            return cost, out
    return None
