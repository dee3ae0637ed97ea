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
just-deleted flag — are explored once: those four fields are packed into
one int key, and one table maps it to the repair node of its first
arrival, whose cost the repair DAG records.  A later arrival at the same
cost is grafted onto that node, so every sequence can still be reported
even though only one configuration is expanded; a success stays in the
table, so a later arrival at it is grafted too.  A later arrival at a
higher cost is dropped: its future is the first arrival's, so each of its
completions costs more than one the search already reaches, and none can
be of minimum cost.  No arrival is ever cheaper than the first, because
the key fixes the cost of the move that reaches it (a shift or the accept
check is free, a delete costs 1, and an insert costs what the token
entering the top state does) and whether that move is dead (see below),
buckets drain in cost order, a bucket's live edits are built before the
next one drains, and its dead edits before the one after that drains.
Without merging each path is a configuration of its own, so none arrives
twice and no table is kept.

All search state is plain ints.  Stacks are hash-consed (Filliâtre &
Conchon, "Type-safe modular hash-consing", ML Workshop 2006), so equal
stacks get equal ints and compare without a walk.  The repair DAG lives
in int columns: a node is one repair code and the node of the path before
it, and every arrival that is queued or grafted gets a node of its own.

A popped configuration first gets only its zero-cost moves (shifts and
reductions), which stay in its bucket.  Every edit costs at least 1 and
lands in a costlier bucket, so a bucket's inserts and deletes are built
only once it drains without a success, in pop order; that fills the
costlier buckets exactly as building them at each pop would.  Even then
only its *live* edits are built.  An edit is dead when the next token
meets an error cell on its new top state: it can neither succeed nor
make a zero-cost move, and whether it is dead depends only on its key.
A bucket's dead edits wait until the next bucket has drained without a
success too; then they are built, what they add to that bucket is
drained, and only then are that bucket's own live edits built (partial
expansion: Yoshizumi, Miura & Ishida, "A* with Partial Expansion for
Large Branching Factor Problems", AAAI 2000).  So the bucket holding the
cheapest success never receives the dead edits of the one below, and the
frontier has run out only when no bucket and no waiting edits are left.
Once a bucket holds a success, the rest of it is drained so the
*complete* set of minimum-cost sequences is collected, its edits are
never built, and everything costlier is dropped.  Inserts are only tried
for the terminals whose action on top of the stack is not an error
(``StateTable.live_terms``), and one pass over those terminals, grouped
by their action, runs each reduction once for every terminal that needs
it.
Success configurations are then ranked by how far ahead the input each
can parse (up to ``n_try`` tokens; reaching accept counts as the full
distance): the furthest-parsing ones survive.
``rank_reversed=True`` inverts that choice — keeping the worst - which
exists to measure how much the ranking itself buys.  The surviving
configurations are expanded from the repair DAG into their distinct
sequences, reported in canonical order, which depends only on the set:
sequences that insert an ``%avoid_insert`` token last, then integer
repair-code order.  The first is applied.  One deadline bounds the
search, the ranking, the expansion and the decoding; once it passes, the
search fails.

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
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .lrtable import ACCEPT_CELL, ERROR_CELL, StateTable
from .parser import (
    ParserInternalError, RecoveryParams, ReduceChainError, Repair, REDUCE_CHAIN_LIMIT, drive,
)

# Repair codes, kept as small ints in the hot path and numbered so that
# integer order is the canonical order (inserts by token, then delete,
# then shift): inserting token t is t itself, delete is the EOF index
# (EOF is never inserted), shift is one past it.  Only the root node has
# the code NO_REPAIR: it stands for no repair at all.
NO_REPAIR = -1
ROOT = 0  # the repair node of the empty path


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
    are built only after it drains without a success, and its dead edits
    only after the next bucket does too, so neither the minimum-cost
    bucket's edits nor the dead edits of the bucket below it, nor the
    merges they would make, ever happen.
    """

    cost: int
    sequences: set[tuple[Repair, ...]]
    success_configs: int
    merges: int


class _OutOfTime(Exception):
    """The search's deadline passed."""


class _Search:
    """One search's state, all of it ints.

    *Stacks.*  A stack is a ref, ``node * n_states + top``: its top state
    and the node of the stack below it.  Node 0 is the empty stack, and
    ``below[node]`` is the ref of node ``node``'s stack; ``node_of`` maps
    that ref back.  A stack becomes a node only when something is pushed
    onto it, and a pop reads ``below``, so equal stacks always get equal
    refs.

    *Configurations.*  ``ref``, ``offset``, ``tail`` (the main path's
    trailing shift count) and ``after_delete`` (whether its last repair was
    a delete) pack into one int key.  ``best`` maps a key to the repair node
    of its first arrival; each cost bucket in ``todo`` is a flat list of
    ``key, node`` pairs.

    *Repair DAG.*  Node ``i`` has the code ``repair[i]``, the path before it
    ``parent[i]`` and its arrival's cost ``cost[i]``; node 0 is the empty
    path.  ``merged`` maps a node to the nodes of the paths grafted onto
    it, so expanding a node yields its own sequences and theirs.
    """

    def __init__(
        self,
        table: StateTable,
        stack: list[int],
        tok_ids: list[int],
        offset: int,
        params: Optional[RecoveryParams],
        budget_s: Optional[float],
        shift_style: int,
        merge: bool,
    ):
        params = params or RecoveryParams()
        self.table = table
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

        self.n_states = len(self.act)
        self.below = array("q", [-1])
        self.node_of: dict[int, int] = {}
        # Key layout, low bits first: after_delete, tail, offset, ref.  A
        # greedy move (styles 1 and 2) can leave a tail of up to
        # 2 * n_shifts - 1, and an offset never reaches len(tok_ids).
        self.off_shift = 1 + (2 * params.n_shifts).bit_length()
        self.ref_shift = self.off_shift + len(tok_ids).bit_length()
        self.tail_mask = (1 << self.off_shift - 1) - 1
        self.off_mask = (1 << self.ref_shift - self.off_shift) - 1

        self.repair = array("i", [NO_REPAIR])
        self.parent = array("i", [NO_REPAIR])
        self.cost = array("i", [0])
        self.merged: dict[int, list[int]] = {}
        self.merges = 0
        self.c_max: Optional[int] = None
        ref = stack[0]  # pushed onto node 0, the empty stack
        for s in stack[1:]:
            ref = self._push(ref, s)
        # The start configuration, on the root.  No arrival reaches it at cost
        # 0: a shift moves the offset on, and a reduce chain back to it would loop.
        key = ref << self.ref_shift | offset << self.off_shift
        self.best: dict[int, int] = {key: ROOT}  # key -> repair node of its first arrival
        self.todo: list[list[int]] = [[key, ROOT]]  # per cost: key, node pairs, popped last first

    # -- stacks -----------------------------------------------------------------------

    def _intern(self, ref: int) -> int:
        """The node of stack ``ref``, made on first use."""
        node = self.node_of.get(ref)
        if node is None:
            node = self.node_of[ref] = len(self.below)
            self.below.append(ref)
        return node

    def _push(self, ref: int, state: int) -> int:
        return self._intern(ref) * self.n_states + state

    def _reduce(self, ref: int, cell: int) -> int:
        """The stack after the reduce ``cell`` on ``ref``."""
        n, below = self.n_states, self.below
        p = cell >> 2
        for _ in range(self.arity[p]):
            ref = below[ref // n]
        g = self.goto[ref % n][self.prule[p]]
        if g < 0:
            raise ParserInternalError("missing goto during repair search")
        return self._push(ref, g)

    def stack_list(self, ref: int) -> list[int]:
        """The states of stack ``ref``, bottom first."""
        n, below = self.n_states, self.below
        out = []
        while True:
            node, top = divmod(ref, n)
            out.append(top)
            if not node:
                break
            ref = below[node]
        out.reverse()
        return out

    def _reduce_to_action(self, ref: int, t: int) -> tuple[int, int]:
        """Reduce under lookahead ``t`` until the action is shift, accept or
        error; returns (stack, action cell).  The reduced stack is kept
        only if the cell shifts ``t`` or accepts, as the parser would."""
        act, n = self.act, self.n_states
        chain = 0
        while True:
            cell = act[ref % n][t]
            if cell & 3 != 3:
                return ref, cell
            ref = self._reduce(ref, cell)
            chain += 1
            if chain > REDUCE_CHAIN_LIMIT:
                raise ParserInternalError("reduce chain did not terminate")

    def _inserts(self, ref: int) -> list[tuple[int, int]]:
        """(terminal, stack after inserting it) for each live terminal of
        ``ref``'s top state that some reductions let shift, in token order.

        One pass for all of them: the terminals are grouped by their action
        in the current top state, each distinct reduce runs once for its
        whole group, and the group carries on from the reduced stack."""
        act, n = self.act, self.n_states
        out = []
        work = [(ref, self.live_terms[ref % n], 0)]
        while work:
            ref, terms, chain = work.pop()
            row = act[ref % n]
            node = -1
            reduces: dict[int, list[int]] = {}
            for t in terms:
                cell = row[t]
                low = cell & 3
                if low == 2:
                    if node < 0:
                        node = self._intern(ref)
                    out.append((t, node * n + (cell >> 2)))
                elif low == 3:
                    group = reduces.get(cell)
                    if group is None:
                        reduces[cell] = [t]
                    else:
                        group.append(t)
            if reduces:
                chain += 1
                if chain > REDUCE_CHAIN_LIMIT:
                    raise ParserInternalError("reduce chain did not terminate")
                for cell, group in reduces.items():
                    work.append((self._reduce(ref, cell), group, chain))
        out.sort()
        return out

    # -- frontier maintenance ---------------------------------------------------

    def _add(self, cost: int, rm: int, code: int, ref: int, offset: int,
             tail: int, after_delete: bool) -> None:
        """An arrival at ``cost`` along repair node ``rm`` extended by
        ``code``.  The first arrival at its configuration gets a node and is
        queued; a later one at the same cost gets a node grafted onto the
        first one's, and one at a higher cost is dropped (none is ever
        lower: see the module docstring).  Without merging no path ever
        arrives again, so nothing is looked up."""
        key = ref << self.ref_shift | offset << self.off_shift | tail << 1 | after_delete
        if self.merge:
            old = self.best.get(key)
            if old is not None:
                if self.cost[old] == cost:
                    self.merged.setdefault(old, []).append(self._node(code, rm, cost))
                    self.merges += 1
                return
        rm = self._node(code, rm, cost)
        if self.merge:
            self.best[key] = rm
        todo = self.todo
        while len(todo) <= cost:
            todo.append([])
        bucket = todo[cost]
        bucket.append(key)
        bucket.append(rm)

    def _node(self, code: int, rm: int, cost: int) -> int:
        node = len(self.repair)
        self.repair.append(code)
        self.parent.append(rm)
        self.cost.append(cost)
        return node

    # -- neighbour generation -----------------------------------------------------

    def _zero_cost_moves(self, cost: int, rm: int, ref: int, offset: int, tail: int,
                         after_delete: bool) -> None:
        """Queue the moves that stay at ``cost``.  If reductions under the
        next token end on accept, styles 2 and 3 queue the reduced stack as
        a shift that consumes nothing: a trailing shift, which the reported
        sequences drop.  Otherwise style 3 shifts one token; styles 1 and 2
        make one greedy move that shifts until n_shifts tokens went by or
        the parse stops."""
        tok_ids = self.tok_ids
        style = self.shift_style
        ref, cell = self._reduce_to_action(ref, tok_ids[offset])
        if cell == ACCEPT_CELL and style != 1:
            self._add(cost, rm, self.shift_c, ref, offset, tail, after_delete)
        if cell & 3 != 2:
            return
        limit = 1 if style == 3 else self.params.n_shifts
        shifted = 0
        while cell & 3 == 2:
            ref = self._push(ref, cell >> 2)
            if shifted:  # another shift follows the last one, so it needs a node
                rm = self._node(self.shift_c, rm, cost)
            shifted += 1
            if shifted == limit:
                break
            reduced, cell = self._reduce_to_action(ref, tok_ids[offset + shifted])
            if cell & 3 == 2 or cell == ACCEPT_CELL:
                ref = reduced
        self._add(cost, rm, self.shift_c, ref, offset + shifted, tail + shifted, False)

    def _edit_moves(self, cost: int, rm: int, ref: int, offset: int,
                    after_delete: bool, dead: bool) -> None:
        """Queue the live inserts and delete, or with ``dead`` the others,
        each at a higher cost.  An edit is dead when the next token meets
        an error cell on its new top state: it can neither succeed nor make
        a zero-cost move, so it is only a step towards costlier edits.

        Inserts come in token declaration order, and only of the terminals
        with a non-error action on top of the stack.  An insert directly
        after a delete is suppressed: the same effect is always reachable
        as insert-then-delete, so exploring both just doubles the frontier.
        """
        add, act, n = self._add, self.act, self.n_states
        tok = self.tok_ids[offset]
        if not after_delete:
            insert_cost = self.insert_cost
            for t, inserted in self._inserts(ref):
                if (act[inserted % n][tok] == ERROR_CELL) == dead:
                    add(cost + insert_cost[t], rm, t, inserted, offset, 0, False)
        # Delete the next real token (never end-of-input).
        if tok != self.eof and (act[ref % n][self.tok_ids[offset + 1]] == ERROR_CELL) == dead:
            add(cost + 1, rm, self.eof, ref, offset + 1, 0, True)

    def _edits(self, cost: int, configs: list[int], dead: bool) -> None:
        """``_edit_moves`` for each ``key, node`` pair of ``configs``, all
        expanded at ``cost``, in order; raises _OutOfTime past the
        deadline."""
        ref_shift, off_shift, off_mask = self.ref_shift, self.off_shift, self.off_mask
        monotonic, deadline = time.monotonic, self.deadline
        for i in range(0, len(configs), 2):
            if monotonic() > deadline:
                raise _OutOfTime
            key = configs[i]
            self._edit_moves(cost, configs[i + 1], key >> ref_shift,
                             key >> off_shift & off_mask, key & 1, dead)

    # -- main loop ------------------------------------------------------------------

    def run(self) -> list[tuple[int, int, int]]:
        """Search; returns the success configurations, each a (stack,
        offset, repair node) triple, all of cost ``c_max``.  An empty list
        means the frontier ran out; past the deadline, raises _OutOfTime."""
        act, n = self.act, self.n_states
        tok_ids = self.tok_ids
        n_shifts = self.params.n_shifts
        ref_shift, off_shift = self.ref_shift, self.off_shift
        off_mask, tail_mask = self.off_mask, self.tail_mask
        monotonic = time.monotonic
        deadline = self.deadline
        successes = []
        pending: list[int] = []  # the bucket below's configurations, dead edits unbuilt
        todo = self.todo
        cost = 0
        while cost < len(todo) or pending:
            if cost == len(todo):
                todo.append([])
            bucket = todo[cost]
            expanded = []
            while True:
                while bucket:
                    if monotonic() > deadline:
                        raise _OutOfTime
                    rm = bucket.pop()
                    key = bucket.pop()
                    ref = key >> ref_shift
                    offset = key >> off_shift & off_mask
                    tail = key >> 1 & tail_mask
                    if act[ref % n][tok_ids[offset]] == ACCEPT_CELL or tail >= n_shifts:
                        # Successes are not expanded; one reached again is
                        # grafted onto ``rm`` like any other configuration.
                        successes.append((ref, offset, rm))
                        continue
                    self._zero_cost_moves(cost, rm, ref, offset, tail, key & 1)
                    expanded.append(key)
                    expanded.append(rm)
                if successes:
                    self.c_max = cost
                    todo.clear()  # the costlier buckets
                    return successes
                if not pending:
                    break
                # The bucket drained without a success, so the dead edits of
                # the one below are needed after all; drain what they add.
                self._edits(cost - 1, pending, True)
                pending = []
            # Its live edits land only in costlier buckets, so building them
            # now, in pop order, fills those buckets as building them at
            # each pop would have; its dead edits wait for the next bucket.
            self._edits(cost, expanded, False)
            pending = expanded
            cost += 1
        return []

    def sequences(self, configs: list[tuple[int, int, int]]) -> list[list[Repair]]:
        """The distinct non-empty sequences reaching ``configs`` (from
        ``run``), trailing shifts pruned, decoded in canonical order (see
        the module docstring); raises _OutOfTime past the deadline."""
        seqs: set[tuple[int, ...]] = set()
        rms = [rm for _, _, rm in configs]
        for raw in _expand(self.repair, self.parent, self.merged, rms, self.deadline):
            end = len(raw)
            while end and raw[end - 1] == self.shift_c:
                end -= 1
            if end:
                seqs.add(raw[:end])
        # Insert codes only: a grammar built without parse_grammar's checks
        # could name EOF, whose index is the delete code.
        index, eof = self.table.token_index, self.eof
        avoid = {index[t] for t in self.table.grammar.avoid_insert if index.get(t, eof) < eof}
        decoded = _decode(self.table, sorted(seqs, key=lambda s: (not avoid.isdisjoint(s), s)))
        if time.monotonic() > self.deadline:
            raise _OutOfTime
        return decoded


# ---------------------------------------------------------------------------
# Sequence extraction.


def _expand(repair, parent, merged: dict[int, list[int]], rms: list[int],
            deadline: float):
    """All distinct repair sequences reaching the nodes ``rms`` of the
    repair DAG in ``repair``, ``parent`` and ``merged`` (see ``_Search``),
    merged alternatives included; raises _OutOfTime past ``deadline``.

    A node without alternatives extends each of its parent's sequences by
    its own code, which keeps them distinct.  So a run of such nodes is
    climbed in one go, and only the root and the nodes with alternatives
    keep their sequences, as sets shared by the walks from all of ``rms``.
    A sequence's codes fix its path, so it reaches only one of ``rms``.
    The walk keeps its own stack: a path can be longer than Python's
    recursion limit."""
    memo: dict[int, object] = {ROOT: [()]}
    monotonic = time.monotonic

    def climb(node: int) -> tuple[int, tuple[int, ...]]:
        """The nearest node at or above ``node`` that is the root or has
        alternatives, and the codes on the way down from it."""
        codes = []
        while node != ROOT and node not in merged:
            codes.append(repair[node])
            node = parent[node]
        codes.reverse()
        return node, tuple(codes)

    tops = [climb(rm) for rm in rms]
    todo = [stop for stop, _ in tops]
    while todo:
        if monotonic() > deadline:
            raise _OutOfTime
        node = todo[-1]
        if node in memo:
            todo.pop()
            continue
        stop, codes = climb(parent[node])
        ways = [(stop, codes + (repair[node],))]
        ways += map(climb, merged[node])
        waiting = [stop for stop, _ in ways if stop not in memo]
        if waiting:
            todo += waiting
            continue
        memo[node] = {p + tail for top, tail in ways for p in memo[top]}
        todo.pop()
    return [p + codes for stop, codes in tops for p in memo[stop]]


def _decode(table: StateTable, seqs) -> list[list[Repair]]:
    """Each code sequence as a list of Repairs, sharing one frozen Repair
    per code."""
    tokens, eof = table.tokens, table.eof
    shared = {
        c: Repair("insert", tokens[c]) if c < eof
        else Repair("delete") if c == eof
        else Repair("shift")
        for c in set().union(*seqs)
    }
    return [list(map(shared.__getitem__, s)) for s in seqs]


# ---------------------------------------------------------------------------
# Ranking.


def _parse_distance(table: StateTable, stack: list[int], offset: int, tok_ids: list[int],
                    n_try: int) -> int:
    """Input tokens the parser can shift from ``stack`` (which it consumes)
    at ``offset``, up to ``n_try``; accept counts as all.  A reduce chain
    that never ends (a cyclic grammar) stops the parse at its token, as an
    error would: the repairs are found by then, and ranking only orders
    them."""
    try:
        off, accepted = drive(table, stack, tok_ids, offset, offset + n_try)
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
    search = _Search(table, stack, tok_ids, offset, params, budget_s, shift_style, merge)
    try:
        configs = search.run()
        # Keep the configurations that parse furthest (reversed: least far).
        dists = []
        for ref, off, _ in configs:
            if time.monotonic() > search.deadline:
                raise _OutOfTime
            dists.append(_parse_distance(table, search.stack_list(ref), off, tok_ids,
                                         search.params.n_try))
        best = min(dists, default=0) if rank_reversed else max(dists, default=0)
        sequences = search.sequences([c for c, d in zip(configs, dists) if d == best])
    except _OutOfTime:
        return None
    if not sequences:
        return None
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
    search = _Search(table, stack, tok_ids, offset, params, budget_s, shift_style, merge)
    try:
        configs = search.run()
        sequences = search.sequences(configs)
    except _OutOfTime:
        return None
    if not configs:  # the frontier ran out
        return None
    return RawSearch(search.c_max, set(map(tuple, sequences)), len(configs), search.merges)


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
